"""Convergence of transients to the periodic attractor.

One report path serves both systems.  A system supplies ``gap_norms(w,
w_orbit)``: the norms of the gaps between a stack of trajectory samples and
the orbit at the same times, one column entry per sample, including the
jump norm ``norm_jump`` and the stored membrane energy of the gap
``lyapunov`` (the quantity the scheme provably never increases).
``decay_metrics`` collects them one chunk of samples at a time, fits a
log-linear rate with an exponential/subexponential classification and adds
the largest mean defect of the states where the system has one (the
two-scale corrector mean).  ``lyapunov_series`` tracks the same energy
between two runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .membrane import SAMPLE_CHUNK, Trajectory
from .periodic import PeriodicOrbit

__all__ = [
    "DecayReport", "RateFit", "LyapunovSeries", "decay_metrics",
    "lyapunov_series", "fit_rate",
]

FIT_WINDOW = 0.4         # trailing share of a series that fit_rate fits
R2_EXPONENTIAL = 0.99    # r^2 from which a falling fit is exponential
LYAPUNOV_SLACK = 1e-10   # energy increase per sample taken as roundoff


@dataclass
class RateFit:
    rate: Optional[float]
    r_squared: Optional[float]
    classification: str  # exponential|subexponential|reached_floor|too_few_samples


@dataclass
class DecayReport:
    """Per-sample gap norms between a trajectory and the periodic orbit.

    ``columns`` maps each name that the system's ``gap_norms`` returns to
    its series, in that order.  ``fit_samples`` is the number of leading
    samples above the orbit's accuracy floor, the series whose trailing
    window the rate is fitted to.  ``max_mean_defect`` is the largest of
    the trajectory's ``mean_defects`` (the corrector mean defect of a
    two-scale run); None where the system has none.
    """

    ts: np.ndarray
    columns: dict
    fit: RateFit
    fit_samples: int
    lyapunov_monotone: bool
    max_mean_defect: Optional[float] = None

    def as_dict(self) -> dict:
        out = {
            "rate": self.fit.rate,
            "r_squared": self.fit.r_squared,
            "classification": self.fit.classification,
            "fit_samples": self.fit_samples,
            "lyapunov_monotone": self.lyapunov_monotone,
            "final_over_initial": _ratios(
                {k: v for k, v in self.columns.items()
                 if k.startswith("norm_")}),
        }
        if self.max_mean_defect is not None:
            out["max_mean_defect"] = self.max_mean_defect
        return out


def _ratios(norms: dict) -> dict:
    """Last over first sample of each norm series.  A series that starts at
    or below 1e-12 times the largest first sample is zero up to roundoff,
    so its ratio is noise and it gets None."""
    floor = 1e-12 * max(float(v[0]) for v in norms.values())
    return {k: float(v[-1] / v[0]) if v[0] > floor else None
            for k, v in norms.items()}


def decay_metrics(traj: Trajectory, orbit: PeriodicOrbit) -> DecayReport:
    """Gap norms between a trajectory and the periodic orbit, per sample.

    Both must live on the same grid and time step; the orbit is wrapped in
    time.  Each chunk of ``SAMPLE_CHUNK`` samples goes to one ``gap_norms``
    call with the orbit rows at the same steps.  The rate is fitted to
    ``norm_jump``, and ``lyapunov`` must not increase.  A gap within 100
    times the orbit's defect measures the orbit's error, not the decay: the
    fit ends before the first such sample, and with fewer than three
    samples left it reports ``reached_floor``.
    """
    system = traj.system
    dt = system.params.dt
    if abs(orbit.dt - dt) > 1e-15:
        raise ValueError("trajectory and orbit use different time steps")
    if orbit.jumps.shape[1] != traj.jumps.shape[1]:
        raise ValueError("trajectory and orbit use different grids")
    steps = traj.stride * np.arange(len(traj))
    chunks = [system.gap_norms(traj.jumps[lo:lo + SAMPLE_CHUNK],
                               orbit.jump_at_step(steps[lo:lo + SAMPLE_CHUNK]))
              for lo in range(0, len(traj), SAMPLE_CHUNK)]
    cols = {name: np.concatenate([c[name] for c in chunks])
            for name in chunks[0]}
    gaps = cols["norm_jump"]
    floored = np.flatnonzero(gaps <= 100.0 * orbit.defect)
    n_fit = int(floored[0]) if floored.size else gaps.size
    if floored.size and n_fit < 3:
        fit = RateFit(rate=None, r_squared=None,
                      classification="reached_floor")
    else:
        fit = fit_rate(gaps[:n_fit], dt=traj.stride * dt)
    monotone = bool(np.all(np.diff(cols["lyapunov"]) <= LYAPUNOV_SLACK))
    means = traj.mean_defects
    return DecayReport(ts=traj.ts.copy(), columns=cols, fit=fit,
                       fit_samples=n_fit, lyapunov_monotone=monotone,
                       max_mean_defect=None if means is None
                       else float(np.max(means)))


@dataclass
class LyapunovSeries:
    ts: np.ndarray
    values: np.ndarray
    monotone: bool
    max_increase: float


def lyapunov_series(traj_a: Trajectory,
                    traj_b: Trajectory) -> LyapunovSeries:
    """Weighted squared jump gap of two runs of the same discrete system.

    The scheme dissipates this quantity unconditionally, so an increase
    beyond ``LYAPUNOV_SLACK`` is flagged as a solver bug rather than a
    property of the data.
    """
    sys_a = traj_a.system
    if traj_a.jumps.shape != traj_b.jumps.shape or \
            not np.allclose(traj_a.ts, traj_b.ts):
        raise ValueError("trajectories are not sampled on the same grid")
    vals = sys_a.lyapunov(traj_a.jumps, traj_b.jumps)
    inc = np.diff(vals)
    max_inc = float(inc.max(initial=0.0))
    return LyapunovSeries(ts=traj_a.ts.copy(), values=vals,
                          monotone=bool(max_inc <= LYAPUNOV_SLACK),
                          max_increase=max_inc)


def fit_rate(series: np.ndarray, dt: float = 1.0) -> RateFit:
    """Least-squares slope of the log series over its trailing
    ``FIT_WINDOW``.

    The rate is per unit of ``dt``-scaled time.  The window holds at least
    three samples, since a line through two fits exactly.  A nonpositive
    value inside the window means the series reached its floor, and a
    series of fewer than three samples gets no fit; neither reports a rate.
    """
    series = np.asarray(series, dtype=float)
    if series.size < 3:
        return RateFit(rate=None, r_squared=None, classification="too_few_samples")
    m = max(3, int(np.ceil(FIT_WINDOW * series.size)))
    tail = series[-m:]
    if np.any(tail <= 0.0):
        return RateFit(rate=None, r_squared=None, classification="reached_floor")
    x = np.arange(tail.size) * dt
    y = np.log(tail)
    xm = x - x.mean()
    ym = y - y.mean()
    denom = float(np.sum(xm * xm))
    slope = float(np.sum(xm * ym) / denom)
    ss_res = float(np.sum((ym - slope * xm) ** 2))
    ss_tot = float(np.sum(ym * ym))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    cls = "exponential" if r2 >= R2_EXPONENTIAL and slope < 0.0 else "subexponential"
    return RateFit(rate=slope, r_squared=r2, classification=cls)
