"""Convergence of transients to the periodic attractor.

Measures the bulk, gradient and jump norms of the gap between a trajectory
and the periodic orbit, the weighted jump energy of a pair of solutions (the
quantity the scheme provably never increases), and a log-linear rate fit
with an exponential/subexponential classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .membrane import Trajectory
from .micro import bulk_l2, gradient_l2, jump_l2, _secant_slopes
from .periodic import PeriodicOrbit

__all__ = [
    "DecayReport", "RateFit", "LyapunovSeries", "decay_metrics",
    "lyapunov_series", "fit_rate", "orbit_gaps",
]


@dataclass
class RateFit:
    rate: Optional[float]
    r_squared: Optional[float]
    classification: str        # exponential | subexponential | reached_floor


@dataclass
class DecayReport:
    ts: np.ndarray
    norm_l2: np.ndarray
    norm_grad: np.ndarray
    norm_jump: np.ndarray
    lyapunov: np.ndarray
    fit: RateFit
    lyapunov_monotone: bool
    secant_min: np.ndarray
    secant_max: np.ndarray

    def as_dict(self) -> dict:
        return {
            "rate": self.fit.rate,
            "r_squared": self.fit.r_squared,
            "classification": self.fit.classification,
            "lyapunov_monotone": self.lyapunov_monotone,
            "final_over_initial": {
                "norm_l2": _ratio(self.norm_l2),
                "norm_grad": _ratio(self.norm_grad),
                "norm_jump": _ratio(self.norm_jump),
            },
        }


def _ratio(series: np.ndarray) -> Optional[float]:
    if series[0] <= 0.0:
        return None
    return float(series[-1] / series[0])


def orbit_gaps(traj: Trajectory, orbit: PeriodicOrbit,
               norms: Callable[[np.ndarray, np.ndarray], dict]):
    """Per-sample norms of the gap between a trajectory and the orbit.

    Both must live on the same grid and time step; the orbit is wrapped in
    time.  ``norms(w, w_orbit)`` maps one sample's jumps to a dict of
    floats that includes ``norm_jump``, to which the decay rate is fitted,
    and ``lyapunov``, which must not increase.  Returns the columns (name to
    array), the rate fit and the monotonicity verdict.
    """
    dt = traj.system.params.dt
    if abs(orbit.dt - dt) > 1e-15:
        raise ValueError("trajectory and orbit use different time steps")
    if orbit.jumps.shape[1] != traj.jumps.shape[1]:
        raise ValueError("trajectory and orbit use different grids")
    rows = [norms(w, orbit.jump_at_step(int(round(t / dt))))
            for t, w in zip(traj.ts, traj.jumps)]
    cols = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    sample_dt = float(traj.ts[1] - traj.ts[0]) if len(rows) > 1 else dt
    fit = fit_rate(cols["norm_jump"], window=0.4, dt=sample_dt)
    monotone = bool(np.all(np.diff(cols["lyapunov"]) <= 1e-10))
    return cols, fit, monotone


def decay_metrics(traj: Trajectory, orbit: PeriodicOrbit) -> DecayReport:
    """Norm gap between a resolved trajectory and the periodic orbit.

    The bulk gap is reconstructed from the jump gap by one bulk solve (the
    drive cancels in the difference).
    """
    system = traj.system
    dom = system.domain
    eps = dom.epsilon
    alpha = system.params.alpha
    s = system.weights

    def norms(w, w_orb):
        r_w = w - w_orb
        r_u = system.op.lift(r_w)
        sec = _secant_slopes(system.law, w / eps, w_orb / eps)
        return {"norm_l2": bulk_l2(dom, r_u),
                "norm_grad": gradient_l2(dom, r_u, r_w, None),
                "norm_jump": jump_l2(dom, r_w),
                "lyapunov": alpha / eps * float(np.sum(s * r_w * r_w)),
                "secant_min": sec.min(initial=np.inf),
                "secant_max": sec.max(initial=-np.inf)}

    cols, fit, monotone = orbit_gaps(traj, orbit, norms)
    return DecayReport(ts=traj.ts.copy(), fit=fit,
                       lyapunov_monotone=monotone, **cols)


@dataclass
class LyapunovSeries:
    ts: np.ndarray
    values: np.ndarray
    monotone: bool
    max_increase: float


def lyapunov_series(traj_a: Trajectory, traj_b: Trajectory,
                    slack: float = 1e-10) -> LyapunovSeries:
    """Weighted squared jump gap of two runs of the same discrete system.

    The scheme dissipates this quantity unconditionally, so an increase
    beyond the slack is flagged as a solver bug rather than a property of
    the data.
    """
    sys_a = traj_a.system
    if traj_a.jumps.shape != traj_b.jumps.shape or \
            not np.allclose(traj_a.ts, traj_b.ts):
        raise ValueError("trajectories are not sampled on the same grid")
    vals = np.array([sys_a.lyapunov(a, b)
                     for a, b in zip(traj_a.jumps, traj_b.jumps)])
    inc = np.diff(vals)
    max_inc = float(inc.max(initial=0.0))
    return LyapunovSeries(ts=traj_a.ts.copy(), values=vals,
                          monotone=bool(max_inc <= slack),
                          max_increase=max_inc)


def fit_rate(series: np.ndarray, window: float = 0.4, dt: float = 1.0,
             r2_threshold: float = 0.99) -> RateFit:
    """Least-squares slope of the log series over the trailing window.

    The rate is per unit of ``dt``-scaled time.  A nonpositive value inside
    the window means the series reached its floor and no rate is reported.
    """
    series = np.asarray(series, dtype=float)
    m = max(2, int(np.ceil(window * series.size)))
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
    cls = "exponential" if r2 >= r2_threshold and slope < 0.0 else "subexponential"
    return RateFit(rate=slope, r_squared=r2, classification=cls)
