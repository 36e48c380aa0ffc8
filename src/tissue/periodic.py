"""Time-periodic attractor computation via Poincare-map fixed points.

The boundary drive has period 1, so the map sending the membrane jump at
t=0 to the jump at t=1 is nonexpansive in the weighted jump norm (discrete
Lyapunov contraction) and strictly contracting for coercive laws.  Anderson
acceleration of the fixed-point iteration on that map (Walker & Ni, SIAM J.
Numer. Anal. 49, 2011), safeguarded by falling back to the damped Picard
step, yields the periodic orbit; for noncoercive laws the map contracts
weakly, and plain Picard needs many more periods.  The regularized route
adds a linear shift to the law, finds the coercive orbits and lets the
shift go to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FixedPointError
from .membrane import simulate
from .micro import MicroSystem, sigma_gradient_energy
from .nonlinearity import regularize

# differences of past iterates and defects the Anderson mixing fits over
ANDERSON_DEPTH = 3

__all__ = [
    "PeriodicOrbit", "poincare_map", "find_periodic",
    "find_periodic_regularized", "verify_energy_estimates", "orbit_distance",
]


@dataclass
class PeriodicOrbit:
    """One period of jump states on the time-step grid.

    ``jumps[n]`` is the jump at t = n dt, n = 0..N with N dt = 1; the defect
    is the weighted jump-norm gap between the two endpoints.
    """

    jumps: np.ndarray
    dt: float
    defect: float
    method: str
    iterations: int
    delta: Optional[float] = None

    @property
    def steps_per_period(self) -> int:
        return self.jumps.shape[0] - 1

    def jump_at_step(self, n: int) -> np.ndarray:
        return self.jumps[n % self.steps_per_period]


def poincare_map(system, w0: np.ndarray) -> np.ndarray:
    """Advance the jump vector through one full period of the drive."""
    steps = int(round(1.0 / system.params.dt))
    return simulate(system, w0, 1.0, stride=steps).jumps[-1]


def find_periodic(system, tol: float = 1e-8, max_iters: int = 500,
                  w0: Optional[np.ndarray] = None) -> PeriodicOrbit:
    """Anderson-accelerated fixed-point iteration on the period map.

    Each iteration runs one period at stride 1 from the iterate w and
    measures the defect |P(w) - w| in the weighted jump norm; the run that
    meets ``tol`` is the returned orbit.  The next iterate mixes P(w) with
    the last ``ANDERSON_DEPTH`` iterates (Walker & Ni, type II) by the
    coefficients that minimize the extrapolated defect in the same norm;
    ``theta`` is the mixing (damping) factor, 1 at the start, and with no
    history the step is the damped Picard step (1 - theta) w + theta P(w).
    A defect above the one before clears the history, so the next step is
    that Picard step, whose defect is no larger (the map is nonexpansive).
    The damping halves, at most once per 20 iterations, while the defect
    drops by less than 0.1% over the last 20, which can happen for laws
    whose slope degenerates along the way.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    root_w = np.sqrt(system.weights)
    w = np.zeros(system.weights.size) if w0 is None else w0.copy()
    theta = 1.0
    defects = []
    window_start = 0      # index of the defect that opens the stall window
    d_w, d_f = [], []     # differences of consecutive iterates and defects
    for it in range(max_iters):
        jumps = simulate(system, w, 1.0).jumps
        f = jumps[-1] - w
        defect = system.jump_norm(f)
        defects.append(defect)
        if defect <= tol:
            return PeriodicOrbit(jumps=jumps, dt=system.params.dt,
                                 defect=defect, method="picard",
                                 iterations=it + 1)
        del jumps         # hold at most one period of jumps at a time
        if it > 0:
            if defect > defects[-2]:
                d_w, d_f = [], []
            else:
                d_w = (d_w + [w - w_last])[-ANDERSON_DEPTH:]
                d_f = (d_f + [f - f_last])[-ANDERSON_DEPTH:]
        if it - window_start >= 20 and defects[-1] > 0.999 * defects[-21]:
            theta = max(theta / 2.0, 1.0 / 64.0)
            window_start = it
        w_last, f_last = w, f
        w = w + theta * f
        if d_f:
            df = np.stack(d_f, axis=1)
            gamma = np.linalg.lstsq(root_w[:, None] * df, root_w * f,
                                    rcond=None)[0]
            w -= (np.stack(d_w, axis=1) + theta * df) @ gamma
    raise FixedPointError(
        f"no periodic orbit within {max_iters} iterations "
        f"(last defect {defects[-1]:.3e})", defects=defects)


def find_periodic_regularized(system, deltas: Sequence[float] = (1e-1, 1e-2, 1e-3),
                              tol: float = 1e-8, max_iters: int = 500) -> list:
    """Periodic orbits of the shifted laws along a decreasing shift sequence.

    Returns one orbit per shift; consecutive orbit distances (period jump
    norm) shrink as the shift vanishes, certifying the limit passage
    numerically.  Shifts below 1e-6 are rejected to protect conditioning.
    """
    deltas = list(deltas)
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("shift sequence must be strictly decreasing")
    if any(d < 1e-6 for d in deltas):
        raise ValueError("shifts below 1e-6 are rejected (conditioning)")
    orbits = []
    w_start = None
    for d in deltas:
        shifted = system.with_law(regularize(system.law, d))
        orbit = find_periodic(shifted, tol=tol, max_iters=max_iters,
                              w0=w_start)
        orbit.method, orbit.delta = "delta_sequence", d
        orbits.append(orbit)
        w_start = orbit.jumps[0].copy()   # warm start the next, smaller shift
    return orbits


def orbit_distance(system, orbit_a: PeriodicOrbit,
                   orbit_b: PeriodicOrbit) -> float:
    """Period-integrated weighted jump-norm distance of two orbits."""
    if orbit_a.steps_per_period != orbit_b.steps_per_period:
        raise ValueError(
            f"orbits have {orbit_a.steps_per_period} and "
            f"{orbit_b.steps_per_period} steps per period")
    diff = orbit_a.jumps[:-1] - orbit_b.jumps[:-1]
    sq = np.sum(system.weights * diff * diff, axis=1)
    return float(np.sqrt(orbit_a.dt * np.sum(sq)))


def verify_energy_estimates(orbit: PeriodicOrbit, system: MicroSystem) -> dict:
    """Period-averaged energy bounds of the orbit against the data energy.

    Checks the two discrete estimates that control the orbit: the gradient
    plus weighted-jump energy against the data gradient energy plus the
    growth slack, and the jump-rate energy against the data plus its time
    derivative, with the growth constants of the law's certificate.  Margins
    should be nonnegative.
    """
    cert = system.law.certificate
    lam_q, lam_a = cert.growth_quad, cert.growth_abs
    dom = system.domain
    cond = system.cond
    drive = system.drive
    p = system.params
    dt = orbit.dt
    n = orbit.steps_per_period
    eps = dom.epsilon
    s = system.weights

    grad_u = 0.0
    jump_sq = 0.0
    rate_sq = 0.0
    data_grad = 0.0
    data_grad_rate = 0.0
    centers = dom.centers
    vol = dom.cell_volume
    sig_cells = np.where(dom.inside, cond.sigma_int, cond.sigma_out)
    for k in range(1, n + 1):
        t = k * dt
        w = orbit.jumps[k]
        u = system.bulk_at(t, w)
        bvals = drive.values(dom.boundary.midpoint, t)
        grad_u += dt * 0.5 * sigma_gradient_energy(dom, cond, u, w, bvals)
        jump_sq += dt * np.sum(s * w * w)
        dw = (orbit.jumps[k] - orbit.jumps[k - 1]) / dt
        rate_sq += dt * np.sum(s * dw * dw)
        g = drive.gradient(centers, t)
        data_grad += dt * 0.5 * vol * float(np.sum(sig_cells * np.sum(g * g, axis=1)))
        gr = drive.gradient_rate(centers, t)
        data_grad_rate += dt * 0.5 * vol * float(
            np.sum(sig_cells * np.sum(gr * gr, axis=1)))

    slack = eps / (2.0 * lam_q) * lam_a ** 2 * dom.memb_measure
    lhs_grad = grad_u + lam_q / (2.0 * eps) * jump_sq
    rhs_grad = data_grad + slack
    lhs_rate = p.alpha / (2.0 * eps) * rate_sq
    rhs_rate = data_grad_rate + data_grad + slack
    report = {
        "growth_quad": lam_q,
        "growth_abs": lam_a,
        "gradient_bound": {
            "lhs": lhs_grad, "rhs": rhs_grad,
            "margin": rhs_grad - lhs_grad,
            "passed": lhs_grad <= rhs_grad + 1e-12,
        },
        "rate_bound": {
            "lhs": lhs_rate, "rhs": rhs_rate,
            "margin": rhs_rate - lhs_rate,
            "passed": lhs_rate <= rhs_rate + 1e-12,
        },
    }
    report["passed"] = bool(report["gradient_bound"]["passed"]
                            and report["rate_bound"]["passed"])
    return report
