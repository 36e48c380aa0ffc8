"""Time-periodic attractor computation via Poincare-map fixed points.

The boundary drive has period 1, so the map sending the membrane jump at
t=0 to the jump at t=1 is nonexpansive in the weighted jump norm (discrete
Lyapunov contraction) and strictly contracting for coercive laws.  Anderson
acceleration of the fixed-point iteration on that map (Walker & Ni, SIAM J.
Numer. Anal. 49, 2011), safeguarded by falling back to the damped Picard
step, yields the periodic orbit; for noncoercive laws the map contracts
weakly, and plain Picard needs many more periods.  When the law is odd and
the drive changes sign over half a period, the orbit does too, w(t + 1/2)
= -w(t), and the same loop iterates the half-period map Q(w) = -S(w)
instead, S running half a period: Q o Q is the period map, and each map
costs half the steps.  The regularized route adds a linear shift to the
law, finds the coercive orbits and lets the shift go to zero.  The energy
estimates of a resolved orbit are checked by
``micro.verify_energy_estimates``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FixedPointError
from .membrane import simulate, whole_steps
from .nonlinearity import PERIOD, regularize

# differences of past iterates and defects the Anderson mixing fits over
ANDERSON_DEPTH = 3

__all__ = [
    "PeriodicOrbit", "poincare_map", "find_periodic",
    "find_periodic_regularized", "orbit_distance",
]


@dataclass
class PeriodicOrbit:
    """One period of jump states on the time-step grid.

    ``jumps[n]`` is the jump at t = n dt, n = 0..N with N dt = 1; the defect
    is the weighted jump-norm gap between the two endpoints.  ``map`` names
    the map the solve iterated, ``"period"`` or ``"half_period"``, and
    ``iterations`` counts maps of that span.  A half-period orbit's rows
    N/2+1..N are the negated rows 1..N/2, so the step from row N/2 meets
    row N/2+1 only to within the defect.
    """

    jumps: np.ndarray
    dt: float
    defect: float
    iterations: int
    map: str = "period"

    @property
    def steps_per_period(self) -> int:
        return self.jumps.shape[0] - 1

    def jump_at_step(self, n: int) -> np.ndarray:
        return self.jumps[n % self.steps_per_period]


def poincare_map(system, w0: np.ndarray) -> np.ndarray:
    """Advance the jump vector through one full period of the drive."""
    return simulate(system, w0, PERIOD,
                    stride=whole_steps(PERIOD, system.params.dt)).jumps[-1]


def find_periodic(system, tol: float = 1e-8, max_iters: int = 500,
                  w0: Optional[np.ndarray] = None) -> PeriodicOrbit:
    """Anderson-accelerated fixed-point iteration on the period map, or on
    the half-period map of a half-wave antisymmetric orbit.

    The map M is the period map P, or Q(w) = -S(w), S running half a
    period, when the law is declared odd, the drive is antiperiodic and the
    period has an even number of steps.  Each iteration runs M's span at
    stride 1 from the iterate w and measures the defect |M(w) - w| in the
    weighted jump norm; the run that meets ``tol`` is the returned orbit
    (for Q, that half-period run followed by its negation).  Its endpoint
    gap is M's defect, so ``tol`` bounds |w_N - w_0| either way, and
    ``iterations`` counts maps of M's span.  The next iterate mixes M(w)
    with the last ``ANDERSON_DEPTH`` iterates (Walker & Ni, type II) by the
    coefficients that minimize the extrapolated defect in the same norm;
    ``theta`` is the mixing (damping) factor, 1 at the start, and with no
    history the step is the damped Picard step (1 - theta) w + theta M(w).
    A defect above the one before clears the history, so the next step is
    that Picard step, whose defect is no larger (both maps are
    nonexpansive).  The damping halves, at most once per 20 iterations,
    while the defect drops by less than 0.1% over the last 20, which can
    happen for laws whose slope degenerates along the way.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    half = (system.law.odd and system.drive.antiperiodic
            and whole_steps(PERIOD, system.params.dt) % 2 == 0)
    span, sign = (PERIOD / 2, -1.0) if half else (PERIOD, 1.0)
    root_w = np.sqrt(system.weights)
    w = np.zeros(system.weights.size) if w0 is None else w0.copy()
    theta = 1.0
    defects = []
    window_start = 0      # index of the defect that opens the stall window
    d_w, d_f = [], []     # differences of consecutive iterates and defects
    for it in range(max_iters):
        jumps = simulate(system, w, span).jumps
        f = sign * jumps[-1] - w
        defect = system.jump_norm(f)
        defects.append(defect)
        if defect <= tol:
            if half:      # the second half-period negates the first
                jumps = np.concatenate([jumps, -jumps[1:]])
            return PeriodicOrbit(jumps=jumps, dt=system.params.dt,
                                 defect=defect, iterations=it + 1,
                                 map="half_period" if half else "period")
        del jumps         # hold at most one map's span of jumps at a time
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

    Returns one orbit per shift, in the order of the shifts; consecutive
    orbit distances (period jump norm) shrink as the shift vanishes,
    certifying the limit passage numerically.  Shifts below 1e-6 are
    rejected to protect conditioning.
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
