"""Backward-Euler driver for the membrane jump dynamics.

Both the resolved-microstructure solver and the two-scale solver reduce, at
every implicit time step, to the same structure: the bulk potential is a
quasi-static slave of the membrane jump vector, so after eliminating it the
step solves

    rate_coeff * (w - w_prev)/dt + f(w / arg_scale) = q(w, t)

per facet, with an affine flux response ``q`` whose weighted matrix is
symmetric negative semidefinite.  Backward Euler plus monotone ``f`` makes
every pass matrix symmetric positive definite, which is what gives the
discrete Lyapunov decrease its unconditional sign.

The stepper reaches the flux response only through the ``FluxMap``
protocol: a product with the response and a factorization of the response
plus a diagonal.  Two implementations:

- ``micro.SeriesFlux`` keeps it condensed in the sparse bulk operator (the
  resolved solver);
- ``twoscale.NodeFlux`` keeps it as one cell-sized block per macro node
  plus a correction of macro rank (the two-scale solver).

A step continues from the previous step's ``StepResult``: ``simulate``
hands it on, and from the block of its last ``PREDICTOR_ORDER`` accepted
jumps and their fluxes the step extrapolates a start and corrects it with
the capacitance diagonal, one flux product per correction and no solve.  A
step that cannot continue that way iterates with one factor frozen per
stepper (``JumpStepper``).  Its factors are never modified after they are
built, so one system can be stepped from several threads; the stepper
itself keeps no state between steps.

The time loop (``simulate``, ``step``), the trajectory record and the
decay report (``decay.decay_metrics``) are shared by both systems too; a
system supplies ``params``, ``stepper``, ``state_at`` and ``gap_norms``.
The stored membrane energy (``lyapunov``) and the weighted jump norm
(``jump_norm``) are the same for both and live on ``MembraneSystem``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional, Protocol

import numpy as np

from .errors import NewtonError
from .nonlinearity import Nonlinearity

_EPS = float(np.finfo(float).eps)

# a step starts at the polynomial extrapolation through the last K accepted
# jumps (degree K - 1, error O(dt^K)); K = 7 is the smallest order at which
# the chord passes per step stop falling on the built-in laws
PREDICTOR_ORDER = 7
# _PREDICTOR[m] @ [w_n, ..., w_n+1-m] = sum_j (-1)^(j+1) C(m, j) w_n+1-j
_PREDICTOR = [None] + [
    np.array([(-1.0) ** (j + 1) * comb(m, j) for j in range(1, m + 1)])
    for m in range(1, PREDICTOR_ORDER + 1)]


def extrapolate(held) -> np.ndarray:
    """The next value of the polynomial of degree m - 1 through the m rows
    of ``held`` (newest first, each of any shape), taken at equal steps."""
    held = np.asarray(held)
    m = len(held)
    return np.dot(_PREDICTOR[m], held.reshape(m, -1)).reshape(held.shape[1:])


@dataclass(frozen=True)
class SolverParams:
    """Time step, capacitance constant and iteration tolerances."""

    alpha: float = 1.0
    dt: float = 1e-3
    newton_tol: float = 1e-13
    # corrections, and passes of the factor path, per step
    newton_max_iter: int = 30

    def __post_init__(self):
        if self.alpha <= 0 or self.dt <= 0:
            raise ValueError("alpha and dt must be positive")
        if self.newton_tol <= 0:
            raise ValueError("the tolerance must be positive")


class FluxMap(Protocol):
    """Affine membrane flux map after bulk elimination.

    In facet-weighted form:  diag(weights) q(w, t) = drive(t) * load - R w
    with a symmetric positive semidefinite response R.  ``apply(w)`` is
    R w; ``factor(d)`` factors diag(d) + R for a positive ``d``, and its
    ``solve(r)`` returns x with (diag(d) + R) x = r.
    """

    weights: np.ndarray
    load: np.ndarray

    def apply(self, w: np.ndarray) -> np.ndarray: ...

    def factor(self, d: np.ndarray): ...


@dataclass
class StepResult:
    """Accepted jump of one step; ``balance`` is the energy-balance defect
    |R(w)·w| of the weighted step residual R tested with that jump, and
    ``factorizations`` counts the factors of the pass matrix built during
    the step.  ``history`` holds the residual of each correction and pass
    of the step, the accepted one last: ``iterations`` is its length and
    ``residual`` its last entry.  ``flux`` is R jump, the product with the
    response that the acceptance test computed, and ``law_values`` is
    f(jump/eps).  ``block`` holds the accepted jumps with their fluxes,
    newest first, as one (m, 2, n) array of at most ``PREDICTOR_ORDER``
    rows (jump, flux): ``jump`` and ``flux`` are views of its row 0, and
    the flux of the initial jump, which no step accepted, is NaN.  The next
    step extrapolates from it; no step writes to it.  ``contraction`` is
    the residual ratio of the last diagonal correction, carried from step
    to step (None before the first)."""

    jump: np.ndarray
    iterations: int
    residual: float
    balance: float
    factorizations: int = 0
    history: list = field(default_factory=list)
    flux: Optional[np.ndarray] = None
    law_values: Optional[np.ndarray] = None
    block: Optional[np.ndarray] = None
    contraction: Optional[float] = None
    # a step makes one attempt, so no step is a retry; the benchmark's
    # tracer (benchmark/tracing.py) still reads this flag, so it stays, as
    # a constant, until the benchmark drops it
    used_shift = False


class JumpStepper:
    """Advances the jump vector by one implicit step of length ``params.dt``.

    With a = rate_coeff/dt, eps = arg_scale and W = diag(weights), the step
    solves G(w) = W (a (w - w_prev) + f(w/eps)) + R w - drive load = 0.  It
    works with G per unit weight, g = a (w - w_prev) + f(w/eps) + W^-1 R w
    - drive W^-1 load, whose last term is formed once per step.

    A step that continues a result starts from the extrapolation through
    the m = min(K, held) last accepted jumps,
    w0 = sum_j=1..m (-1)^(j+1) C(m, j) w_n+1-j with K = ``PREDICTOR_ORDER``,
    whose error is O(dt^m) against the O(dt) of w_n.  R is linear, so the
    same product with the result's block of held jumps and fluxes gives
    R w0 exactly, and G(w0) costs no product with R.  The step then
    corrects with the capacitance diagonal,

        w <- w - g(w) / (a + c/eps),

    and each correction's product R w gives the next true residual; the
    start itself is never accepted.  c is the law's slope at zero when its
    declared ``slope_max`` keeps |f' - f'(0)| within (a eps + f'(0))/2, and
    f'(w/eps) per facet otherwise.  R is small against the capacitance
    diagonal at small dt (a correction shrinks the residual by about 8 dt
    on the default set-ups), so a smooth step takes one correction.

    Two corrections cost what the cheapest factor-path step does (a pass
    solve and the acceptance product), so with r the residual, rho the
    residual ratio of the last correction and tol the step tolerance, the
    step stops correcting when r rho^2 > tol, and skips the corrector when
    that holds at the start for the ratio carried from the run's last
    correction (``StepResult.contraction``).  It then falls back to the
    factor path, as it does when the start or R w0 is not finite (the flux
    of the initial jump is NaN: the first ``PREDICTOR_ORDER`` steps of a
    run) and after ``newton_max_iter`` corrections.  The factor path starts
    from the same extrapolation, or from w_n where the law is not finite
    there, and each of its passes solves, for a slope c,

        (diag(weights (a + c/eps)) + R) w+
            = weights (a w_prev + c w/eps - f(w/eps)) + drive load,

    whose fixed point is the step's solution for any c.  The residual at
    w+ is weights (f(w+/eps) - f(w/eps) - c (w+ - w)/eps), so a pass needs
    no product with R.  By default c is the law's slope at zero and the
    factor is frozen: built once, on the run's first pass (the chord or
    simplified Newton method).  A pass takes c = f'(w/eps) and a fresh
    factor instead, as Newton does, with backtracking on the max-norm
    residual, when the frozen factor would contract by less than a half,
    max |f'(w/eps) - c| > (alpha/dt + c)/2.  After a chord pass with
    residual ratio rho, every later pass of the step is a Newton pass when
    rho >= 1 or r rho^left > tol, with ``left`` the passes of the
    ``newton_max_iter`` budget not yet taken: the budget form of the
    corrector's r rho^2 rule.  The factor path is the step's one attempt;
    a step that it does not converge within ``newton_max_iter`` passes
    raises ``NewtonError``.  A linear law converges in one pass.  Either
    path accepts on the true residual at the tolerance of the step from
    w_n.
    """

    def __init__(self, flux: FluxMap, law: Nonlinearity,
                 temporal: Callable[[float], float], rate_coeff: float,
                 arg_scale: float, params: SolverParams):
        self.flux = flux
        self.law = law
        self.temporal = temporal
        self.rate_coeff = rate_coeff
        self.arg_scale = arg_scale
        self.params = params
        self._a = rate_coeff / params.dt
        self._slope = float(law.deriv(0.0))
        # a law without a shift is evaluated without its shift wrapper,
        # which keeps the bits and saves a call per evaluation
        self._f, self._df = (law, law.deriv) if law.shift \
            else (law.base, law.base_deriv)
        # the corrector takes f'(0) when sup f' keeps |f' - f'(0)|, at most
        # max(sup f' - f'(0), f'(0)) as f' >= 0, within (a eps + f'(0))/2,
        # and f'(w/eps) per facet (None) otherwise
        top = law.certificate.slope_max
        a_eps = self._a * arg_scale
        self._corrector_slope = self._slope if top is not None and max(
            top - self._slope, self._slope) <= 0.5 * (a_eps + self._slope) \
            else None
        self._inv_weights = 1.0 / flux.weights
        self._load_w = flux.load * self._inv_weights
        self._load_scale = float(np.max(np.abs(self._load_w), initial=0.0))
        # built on first use: a factor is as costly as the system set-up
        self._frozen = None

    def _arg(self, w: np.ndarray) -> np.ndarray:
        """The law's argument w / eps; no division at eps = 1."""
        return w if self.arg_scale == 1.0 else w / self.arg_scale

    def _residual(self, w: np.ndarray, w_prev: np.ndarray, f_w: np.ndarray,
                  flux_w: np.ndarray, load_t: np.ndarray) -> np.ndarray:
        """The step residual per unit weight at w, given the law values
        f_w = f(w/eps), the flux flux_w = R w and the step's drive load per
        unit weight ``load_t``.  The rate term is a (w - w_prev), not
        a w - a w_prev, whose roundoff of about eps a |w| is close to the
        tolerance floor."""
        g = w - w_prev
        g *= self._a
        g += f_w
        g += flux_w * self._inv_weights
        g -= load_t
        return g

    def _tolerance(self, w_prev: np.ndarray, f_max: float,
                   drive: float) -> float:
        # reference: flux/data scale, not the (much larger) Jacobian scale;
        # the floor term covers roundoff of the rate term at that scale
        scale = max(1.0, abs(drive) * self._load_scale, f_max)
        floor = 10.0 * _EPS * self.rate_coeff / self.params.dt \
            * max(1.0, float(np.abs(w_prev).max(initial=0.0)))
        return self.params.newton_tol * scale + floor

    def step(self, t_next: float, w_prev: np.ndarray | StepResult,
             dt: float) -> StepResult:
        # the step length is params.dt; the argument stays because the
        # benchmark's tracer (benchmark/tracing.py) wraps this signature
        if dt != self.params.dt:
            raise ValueError(f"the stepper steps at dt = {self.params.dt}, "
                             f"not {dt}")
        f_prev = rho = None
        if isinstance(w_prev, StepResult):
            held, f_prev, rho = w_prev.block, w_prev.law_values, \
                w_prev.contraction
            w_prev = w_prev.jump
        else:
            # the initial jump: no step accepted it, so its flux is unknown
            held = np.stack([w_prev, np.full(w_prev.shape, np.nan)])[None]
        drive = self.temporal(t_next)
        start, done, history = None, None, []
        if len(held) > 1:
            start, r_start = extrapolate(held)
            done, rho = self._correct(start, r_start, w_prev, f_prev, rho,
                                      drive, history)
        if done is None:
            tried = len(history)
            done = self._iterate(w_prev, drive, start, history)
            if done is None:
                # the failed corrections are not the factor path's
                raise NewtonError("implicit step failed to converge in "
                                  f"{len(history) - tried} passes of the "
                                  "factor path", residuals=history[tried:])
        w, f_w, flux_w, g, built = done
        # a new block, so that a step never writes to the one it continues
        block = np.empty((min(len(held) + 1, PREDICTOR_ORDER),)
                         + held.shape[1:])
        block[0, 0], block[0, 1] = w, flux_w
        block[1:] = held[:len(block) - 1]
        return StepResult(jump=block[0, 0], iterations=len(history),
                          residual=history[-1],
                          balance=abs(float(np.dot(self.flux.weights * g, w))),
                          factorizations=built, history=history,
                          flux=block[0, 1], law_values=f_w, block=block,
                          contraction=rho)

    def _correct(self, start: np.ndarray, r_start: np.ndarray,
                 w_prev: np.ndarray, f_prev: np.ndarray,
                 rho: Optional[float], drive: float,
                 history: list) -> tuple[Optional[tuple], Optional[float]]:
        """The step corrected with the capacitance diagonal from ``start``,
        whose flux is ``r_start``: the accepted (w, f(w/eps), R w, g, 0)
        (None if it must fall back) and the residual ratio of the last
        correction (``rho``, the carried ratio, if it made none).  Each
        correction's residual is appended to ``history``."""
        fl, f, df, eps, a = self.flux, self._f, self._df, self.arg_scale, \
            self._a
        load_t = drive * self._load_w
        w = start
        s = self._arg(w)
        g = self._residual(w, w_prev, f(s), r_start, load_t)
        rnorm = float(np.abs(g).max(initial=0.0))
        if not math.isfinite(rnorm):        # a start that is not finite
            return None, rho
        tol = self._tolerance(w_prev, float(np.abs(f_prev).max(initial=0.0)),
                              drive)
        # two corrections cost what the cheapest factor-path step does, a
        # pass solve and the acceptance product: skip or stop correcting
        # when the residual ratio predicts that two would not reach tol
        if rho is not None and rnorm * rho * rho > tol:
            return None, rho
        c = self._corrector_slope
        for _ in range(self.params.newton_max_iter):
            w = w - g / (a + (df(s) if c is None else c) / eps)
            s = self._arg(w)
            f_w = f(s)
            flux_w = fl.apply(w)
            g = self._residual(w, w_prev, f_w, flux_w, load_t)
            last, rnorm = rnorm, float(np.abs(g).max(initial=0.0))
            rho = rnorm / last if last else 0.0
            history.append(rnorm)
            if rnorm <= tol:
                return (w, f_w, flux_w, g, 0), rho
            if not rnorm * rho * rho <= tol:
                break
        return None, rho

    def _iterate(self, w_prev: np.ndarray, drive: float,
                 start: Optional[np.ndarray], history: list
                 ) -> Optional[tuple]:
        """The step by the factor path: the converged (w, f(w/eps), R w, g,
        factors built), or None if it failed.  Each pass's residual is
        appended to ``history``.  The first pass starts from ``start`` when
        given and the law is finite there, and from w_prev otherwise."""
        fl, f, df, eps, a = self.flux, self._f, self._df, self.arg_scale, \
            self._a
        c0 = self._slope
        max_iter = self.params.newton_max_iter
        load_t = drive * self._load_w
        w, s = w_prev, self._arg(w_prev)
        f_w = f(s)
        f_max = float(np.abs(f_w).max(initial=0.0))
        if not np.isfinite(f_max):
            # no pass can converge, and an infinite tolerance would accept
            # any finite residual: fail the attempt on its starting residual
            g = self._residual(w, w_prev, f_w, fl.apply(w), load_t)
            history.append(float(np.abs(g).max()))
            return None
        tol = self._tolerance(w_prev, f_max, drive)
        rhs = fl.weights * a * w_prev + drive * fl.load
        if start is not None:
            s_start = self._arg(start)
            f_start = f(s_start)
            if np.isfinite(f_start).all():
                w, s, f_w = start, s_start, f_start
        g = None                # residual per unit weight at w, once known
        rnorm = np.inf
        built = 0
        handover = False        # a chord too slow for the budget: Newton on
        for taken in range(1, max_iter + 1):
            slope = df(s)
            fresh = handover or float(np.abs(slope - c0).max(initial=0.0)) \
                > 0.5 * (a * eps + c0)
            c = slope if fresh else c0
            try:
                factor = None if fresh else self._frozen
                if factor is None:
                    factor = fl.factor(fl.weights * (a + c / eps))
                    built += 1
                    if not fresh:
                        self._frozen = factor
                w_full = factor.solve(rhs + fl.weights * (c * s - f_w))
            except np.linalg.LinAlgError:
                break
            # a Newton pass backtracks, which keeps the overshoot of strongly
            # convex laws in check; G(w + l d) = (1 - l) G(w) + the law terms
            if fresh and g is None:
                g = self._residual(w, w_prev, f_w, fl.apply(w), load_t)
                rnorm = float(np.abs(g).max(initial=0.0))
            step_len = 1.0
            for _ in range(8 if fresh else 1):
                w_try = w_full if step_len == 1.0 \
                    else w + step_len * (w_full - w)
                s_try = self._arg(w_try)
                f_try = f(s_try)
                g_try = f_try - f_w - c * (s_try - s)
                if step_len < 1.0:
                    g_try += (1.0 - step_len) * g
                rnorm_try = float(np.abs(g_try).max(initial=0.0))
                if rnorm_try < rnorm or rnorm_try <= tol:
                    break
                step_len *= 0.5
            last = rnorm
            w, s, f_w, g, rnorm = w_try, s_try, f_try, g_try, rnorm_try
            history.append(rnorm)
            if rnorm <= tol:
                # the estimate leaves out the solve's roundoff: accept on the
                # residual itself, or iterate on from it
                flux_w = fl.apply(w)
                g = self._residual(w, w_prev, f_w, flux_w, load_t)
                rnorm = history[-1] = float(np.abs(g).max(initial=0.0))
                if rnorm <= tol:
                    return w, f_w, flux_w, g, built
            if not np.isfinite(rnorm):
                break
            if not fresh:
                # a chord pass that cannot reach tol at its contraction in
                # the passes left hands the rest of the step over to Newton
                rho = rnorm / last
                handover = rho >= 1.0 \
                    or rnorm * rho ** (max_iter - taken) > tol
        return None


class MembraneSystem:
    """Surface shared by the resolved and two-scale systems.

    A subclass sets ``params``, ``drive`` and the condensed ``flux_map``,
    binds its law through ``_bind_law`` and provides ``state_at`` and
    ``gap_norms(w, w_orbit)``, the norms of the decay report: one column
    entry per row of two (m, n) stacks of jump vectors.
    """

    def _bind_law(self, law: Nonlinearity, rate_coeff: float,
                  arg_scale: float) -> None:
        self.law = law
        self.stepper = JumpStepper(self.flux_map, law, self.drive.temporal,
                                   rate_coeff=rate_coeff, arg_scale=arg_scale,
                                   params=self.params)

    def with_law(self, law: Nonlinearity):
        """Rebind the membrane law, reusing the precomputed bulk response."""
        twin = copy.copy(self)
        twin._bind_law(law, self.stepper.rate_coeff, self.stepper.arg_scale)
        return twin

    @property
    def weights(self) -> np.ndarray:
        return self.flux_map.weights

    def lyapunov(self, w_a: np.ndarray,
                 w_b: np.ndarray) -> float | np.ndarray:
        """Stored membrane energy of the gap of two solutions: the weighted
        squared jump distance times the rate coefficient; one per row of
        two stacks."""
        r = w_a - w_b
        return self.stepper.rate_coeff * np.sum(self.weights * r * r, axis=-1)

    def jump_norm(self, w: np.ndarray) -> float | np.ndarray:
        """Weighted jump norm, sqrt(sum(weights * w^2)); one per row of a
        stack."""
        return np.sqrt(np.sum(self.weights * w * w, axis=-1))


def jump_family(kind: str, x: np.ndarray, scale: float, seed: int = 0,
                repeat: int = 1) -> np.ndarray:
    """Built-in initial jump data: ``kind`` is zero, uniform, modulated
    (cos 2 pi x) or random, of size ``x.size * repeat``; each value of the
    coordinate ``x`` serves ``repeat`` consecutive jumps."""
    n = x.size * repeat
    if kind == "zero":
        return np.zeros(n)
    if kind == "uniform":
        return np.full(n, scale)
    if kind == "modulated":
        return np.repeat(scale * np.cos(2.0 * np.pi * x), repeat)
    if kind == "random":
        rng = np.random.default_rng(seed)
        return scale * rng.uniform(-1.0, 1.0, n)
    raise ValueError(f"unknown initial jump kind {kind!r}")


# -- time loop ----------------------------------------------------------------

# samples per stacked call when a trajectory is post-processed (weak-form
# pairing, mean defects, decay rows): the pass holds one chunk at a time,
# and larger chunks make the weak-form sum no faster
SAMPLE_CHUNK = 16


@dataclass
class Trajectory:
    """Sampled jump history plus per-step solver records.

    Sample 0 is the initial state, then every ``stride`` steps.  The step
    records are ``StepResult`` fields, one entry per step.
    ``mean_defects`` holds the corrector mean defect per sample of a
    two-scale run (see ``twoscale.simulate_two_scale``); None otherwise.
    """

    system: MembraneSystem
    ts: np.ndarray
    jumps: np.ndarray                 # (n_samples, n_jumps)
    stride: int
    newton_iters: np.ndarray          # StepResult.iterations
    factorizations: np.ndarray
    balance_residuals: np.ndarray     # StepResult.balance
    mean_defects: Optional[np.ndarray] = None

    @property
    def dt(self) -> float:
        return self.system.params.dt

    def state(self, i: int):
        return self.system.state_at(float(self.ts[i]), self.jumps[i])

    def __len__(self) -> int:
        return len(self.ts)


def simulate(system: MembraneSystem, w0: np.ndarray, horizon: float,
             stride: int = 1) -> Trajectory:
    """Advance from the initial jump over ``horizon`` time units.

    The horizon must be a whole number of steps.  Bulk fields are
    reconstructed on demand from the sampled jumps.
    """
    dt = system.params.dt
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9:
        raise ValueError(f"horizon {horizon} is not a multiple of dt {dt}")
    if stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    w = np.asarray(w0, dtype=float).reshape(-1)
    ts = np.zeros(n_steps // stride + 1)
    jumps = np.empty((ts.size, w.size))
    jumps[0] = w
    iters = np.zeros(n_steps, dtype=np.int64)
    factors = np.zeros(n_steps, dtype=np.int64)
    balance = np.zeros(n_steps)
    res = w
    for n in range(n_steps):
        t_next = (n + 1) * dt
        # continuing from the last result starts from the extrapolated jump
        res = system.stepper.step(t_next, res, dt)
        w = res.jump
        iters[n] = res.iterations
        factors[n] = res.factorizations
        balance[n] = res.balance
        if (n + 1) % stride == 0:
            ts[(n + 1) // stride] = t_next
            jumps[(n + 1) // stride] = w
    return Trajectory(system=system, ts=ts, jumps=jumps, stride=stride,
                      newton_iters=iters, factorizations=factors,
                      balance_residuals=balance)


def step(system: MembraneSystem, state):
    """One implicit step of either system from one of its states."""
    dt = system.params.dt
    res = system.stepper.step(state.t + dt, state.jump.reshape(-1), dt)
    return system.state_at(state.t + dt, res.jump)
