"""Backward-Euler Newton driver for the membrane jump dynamics.

Both the resolved-microstructure solver and the two-scale solver reduce, at
every implicit time step, to the same structure: the bulk potential is a
quasi-static slave of the membrane jump vector, so after eliminating it the
step solves

    rate_coeff * (w - w_prev)/dt + f(w / arg_scale) = q(w, t)

per facet, with an affine flux response ``q`` whose weighted matrix is
symmetric negative semidefinite.  Backward Euler plus monotone ``f`` makes
the Newton matrix symmetric positive definite, which is what gives the
discrete Lyapunov decrease its unconditional sign.

The stepper reaches the flux response only through the ``FluxMap``
protocol: a product with the response and a factorization of the response
plus a diagonal.  Three implementations:

- ``FluxResponse`` holds the response as a dense matrix (the resolved
  solver below 400 facets);
- ``micro.SeriesFlux`` keeps it condensed in the sparse bulk operator (the
  resolved solver from 400 facets up);
- ``twoscale.NodeFlux`` keeps it as one cell-sized block per macro node
  plus a correction of macro rank (the two-scale solver).

A factorization is a fresh object per call, so one system can be stepped
from several threads.

The time loop (``simulate``, ``step``), the trajectory record and the
decay report (``decay.decay_metrics``) are shared by both systems too; a
system supplies ``params``, ``stepper``, ``state_at`` and ``gap_norms``.
The stored membrane energy (``lyapunov``) and the weighted jump norm
(``jump_norm``) are the same for both and live on ``MembraneSystem``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NewtonError
from .nonlinearity import Nonlinearity


@dataclass(frozen=True)
class SolverParams:
    """Time step, capacitance constant and iteration tolerances."""

    alpha: float = 1.0
    dt: float = 1e-3
    newton_tol: float = 1e-13
    newton_max_iter: int = 30
    newton_shift: float = 1e-2
    linear_tol: float = 1e-10

    def __post_init__(self):
        if self.alpha <= 0 or self.dt <= 0:
            raise ValueError("alpha and dt must be positive")
        if self.newton_tol <= 0 or self.linear_tol <= 0:
            raise ValueError("tolerances must be positive")


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


class _CholeskyFactor:
    def __init__(self, mat: np.ndarray):
        self._cf = cho_factor(mat)

    def solve(self, r: np.ndarray) -> np.ndarray:
        return cho_solve(self._cf, r)


@dataclass(frozen=True)
class FluxResponse:
    """``FluxMap`` with the response R held as a dense matrix."""

    weights: np.ndarray
    response: np.ndarray
    load: np.ndarray

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self.response @ w

    def factor(self, d: np.ndarray) -> _CholeskyFactor:
        mat = self.response.copy()
        mat[np.diag_indices_from(mat)] += d
        return _CholeskyFactor(mat)


@dataclass
class StepResult:
    """Accepted jump of one step; ``balance`` is the energy-balance defect
    |R(w)·w| of the weighted step residual R tested with that jump."""

    jump: np.ndarray
    iterations: int
    residual: float
    used_shift: bool
    balance: float
    history: list = field(default_factory=list)


class JumpStepper:
    """Advances the jump vector by one implicit step via Newton."""

    def __init__(self, flux: FluxMap, law: Nonlinearity,
                 temporal: Callable[[float], float], rate_coeff: float,
                 arg_scale: float, params: SolverParams):
        self.flux = flux
        self.law = law
        self.temporal = temporal
        self.rate_coeff = rate_coeff
        self.arg_scale = arg_scale
        self.params = params
        self._linear_factor: Optional[tuple] = None   # (key, factor)

    # -- residual and Jacobian -------------------------------------------

    def _weighted_residual(self, w: np.ndarray, w_prev: np.ndarray,
                           drive: float, dt: float) -> np.ndarray:
        fl = self.flux
        rate = self.rate_coeff * (w - w_prev) / dt
        return (fl.weights * (rate + self.law(w / self.arg_scale))
                + fl.apply(w) - drive * fl.load)

    def _jacobian_diagonal(self, w: np.ndarray, dt: float,
                           shift: float = 0.0) -> np.ndarray:
        """The Newton matrix is this diagonal plus the flux response."""
        return self.flux.weights * (self.rate_coeff / dt
                                    + (self.law.deriv(w / self.arg_scale)
                                       + shift) / self.arg_scale)

    def _tolerance(self, w_prev: np.ndarray, drive: float, dt: float) -> float:
        # reference: flux/data scale, not the (much larger) Jacobian scale;
        # the floor term covers roundoff of the rate term at that scale
        fl = self.flux
        scale = max(
            1.0,
            abs(drive) * float(np.max(np.abs(fl.load / fl.weights), initial=0.0)),
            float(np.max(np.abs(self.law(w_prev / self.arg_scale)), initial=0.0)),
        )
        floor = 10.0 * np.finfo(float).eps * self.rate_coeff / dt \
            * max(1.0, float(np.max(np.abs(w_prev), initial=0.0)))
        return self.params.newton_tol * scale + floor

    # -- stepping ---------------------------------------------------------

    def step(self, t_next: float, w_prev: np.ndarray, dt: float) -> StepResult:
        drive = self.temporal(t_next)
        if self.law.is_linear:
            return self._linear_step(w_prev, drive, dt)
        res, _ = self._newton(w_prev, drive, dt, shift=0.0)
        if res is not None:
            return res
        res, history = self._newton(w_prev, drive, dt,
                                    shift=self.params.newton_shift)
        if res is not None:
            return res
        raise NewtonError(
            "Newton failed to converge, including the shifted-Jacobian retry",
            residuals=history)

    def _linear_step(self, w_prev: np.ndarray, drive: float,
                     dt: float) -> StepResult:
        fl = self.flux
        key = (dt, self.law.linear_slope, self.law.shift)
        if self._linear_factor is None or self._linear_factor[0] != key:
            self._linear_factor = (key, fl.factor(fl.weights * (
                self.rate_coeff / dt + self.law.linear_slope / self.arg_scale)))
        rhs = fl.weights * self.rate_coeff / dt * w_prev + drive * fl.load
        w = self._linear_factor[1].solve(rhs)
        resid = self._weighted_residual(w, w_prev, drive, dt)
        rnorm = float(np.max(np.abs(resid / fl.weights), initial=0.0))
        if rnorm > self._tolerance(w_prev, drive, dt):
            raise NewtonError(
                f"linear implicit step residual {rnorm:.3e} above tolerance",
                residuals=[rnorm])
        return StepResult(jump=w, iterations=1, residual=rnorm,
                          used_shift=False, balance=float(abs(resid @ w)),
                          history=[rnorm])

    def _newton(self, w_prev: np.ndarray, drive: float, dt: float,
                shift: float) -> tuple[Optional[StepResult], list]:
        """The converged step (None if it failed) and the residual history."""
        fl = self.flux
        tol = self._tolerance(w_prev, drive, dt)
        w = w_prev.copy()
        resid = self._weighted_residual(w, w_prev, drive, dt)
        rnorm = float(np.max(np.abs(resid / fl.weights), initial=0.0))
        history = [rnorm]
        for _ in range(self.params.newton_max_iter):
            if rnorm <= tol:
                break
            diag = self._jacobian_diagonal(w, dt, shift=shift)
            try:
                dw = fl.factor(diag).solve(-resid)
            except np.linalg.LinAlgError:
                break
            # backtracking keeps the overshoot of strongly convex laws in check
            step_len = 1.0
            for _ in range(8):
                w_try = w + step_len * dw
                resid_try = self._weighted_residual(w_try, w_prev, drive, dt)
                rnorm_try = float(np.max(np.abs(resid_try / fl.weights),
                                         initial=0.0))
                if rnorm_try < rnorm or rnorm_try <= tol:
                    break
                step_len *= 0.5
            w, resid, rnorm = w_try, resid_try, rnorm_try
            history.append(rnorm)
            # stagnation: bail out so the caller retries with a shift
            if shift == 0.0 and len(history) > 4 and \
                    history[-1] > 0.9 * history[-2] > 0.0:
                break
        if rnorm > tol:
            return None, history
        return StepResult(jump=w, iterations=len(history) - 1, residual=rnorm,
                          used_shift=shift > 0.0, balance=float(abs(resid @ w)),
                          history=history), history


class MembraneSystem:
    """Surface shared by the resolved and two-scale systems.

    A subclass sets ``params``, ``drive`` and the condensed ``flux_map``,
    binds its law through ``_bind_law`` and provides ``state_at`` and
    ``gap_norms(w, w_orbit)``, the per-sample norms of the decay report.
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

    def lyapunov(self, w_a: np.ndarray, w_b: np.ndarray) -> float:
        """Stored membrane energy of the gap of two solutions: the weighted
        squared jump distance times the rate coefficient."""
        r = w_a - w_b
        return float(self.stepper.rate_coeff * np.sum(self.weights * r * r))

    def jump_norm(self, w: np.ndarray) -> float:
        """Weighted jump norm, sqrt(sum(weights * w^2))."""
        return float(np.sqrt(np.sum(self.weights * w * w)))


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

@dataclass
class Trajectory:
    """Sampled jump history plus per-step solver records.

    Sample 0 is the initial state, then every ``stride`` steps.
    ``mean_defects`` holds the corrector mean defect per sample of a
    two-scale run (see ``twoscale.simulate_two_scale``); None otherwise.
    """

    system: MembraneSystem
    ts: np.ndarray
    jumps: np.ndarray                 # (n_samples, n_jumps)
    stride: int
    newton_iters: np.ndarray
    step_residuals: np.ndarray
    balance_residuals: np.ndarray
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
    resid = np.zeros(n_steps)
    balance = np.zeros(n_steps)
    for n in range(n_steps):
        t_next = (n + 1) * dt
        res = system.stepper.step(t_next, w, dt)
        w = res.jump
        iters[n] = res.iterations
        resid[n] = res.residual
        balance[n] = res.balance
        if (n + 1) % stride == 0:
            ts[(n + 1) // stride] = t_next
            jumps[(n + 1) // stride] = w
    return Trajectory(system=system, ts=ts, jumps=jumps, stride=stride,
                      newton_iters=iters, step_residuals=resid,
                      balance_residuals=balance)


def step(system: MembraneSystem, state):
    """One implicit step of either system from one of its states."""
    dt = system.params.dt
    res = system.stepper.step(state.t + dt, state.jump.reshape(-1), dt)
    return system.state_at(state.t + dt, res.jump)
