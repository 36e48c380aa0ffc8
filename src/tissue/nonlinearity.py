"""Membrane current-voltage laws and their structural certificates.

A membrane law must be C^1, strictly increasing with value 0 at 0, and carry
a lower growth bound ``f(s) s >= q s^2 - a |s|`` (``growth_quad`` q,
``growth_abs`` a).  Each built-in declares its certificate in closed form
next to its formula, as a function of kappa:

``linear``  kappa * s            q = kappa        f' >= kappa  sup f' kappa
``tanh``    kappa * s + tanh(s)  q = kappa        f' >= kappa  sup f' kappa + 1
``sin``     s + sin(s)           q = 1 + cos(s*)  no bound     sup f' 2
``cubic``   s^3 + s              q = 1            f' >= 1      no sup f'

Every built-in has growth_abs = 0 and is odd.  ``sin`` is monotone but not
coercive: its secant f(s)/s = 1 + sin(s)/s is smallest at s*, the first
positive root of tan s = s, where sin(s*)/s* = cos(s*), and its slope
1 + cos(s) vanishes at every odd multiple of pi, so no threshold gives a
positive tail slope.
The declared sup f' (``slope_max``) lets the implicit step correct with the
law's slope at zero (``membrane.JumpStepper``); ``tanh``'s slope uses
sech(s)^2 = 4 e^(-2|s|) / (1 + e^(-2|s|))^2, which cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import NonlinearityError

SIN_SECANT_ARGMIN = 4.493409457909064   # s*: first positive root of tan s = s


@dataclass(frozen=True)
class Certificate:
    """Declared constants of the structural assumptions."""

    growth_quad: float                  # lower quadratic growth coefficient
    growth_abs: float                   # linear slack in the growth bound
    coercivity: Optional[float]         # global lower bound on the slope
    slope_max: Optional[float]          # global upper bound on the slope


def _coercive(slope: float, slope_max: Optional[float]) -> Certificate:
    """Certificate of a law with f(s) s >= slope * s^2 and
    slope <= f' <= slope_max."""
    return Certificate(growth_quad=slope, growth_abs=0.0, coercivity=slope,
                       slope_max=slope_max)


def _sech2(s):
    """sech(s)^2 as 4 e^(-2|s|) / (1 + e^(-2|s|))^2, which cannot overflow."""
    e = np.exp(-2.0 * np.abs(np.asarray(s, dtype=float)))
    return 4.0 * e / (1.0 + e) ** 2


@dataclass(frozen=True)
class Nonlinearity:
    """Membrane law with evaluators, derivative and certificate.

    Evaluators are pure and vectorized; instances are immutable and safe to
    share.  ``shift`` records the accumulated linear regularization added to
    the base law, so repeated regularization composes exactly.  ``odd``
    declares f(-s) = -f(s), which ``find_periodic`` relies on to solve
    half-wave orbits; it is declared, never tested numerically.
    """

    kind: str
    base: Callable[[np.ndarray], np.ndarray]
    base_deriv: Callable[[np.ndarray], np.ndarray]
    shift: float
    certificate: Certificate
    odd: bool = False                       # declared f(-s) = -f(s)

    def __call__(self, s):
        if self.shift:      # adding a zero shift is exact: skip it
            return self.base(s) + self.shift * np.asarray(s)
        return self.base(s)

    def deriv(self, s):
        if self.shift:
            return self.base_deriv(s) + self.shift
        return self.base_deriv(s)

    @property
    def is_linear(self) -> bool:
        return self.kind == "linear"

    def describe(self) -> dict:
        """Kind, shift and certificate; the tail slope bound beyond the
        tail threshold is the coercivity beyond 0, when there is one."""
        coer = self.certificate.coercivity
        return {"kind": self.kind, "shift": self.shift,
                **asdict(self.certificate), "tail_slope_min": coer,
                "tail_threshold": None if coer is None else 0.0}


_BUILTINS = {
    "linear": lambda kappa: (
        lambda s: kappa * np.asarray(s, dtype=float),
        lambda s: np.full_like(np.asarray(s, dtype=float), kappa),
        _coercive(kappa, kappa)),
    "tanh": lambda kappa: (
        lambda s: kappa * np.asarray(s, dtype=float) + np.tanh(s),
        lambda s: kappa + _sech2(s),
        _coercive(kappa, kappa + 1.0)),
    "sin": lambda kappa: (
        lambda s: np.asarray(s, dtype=float) + np.sin(s),
        lambda s: 1.0 + np.cos(np.asarray(s, dtype=float)),
        Certificate(growth_quad=1.0 + math.cos(SIN_SECANT_ARGMIN),
                    growth_abs=0.0, coercivity=None, slope_max=2.0)),
    "cubic": lambda kappa: (
        lambda s: np.asarray(s, dtype=float) ** 3 + np.asarray(s, dtype=float),
        lambda s: 3.0 * np.asarray(s, dtype=float) ** 2 + 1.0,
        _coercive(1.0, None)),
}


def make_nonlinearity(kind: str, kappa: float = 1.0,
                      delta_shift: float = 0.0) -> Nonlinearity:
    """Construct a built-in membrane law with its declared certificate."""
    if kind not in _BUILTINS:
        raise NonlinearityError(
            f"unknown law kind {kind!r}; built-ins: {sorted(_BUILTINS)}")
    if kind in ("linear", "tanh") and kappa <= 0.0:
        raise NonlinearityError(f"kappa must be positive, got {kappa}")
    if delta_shift < 0.0:
        raise NonlinearityError(f"delta_shift must be nonnegative, got {delta_shift}")
    fn, deriv, cert = _BUILTINS[kind](kappa)
    law = Nonlinearity(kind=kind, base=fn, base_deriv=deriv, shift=0.0,
                       certificate=cert, odd=True)
    if delta_shift > 0.0:
        law = regularize(law, delta_shift)
    return law


def regularize(law: Nonlinearity, delta: float) -> Nonlinearity:
    """Add ``delta * s`` to the law, restoring coercivity.

    Regularizations compose additively on the recorded shift so applying
    delta1 then delta2 equals applying delta1 + delta2 exactly.  The shift
    is odd, so the result is odd iff the law is.
    """
    if delta <= 0.0:
        raise NonlinearityError(f"delta must be positive, got {delta}")
    shift = law.shift + delta
    cert = law.certificate
    # coercivity of the unshifted base, then add the full shift back
    base_coer = (cert.coercivity - law.shift) if cert.coercivity is not None else 0.0
    new_coer = max(base_coer, 0.0) + shift
    new_cert = replace(cert,
                       growth_quad=cert.growth_quad + delta,
                       coercivity=new_coer,
                       slope_max=None if cert.slope_max is None
                       else cert.slope_max + delta)
    return Nonlinearity(kind=law.kind, base=law.base, base_deriv=law.base_deriv,
                        shift=shift, certificate=new_cert, odd=law.odd)


_SPATIAL = {
    "constant": (lambda x: np.ones(x.shape[0]),
                 lambda x: np.zeros_like(x)),
    "affine": (lambda x: x[:, 0].copy(),
               lambda x: np.concatenate(
                   [np.ones((x.shape[0], 1)), np.zeros((x.shape[0], x.shape[1] - 1))],
                   axis=1)),
    "sines": (lambda x: np.prod(np.sin(np.pi * x), axis=1),
              lambda x: _sines_grad(x)),
}


def _sines_grad(x: np.ndarray) -> np.ndarray:
    vals = np.sin(np.pi * x)
    grad = np.empty_like(x)
    for d in range(x.shape[1]):
        others = np.prod(np.delete(vals, d, axis=1), axis=1) if x.shape[1] > 1 \
            else np.ones(x.shape[0])
        grad[:, d] = np.pi * np.cos(np.pi * x[:, d]) * others
    return grad


# every temporal profile has period PERIOD, which a run's time grid tiles
PERIOD = 1.0
_TEMPORAL = ("constant", "sin", "offset_sin")


@dataclass(frozen=True)
class BoundaryData:
    """Separable Dirichlet data ``amplitude * spatial(x) * temporal(t)``.

    The temporal profile has period ``PERIOD`` and an exact derivative, so
    the energy estimates use analytic time derivatives of the data.
    """

    spatial_kind: str
    temporal_kind: str
    amplitude: float
    offset: float

    def spatial(self, points: np.ndarray) -> np.ndarray:
        return self.amplitude * _SPATIAL[self.spatial_kind][0](np.atleast_2d(points))

    def spatial_gradient(self, points: np.ndarray) -> np.ndarray:
        return self.amplitude * _SPATIAL[self.spatial_kind][1](np.atleast_2d(points))

    def temporal(self, t: float) -> float:
        if self.temporal_kind == "constant":
            return 1.0
        if self.temporal_kind == "sin":
            return math.sin(2.0 * math.pi * t)
        return self.offset + math.sin(2.0 * math.pi * t)

    def temporal_rate(self, t: float) -> float:
        if self.temporal_kind == "constant":
            return 0.0
        return 2.0 * math.pi * math.cos(2.0 * math.pi * t)

    def values(self, points: np.ndarray, t: float) -> np.ndarray:
        return self.spatial(points) * self.temporal(t)

    @property
    def antiperiodic(self) -> bool:
        """Whether the data change sign over half a period,
        g(t + PERIOD/2) = -g(t)."""
        return self.temporal_kind == "sin" or (
            self.temporal_kind == "offset_sin" and self.offset == 0.0)


def make_boundary_data(spatial: str = "affine", temporal: str = "sin",
                       amplitude: float = 1.0, offset: float = 0.0) -> BoundaryData:
    if spatial not in _SPATIAL:
        raise NonlinearityError(
            f"unknown spatial profile {spatial!r}; built-ins: {sorted(_SPATIAL)}")
    if temporal not in _TEMPORAL:
        raise NonlinearityError(
            f"unknown temporal profile {temporal!r}; built-ins: {sorted(_TEMPORAL)}")
    return BoundaryData(spatial_kind=spatial, temporal_kind=temporal,
                        amplitude=amplitude, offset=offset)
