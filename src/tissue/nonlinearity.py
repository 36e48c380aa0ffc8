"""Membrane current-voltage laws and their structural certificates.

A membrane law must be C^1, strictly increasing with value 0 at 0, and carry
a lower growth bound ``f(s) s >= growth_quad * s^2 - growth_abs * |s|``.
Certificates are verified by dense sampling on a bounded range and, for the
built-in family, by analytic flags.  The built-ins:

``linear``   kappa * s
``tanh``     kappa * s + tanh(s)        (coercive)
``sin``      s + sin(s)                 (monotone but not coercive)
``cubic``    s^3 + s
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import NonlinearityError

SLOPE_FLOOR = 1e-6          # smallest slope accepted as bounded away from zero


@dataclass(frozen=True)
class Certificate:
    """Sampled and analytic evidence for the structural assumptions."""

    monotone: bool
    vanishes_at_zero: bool
    growth_quad: float                  # lower quadratic growth coefficient
    growth_abs: float                   # linear slack in the growth bound
    coercivity: Optional[float]         # global lower bound on the slope
    tail_slope_min: Optional[float]     # slope bound beyond the threshold
    tail_threshold: Optional[float]
    sample_range: float
    n_samples: int

    def as_dict(self) -> dict:
        return {
            "monotone": self.monotone,
            "vanishes_at_zero": self.vanishes_at_zero,
            "growth_quad": self.growth_quad,
            "growth_abs": self.growth_abs,
            "coercivity": self.coercivity,
            "tail_slope_min": self.tail_slope_min,
            "tail_threshold": self.tail_threshold,
            "sample_range": self.sample_range,
            "n_samples": self.n_samples,
        }


@dataclass(frozen=True)
class Nonlinearity:
    """Membrane law with evaluators, derivative and certificate.

    Evaluators are pure and vectorized; instances are immutable and safe to
    share.  ``shift`` records the accumulated linear regularization added to
    the base law, so repeated regularization composes exactly.
    """

    kind: str
    base: Callable[[np.ndarray], np.ndarray]
    base_deriv: Callable[[np.ndarray], np.ndarray]
    shift: float
    certificate: Certificate
    linear_slope: Optional[float] = None    # set iff the law is exactly linear

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
        return self.linear_slope is not None

    def describe(self) -> dict:
        out = {"kind": self.kind, "shift": self.shift}
        out.update(self.certificate.as_dict())
        return out


_BUILTINS = {
    "linear": lambda kappa: (
        lambda s: kappa * np.asarray(s, dtype=float),
        lambda s: np.full_like(np.asarray(s, dtype=float), kappa),
        kappa),
    "tanh": lambda kappa: (
        lambda s: kappa * np.asarray(s, dtype=float) + np.tanh(s),
        lambda s: kappa + 1.0 / np.cosh(np.asarray(s, dtype=float)) ** 2,
        kappa),
    "sin": lambda kappa: (
        lambda s: np.asarray(s, dtype=float) + np.sin(s),
        lambda s: 1.0 + np.cos(np.asarray(s, dtype=float)),
        None),
    "cubic": lambda kappa: (
        lambda s: np.asarray(s, dtype=float) ** 3 + np.asarray(s, dtype=float),
        lambda s: 3.0 * np.asarray(s, dtype=float) ** 2 + 1.0,
        1.0),
}


def build_certificate(fn, deriv, s_max: float = 50.0, n_samples: int = 10001,
                      coercivity: Optional[float] = None) -> Certificate:
    """Sample the law on [-s_max, s_max] and verify the assumptions.

    Raises if the law is not strictly increasing on the sample grid or does
    not vanish at zero.  ``coercivity`` may be supplied analytically; when
    omitted it is taken from the sampled slope minimum if that is bounded
    away from zero.
    """
    s = np.linspace(-s_max, s_max, n_samples)
    fs = np.asarray(fn(s), dtype=float)
    dfs = np.asarray(deriv(s), dtype=float)

    if not np.all(np.isfinite(fs)) or not np.all(np.isfinite(dfs)):
        raise NonlinearityError("law evaluates to non-finite values on the range")
    if np.any(dfs < -1e-12):
        raise NonlinearityError("slope is negative on the sample range")
    increments = np.diff(fs)
    if np.any(increments <= 0.0):
        raise NonlinearityError("strict monotonicity fails on the sample range")
    f0 = float(np.asarray(fn(0.0)))
    if f0 != 0.0:
        raise NonlinearityError(f"law must vanish at zero, got f(0)={f0!r}")

    growth_quad, growth_abs = fit_growth_constants(fn, s_max, n_samples)
    tail_min, tail_thr = _tail_slope(s, dfs)
    if coercivity is None:
        sampled = float(dfs.min())
        coercivity = sampled if sampled >= SLOPE_FLOOR else None
    return Certificate(monotone=True, vanishes_at_zero=True,
                       growth_quad=growth_quad, growth_abs=growth_abs,
                       coercivity=coercivity, tail_slope_min=tail_min,
                       tail_threshold=tail_thr, sample_range=s_max,
                       n_samples=n_samples)


def _tail_slope(s: np.ndarray, dfs: np.ndarray):
    """Smallest sampled threshold beyond which the slope stays positive.

    Returns (slope bound, threshold) or (None, None) when no threshold on
    the sampled range gives a slope bounded away from zero; the certificate
    then relies on strict monotonicity alone.
    """
    order = np.argsort(np.abs(s))
    abs_sorted = np.abs(s)[order]
    slope_sorted = dfs[order]
    suffix_min = np.minimum.accumulate(slope_sorted[::-1])[::-1]
    ok = suffix_min >= SLOPE_FLOOR
    if not ok.any():
        return None, None
    k = int(np.argmax(ok))
    return float(suffix_min[k]), float(abs_sorted[k])


def fit_growth_constants(fn, s_max: float = 50.0,
                         n_samples: int = 10001) -> tuple[float, float]:
    """Fit the lower growth bound ``f(s) s >= q s^2 - a |s|`` on samples.

    For a strictly increasing law vanishing at zero the secant ``f(s)/s`` is
    positive wherever sampled, so the largest quadratic coefficient needing
    no linear slack is ``min f(s)/s``; that pair (with zero slack) maximizes
    the quadratic term first and then minimizes the slack, and is what the
    energy estimates consume.
    """
    s = np.linspace(-s_max, s_max, n_samples)
    s = s[np.abs(s) > 1e-9]
    ratio = np.asarray(fn(s), dtype=float) / s
    quad = float(ratio.min())
    if not math.isfinite(quad) or quad <= 0.0:
        raise NonlinearityError(
            "no positive quadratic growth bound on the sample range; the law "
            "is too flat for the required tail-slope behavior")
    lin = 0.0
    # defensive re-check of the fitted bound at every sample
    if not np.all(fn(s) * s >= quad * s * s - lin * np.abs(s) - 1e-12):
        raise NonlinearityError(
            "fitted growth bound fails at a sample; the law does not "
            "evaluate consistently")
    return quad, lin


def make_nonlinearity(kind: str, kappa: float = 1.0, delta_shift: float = 0.0,
                      s_max: float = 50.0, n_samples: int = 10001) -> Nonlinearity:
    """Construct a built-in membrane law and certify it."""
    if kind not in _BUILTINS:
        raise NonlinearityError(
            f"unknown law kind {kind!r}; built-ins: {sorted(_BUILTINS)}")
    if kind in ("linear", "tanh") and kappa <= 0.0:
        raise NonlinearityError(f"kappa must be positive, got {kappa}")
    if delta_shift < 0.0:
        raise NonlinearityError(f"delta_shift must be nonnegative, got {delta_shift}")
    fn, deriv, coer = _BUILTINS[kind](kappa)
    cert = build_certificate(fn, deriv, s_max, n_samples, coercivity=coer)
    slope = kappa if kind == "linear" else None
    law = Nonlinearity(kind=kind, base=fn, base_deriv=deriv, shift=0.0,
                       certificate=cert, linear_slope=slope)
    if delta_shift > 0.0:
        law = regularize(law, delta_shift)
    return law


def regularize(law: Nonlinearity, delta: float) -> Nonlinearity:
    """Add ``delta * s`` to the law, restoring coercivity.

    Regularizations compose additively on the recorded shift so applying
    delta1 then delta2 equals applying delta1 + delta2 exactly.
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
                       tail_slope_min=new_coer,
                       tail_threshold=0.0)
    slope = (law.linear_slope + delta) if law.is_linear else None
    return Nonlinearity(kind=law.kind, base=law.base, base_deriv=law.base_deriv,
                        shift=shift, certificate=new_cert, linear_slope=slope)


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


_TEMPORAL = ("constant", "sin", "offset_sin")


@dataclass(frozen=True)
class BoundaryData:
    """Separable Dirichlet data ``amplitude * spatial(x) * temporal(t)``.

    The temporal profile has period 1 and an exact derivative, so the energy
    estimates use analytic time derivatives of the data.
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

    def gradient(self, points: np.ndarray, t: float) -> np.ndarray:
        return self.spatial_gradient(points) * self.temporal(t)

    def gradient_rate(self, points: np.ndarray, t: float) -> np.ndarray:
        return self.spatial_gradient(points) * self.temporal_rate(t)


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
