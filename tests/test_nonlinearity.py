import math
from dataclasses import replace

import numpy as np
import pytest

import tissue as T
from oracles import fit_growth_constants
from tissue.errors import NonlinearityError
from tissue.nonlinearity import SIN_SECANT_ARGMIN
from tissue.verify import certificate_margin

KINDS = ("linear", "tanh", "sin", "cubic")


def test_sin_law_certificate():
    law = T.make_nonlinearity("sin")
    cert = law.certificate
    s_star = SIN_SECANT_ARGMIN
    assert math.tan(s_star) == pytest.approx(s_star, rel=1e-14)
    assert cert.growth_quad == 1.0 + math.cos(s_star)
    assert cert.growth_abs == 0.0
    assert cert.coercivity is None
    assert (cert.tail_slope_min, cert.tail_threshold) == (None, None)
    assert law(0.0) == 0.0
    assert law.deriv(np.pi) == pytest.approx(0.0, abs=1e-15)


def test_linear_law_certificate():
    law = T.make_nonlinearity("linear", kappa=2.0)
    cert = law.certificate
    assert (cert.growth_quad, cert.growth_abs) == (2.0, 0.0)
    assert cert.coercivity == 2.0
    assert (cert.tail_slope_min, cert.tail_threshold) == (2.0, 0.0)
    assert law.is_linear and law.linear_slope == 2.0


@pytest.mark.parametrize("shift", [0.0, 0.1])
@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind", KINDS)
def test_declared_certificate_holds(kind, kappa, shift):
    """The declared bounds hold where they are tight or were misfitted by
    sampling: at the sin secant minimum s*, at a zero of the sin slope past
    any sampled range (15 pi), near zero, far out, and on a dense grid."""
    law = T.make_nonlinearity(kind, kappa=kappa, delta_shift=shift)
    cert = law.certificate
    probes = np.array([SIN_SECANT_ARGMIN, 15 * np.pi, 1e-8, 0.005, 100.0, 1e6])
    s = np.concatenate([probes, -probes, np.linspace(-60, 60, 120001)])
    s = s[s != 0.0]
    lhs = law(s) * s
    rhs = cert.growth_quad * s * s - cert.growth_abs * np.abs(s)
    assert np.all(lhs >= rhs - 1e-12 * lhs)
    slope = law.deriv(s)
    if cert.coercivity is not None:
        assert np.all(slope >= cert.coercivity * (1.0 - 1e-12))
    if cert.tail_slope_min is not None:
        beyond = slope[np.abs(s) >= cert.tail_threshold]
        assert np.all(beyond >= cert.tail_slope_min * (1.0 - 1e-12))
    if cert.slope_max is not None:
        assert np.all(slope <= cert.slope_max)
        # sup f' is attained at zero by every law that declares it
        assert law.deriv(0.0) == cert.slope_max
    else:
        assert kind == "cubic"


@pytest.mark.parametrize("kind", KINDS)
def test_declared_growth_quad_against_sampled_oracle(kind):
    """Sampling can only overestimate the infimum of f(s)/s; at a 1e-3 grid
    step it resolves it to 1e-5 except for tanh, whose secant
    kappa + tanh(s)/s approaches kappa only as |s| -> infinity."""
    law = T.make_nonlinearity(kind, kappa=2.0)
    q = law.certificate.growth_quad
    sampled, _ = fit_growth_constants(law, s_max=50.0, n_samples=100001)
    assert sampled >= q - 1e-12
    if kind != "tanh":
        assert sampled - q <= 1e-5


def test_certificate_margin_flags_sampled_constants():
    """The verify check fails the growth constants the sampled fit used to
    report for tanh (kappa + tanh(50)/50) and sin (above 1 + cos s*)."""
    s = np.linspace(-10, 10, 1001)
    probe = np.concatenate([s, [SIN_SECANT_ARGMIN, 1e3]])
    for kind, sampled_q in (("tanh", 1.02), ("sin", 0.78276764)):
        law = T.make_nonlinearity(kind)
        assert certificate_margin(law, probe) >= -1e-12
        wrong = replace(law, certificate=replace(law.certificate,
                                                 growth_quad=sampled_q))
        assert certificate_margin(wrong, probe) < -1e-7


def test_certificate_margin_flags_a_slope_max_below_sup():
    # sin' = 1 + cos s reaches 2 near every multiple of 2 pi
    s = np.linspace(-10, 10, 1001)
    law = T.make_nonlinearity("sin")
    assert law.certificate.slope_max == 2.0
    assert certificate_margin(law, s) >= -1e-12
    wrong = replace(law, certificate=replace(law.certificate, slope_max=1.9))
    assert certificate_margin(wrong, s) < -0.05


@pytest.mark.parametrize("delta", [0.1, 0.25])
def test_regularize_adds_the_shift_to_slope_max(delta):
    for kind, top in (("linear", 2.0), ("tanh", 3.0), ("sin", 2.0)):
        law = T.regularize(T.make_nonlinearity(kind, kappa=2.0), delta)
        assert law.certificate.slope_max == top + delta
    cubic = T.regularize(T.make_nonlinearity("cubic"), delta)
    assert cubic.certificate.slope_max is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e3, -1e3, 1e6, -1e6])
def test_tanh_slope_does_not_overflow_far_out(s):
    law = T.make_nonlinearity("tanh", kappa=0.5)
    assert law.deriv(s) == 0.5
    assert law.deriv(np.array([s, 0.0])).tolist() == [0.5, 1.5]


@pytest.mark.filterwarnings("error")
def test_tanh_slope_matches_the_cosh_form_where_it_is_finite():
    # kappa + 1 / cosh(s)^2, the form before, overflows past |s| = 355
    law = T.make_nonlinearity("tanh", kappa=0.5)
    s = np.concatenate([np.linspace(-355, 355, 142001), [1e-8, -1e-8]])
    old = 0.5 + 1.0 / np.cosh(s) ** 2
    assert np.max(np.abs(law.deriv(s) - old) / old) <= 1e-15


def test_nonpositive_kappa_rejected():
    with pytest.raises(NonlinearityError, match="kappa"):
        T.make_nonlinearity("linear", kappa=0.0)


def test_unknown_kind_rejected():
    with pytest.raises(NonlinearityError, match="unknown law"):
        T.make_nonlinearity("quintic")


@pytest.mark.parametrize("kind,kw", [("linear", {"kappa": 2.0}),
                                     ("tanh", {"kappa": 0.5}),
                                     ("sin", {}), ("cubic", {})])
def test_derivative_matches_central_differences(kind, kw):
    law = T.make_nonlinearity(kind, **kw)
    s = np.linspace(-8, 8, 1000)
    h = 1e-5
    fd = (law(s + h) - law(s - h)) / (2 * h)
    scale = np.maximum(np.abs(law.deriv(s)), 1.0)
    assert np.max(np.abs(fd - law.deriv(s)) / scale) < 1e-6


@pytest.mark.parametrize("kind,kw", [("linear", {"kappa": 3.0}),
                                     ("tanh", {"kappa": 1.0}),
                                     ("sin", {}), ("cubic", {})])
def test_secant_slopes_nonnegative(kind, kw):
    law = T.make_nonlinearity(kind, **kw)
    rng = np.random.default_rng(0)
    a = rng.uniform(-30, 30, 4000)
    b = rng.uniform(-30, 30, 4000)
    mask = np.abs(a - b) > 1e-12
    sec = (law(a[mask]) - law(b[mask])) / (a[mask] - b[mask])
    assert np.all(sec >= 0.0)


def test_regularize_shifts_values_and_restores_coercivity():
    law = T.make_nonlinearity("sin")
    reg = T.regularize(law, 0.1)
    assert reg(np.pi) == pytest.approx(np.pi + 0.1 * np.pi, rel=1e-14)
    assert reg.certificate.growth_quad == law.certificate.growth_quad + 0.1
    assert reg.certificate.coercivity == pytest.approx(0.1, rel=1e-12)
    assert reg.certificate.tail_slope_min == reg.certificate.coercivity
    assert reg.certificate.tail_threshold == 0.0


def test_regularize_linear_stays_linear():
    law = T.make_nonlinearity("linear", kappa=1.0)
    reg = T.regularize(law, 0.5)
    assert reg.is_linear and reg.linear_slope == pytest.approx(1.5)
    s = np.linspace(-5, 5, 101)
    assert np.allclose(reg(s), 1.5 * s, atol=1e-14)


def test_regularize_composes_additively():
    law = T.make_nonlinearity("cubic")
    once = T.regularize(law, 0.3)
    twice = T.regularize(T.regularize(law, 0.1), 0.2)
    s = np.linspace(-50, 50, 2001)
    assert np.max(np.abs(once(s) - twice(s))) <= 1e-14 * np.max(np.abs(once(s)))


def test_regularize_requires_positive_delta():
    law = T.make_nonlinearity("sin")
    with pytest.raises(NonlinearityError):
        T.regularize(law, 0.0)


def test_growth_constants_examples():
    q, a = fit_growth_constants(lambda s: 3.0 * np.asarray(s, float))
    assert q == pytest.approx(3.0, rel=1e-9) and a == 0.0
    q, a = fit_growth_constants(lambda s: np.asarray(s, float) ** 3 + s)
    assert q == pytest.approx(1.0, rel=1e-3) and a == 0.0


def test_growth_constants_sin_feasible_pair_vs_bruteforce():
    fn = lambda s: np.asarray(s, float) + np.sin(s)
    s_max = 20.0
    q, a = fit_growth_constants(fn, s_max=s_max)
    assert 0.0 < q <= 1.0
    s = np.linspace(-s_max, s_max, 5001)
    s = s[np.abs(s) > 1e-9]
    # returned pair satisfies the bound at every sample
    assert np.all(fn(s) * s >= q * s * s - a * np.abs(s) - 1e-12)
    # brute-force lattice scan: a feasible pair with quad <= 1 exists and no
    # lattice pair with zero slack beats the returned quad coefficient
    lattice = np.linspace(0.05, 1.5, 30)
    feasible_zero_slack = [lq for lq in lattice
                           if np.all(fn(s) * s >= lq * s * s - 1e-12)]
    assert feasible_zero_slack, "scan found no feasible coefficient"
    assert max(feasible_zero_slack) <= q + 1e-9


def test_boundary_data_periodicity_and_rates():
    for temporal in ("constant", "sin", "offset_sin"):
        bd = T.make_boundary_data("affine", temporal, amplitude=2.0, offset=0.3)
        for t in (0.0, 0.21, 0.5, 0.77):
            assert bd.temporal(t + 1.0) == pytest.approx(bd.temporal(t), abs=1e-12)
        h = 1e-6
        for t in (0.1, 0.35):
            fd = (bd.temporal(t + h) - bd.temporal(t - h)) / (2 * h)
            assert fd == pytest.approx(bd.temporal_rate(t), abs=1e-5)


def test_boundary_data_spatial_profiles():
    pts = np.array([[0.25, 0.5], [1.0, 0.25]])
    bd = T.make_boundary_data("affine", "constant", amplitude=2.0)
    assert np.allclose(bd.values(pts, 0.0), [0.5, 2.0])
    grad = bd.spatial_gradient(pts)
    assert np.allclose(grad, [[2.0, 0.0], [2.0, 0.0]])
    bd2 = T.make_boundary_data("sines", "constant", amplitude=1.0)
    assert np.allclose(bd2.values(np.array([[0.5, 0.5]]), 0.0), [1.0])
    h = 1e-6
    p = np.array([[0.3, 0.7]])
    for d in range(2):
        dp = np.zeros((1, 2))
        dp[0, d] = h
        fd = (bd2.spatial(p + dp) - bd2.spatial(p - dp)) / (2 * h)
        assert fd[0] == pytest.approx(bd2.spatial_gradient(p)[0, d], abs=1e-6)


def test_unknown_profiles_rejected():
    with pytest.raises(NonlinearityError):
        T.make_boundary_data("ripple", "sin")
    with pytest.raises(NonlinearityError):
        T.make_boundary_data("affine", "sawtooth")
