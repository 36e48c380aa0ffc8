import numpy as np
import pytest

import tissue as T
from tissue.decay import decay_metrics, fit_rate, lyapunov_series
from tissue.membrane import SAMPLE_CHUNK
from tissue.micro import initial_jump, simulate
from tissue.periodic import find_periodic

from conftest import make_micro
from oracles import (elliptic_stability_constant, per_sample_gap_columns,
                     poincare_constant)


def test_fit_rate_recovers_geometric_series():
    q = 0.9
    series = q ** np.arange(200)
    fit = fit_rate(series, dt=1.0)
    assert fit.rate == pytest.approx(np.log(q), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.classification == "exponential"


def test_fit_rate_constant_series():
    fit = fit_rate(np.ones(100))
    assert fit.rate == pytest.approx(0.0, abs=1e-14)
    assert fit.classification == "subexponential"


def test_fit_rate_floored_series():
    series = np.concatenate([np.geomspace(1, 1e-10, 50), np.zeros(50)])
    fit = fit_rate(series)
    assert fit.classification == "reached_floor"
    assert fit.rate is None


def test_fit_rate_short_series_is_not_an_exact_two_point_fit():
    # four samples fit over three: not log-linear, so not exponential
    fit = fit_rate([1.0, 0.5, 0.26, 0.1])
    assert fit.r_squared == pytest.approx(0.988, abs=1e-3)
    assert fit.classification == "subexponential"


def test_fit_rate_two_samples_are_too_few():
    fit = fit_rate([1.0, 0.5])
    assert fit.rate is None and fit.r_squared is None
    assert fit.classification == "too_few_samples"


class _GapSystem:
    """Stub system whose gap norms are the plain gaps of one-entry jumps,
    one per row of a stack."""

    params = T.SolverParams(dt=0.5)

    def gap_norms(self, w, w_orbit):
        gap = np.abs(w[:, 0] - w_orbit[:, 0])
        return {"norm_jump": gap, "lyapunov": gap * gap}

    def mean_defects(self, ts, jumps):
        return None


def _stub_decay(series, defect):
    """``decay_metrics`` of a trajectory whose jump gaps are ``series``,
    against a zero orbit with the given defect."""
    n = len(series)
    traj = T.Trajectory(system=_GapSystem(), ts=0.5 * np.arange(n),
                        jumps=np.asarray(series, dtype=float)[:, None],
                        stride=1, newton_iters=np.zeros(0, dtype=int),
                        factorizations=np.zeros(0, dtype=int),
                        balance_residuals=np.zeros(0))
    orbit = T.PeriodicOrbit(jumps=np.zeros((3, 1)), dt=0.5, defect=defect,
                            iterations=1)
    return decay_metrics(traj, orbit)


def test_decay_fit_ends_at_the_orbit_accuracy_floor():
    # halving gaps until they meet a noisy floor at the orbit's defect
    rng = np.random.default_rng(7)
    series = np.concatenate([0.5 ** np.arange(30),
                             1e-9 * rng.uniform(1.0, 3.0, 20)])
    rep = _stub_decay(series, defect=1e-9)
    # 0.5**24 = 6.0e-8 is the first gap within 100 times the defect
    assert rep.fit_samples == 24
    assert rep.as_dict()["fit_samples"] == 24
    assert rep.fit.rate == pytest.approx(np.log(0.5) / 0.5, rel=1e-12)
    assert rep.fit.classification == "exponential"
    # a floor in the window would flatten the fit
    assert fit_rate(series, dt=0.5).classification != "exponential"
    rep = _stub_decay([1.0, 1e-3, 1e-6, 2e-9, 1e-9], defect=1e-9)
    assert rep.fit_samples == 3
    assert rep.fit.rate == pytest.approx(np.log(1e-3) / 0.5, rel=1e-12)
    # two samples above the floor leave nothing to fit
    rep = _stub_decay([1.0, 0.1, 5e-8, 1e-9], defect=1e-9)
    assert rep.fit_samples == 2
    assert rep.fit.rate is None
    assert rep.fit.classification == "reached_floor"


def test_trajectory_started_on_orbit_stays(small_domain):
    system = make_micro(small_domain, law=("sin",))
    orbit = find_periodic(system, tol=1e-10)
    traj = simulate(system, orbit.jumps[0].copy(), 2.0)
    report = decay_metrics(traj, orbit)
    tol = 100 * orbit.defect + 1e-12
    assert np.max(report.columns["norm_l2"]) < tol
    assert np.max(report.columns["norm_grad"]) < tol
    assert np.max(report.columns["norm_jump"]) < tol


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_decay_rows_match_per_sample_gap_norms(stack, dim):
    # more samples than one chunk, and the orbit wrapped in time: a run of
    # 1.5 periods against one period of a plain run from zero
    cell = T.build_cell_geometry(0.25, 4, dim=dim)
    system = make_micro(T.tile_domain(cell, 0.5), cond=(2.0, 1.0))
    if stack == "twoscale":
        system = T.TwoScaleSystem(cell, system.cond, system.law,
                                  system.drive, system.params,
                                  macro_res=4 if dim == 1 else 2)
    n = system.weights.size
    period = simulate(system, np.zeros(n), 1.0)
    orbit = T.PeriodicOrbit(jumps=period.jumps, dt=period.dt, defect=0.0,
                            iterations=0)
    w0 = 5.0 * np.random.default_rng(dim).uniform(-1.0, 1.0, n)
    traj = simulate(system, w0, 1.5, stride=2)
    assert len(traj) > 2 * SAMPLE_CHUNK
    got = decay_metrics(traj, orbit).columns
    want = per_sample_gap_columns(traj, orbit)
    assert list(got) == list(want)
    for name, col in want.items():
        assert col.shape == (len(traj),)
        assert np.all(np.abs(got[name] - col) <= 1e-12 * np.abs(col)), name


def test_decay_metrics_requires_matching_grid(small_domain, default_domain):
    system_small = make_micro(small_domain, law=("sin",))
    system_big = make_micro(default_domain, law=("sin",))
    orbit_small = find_periodic(system_small, tol=1e-8)
    traj_big = simulate(system_big, np.zeros(default_domain.n_facets), 0.1)
    with pytest.raises(ValueError, match="grid"):
        decay_metrics(traj_big, orbit_small)


def test_noncoercive_decay_below_relative_threshold(small_domain):
    system = make_micro(small_domain, law=("sin",))
    orbit = find_periodic(system, tol=1e-9)
    w0 = initial_jump(small_domain, "random", 5.0, seed=1)
    traj = simulate(system, w0, 30.0, stride=10)
    report = decay_metrics(traj, orbit)
    ratios = report.as_dict()["final_over_initial"]
    assert ratios["norm_l2"] < 1e-3
    assert ratios["norm_grad"] < 1e-3
    assert ratios["norm_jump"] < 1e-3
    assert report.lyapunov_monotone


def dense_difference_rate(domain, cond_pair, kappa, params):
    """Slowest decay rate of the one-step difference operator, assembled
    densely from first principles (independent of the production response)."""
    import scipy.linalg
    from oracles import dense_bulk
    cond = T.make_conductivity(domain.cell, *cond_pair)
    A, B, k_facet, _ = dense_bulk(domain, cond)
    s = domain.facets.measure
    q_form = np.diag(k_facet) - B.T @ scipy.linalg.solve(A, B, assume_a="pos")
    eps = domain.epsilon
    c = params.alpha / eps / params.dt
    h = np.diag(s * np.full(domain.n_facets, c + kappa / eps)) + q_form
    h_sym = 0.5 * (h + h.T) / s
    mu_max = float((c / np.linalg.eigvalsh(h_sym)).max())
    return np.log(mu_max) / params.dt


def test_linear_rate_matches_dense_eigen_oracle(small_domain):
    kappa = 1.0
    system = make_micro(small_domain, law=("linear",), kappa=kappa, dt=1e-2)
    orbit = find_periodic(system, tol=1e-11)
    w0 = initial_jump(small_domain, "random", 5.0, seed=2)
    traj = simulate(system, w0, 8.0, stride=5)
    report = decay_metrics(traj, orbit)
    oracle_rate = dense_difference_rate(small_domain, (1.0, 1.0), kappa,
                                        system.params)
    assert report.fit.classification == "exponential"
    assert report.fit.r_squared >= 0.99
    assert report.fit.rate == pytest.approx(oracle_rate, rel=0.05)


def test_lyapunov_series_zero_for_identical_runs(small_domain):
    system = make_micro(small_domain, law=("sin",))
    w0 = initial_jump(small_domain, "random", 3.0, seed=3)
    ta = simulate(system, w0, 0.5)
    tb = simulate(system, w0.copy(), 0.5)
    ls = lyapunov_series(ta, tb)
    assert np.max(ls.values) == 0.0
    assert ls.monotone


def test_lyapunov_series_strictly_decreasing_while_positive(small_domain):
    system = make_micro(small_domain, law=("sin",))
    wa = initial_jump(small_domain, "random", 5.0, seed=4)
    wb = initial_jump(small_domain, "random", 5.0, seed=5)
    ta = simulate(system, wa, 3.0)
    tb = simulate(system, wb, 3.0)
    ls = lyapunov_series(ta, tb)
    assert ls.monotone
    vals = ls.values
    live = vals > 1e-12
    assert np.all(np.diff(vals)[live[:-1]] < 0.0)


def test_lyapunov_series_matches_direct_quadratic_form(small_domain):
    system = make_micro(small_domain, law=("linear",), kappa=2.0)
    wa = initial_jump(small_domain, "random", 2.0, seed=6)
    wb = initial_jump(small_domain, "random", 2.0, seed=7)
    ta = simulate(system, wa, 0.2)
    tb = simulate(system, wb, 0.2)
    ls = lyapunov_series(ta, tb)
    eps = small_domain.epsilon
    s = small_domain.facets.measure
    for i in (0, 10, 20):
        r = ta.jumps[i] - tb.jumps[i]
        direct = system.params.alpha / eps * s * float(np.sum(r * r))
        assert ls.values[i] == pytest.approx(direct, rel=1e-12)


def test_lyapunov_series_is_the_per_row_lyapunov(default_domain):
    # one stacked call keeps the bits of one call per sample
    system = make_micro(default_domain, law=("sin",))
    wa = initial_jump(default_domain, "random", 2.0, seed=10)
    wb = initial_jump(default_domain, "random", 2.0, seed=11)
    ta = simulate(system, wa, 0.2)
    tb = simulate(system, wb, 0.2)
    assert wa.size >= 256 and len(ta) > 10
    per_row = np.array([system.lyapunov(a, b)
                        for a, b in zip(ta.jumps, tb.jumps)])
    assert np.array_equal(lyapunov_series(ta, tb).values, per_row)


def test_lyapunov_series_on_two_scale_runs():
    from tissue.twoscale import initial_two_scale_jump
    from test_twoscale import make_two_scale
    system = make_two_scale(law=("sin",))
    wa = initial_two_scale_jump(system, "random", 5.0, seed=8)
    wb = initial_two_scale_jump(system, "random", 5.0, seed=9)
    ta = simulate(system, wa, 0.3, stride=5)
    tb = simulate(system, wb, 0.3, stride=5)
    ls = lyapunov_series(ta, tb)
    assert ls.monotone and ls.values[-1] < ls.values[0]
    assert ls.values.tolist() == [system.lyapunov(a, b)
                                  for a, b in zip(ta.jumps, tb.jumps)]


def test_gradient_bounded_by_measured_stability_constant(small_domain):
    system = make_micro(small_domain, law=("sin",))
    const = elliptic_stability_constant(system)
    orbit = find_periodic(system, tol=1e-9)
    w0 = initial_jump(small_domain, "random", 5.0, seed=8)
    traj = simulate(system, w0, 2.0, stride=4)
    report = decay_metrics(traj, orbit)
    cols = report.columns
    assert np.all(cols["norm_grad"] <= const * cols["norm_jump"] + 1e-10)


def test_bulk_bounded_by_poincare_constant(small_domain):
    system = make_micro(small_domain, law=("sin",))
    cp = poincare_constant(system)
    orbit = find_periodic(system, tol=1e-9)
    w0 = initial_jump(small_domain, "random", 5.0, seed=9)
    traj = simulate(system, w0, 2.0, stride=4)
    report = decay_metrics(traj, orbit)
    cols = report.columns
    bound = cp * (cols["norm_grad"] + cols["norm_jump"]) + 1e-10
    assert np.all(cols["norm_l2"] <= bound)


def test_resolved_decay_report_keys(small_domain):
    system = make_micro(small_domain, law=("sin",))
    orbit = find_periodic(system, tol=1e-9)
    w0 = initial_jump(small_domain, "random", 5.0, seed=11)
    report = decay_metrics(simulate(system, w0, 0.5, stride=10), orbit)
    assert list(report.columns) == ["norm_l2", "norm_grad", "norm_jump",
                                    "lyapunov"]
    assert report.max_mean_defect is None
    out = report.as_dict()
    assert set(out) == {"rate", "r_squared", "classification", "fit_samples",
                        "lyapunov_monotone", "final_over_initial"}
    assert set(out["final_over_initial"]) == {"norm_l2", "norm_grad",
                                              "norm_jump"}


def test_system_lyapunov_matches_stored_energy_formula(small_domain):
    from tissue.twoscale import TwoScaleSystem
    micro = make_micro(small_domain, law=("sin",), alpha=1.7)
    two = TwoScaleSystem(small_domain.cell, micro.cond, micro.law, micro.drive,
                         micro.params, macro_res=2)
    rng = np.random.default_rng(4)
    alpha = micro.params.alpha
    for system, coeff in ((micro, alpha / small_domain.epsilon),
                          (two, alpha)):
        a, b = rng.uniform(-1.0, 1.0, (2, system.weights.size))
        r = a - b
        assert system.lyapunov(a, b) == float(
            coeff * np.sum(system.weights * r * r))
