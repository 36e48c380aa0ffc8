import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import tissue as T
from tissue import micro
from tissue.errors import NonlinearityError
from tissue.membrane import SAMPLE_CHUNK
from tissue.micro import (MicroSystem, SeriesFlux, bulk_l2,
                          dissipation_identity, elliptic_solve_given_jump,
                          gradient_l2, initial_jump,
                          sigma_gradient_energy, simulate, step)

from conftest import (make_micro, record_passes, rel_gap, steps_agree,
                      stepper_on)
from oracles import (DenseLinearStepper, FluxResponse, dense_bulk,
                     dense_elliptic, dense_response,
                     dense_sigma_gradient_energy)


# -- assembly ------------------------------------------------------------------

def test_assembly_matches_dense_loops(small_domain):
    cond = T.make_conductivity(small_domain.cell, 2.0, 1.0)
    op = T.BulkOperator(small_domain, cond)
    A_d, B_d, k_d, _ = dense_bulk(small_domain, cond)
    assert np.max(np.abs(op.A.toarray() - A_d)) < 1e-14
    assert np.max(np.abs(op.B.toarray() - B_d)) < 1e-14
    assert np.max(np.abs(op.k_facet - k_d)) < 1e-14


def test_operator_symmetry(small_domain):
    cond = T.make_conductivity(small_domain.cell, 3.0, 0.5)
    op = T.BulkOperator(small_domain, cond)
    asym = abs(op.A - op.A.T).max()
    assert asym < 1e-14


@pytest.mark.parametrize("name", ["small_domain", "domain_1d"])
def test_factored_matrices_are_symmetric_and_solve_through_the_transpose(
        name, request, monkeypatch):
    # a transposed solve is the same system only for an exactly symmetric
    # matrix: the bulk assembly at any face conductances, and the matrix
    # that a pass factor factors
    domain = request.getfixturevalue(name)
    system = make_micro(domain, cond=(2.0, 0.5))
    op = system.op
    rng = np.random.default_rng(51)
    factored = []
    splu = micro._splu
    monkeypatch.setattr(micro, "_splu",
                        lambda m: factored.append(m) or splu(m))
    series = system.flux_map.factor(rng.uniform(0.5, 2.0, domain.n_facets))
    for a in (op.matrix(rng.uniform(0.1, 10.0, op.k_face.size)), factored[0]):
        gap = (a - a.T).tocsc()
        gap.eliminate_zeros()
        assert gap.nnz == 0
    for a, lu in ((op.A, op.lu), (factored[0], series.lu)):
        for rhs in (rng.normal(size=domain.n_cells),
                    rng.normal(size=(domain.n_cells, 3))):
            assert rel_gap(lu.solve(rhs), spla.spsolve(a, rhs)) <= 1e-12


def test_hand_assembled_1d_two_cells():
    # 2 cells of a 1D m=4 cell: 8 bulk unknowns, 4 membrane point facets
    cell = T.build_cell_geometry(0.25, 4, dim=1)
    dom = T.tile_domain(cell, 0.5)
    cond = T.make_conductivity(cell, 2.0, 1.0)
    op = T.BulkOperator(dom, cond)
    h = 0.125
    k_in = 2.0 / h          # face between two inclusion cells
    k_out = 1.0 / h         # face between two outer cells
    k_m = (2 * 2.0 * 1.0 / 3.0) / h   # membrane face, series conductivity
    k_b = 2.0 * 1.0 / h     # boundary half-cell face
    expected = np.zeros((8, 8))
    ks = [k_m, k_in, k_m, k_out, k_m, k_in, k_m]   # faces 0|1 .. 6|7
    for i, k in enumerate(ks):
        expected[i, i] += k
        expected[i + 1, i + 1] += k
        expected[i, i + 1] -= k
        expected[i + 1, i] -= k
    expected[0, 0] += k_b
    expected[7, 7] += k_b
    assert np.max(np.abs(op.A.toarray() - expected)) < 1e-12


def test_affine_dirichlet_reproduced_exactly(small_domain):
    cond = T.make_conductivity(small_domain.cell, 1.0, 1.0)
    op = T.BulkOperator(small_domain, cond)
    drive = T.make_boundary_data("affine", "constant", 1.0)
    u, q = elliptic_solve_given_jump(op, np.zeros(small_domain.n_facets),
                                     drive, 0.0)
    assert np.max(np.abs(u - small_domain.centers[:, 0])) < 1e-12


def test_constant_dirichlet_gives_constant(small_domain):
    cond = T.make_conductivity(small_domain.cell, 2.0, 1.0)
    op = T.BulkOperator(small_domain, cond)
    drive = T.make_boundary_data("constant", "constant", 3.0)
    u, q = elliptic_solve_given_jump(op, np.zeros(small_domain.n_facets),
                                     drive, 0.0)
    assert np.max(np.abs(u - 3.0)) < 1e-12
    assert np.max(np.abs(q)) < 1e-10


def test_prescribed_jump_flux_matches_dense(small_domain):
    cond = T.make_conductivity(small_domain.cell, 2.0, 1.0)
    op = T.BulkOperator(small_domain, cond)
    drive = T.make_boundary_data("constant", "constant", 0.0)
    rng = np.random.default_rng(3)
    w = rng.uniform(-1, 1, small_domain.n_facets)
    u, q = elliptic_solve_given_jump(op, w, drive, 0.0)
    u_d, q_d = dense_elliptic(small_domain, cond, drive, 0.0, w)
    scale = max(1.0, np.max(np.abs(q_d)))
    assert np.max(np.abs(u - u_d)) < 1e-10
    assert np.max(np.abs(q - q_d)) / scale < 1e-10


def test_superposition(small_domain):
    cond = T.make_conductivity(small_domain.cell, 2.0, 1.0)
    op = T.BulkOperator(small_domain, cond)
    d1 = T.make_boundary_data("affine", "constant", 1.0)
    d0 = T.make_boundary_data("constant", "constant", 0.0)
    rng = np.random.default_rng(4)
    w1 = rng.uniform(-1, 1, small_domain.n_facets)
    w2 = rng.uniform(-1, 1, small_domain.n_facets)
    ua, _ = elliptic_solve_given_jump(op, w1, d1, 0.0)
    ub, _ = elliptic_solve_given_jump(op, w2, d0, 0.0)
    uc, _ = elliptic_solve_given_jump(op, w1 + w2, d1, 0.0)
    assert np.max(np.abs(uc - (ua + ub))) < 1e-10


def test_traces_and_flux_continuity(small_domain):
    system = make_micro(small_domain, cond=(5.0, 0.5))
    rng = np.random.default_rng(5)
    w = rng.uniform(-1, 1, small_domain.n_facets)
    st = system.state_at(0.3, w)
    assert st.consistency_error() < 1e-12
    q_in, q_out = system.op.one_sided_fluxes(st.u, st.jump)
    scale = max(1.0, np.max(np.abs(q_in)))
    assert np.max(np.abs(q_in - q_out)) / scale < 1e-8
    assert np.max(np.abs(0.5 * (q_in + q_out) - st.flux)) / scale < 1e-10


def test_sigma_gradient_energy_matches_dense_loops(small_domain):
    cond = T.make_conductivity(small_domain.cell, 2.0, 1.0)
    system = make_micro(small_domain, cond=(2.0, 1.0))
    rng = np.random.default_rng(6)
    w = rng.uniform(-1, 1, small_domain.n_facets)
    st = system.state_at(0.2, w)
    bvals = system.drive.values(small_domain.boundary.midpoint, 0.2)
    fast = sigma_gradient_energy(small_domain, cond, st.u, w, bvals)
    slow = dense_sigma_gradient_energy(small_domain, cond, st.u, w, bvals)
    assert fast == pytest.approx(slow, rel=1e-12)


# -- stacked reconstruction ----------------------------------------------------

@pytest.fixture(scope="module")
def contrast_nondyadic():
    # cell grid spacing 1/48 and unequal conductivities: products with the
    # spacing and sums of face conductances round
    cell = T.build_cell_geometry(0.25, 12)
    return make_micro(T.tile_domain(cell, 0.5), cond=(0.37, 2.9))


def _sample_stack(system, seed):
    """Times off the step grid and a stack of jump vectors: more samples
    than two chunks, and not a whole number of chunks."""
    m = 2 * SAMPLE_CHUNK + 5
    ts = np.arange(m) / 37.0
    w = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                            (m, system.weights.size))
    return ts, w


def test_bulk_norms_equal_the_norms_of_each_bulk_at(contrast_nondyadic):
    system = contrast_nondyadic
    dom = system.domain
    ts, w = _sample_stack(system, 11)
    got = system.bulk_norms(w, system.drive_factors(ts))
    assert list(got) == ["norm_l2", "norm_grad", "norm_jump"]
    want = []
    for t, wi in zip(ts, w):
        u = system.bulk_at(t, wi)
        bvals = system.drive.values(dom.boundary.midpoint, t)
        want.append((bulk_l2(dom, u), gradient_l2(dom, u, wi, bvals),
                     system.jump_norm(wi)))
    assert np.array_equal(np.column_stack(list(got.values())), want)


def test_sigma_gradient_energy_of_a_stack_is_its_rows(contrast_nondyadic):
    system = contrast_nondyadic
    dom, cond = system.domain, system.cond
    ts, w = _sample_stack(system, 12)
    u = np.array([system.bulk_at(t, wi) for t, wi in zip(ts, w)])
    bvals = np.array([system.drive.values(dom.boundary.midpoint, t)
                      for t in ts])
    got = sigma_gradient_energy(dom, cond, u, w, bvals)
    assert got.shape == (len(ts),)
    assert np.array_equal(got, [sigma_gradient_energy(dom, cond, *row)
                                for row in zip(u, w, bvals)])


def test_gap_norms_are_bulk_norms_of_the_gap_at_zero_drive(
        contrast_nondyadic):
    system = contrast_nondyadic
    ts, w = _sample_stack(system, 13)
    w_orbit = np.roll(w, 1, axis=0)
    got = system.gap_norms(w, w_orbit)
    want = system.bulk_norms(w - w_orbit, np.zeros(len(w)))
    assert list(got) == list(want) + ["lyapunov"]
    for name, col in want.items():
        assert np.array_equal(got[name], col), name
    assert np.array_equal(got["lyapunov"], system.lyapunov(w, w_orbit))
    # the drive cancels in the gap of the bulk fields at any time
    gap_u = np.array([system.bulk_at(t, a) - system.bulk_at(t, b)
                      for t, a, b in zip(ts, w, w_orbit)])
    assert np.allclose(got["norm_l2"], bulk_l2(system.domain, gap_u),
                       rtol=1e-10, atol=0.0)


# -- stepping -------------------------------------------------------------------

def test_zero_is_fixed_point(small_domain):
    system = make_micro(small_domain, drive=("constant", "constant", 0.0))
    st = system.state_at(0.0, np.zeros(small_domain.n_facets))
    nxt = step(system, st)
    assert np.all(nxt.jump == 0.0)
    assert np.max(np.abs(nxt.u)) < 1e-13


def test_linear_step_matches_dense_block_solve(small_domain):
    kappa = 1.5
    system = make_micro(small_domain, cond=(2.0, 1.0), law=("linear",),
                        kappa=kappa, dt=1e-2)
    oracle = DenseLinearStepper(small_domain,
                                T.make_conductivity(small_domain.cell, 2.0, 1.0),
                                system.drive, system.params, kappa)
    w = initial_jump(small_domain, "random", 3.0, seed=7)
    ws_oracle, u_oracle = oracle.run(w, 50)
    traj = simulate(system, w, 0.5)
    scale = max(1.0, np.max(np.abs(ws_oracle)))
    assert np.max(np.abs(traj.jumps - ws_oracle)) / scale < 1e-8
    u = system.bulk_at(0.5, traj.jumps[-1])
    assert np.max(np.abs(u - u_oracle)) / max(1.0, np.max(np.abs(u_oracle))) < 1e-8


def test_constant_drive_relaxes_to_constant(small_domain):
    system = make_micro(small_domain, drive=("constant", "constant", 2.0),
                        dt=0.05)
    w0 = initial_jump(small_domain, "random", 5.0, seed=8)
    traj = simulate(system, w0, 40.0)
    assert system.jump_norm(traj.jumps[-1]) < 1e-8
    u = system.bulk_at(40.0, traj.jumps[-1])
    assert np.max(np.abs(u - 2.0)) < 1e-8


def test_simulate_requires_divisible_horizon(small_domain):
    system = make_micro(small_domain)
    with pytest.raises(ValueError, match="multiple"):
        simulate(system, np.zeros(small_domain.n_facets), 0.505)


def test_newton_quadratic_contraction(small_domain):
    system = make_micro(small_domain, law=("cubic",), dt=0.05)
    w0 = initial_jump(small_domain, "random", 5.0, seed=9)
    res = system.stepper.step(0.05, w0, 0.05)
    hist = res.history
    below = [r for r in hist if r < 1e-3 * max(hist[0], 1.0)]
    for a, b in zip(below, below[1:]):
        if a > 1e-14:
            assert b < 0.5 * a


def test_newton_budget_exhaustion_raises_with_history(small_domain):
    from tissue.errors import NewtonError
    params = T.SolverParams(dt=0.5, newton_max_iter=1)
    system = MicroSystem(small_domain,
                         T.make_conductivity(small_domain.cell, 1.0, 1.0),
                         T.make_nonlinearity("cubic"),
                         T.make_boundary_data("affine", "sin", 1.0), params)
    w0 = initial_jump(small_domain, "random", 8.0, seed=21)
    with pytest.raises(NewtonError) as err:
        system.stepper.step(0.5, w0, 0.5)
    assert len(err.value.residuals) >= 1


def test_linear_solve_tolerance_violation_raises(small_domain):
    from tissue.errors import LinearSolveError
    cond = T.make_conductivity(small_domain.cell, 2.0, 1.0)
    op = T.BulkOperator(small_domain, cond)
    bvals = np.ones(len(small_domain.boundary))
    with pytest.raises(LinearSolveError) as err:
        op.solve(np.zeros(small_domain.n_facets), bvals, tol=1e-30)
    assert err.value.residuals


def test_large_step_from_degenerate_slope_converges(small_domain):
    # start exactly on the zero-slope set of the law; the step must still
    # converge, with Newton passes where the slope is far from its value
    # at zero, to a tiny residual
    system = make_micro(small_domain, law=("sin",), dt=0.5)
    w0 = initial_jump(small_domain, "uniform", np.pi / small_domain.epsilon * 2,
                      seed=0)
    res = system.stepper.step(0.5, w0, 0.5)
    assert res.residual <= 1e-9


# -- initial data ----------------------------------------------------------------

def test_initial_jump_family_scaling(default_domain):
    eps = default_domain.epsilon
    for kind, amp in (("uniform", 1.0), ("modulated", 2.0), ("random", 5.0)):
        w = initial_jump(default_domain, kind, amp, seed=1)
        sq = default_domain.facets.measure * np.sum(w * w)
        bound = (default_domain.cell.memb_measure * amp ** 2) * eps
        assert sq <= bound + 1e-12
    assert np.all(initial_jump(default_domain, "zero", 1.0) == 0.0)


def test_zero_data_identically_zero(small_domain):
    system = make_micro(small_domain, drive=("constant", "constant", 0.0))
    traj = simulate(system, np.zeros(small_domain.n_facets), 1.0)
    assert np.max(np.abs(traj.jumps)) <= 1e-13
    u = system.bulk_at(1.0, traj.jumps[-1])
    assert np.max(np.abs(u)) <= 1e-13


# -- structure-preservation properties -------------------------------------------

@pytest.mark.parametrize("law,kw", [(("linear",), {"kappa": 1.0}),
                                    (("sin",), {}), (("cubic",), {})])
def test_paired_lyapunov_never_increases(small_domain, law, kw):
    system = make_micro(small_domain, law=law, **kw)
    wa = initial_jump(small_domain, "random", 5.0, seed=1)
    wb = initial_jump(small_domain, "random", 5.0, seed=2)
    ta = simulate(system, wa, 2.0)
    tb = simulate(system, wb, 2.0)
    diff = ta.jumps - tb.jumps
    e = np.sum(system.weights * diff * diff, axis=1)
    assert np.all(np.diff(e) <= 1e-10)


def test_jump_difference_norm_nonincreasing_per_step(small_domain):
    system = make_micro(small_domain, law=("sin",))
    wa = initial_jump(small_domain, "modulated", 4.0)
    wb = initial_jump(small_domain, "uniform", 1.0)
    ta = simulate(system, wa, 1.0)
    tb = simulate(system, wb, 1.0)
    norms = [system.jump_norm(d) for d in (ta.jumps - tb.jumps)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_odd_symmetry(small_domain):
    system = make_micro(small_domain, law=("sin",))
    neg = MicroSystem(small_domain, system.cond, system.law,
                      T.make_boundary_data("affine", "sin", -1.0),
                      system.params)
    w0 = initial_jump(small_domain, "random", 5.0, seed=11)
    ta = simulate(system, w0, 1.0)
    tb = simulate(neg, -w0, 1.0)
    assert np.max(np.abs(ta.jumps + tb.jumps)) < 1e-10


def test_common_factor_scaling_linear(small_domain):
    w0 = initial_jump(small_domain, "random", 5.0, seed=12)
    base = make_micro(small_domain, cond=(2.0, 1.0), law=("linear",), kappa=1.0)
    scaled = make_micro(small_domain, cond=(2.0 * 7, 7.0), law=("linear",),
                        kappa=7.0, alpha=7.0)
    ta = simulate(base, w0, 0.5)
    tb = simulate(scaled, w0, 0.5)
    assert np.max(np.abs(ta.jumps - tb.jumps)) < 1e-10
    ua = base.bulk_at(0.5, ta.jumps[-1])
    ub = scaled.bulk_at(0.5, tb.jumps[-1])
    assert np.max(np.abs(ua - ub)) < 1e-10


# -- dissipation identity ---------------------------------------------------------

def test_dissipation_identity_zero_difference(small_domain):
    system = make_micro(small_domain)
    w = initial_jump(small_domain, "random", 2.0, seed=13)
    nxt = step(system, system.state_at(0.0, w)).jump
    terms = dissipation_identity(system, (w, w), (nxt, nxt))
    assert terms["bulk_term"] == 0.0
    assert terms["membrane_storage_delta"] == 0.0
    assert terms["membrane_dissipation"] == 0.0


def test_dissipation_identity_terms_sum_to_residual(small_domain):
    system = make_micro(small_domain, law=("sin",))
    wa = initial_jump(small_domain, "random", 5.0, seed=1)
    wb = initial_jump(small_domain, "random", 5.0, seed=2)
    ta = simulate(system, wa, 0.5)
    tb = simulate(system, wb, 0.5)
    for i in range(1, len(ta.ts)):
        terms = dissipation_identity(system, (ta.jumps[i - 1],
                                              tb.jumps[i - 1]),
                                     (ta.jumps[i], tb.jumps[i]))
        assert abs(terms["residual_sum"]) < 1e-10
        assert terms["membrane_dissipation"] >= -1e-12
        assert terms["bulk_term"] >= -1e-12


def test_dissipation_bulk_term_equals_gradient_energy(small_domain):
    # the response-matrix quadratic form must agree with the face-wise
    # sigma-weighted gradient energy of the lifted difference field
    cond = T.make_conductivity(small_domain.cell, 2.0, 1.0)
    system = make_micro(small_domain, cond=(2.0, 1.0), law=("linear",), kappa=1.0)
    wa = initial_jump(small_domain, "random", 3.0, seed=3)
    wb = initial_jump(small_domain, "random", 3.0, seed=4)
    sa = system.state_at(0.1, wa)
    sb = system.state_at(0.1, wb)
    r_w = wa - wb
    r_u = sa.u - sb.u
    bulk = float(r_w @ system.flux_map.apply(r_w))
    grad = dense_sigma_gradient_energy(small_domain, cond, r_u, r_w, None)
    assert bulk == pytest.approx(grad, rel=1e-10, abs=1e-12)


def test_dissipation_identity_linear_matches_dense(small_domain):
    kappa = 2.0
    system = make_micro(small_domain, law=("linear",), kappa=kappa)
    wa = initial_jump(small_domain, "random", 3.0, seed=5)
    wb = initial_jump(small_domain, "random", 3.0, seed=6)
    ta = simulate(system, wa, 0.1)
    tb = simulate(system, wb, 0.1)
    terms = dissipation_identity(system, (ta.jumps[-2], tb.jumps[-2]),
                                 (ta.jumps[-1], tb.jumps[-1]))
    eps = small_domain.epsilon
    s = system.weights
    r = ta.jumps[-1] - tb.jumps[-1]
    dense_dissip = float(np.sum(s * kappa / eps * r * r))
    assert terms["membrane_dissipation"] == pytest.approx(dense_dissip, rel=1e-10)
    assert abs(terms["residual_sum"]) < 1e-10


def test_secant_range_reported(small_domain):
    system = make_micro(small_domain, law=("sin",))
    wa = initial_jump(small_domain, "random", 5.0, seed=1)
    wb = initial_jump(small_domain, "random", 5.0, seed=2)
    na = step(system, system.state_at(0.0, wa)).jump
    nb = step(system, system.state_at(0.0, wb)).jump
    terms = dissipation_identity(system, (wa, wb), (na, nb))
    assert 0.0 <= terms["secant_min"] <= terms["secant_max"] <= 2.0 + 1e-12


# -- sparse series-conductance flux against the dense response ---------------

def _series_flux(system):
    return SeriesFlux(system.op, system.weights, system.flux_map.load)


def _oracle_flux(system):
    return FluxResponse(weights=system.weights, response=dense_response(system),
                        load=system.flux_map.load)


def test_series_flux_apply_matches_dense_response(small_domain):
    system = make_micro(small_domain, cond=(2.0, 1.0))
    flux, response = _series_flux(system), dense_response(system)
    rng = np.random.default_rng(31)
    for w in rng.normal(size=(3, small_domain.n_facets)):
        assert rel_gap(flux.apply(w), response @ w) <= 1e-12
        assert rel_gap(system.flux_map.apply(w), response @ w) <= 1e-12


def test_series_factor_solves_shifted_dense_response(small_domain):
    # inclusion corner cells carry two facets, with different slopes here:
    # both updates of their diagonal must land
    assert np.bincount(small_domain.facets.inner_cell).max() == 2
    system = make_micro(small_domain, cond=(2.0, 1.0))
    flux, response = _series_flux(system), dense_response(system)
    rng = np.random.default_rng(32)
    for scale in (1e-2, 1.0, 1e3):
        d = scale * rng.uniform(0.5, 2.0, small_domain.n_facets)
        r = rng.normal(size=small_domain.n_facets)
        want = np.linalg.solve(response + np.diag(d), r)
        assert rel_gap(flux.factor(d).solve(r), want) <= 1e-12


@pytest.mark.parametrize("law,kw", [("sin", {}), ("cubic", {}), ("tanh", {}),
                                    ("linear", {"kappa": 2.0})])
def test_series_step_matches_dense_response_step(small_domain, law, kw):
    system = make_micro(small_domain, cond=(2.0, 1.0), law=(law,), dt=0.05, **kw)
    w0 = initial_jump(small_domain, "random", 5.0, seed=33)
    steps_agree(stepper_on(system, _series_flux(system)),
                stepper_on(system, _oracle_flux(system)), w0, 0.05)


def test_series_slow_chord_hands_over_like_dense_response(small_domain):
    # from this cubic start the first step's chord pass contracts by about
    # 0.47, too slowly for the pass budget, and a Newton pass follows it
    system = make_micro(small_domain, cond=(2.0, 1.0), law=("cubic",), dt=0.01)
    steppers = (stepper_on(system, _series_flux(system)),
                stepper_on(system, _oracle_flux(system)))
    kinds = record_passes(steppers[0])
    w0 = initial_jump(small_domain, "random", 5.0, seed=1)
    steps_agree(*steppers, w0, 0.01, n_steps=1)
    assert kinds[:3] == ["newton", "chord", "newton"]
    steps_agree(*steppers, w0, 0.01)


@pytest.mark.parametrize("copies", [16, 32])
def test_sixteenth_cell_size_takes_a_sparse_sin_step(cell8, copies):
    # 4096 and 16384 facets (65536 cells at 1/32, the tiling's cell cap):
    # a dense facet-sized lift would take 0.54 and 8.6 GB
    dom = T.tile_domain(cell8, 1.0 / copies)
    assert dom.n_facets == 16 * copies ** 2
    system = make_micro(dom, law=("sin",), dt=1e-3)
    flux = system.flux_map
    assert isinstance(flux, SeriesFlux)
    # a pass factor solves diag(d) + R to roundoff, R applied by the flux map
    d = flux.weights * (system.stepper.rate_coeff / 1e-3 + 1.0 / dom.epsilon)
    r = np.random.default_rng(36).normal(size=dom.n_facets)
    x = flux.factor(d).solve(r)
    res = np.max(np.abs(d * x + flux.apply(x) - r))
    assert res <= 1e-12 * np.max(np.abs(r))
    w0 = initial_jump(dom, "random", 5.0, seed=35)
    res = system.stepper.step(1e-3, w0, 1e-3)
    assert res.iterations >= 1 and np.all(np.isfinite(res.jump))


def test_shared_256_facet_system_threads_match_serial_runs(default_domain):
    # more threads than cores, switching often, race to build the stepper's
    # frozen factor on their first step and then share it and the bulk
    # factorization op.lu
    w0s = [initial_jump(default_domain, "random", 5.0, seed=s)
           for s in (46, 47, 48, 49)]
    serial_system = make_micro(default_domain, dt=1e-3)
    serial = [simulate(serial_system, w0, 0.1).jumps for w0 in w0s]
    shared = make_micro(default_domain, dt=1e-3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda w0: simulate(shared, w0, 0.1).jumps, w0s, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)
