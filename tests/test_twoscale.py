import gc
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import (cho_factor, cho_solve, cho_solve_banded,
                          cholesky_banded)

import tissue as T
from tissue.decay import decay_metrics, lyapunov_series
from tissue.errors import GeometryError
from tissue.membrane import SAMPLE_CHUNK
from tissue.micro import MicroSystem, initial_jump, simulate
from tissue.periodic import PeriodicOrbit, find_periodic, orbit_distance
from tissue import twoscale
from tissue.config import finalize_config
from tissue.twoscale import (CellOperator, NodeFlux, TwoScaleSystem,
                             find_periodic_two_scale, initial_two_scale_jump,
                             micro_two_scale_gap, periodic_weak_residual,
                             simulate_two_scale, transient_weak_residual,
                             two_scale_decay_metrics, _corrector_norms,
                             _macro_norms)

from conftest import record_passes, rel_gap, steps_agree, stepper_on
from oracles import (DenseTwoScale, FluxResponse, assemble_samples,
                     band_to_dense, cell_responses, dense_capacitance,
                     dense_gbar, dense_schur, dense_two_scale,
                     minus_node_blocks, penalized_cell_solve,
                     per_pattern_samples, per_sample_mean_defects,
                     per_step_weak_sum)


def make_two_scale(cell=None, cond=(1.0, 1.0), law=("sin",),
                   drive=("affine", "sin", 1.0), dt=1e-2, macro_res=2,
                   dim=2, cell_res=4, **law_kw):
    cell = T.build_cell_geometry(0.25, cell_res, dim=dim) if cell is None else cell
    conductivity = T.make_conductivity(cell, *cond)
    nl = T.make_nonlinearity(law[0], **law_kw)
    bd = T.make_boundary_data(*drive)
    params = T.SolverParams(dt=dt)
    return TwoScaleSystem(cell, conductivity, nl, bd, params,
                          macro_res=macro_res)


# -- cell operator ------------------------------------------------------------

def test_cell_operator_constants_in_kernel():
    cell = T.build_cell_geometry(0.25, 8)
    cond = T.make_conductivity(cell, 3.0, 1.0)
    op = CellOperator(cell, cond)
    assert op.row_sum_defect() <= 1e-12


def test_cell_operator_no_corrector_without_contrast_or_jump():
    cell = T.build_cell_geometry(0.25, 8)
    cond = T.make_conductivity(cell, 2.0, 2.0)
    op = CellOperator(cell, cond)
    c = op.corrector_for(np.array([1.0, 0.0]), np.zeros(len(cell.facets)))
    assert np.max(np.abs(c)) < 1e-14


def test_cell_operator_contrast_induces_corrector():
    cell = T.build_cell_geometry(0.25, 8)
    cond = T.make_conductivity(cell, 5.0, 1.0)
    op = CellOperator(cell, cond)
    c = op.corrector_for(np.array([1.0, 0.0]), np.zeros(len(cell.facets)))
    assert np.max(np.abs(c)) > 1e-3
    assert abs(op.data.vol * c.sum()) < 1e-14


def test_cell_operator_1d_hand_assembly():
    cell = T.build_cell_geometry(0.25, 4, dim=1)
    cond = T.make_conductivity(cell, 2.0, 1.0)
    op = CellOperator(cell, cond)
    h = 0.25
    # periodic faces 0|1, 1|2, 2|3, 3|0 with conductivities set by the
    # phases (cells 1,2 inside): membrane, interior, membrane, exterior
    sig_h = 2 * 2.0 * 1.0 / 3.0
    ks = np.array([sig_h, 2.0, sig_h, 1.0]) * h / h ** 2
    expected = np.zeros((4, 4))
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for (a, b), k in zip(pairs, ks):
        expected[a, a] += k
        expected[b, b] += k
        expected[a, b] -= k
        expected[b, a] -= k
    assert np.max(np.abs(op.A.toarray() - expected)) < 1e-12


# -- trivial invariances --------------------------------------------------------

def test_constant_drive_zero_state():
    system = make_two_scale(drive=("constant", "constant", 4.0))
    st = system.state_at(0.0, np.zeros(system.n_w))
    assert np.max(np.abs(st.macro - 4.0)) < 1e-12
    assert np.max(np.abs(st.corrector)) < 1e-12
    nxt = T.step(system, st)
    assert np.max(np.abs(nxt.jump)) < 1e-13
    assert np.max(np.abs(nxt.macro - 4.0)) < 1e-12


def test_zero_data_zero_trajectory():
    system = make_two_scale(drive=("constant", "constant", 0.0))
    traj = simulate_two_scale(system, np.zeros(system.n_w), 0.2)
    assert np.max(np.abs(traj.jumps)) <= 1e-13


def test_affine_drive_stays_affine_without_contrast():
    system = make_two_scale(cond=(2.0, 2.0), law=("linear",), kappa=1.0,
                            macro_res=4)
    w0 = initial_two_scale_jump(system, "uniform", 1.0)
    traj = simulate_two_scale(system, w0, 0.3)
    for i in (0, len(traj) - 1):
        st = traj.state(i)
        exact = system.macro.centers[:, 0] * system.drive.temporal(st.t)
        assert np.max(np.abs(st.macro - exact)) < 1e-10
        # correctors identical at every node (jump dynamics only)
        gap = np.max(np.abs(st.corrector - st.corrector[0][None, :]))
        assert gap < 1e-10


def test_macro_dimension_must_match_cell():
    cell = T.build_cell_geometry(0.25, 4, dim=2)
    cond = T.make_conductivity(cell, 1.0, 1.0)
    with pytest.raises(GeometryError, match="dimension"):
        TwoScaleSystem(cell, cond, T.make_nonlinearity("sin"),
                       T.make_boundary_data(), T.SolverParams(),
                       macro_res=2, macro_dim=1)


# -- dense oracle --------------------------------------------------------------

@pytest.mark.parametrize("dim,macro_res,cell_res", [(1, 2, 4), (2, 2, 4)])
def test_linear_step_matches_dense_monolithic_oracle(dim, macro_res, cell_res):
    kappa = 1.3
    system = make_two_scale(law=("linear",), kappa=kappa, cond=(2.0, 1.0),
                            macro_res=macro_res, dim=dim, cell_res=cell_res)
    dense = DenseTwoScale(system)
    rng = np.random.default_rng(0)
    w_prev = rng.uniform(-1, 1, system.n_w)
    res = system.stepper.step(0.37, w_prev.copy(), system.params.dt)
    macro_d, corr_d, w_d = dense.step(kappa, w_prev, 0.37)
    scale = max(1.0, np.max(np.abs(w_d)))
    assert np.max(np.abs(res.jump - w_d)) / scale < 1e-9
    macro, corr = system.recover(0.37, res.jump)
    assert np.max(np.abs(macro - macro_d)) < 1e-9
    assert np.max(np.abs(corr - corr_d)) < 1e-9


# -- per-node condensation against the stacked dense elimination -------------

# (dim, macro_res, cell_res, conductivity contrast); the last has 1024 jumps
CONDENSATION_GRID = [(2, 4, 8, (1.0, 1.0)), (2, 2, 4, (2.0, 1.0)),
                     (1, 2, 4, (2.0, 1.0)), (2, 1, 4, (1.0, 3.0)),
                     (1, 5, 8, (1.0, 1.0)), (2, 8, 8, (1.0, 1.0))]


@pytest.mark.parametrize("dim,macro_res,cell_res,cond", CONDENSATION_GRID)
def test_node_flux_matches_stacked_dense_elimination(dim, macro_res, cell_res,
                                                     cond):
    system = make_two_scale(cond=cond, macro_res=macro_res, dim=dim,
                            cell_res=cell_res)
    dense = dense_two_scale(system)
    flux = system.flux_map
    assert isinstance(flux, NodeFlux)
    rng = np.random.default_rng(40)
    for w in rng.normal(size=(2, system.n_w)):
        assert rel_gap(flux.apply(w), dense.response @ w) <= 1e-12
    for scale in (1e-2, 1.0, 1e3):
        d = scale * rng.uniform(0.5, 2.0, system.n_w)
        r = rng.normal(size=system.n_w)
        want = np.linalg.solve(dense.response + np.diag(d), r)
        assert rel_gap(flux.factor(d).solve(r), want) <= 1e-12
    assert rel_gap(flux.load, dense.load) <= 1e-12
    # matrix-free reconstruction against the stacked (macro, corrector) lift
    drive = system.drive.temporal(0.37)
    for w in rng.normal(size=(2, system.n_w)):
        macro, corr = system.recover(0.37, w)
        want = dense.lift_jump @ w + drive * dense.lift_drive
        assert rel_gap(np.concatenate([macro, corr.reshape(-1)]), want) \
            <= 1e-12
        # the state's flux comes from its own node gradients, not ``apply``
        flux = system.state_at(0.37, w).flux.reshape(-1)
        want = (drive * dense.load - dense.response @ w) / system.weights
        assert rel_gap(flux, want) <= 1e-12
    # decay norms of a stack of gaps against norms of their dense lifts
    w, w_orbit = rng.normal(size=(2, 3, system.n_w))
    dw = w - w_orbit
    dz = dw @ dense.lift_jump.T
    l2, grad = _macro_norms(system, dz[:, :system.n_nodes])
    cl2, cgrad = _corrector_norms(
        system, dz[:, system.n_nodes:].reshape(3, system.n_nodes, system.n_y),
        dw.reshape(3, system.n_nodes, -1))
    norms = system.gap_norms(w, w_orbit)
    got = [norms[k] for k in ("norm_macro_h1", "norm_corrector",
                              "norm_corrector_grad")]
    assert rel_gap(np.array(got), np.array([np.hypot(l2, grad), cl2, cgrad])) \
        <= 1e-12


@pytest.mark.parametrize("dim,macro_res,cell_res,cond", CONDENSATION_GRID)
def test_unchecked_lapack_solves_equal_the_scipy_wrappers(dim, macro_res,
                                                          cell_res, cond):
    # a pass solve applies the stacked node-block inverses: it matches
    # per-node scipy Cholesky solves through the same Woodbury steps with
    # the dense capacitance matrix and the dense Gbar, and equals the
    # checked banded wrapper on the pass factor's own band factor bit for
    # bit (through Gbar's stencil); the per-state Schur solve calls pbtrs
    # directly and gives the checked wrapper's bits
    system = make_two_scale(cond=cond, macro_res=macro_res, dim=dim,
                            cell_res=cell_res)
    fl = system.flux_map
    n, mac = fl.n_nodes, fl.macro
    gbar = dense_gbar(mac)[0]
    rng = np.random.default_rng(48)
    for scale in (1e-2, 1e3):
        d = scale * rng.uniform(0.5, 2.0, system.n_w)
        f = fl.factor(d)
        assert f.cap.flags.f_contiguous
        blocks = [cho_factor(fl.r_block + np.diag(dj))
                  for dj in d.reshape(n, -1)]
        bv = np.array([cho_solve(b, fl.v) for b in blocks])
        cap = cho_factor(dense_capacitance(system, f))
        for r in rng.normal(size=(2, system.n_w)):
            y = np.array([cho_solve(b, rj)
                          for b, rj in zip(blocks, r.reshape(n, -1))])
            g = gbar @ cho_solve(cap, gbar.T @ (y @ fl.v).reshape(-1))
            want = y + np.einsum("nfk,nk->nf", bv, g.reshape(n, -1))
            assert rel_gap(f.solve(r), want.reshape(-1)) <= 1e-13
            y = f.inv @ r.reshape(n, -1, 1)
            t = mac.gbar_t((y.reshape(n, -1) @ fl.v).reshape(-1))
            y += f.bv @ mac.gbar(cho_solve_banded((f.cap, True), t)
                                 ).reshape(n, -1, 1)
            assert np.array_equal(f.solve(r), y.reshape(-1))
    assert fl.schur_cf.flags.f_contiguous
    drive = system.drive.temporal(0.37)
    for w in rng.normal(size=(2, system.n_w)):
        rhs = mac.gbar_t((w.reshape(fl.n_nodes, -1) @ fl.v).reshape(-1)) \
            + drive * fl.load_u
        macro, _ = system.recover(0.37, w)
        assert np.array_equal(macro,
                              -cho_solve_banded((fl.schur_cf, True), rhs))


@pytest.mark.parametrize("dim,macro_res,cell_res,cond", CONDENSATION_GRID)
def test_one_pass_samples_equal_the_per_pattern_assembly(dim, macro_res,
                                                         cell_res, cond):
    system = make_two_scale(cond=cond, macro_res=macro_res, dim=dim,
                            cell_res=cell_res)
    want, want_load = per_pattern_samples(system)
    want.sort_indices()
    got, got_load, _ = assemble_samples(system)
    assert got.nnz == want.nnz
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(got_load, want_load)


@pytest.mark.parametrize("dim,macro_res,cell_res,cond", CONDENSATION_GRID)
def test_gram_blocks_pair_as_the_sample_matrix(dim, macro_res, cell_res, cond):
    # the weak form's bulk pairing x·(S'S v) + d (S'l)·v from the blocks
    # of S'S, against S itself, for random states x (correctors not tied
    # to the jumps) and three random tests v in one stack, at nonzero drives
    system = make_two_scale(cond=cond, macro_res=macro_res, dim=dim,
                            cell_res=cell_res)
    samples, sample_load, face_weight = assemble_samples(system)
    assert np.array_equal(system.face_weight, face_weight)
    n, n_y = system.n_nodes, system.n_y
    rng = np.random.default_rng(17)
    tests = [(rng.normal(size=n), rng.normal(size=(n, n_y)),
              rng.normal(size=system.n_w)) for _ in range(3)]
    states = rng.normal(size=(3, n + n * n_y + system.n_w))
    drives = np.array([0.7, -1.3, 2.1])
    gram = twoscale._SampleGram(system)
    z_u, z, load, _ = gram(tests, len(tests))
    for k, (test, x, d) in enumerate(zip(tests, states, drives)):
        sv = samples @ np.concatenate([p.reshape(-1) for p in test])
        want = (samples @ x + d * sample_load) @ sv
        node = x[n:n + n * n_y].reshape(n, -1), x[n + n * n_y:].reshape(n, -1)
        got = (x[:n] @ z_u[:, k] + np.sum(node[0] * z[:n_y, k].T)
               + np.sum(node[1] * z[n_y:, k].T) + d * load[k])
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("dim,macro_res,cell_res,cond", CONDENSATION_GRID)
def test_banded_schur_and_capacitance_equal_the_dense_formulas(dim, macro_res,
                                                               cell_res, cond):
    # the band holds every node pair at most two apart on one axis, capped
    # at n - 1 (dimension 1, the one-node grid)
    system = make_two_scale(cond=cond, macro_res=macro_res, dim=dim,
                            cell_res=cell_res)
    fl = system.flux_map
    n = system.n_nodes
    assert fl.schur.shape == (min(2 * macro_res ** (dim - 1), n - 1) + 1, n)
    schur = dense_schur(system)
    assert rel_gap(band_to_dense(fl.schur), schur) <= 1e-14
    rng = np.random.default_rng(51)
    for scale in (1e-2, 1.0, 1e3):
        f = fl.factor(scale * rng.uniform(0.5, 2.0, system.n_w))
        cap = fl.capacitance(f.bv)
        assert rel_gap(band_to_dense(cap), dense_capacitance(system, f)) \
            <= 1e-14
        assert np.array_equal(f.cap, cholesky_banded(cap, lower=True))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("res", [1, 2, 3, 4, 8])
def test_gbar_stencil_products_equal_the_dense_gbar(dim, res):
    # Gbar and Gbar' from the stencils, on vectors and on stacks of
    # columns, against the dense mean of the side faces' gradients; the
    # band products of the stencils against the dense Gbar' blockdiag(M_j)
    # Gbar and grad' diag(m) grad
    mac = twoscale._build_macro_grid(dim, res,
                                     T.make_boundary_data("sines"))
    gbar, gbar_load = dense_gbar(mac)
    n = mac.n_nodes
    assert np.array_equal(mac.gbar_load, gbar_load)
    assert mac.gbar_cols.shape == (2, n * dim)
    assert mac.gbar_t_rows.shape == (2 * dim, n)
    rng = np.random.default_rng(53)
    u, x = rng.normal(size=(n, 3)), rng.normal(size=(n * dim, 3))
    for got, want in ((mac.gbar(u[:, 0]), gbar @ u[:, 0]),
                      (mac.gbar(u), gbar @ u),
                      (mac.gbar_t(x[:, 0]), gbar.T @ x[:, 0]),
                      (mac.gbar_t(x), gbar.T @ x)):
        assert got.shape == want.shape
        if res == 1:        # a one-node grid has no gradient
            assert not got.any() and not want.any()
        else:
            assert rel_gap(got, want) <= 1e-14
    blocks = rng.normal(size=(n, dim, dim))
    blocks = blocks + blocks.transpose(0, 2, 1)
    band = mac.gbar_pairs(blocks)
    want = -minus_node_blocks(np.zeros((n, n)), gbar, blocks)
    assert np.max(np.abs(band_to_dense(band) - want)) \
        <= 1e-14 * max(np.abs(want).max(initial=0.0), 1.0)
    m = rng.uniform(0.5, 2.0, mac.grad.shape[0])
    grad = mac.grad.toarray()
    want = grad.T @ (m[:, None] * grad)
    assert rel_gap(band_to_dense(mac.grad_pairs(m)), want) <= 1e-14


@pytest.mark.parametrize("dim,margin,cell_res,cond", [
    (2, 0.25, 8, (1.0, 1.0)), (2, 0.25, 4, (2.0, 1.0)),
    (1, 0.25, 4, (2.0, 1.0)), (2, 1 / 3, 3, (3.0, 1.0)),
    (2, 1 / 3, 6, (0.37, 2.9)), (1, 0.2, 5, (1.0, 7.3))])
def test_grounded_cell_matrix_solves_as_the_sparse_product(dim, margin,
                                                           cell_res, cond):
    # the COO assembly from the faces is slope_c' diag(vol sigma) slope_c
    # without its first row and column, entry for entry, so the grounded
    # cell factor solves bit for bit as one of the product's block; the
    # cell spacings that are not powers of two make the products round
    cell = T.build_cell_geometry(margin, cell_res, dim=dim)
    op = CellOperator(cell, T.make_conductivity(cell, *cond))
    cfd = op.data
    product = (cfd.slope_c.T @ sp.diags(cfd.vol * cfd.sigma_face)
               @ cfd.slope_c).tocsc()
    product.sort_indices()
    want = product[1:, 1:]
    got = twoscale._cell_matrix(op.cell, cfd, 1)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(op.A.toarray(), product.toarray())
    rhs = np.random.default_rng(54).normal(size=(cfd.n_y - 1, 3))
    lu = spla.splu(want, permc_spec="MMD_AT_PLUS_A")
    assert np.array_equal(op._lu.solve(rhs), lu.solve(rhs))


def test_res32_system_holds_no_macro_sized_dense_array():
    # 1,024 nodes: a dense (n_nodes * dim x n_nodes) array alone is 16 MiB
    cfg = finalize_config({"macro.resolution": 32})
    cell = cfg.build_cell()
    parts = (cell, cfg.build_conductivity(cell), cfg.build_law(),
             cfg.build_drive(), cfg.build_params())
    gc.collect()
    tracemalloc.start()
    try:
        system = TwoScaleSystem(*parts, macro_res=32)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert system.n_nodes == 1024
    assert held < 4 * 2 ** 20


@pytest.mark.parametrize("dim,macro_res,cell_res,cond", CONDENSATION_GRID)
def test_grounded_cell_solves_equal_the_mean_penalty(dim, macro_res, cell_res,
                                                     cond):
    system = make_two_scale(cond=cond, macro_res=macro_res, dim=dim,
                            cell_res=cell_res)
    # the columns of one cell solve (x_g vanishes without contrast)
    x_g, x_w, _ = cell_responses(system)
    assert rel_gap(np.hstack([system._x_g, system._x_w]),
                   np.hstack([x_g, x_w])) <= 1e-12
    op, cfd = system.cell_op, system.cfd
    rng = np.random.default_rng(52)
    for _ in range(3):
        g, w = rng.normal(size=dim), rng.normal(size=cfd.n_facets)
        drive = cfd.axis_select @ g + cfd.slope_w @ w
        c = penalized_cell_solve(
            op, -cfd.slope_c.T @ (cfd.vol * cfd.sigma_face * drive))
        assert rel_gap(op.corrector_for(g, w), c - cfd.vol * c.sum()) \
            <= 1e-12


def test_node_factor_build_checks_its_input():
    # a non-finite pass diagonal is a ValueError, an indefinite node block
    # a LinAlgError, which the stepper takes as a failed pass
    system = make_two_scale()
    fl = system.flux_map
    d = np.ones(system.n_w)
    for bad in (np.nan, np.inf):
        d[5] = bad
        with pytest.raises(ValueError, match="finite"):
            fl.factor(d)
    # a diagonal that makes one node block indefinite
    d = np.ones(system.n_w)
    d[fl.r_block.shape[0]:2 * fl.r_block.shape[0]] = \
        -2.0 * np.abs(fl.r_block).sum()
    with pytest.raises(np.linalg.LinAlgError):
        fl.factor(d)


_FACTOR_BITS = """
import hashlib
import numpy as np
import tissue as T
cell = T.build_cell_geometry(0.25, 8)
system = T.TwoScaleSystem(cell, T.make_conductivity(cell, 2.0, 1.0),
                          T.make_nonlinearity("sin"), T.make_boundary_data(),
                          T.SolverParams(), macro_res=4)
rng = np.random.default_rng(50)
f = system.flux_map.factor(rng.uniform(0.5, 2.0, system.n_w))
print(hashlib.sha256(f.solve(rng.normal(size=system.n_w)).tobytes())
      .hexdigest())
"""


def test_pass_factor_bits_do_not_depend_on_the_blas_thread_count():
    # artifacts are byte-identical run to run; the node-block inverses must
    # not take a threaded LAPACK path whose roundoff depends on the threads
    src = Path(T.__file__).resolve().parents[1]
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src),
               **{name: threads for name in ("OPENBLAS_NUM_THREADS",
                                             "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS")}}
        out = subprocess.run([sys.executable, "-c", _FACTOR_BITS], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_held_factors_are_read_only():
    # the factors a system shares cannot be written, and stepping and state
    # rebuilds still run on them
    system = make_two_scale(cond=(2.0, 1.0))
    fl = system.flux_map
    w = initial_two_scale_jump(system, "random", 3.0, seed=49)
    dt = system.params.dt
    w = system.stepper.step(dt, w, dt).jump
    frozen = system.stepper._frozen
    held = [fl.schur, fl.schur_cf, frozen.inv, frozen.bv, frozen.cap]
    for arr in held:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
    traj = simulate_two_scale(system, w, 5 * dt)
    assert traj.factorizations.sum() == 0
    macro, corr = system.recover(0.37, traj.jumps[-1])
    assert np.isfinite(macro).all() and np.isfinite(corr).all()


def _oracle_stepper(system):
    dense = dense_two_scale(system)
    return stepper_on(system, FluxResponse(weights=system.weights,
                                           response=dense.response,
                                           load=dense.load))


@pytest.mark.parametrize("law,kw", [("sin", {}), ("cubic", {}), ("tanh", {}),
                                    ("linear", {"kappa": 2.0})])
def test_node_flux_step_matches_dense_response_step(law, kw):
    system = make_two_scale(cond=(2.0, 1.0), law=(law,), dt=0.05, **kw)
    w0 = initial_two_scale_jump(system, "random", 5.0, seed=41)
    steps_agree(system.stepper, _oracle_stepper(system), w0, 0.05)


def test_node_flux_slow_chord_hands_over_like_dense_response():
    # from this cubic start the first step's chord pass contracts by about
    # 0.46, too slowly for the pass budget, and a Newton pass follows it
    system = make_two_scale(cond=(2.0, 1.0), law=("cubic",), dt=0.01)
    steppers = (stepper_on(system, system.flux_map), _oracle_stepper(system))
    kinds = record_passes(steppers[0])
    w0 = initial_two_scale_jump(system, "random", 5.0, seed=1)
    steps_agree(*steppers, w0, 0.01, n_steps=1)
    assert kinds[:3] == ["newton", "chord", "newton"]
    steps_agree(*steppers, w0, 0.01)


def test_1024_jump_sin_step_matches_dense_response_step():
    system = make_two_scale(macro_res=8, cell_res=8, dt=1e-3)
    assert system.n_w == 1024
    w0 = initial_two_scale_jump(system, "random", 5.0, seed=43)
    steps_agree(system.stepper, _oracle_stepper(system), w0, 1e-3, n_steps=1)


def test_shared_system_threads_match_serial_runs():
    # one system and its linear twin, each stepper with its frozen factor,
    # stepped from two threads at once
    system = make_two_scale(cond=(2.0, 1.0), law=("sin",))
    linear = T.make_nonlinearity("linear", kappa=1.0)
    w0s = [initial_two_scale_jump(system, "random", 3.0, seed=s)
           for s in (44, 45)]
    serial_twin = system.with_law(linear)
    serial = [T.simulate(sys_, w0, 0.3).jumps
              for sys_ in (system, serial_twin) for w0 in w0s]
    shared_twin = system.with_law(linear)
    runs = [(sys_, w0) for sys_ in (system, shared_twin) for w0 in w0s]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda run: T.simulate(*run, 0.3).jumps,
                                 runs))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_9216_jumps_past_the_old_lift_budget_step_and_rebuild_correctors():
    # 576 nodes x 16 facets; a dense jump lift would take 2.8 GB here
    system = make_two_scale(cond=(2.0, 1.0), macro_res=24, cell_res=8,
                            dt=1e-3)
    assert system.n_w == 9216
    w0 = initial_two_scale_jump(system, "random", 5.0, seed=47)
    traj = simulate_two_scale(system, w0, 3e-3)
    assert len(traj) == 4
    assert float(traj.mean_defects.max()) <= 1e-12
    st = traj.state(len(traj) - 1)
    gbar, gbar_load = dense_gbar(system.macro)
    grads = (gbar @ st.macro + system.drive.temporal(st.t)
             * gbar_load).reshape(system.n_nodes, -1)
    for g, w, corr in zip(grads, st.jump, st.corrector):
        assert rel_gap(corr, system.cell_op.corrector_for(g, w)) <= 1e-12


def test_bulk_hessian_matches_dense_loops():
    system = make_two_scale(cond=(3.0, 0.5), macro_res=2, cell_res=4)
    dense = DenseTwoScale(system)
    samples, sample_load, _ = assemble_samples(system)
    gram = (samples.T @ samples).toarray()
    assert np.max(np.abs(gram - dense.hessian)) < 1e-11
    load = samples.T @ sample_load
    assert np.max(np.abs(load - dense.load)) < 1e-11


# -- structure preservation ------------------------------------------------------

def test_zero_mean_preserved_along_trajectory():
    system = make_two_scale(cond=(2.0, 1.0), law=("sin",), macro_res=2)
    w0 = initial_two_scale_jump(system, "random", 3.0, seed=1)
    traj = simulate_two_scale(system, w0, 0.5)
    assert float(traj.mean_defects.max()) <= 1e-12


def test_membrane_flux_continuity_two_scale():
    system = make_two_scale(cond=(4.0, 1.0), law=("sin",), macro_res=2)
    w0 = initial_two_scale_jump(system, "random", 2.0, seed=2)
    st = system.state_at(0.2, w0)
    q_in, q_out = system.one_sided_membrane_fluxes(st)
    scale = max(1.0, np.max(np.abs(q_in)))
    assert np.max(np.abs(q_in - q_out)) / scale < 1e-8
    assert np.max(np.abs(q_in - st.flux)) / scale < 1e-10


def test_two_scale_lyapunov_never_increases():
    system = make_two_scale(law=("sin",), macro_res=2)
    wa = initial_two_scale_jump(system, "random", 5.0, seed=3)
    wb = initial_two_scale_jump(system, "random", 5.0, seed=4)
    ta = simulate_two_scale(system, wa, 2.0)
    tb = simulate_two_scale(system, wb, 2.0)
    diff = ta.jumps - tb.jumps
    e = np.sum(system.weights * diff * diff, axis=1)
    assert np.all(np.diff(e) <= 1e-10)


def test_reduction_to_micro_at_unit_scale():
    # one macro node, constant drive, uniform jump: the two-scale membrane
    # dynamics coincide with the resolved solver at unit cell size
    cell = T.build_cell_geometry(0.25, 4)
    cond = T.make_conductivity(cell, 2.0, 1.0)
    law = T.make_nonlinearity("sin")
    drive = T.make_boundary_data("constant", "constant", 2.0)
    params = T.SolverParams(dt=1e-2)
    ts = TwoScaleSystem(cell, cond, law, drive, params, macro_res=1)
    ms = MicroSystem(T.tile_domain(cell, 1.0), cond, law, drive, params)
    w0 = initial_two_scale_jump(ts, "uniform", 2.0)
    ta = simulate_two_scale(ts, w0, 0.5)
    tb = simulate(ms, initial_jump(ms.domain, "uniform", 2.0), 0.5)
    assert np.max(np.abs(ta.jumps - tb.jumps)) < 1e-9


# -- periodic orbits ---------------------------------------------------------------

def test_two_scale_constant_drive_orbit():
    system = make_two_scale(drive=("constant", "constant", 1.0))
    orbit = find_periodic_two_scale(system, tol=1e-10)
    assert np.max(np.abs(orbit.jumps)) < 1e-10


def test_two_scale_linear_fixed_point_matches_dense():
    import scipy.linalg
    kappa = 1.0
    system = make_two_scale(law=("linear",), kappa=kappa, cond=(2.0, 1.0),
                            macro_res=2)
    dense = DenseTwoScale(system)
    n_steps = round(1.0 / system.params.dt)
    mat = np.eye(system.n_w)
    off = np.zeros(system.n_w)
    for k in range(n_steps):
        t = (k + 1) * system.params.dt
        cols = np.empty((system.n_w, system.n_w + 1))
        for j in range(system.n_w):
            _, _, cols[:, j] = dense.step(kappa, mat[:, j], t)
        zero_in = np.zeros(system.n_w)
        _, _, resp0 = dense.step(kappa, zero_in, t)
        # affine map: subtract the zero response from basis columns
        _, _, off_new = dense.step(kappa, off, t)
        mat = cols[:, :system.n_w] - resp0[:, None]
        off = off_new
    w_star = scipy.linalg.solve(np.eye(system.n_w) - mat, off)
    orbit = find_periodic_two_scale(system, tol=1e-10)
    assert np.max(np.abs(orbit.jumps[0] - w_star)) < 1e-8


def test_two_scale_delta_orbits_contract():
    system = make_two_scale(law=("sin",), macro_res=2)
    orbits = find_periodic_two_scale(system, tol=1e-9, method="delta",
                                     deltas=(1e-1, 1e-2, 1e-3))
    d01 = orbit_distance(system, orbits[0], orbits[1])
    d12 = orbit_distance(system, orbits[1], orbits[2])
    assert d01 > d12 > 0.0
    direct = find_periodic_two_scale(system, tol=1e-9)
    assert orbit_distance(system, orbits[2], direct) < 1e-4


# -- decay ---------------------------------------------------------------------------

def test_two_scale_trajectory_on_orbit_stays():
    system = make_two_scale(law=("sin",), macro_res=2)
    orbit = find_periodic_two_scale(system, tol=1e-10)
    traj = simulate_two_scale(system, orbit.jumps[0].copy(), 2.0)
    rep = two_scale_decay_metrics(traj, orbit)
    tol = 100 * max(orbit.defect, 1e-12)
    assert np.max(rep.columns["norm_macro_h1"]) < tol
    assert np.max(rep.columns["norm_jump"]) < tol


def test_two_scale_linear_rate_matches_dense_eigen_oracle():
    from tissue.decay import decay_metrics  # noqa: F401  (fit shares the code)
    kappa = 1.0
    system = make_two_scale(law=("linear",), kappa=kappa, cond=(2.0, 1.0),
                            macro_res=2)
    dense = DenseTwoScale(system)
    p = system.params
    nz = system.n_nodes * (1 + system.n_y)
    # Schur complement of the dense step matrix onto the jump block gives
    # the implicit matrix whose top response eigenvalue sets the slow rate
    m = dense.linear_step_matrix(kappa)
    h_schur = m[nz:, nz:] - m[nz:, :nz] @ np.linalg.solve(m[:nz, :nz],
                                                          m[:nz, nz:])
    s2 = system.weights
    c = p.alpha / p.dt
    h_sym = 0.5 * (h_schur + h_schur.T) / s2[0]
    mu_max = float((c / np.linalg.eigvalsh(h_sym)).max())
    oracle_rate = np.log(mu_max) / p.dt
    orbit = find_periodic_two_scale(system, tol=1e-11)
    w0 = initial_two_scale_jump(system, "random", 3.0, seed=12)
    traj = simulate_two_scale(system, w0, 8.0, stride=5)
    rep = two_scale_decay_metrics(traj, orbit)
    assert rep.fit.classification == "exponential"
    assert rep.fit.rate == pytest.approx(oracle_rate, rel=0.05)


def test_two_scale_decay_report(small_domain):
    system = make_two_scale(law=("sin",), macro_res=2)
    orbit = find_periodic_two_scale(system, tol=1e-9)
    w0 = initial_two_scale_jump(system, "random", 5.0, seed=5)
    traj = simulate_two_scale(system, w0, 20.0, stride=10)
    rep = two_scale_decay_metrics(traj, orbit)
    ratios = rep.as_dict()["final_over_initial"]
    for key in ("norm_macro_h1", "norm_corrector", "norm_corrector_grad",
                "norm_jump"):
        assert ratios[key] < 1e-3
    assert rep.lyapunov_monotone
    assert rep.max_mean_defect <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_mean_defects_match_per_sample_states(dim):
    # more samples than one chunk, the last chunk partly filled
    system = make_two_scale(cond=(2.0, 1.0), dim=dim,
                            macro_res=4 if dim == 1 else 2)
    traj = simulate_two_scale(
        system, initial_two_scale_jump(system, "random", 5.0, seed=3), 0.4)
    assert len(traj) > 2 * SAMPLE_CHUNK and len(traj) % SAMPLE_CHUNK
    want = per_sample_mean_defects(traj)
    assert np.max(want) > 0.0
    assert np.max(np.abs(traj.mean_defects - want)) <= 1e-15


def test_stacked_state_is_the_stack_of_sample_states():
    system = make_two_scale(cond=(2.0, 1.0))
    ts = np.array([0.1, 0.35, 0.6])
    ws = np.random.default_rng(2).normal(size=(3, system.n_w))
    stacked = system.state_at(ts, ws)
    for i, (t, w) in enumerate(zip(ts, ws)):
        one = system.state_at(float(t), w)
        for name in ("macro", "corrector", "jump", "flux"):
            assert rel_gap(getattr(stacked, name)[i], getattr(one, name)) \
                <= 1e-13, name
        assert abs(stacked.mean_defect[i] - one.mean_defect) <= 1e-15


def test_decay_metrics_serves_two_scale_runs():
    system = make_two_scale(law=("sin",), macro_res=2)
    orbit = find_periodic_two_scale(system, tol=1e-9)
    w0 = initial_two_scale_jump(system, "random", 5.0, seed=5)
    traj = simulate(system, w0, 1.0, stride=10)     # no mean defects recorded
    plain = decay_metrics(traj, orbit)
    full = two_scale_decay_metrics(traj, orbit)
    names = ["norm_macro_h1", "norm_corrector", "norm_corrector_grad",
             "norm_jump", "lyapunov"]
    assert list(plain.columns) == list(full.columns) == names
    for name in names:
        assert np.array_equal(plain.columns[name], full.columns[name]), name
    assert plain.fit == full.fit
    assert plain.lyapunov_monotone == full.lyapunov_monotone
    assert plain.max_mean_defect is None
    assert 0.0 <= full.max_mean_defect <= 1e-12
    keys = {"rate", "r_squared", "classification", "fit_samples",
            "lyapunov_monotone", "final_over_initial"}
    assert set(plain.as_dict()) == keys
    assert set(full.as_dict()) == keys | {"max_mean_defect"}
    assert set(full.as_dict()["final_over_initial"]) == set(names[:4])


def test_report_lyapunov_column_is_the_lyapunov_series():
    system = make_two_scale(law=("sin",), macro_res=2)
    orbit = find_periodic_two_scale(system, tol=1e-9)
    w0 = initial_two_scale_jump(system, "random", 5.0, seed=5)
    traj = simulate(system, w0, 2.0, stride=10)
    dt = system.params.dt
    on_orbit = replace(traj, jumps=np.array(
        [orbit.jump_at_step(int(round(t / dt))) for t in traj.ts]))
    report = decay_metrics(traj, orbit)
    assert report.columns["lyapunov"].tolist() == \
        lyapunov_series(traj, on_orbit).values.tolist()


def test_roundoff_level_norm_has_no_ratio():
    # a per-node uniform jump does not couple to the macro potential, so the
    # macro gap is zero up to roundoff throughout
    system = make_two_scale(law=("sin",), macro_res=2)
    orbit = find_periodic_two_scale(system, tol=1e-9)
    w0 = initial_two_scale_jump(system, "modulated", 1.0)
    traj = simulate_two_scale(system, w0, 2.0, stride=10)
    rep = two_scale_decay_metrics(traj, orbit)
    cols = rep.columns
    assert cols["norm_macro_h1"][0] <= 1e-12 * cols["norm_jump"][0]
    ratios = rep.as_dict()["final_over_initial"]
    assert ratios["norm_macro_h1"] is None
    for name in ("norm_corrector", "norm_corrector_grad", "norm_jump"):
        assert ratios[name] == float(cols[name][-1] / cols[name][0])


# -- weak form -----------------------------------------------------------------------

def test_transient_weak_form_certification():
    system = make_two_scale(cond=(2.0, 1.0), law=("sin",), macro_res=2)
    w0 = initial_two_scale_jump(system, "random", 2.0, seed=6)
    traj = simulate_two_scale(system, w0, 0.3)
    rng = np.random.default_rng(7)
    n_steps = len(traj.ts) - 1
    scale = max(1.0, float(np.max(np.abs(traj.jumps))))
    for trial in range(3):
        phi = rng.normal(size=system.n_nodes)
        phc = rng.normal(size=(system.n_nodes, system.n_y))
        phw = rng.normal(size=system.n_w)

        def test_fn(n, t):
            fac = 1.0 - n / n_steps
            return phi * np.cos(t), phc * fac, phw * fac

        res = transient_weak_residual(system, traj, test_fn)
        assert abs(res) <= 1e-8 * scale


def test_periodic_weak_form_certification():
    system = make_two_scale(cond=(2.0, 1.0), law=("sin",), macro_res=2)
    orbit = find_periodic_two_scale(system, tol=1e-10)
    rng = np.random.default_rng(8)
    n_steps = orbit.steps_per_period
    phi = rng.normal(size=system.n_nodes)
    phc = rng.normal(size=(system.n_nodes, system.n_y))
    phw = rng.normal(size=system.n_w)

    def test_fn(n, t):
        fac = np.cos(2 * np.pi * n / n_steps)
        return phi * fac, phc * fac, phw * fac

    res = periodic_weak_residual(system, orbit, test_fn)
    assert abs(res) <= 1e-8


@pytest.mark.parametrize("part", [0, 1, 2])
def test_periodic_weak_residual_rejects_ends_apart_by_1e7(part):
    # the boundary term assumes equal test jumps at both ends of the period,
    # so a relative endpoint mismatch far below allclose's default rtol of
    # 1e-5 must not pass
    system = make_two_scale()
    traj = simulate(system, initial_two_scale_jump(system, "random", 2.0,
                                                   seed=1), 1.0)
    orbit = PeriodicOrbit(jumps=traj.jumps, dt=traj.dt, defect=0.0,
                          method="picard", iterations=0)
    rng = np.random.default_rng(5)
    parts = (rng.normal(size=system.n_nodes),
             rng.normal(size=(system.n_nodes, system.n_y)),
             rng.normal(size=system.n_w))

    def test_fn(n, t):
        off = 1e-7 if n == orbit.steps_per_period else 0.0
        return tuple(p * (1.0 + off * (i == part))
                     for i, p in enumerate(parts))

    with pytest.raises(ValueError, match="1-periodic"):
        periodic_weak_residual(system, orbit, test_fn)


def test_weak_residuals_hold_one_chunk_of_tests():
    # 256 jumps over 1000 stride-1 steps: one test triple is 10.4 KB, so
    # the tests of every step together would take 10.4 MB
    system = make_two_scale(cond=(2.0, 1.0), cell_res=8, macro_res=4,
                            dt=1e-3)
    assert system.n_w == 256
    traj = simulate(system, initial_two_scale_jump(system, "random", 5.0,
                                                   seed=1), 1.0)
    orbit = PeriodicOrbit(jumps=traj.jumps, dt=traj.dt, defect=0.0,
                          method="picard", iterations=0)
    rng = np.random.default_rng(9)
    phi = rng.normal(size=system.n_nodes)
    phc = rng.normal(size=(system.n_nodes, system.n_y))
    phw = rng.normal(size=system.n_w)

    def periodic_test(n, t):
        fac = np.cos(2 * np.pi * n / orbit.steps_per_period)
        return phi * fac, phc * fac, phw * fac

    def transient_test(n, t):
        fac = 1.0 - n / (len(traj.ts) - 1)
        return phi * fac, phc * fac, phw * fac

    for fn, run, test in ((periodic_weak_residual, orbit, periodic_test),
                          (transient_weak_residual, traj, transient_test)):
        tracemalloc.start()
        try:
            fn(system, run, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20, (fn.__name__, peak)


def test_weak_residual_at_4096_jumps_holds_a_few_chunks_of_tests():
    # the sum pairs through cell-sized Gram blocks, so its peak is set by
    # the chunk of test triples (16 x 81 x 256 values, 2.65 MB here), not
    # by a Gram matrix of the stacked unknowns
    system = make_two_scale(cond=(2.0, 1.0), cell_res=8, macro_res=16,
                            dt=1e-3)
    assert system.n_w == 4096
    traj = simulate(system, initial_two_scale_jump(system, "random", 5.0,
                                                   seed=1), 0.04)
    assert len(traj.ts) - 1 > 2 * SAMPLE_CHUNK
    rng = np.random.default_rng(9)
    phi = rng.normal(size=system.n_nodes)
    phc = rng.normal(size=(system.n_nodes, system.n_y))
    phw = rng.normal(size=system.n_w)
    chunk = SAMPLE_CHUNK * (phi.nbytes + phc.nbytes + phw.nbytes)

    def test_fn(n, t):
        fac = 1.0 - n / (len(traj.ts) - 1)
        return phi * fac, phc * fac, phw * fac

    tracemalloc.start()
    try:
        transient_weak_residual(system, traj, test_fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * chunk, (peak, chunk)


@pytest.mark.parametrize("dim", [1, 2])
def test_weak_residuals_match_the_per_step_pairing(dim, monkeypatch):
    # the chunked Gram pairing against the per-step pairing through the
    # samples, over more steps than one chunk: on the orbit and on a
    # transient run (residuals at roundoff) to 1e-12 of the jump scale, and
    # on jumps perturbed by noise of 0.1 (the jumps are about 0.17 here;
    # residuals of 0.01-0.3) to 1e-12 relative
    system = make_two_scale(cond=(2.0, 1.0), law=("sin",), dim=dim,
                            macro_res=4 if dim == 1 else 2)
    orbit = find_periodic_two_scale(system, tol=1e-10)
    traj = simulate_two_scale(
        system, initial_two_scale_jump(system, "random", 2.0, seed=6), 0.5)
    assert len(traj.ts) - 1 > SAMPLE_CHUNK
    rng = np.random.default_rng(10 + dim)
    phi = rng.normal(size=system.n_nodes)
    phc = rng.normal(size=(system.n_nodes, system.n_y))
    phw = rng.normal(size=system.n_w)

    def periodic_test(n, t):
        fac = np.cos(2 * np.pi * n / orbit.steps_per_period)
        return phi * fac, phc * fac, phw * fac

    def transient_test(n, t):
        fac = 1.0 - n / (len(traj.ts) - 1)
        return phi * np.cos(t), phc * fac, phw * fac

    def noisy(run):
        return replace(run, jumps=run.jumps
                       + 0.1 * rng.normal(size=run.jumps.shape))

    runs = [(periodic_weak_residual, orbit, periodic_test),
            (transient_weak_residual, traj, transient_test)]
    runs += [(fn, noisy(run), test) for fn, run, test in runs]
    got = [fn(system, run, test) for fn, run, test in runs]
    monkeypatch.setattr(twoscale, "_weak_sum", per_step_weak_sum)
    want = [fn(system, run, test) for fn, run, test in runs]
    for (_, run, _), a, b in zip(runs[:2], got, want):
        assert abs(a - b) <= 1e-12 * float(np.max(np.abs(run.jumps)))
    for a, b in zip(got[2:], want[2:]):
        assert abs(b) > 1e-2
        assert abs(a - b) <= 1e-12 * abs(b)


# -- consistency with the resolved solver ----------------------------------------

def test_micro_two_scale_error_decreases_in_epsilon():
    cell = T.build_cell_geometry(0.25, 8)
    cond = T.make_conductivity(cell, 1.0, 1.0)
    law = T.make_nonlinearity("linear", kappa=1.0)
    drive = T.make_boundary_data("affine", "sin", 1.0)
    params = T.SolverParams(dt=1e-2)
    ts = TwoScaleSystem(cell, cond, law, drive, params, macro_res=8)
    w0 = initial_two_scale_jump(ts, "uniform", 1.0)
    traj = simulate_two_scale(ts, w0, 1.0, stride=100)
    st = ts.state_at(1.0, traj.jumps[-1])
    gaps = []
    for eps in (0.5, 0.25, 0.125):
        dom = T.tile_domain(cell, eps)
        ms = MicroSystem(dom, cond, law, drive, params)
        mt = simulate(ms, initial_jump(dom, "uniform", 1.0), 1.0, stride=100)
        gaps.append(micro_two_scale_gap(ms, mt.jumps[-1], ts, st, 1.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_transient_energy_bound():
    # period-window energy of the transient stays under the data bound plus
    # the released initial storage
    system = make_two_scale(cond=(2.0, 1.0), law=("sin",), macro_res=2)
    w0 = initial_two_scale_jump(system, "random", 3.0, seed=9)
    traj = simulate_two_scale(system, w0, 1.0)
    p = system.params
    cert = system.law.certificate
    lam_q, lam_a = cert.growth_quad, cert.growth_abs
    s2 = system.weights
    dt = p.dt
    samples, sample_load, _ = assemble_samples(system)
    bulk_sq = 0.0
    jump_sq = 0.0
    for n in range(1, len(traj.ts)):
        w = traj.jumps[n]
        macro, corr = system.recover(float(traj.ts[n]), w)
        x = np.concatenate([macro, corr.reshape(-1), w])
        vals = samples @ x + system.drive.temporal(float(traj.ts[n])) \
            * sample_load
        bulk_sq += dt * float(vals @ vals)          # sigma-weighted gradient
        jump_sq += dt * float(np.sum(s2 * w * w))
    data_sq = 0.0
    for n in range(1, len(traj.ts)):
        t = float(traj.ts[n])
        g = system.drive.gradient(system.macro.centers, t)
        hdim = system.macro.spacing ** system.macro.dim
        data_sq += dt * system.cond.mean * hdim * float(np.sum(g * g))
    memb_total = float(np.sum(s2))
    stored0 = 0.5 * p.alpha * float(np.sum(s2 * w0 * w0))
    gamma = data_sq + lam_a ** 2 * memb_total / (2 * lam_q) + stored0
    lhs = 0.5 * bulk_sq + 0.5 * lam_q * jump_sq
    assert lhs <= gamma + 1e-12
