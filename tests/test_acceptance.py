"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria marked with a
runtime budget assert it.  All tolerances are fixed here, none are tuned at
runtime.
"""

import time

import numpy as np
import pytest
import scipy.linalg

import tissue as T
from tissue.decay import decay_metrics, fit_rate, lyapunov_series
from tissue.micro import (MicroSystem, initial_jump, simulate,
                          verify_energy_estimates)
from tissue.periodic import (find_periodic, find_periodic_regularized,
                             orbit_distance, poincare_map)
from tissue.twoscale import (TwoScaleSystem, initial_two_scale_jump,
                             micro_two_scale_gap)

from oracles import DenseLinearStepper

LAWS = {
    "linear": dict(kind="linear", kappa=1.0),
    "sin": dict(kind="sin"),
    "cubic": dict(kind="cubic"),
}


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_setup():
    cell = T.build_cell_geometry(0.25, 8)
    dom = T.tile_domain(cell, 0.25)
    cond = T.make_conductivity(cell, 1.0, 1.0)
    drive = T.make_boundary_data("affine", "sin", 1.0)
    params = T.SolverParams(alpha=1.0, dt=1e-3)
    return cell, dom, cond, drive, params


@pytest.fixture(scope="module")
def systems(default_setup):
    cell, dom, cond, drive, params = default_setup
    return {name: MicroSystem(dom, cond, T.make_nonlinearity(**kw), drive, params)
            for name, kw in LAWS.items()}


@pytest.fixture(scope="module")
def orbits(systems):
    return {name: find_periodic(sys_, tol=1e-8)
            for name, sys_ in systems.items()}


def test_criterion_1_lyapunov_monotonicity(systems):
    t0 = time.time()
    worst = {}
    for name, system in systems.items():
        dom = system.domain
        wa = initial_jump(dom, "random", 5.0, seed=101)
        wb = initial_jump(dom, "random", 5.0, seed=202)
        ta = simulate(system, wa, 10.0)
        tb = simulate(system, wb, 10.0)
        series = lyapunov_series(ta, tb)
        worst[name] = series.max_increase
        assert series.monotone, f"{name}: increase {series.max_increase:.2e}"
    elapsed = time.time() - t0
    detail = (f"max per-step increase "
              + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
              + f"; {elapsed:.0f}s")
    _report("criterion 1 (paired-jump energy nonincreasing, 3 laws, "
            "10 periods)", elapsed < 120.0, detail)


def test_criterion_2_decay_to_periodic_orbit(systems, orbits):
    t0 = time.time()
    # noncoercive law: all three norms below 1e-3 relative within 50 periods
    system = systems["sin"]
    w0 = initial_jump(system.domain, "random", 5.0, seed=303)
    traj = simulate(system, w0, 50.0, stride=50)
    rep = decay_metrics(traj, orbits["sin"])
    ratios = rep.as_dict()["final_over_initial"]
    ok_sin = all(r is not None and r < 1e-3 for r in ratios.values())

    # coercive linear law: exponential fit against the dense eigenvalue oracle
    lin = systems["linear"]
    assert lin.domain.n_facets <= 500
    w0 = initial_jump(lin.domain, "random", 5.0, seed=404)
    traj_lin = simulate(lin, w0, 10.0, stride=10)
    rep_lin = decay_metrics(traj_lin, orbits["linear"])
    from test_decay import dense_difference_rate
    oracle_rate = dense_difference_rate(lin.domain, (1.0, 1.0), 1.0, lin.params)
    ok_lin = (rep_lin.fit.classification == "exponential"
              and rep_lin.fit.r_squared >= 0.99
              and abs(rep_lin.fit.rate - oracle_rate) <= 0.05 * abs(oracle_rate))
    elapsed = time.time() - t0
    detail = (f"sin ratios {ratios}; linear rate {rep_lin.fit.rate:.4f} vs "
              f"oracle {oracle_rate:.4f}, R2={rep_lin.fit.r_squared:.4f}; "
              f"{elapsed:.0f}s")
    _report("criterion 2 (decay to orbit + exponential rate for coercive law)",
            ok_sin and ok_lin and elapsed < 300.0, detail)


def test_criterion_3_delta_regularization(systems):
    t0 = time.time()
    system = systems["sin"]
    orbits_reg = find_periodic_regularized(system, (1e-1, 1e-2, 1e-3), tol=1e-8)
    direct = find_periodic(system, tol=1e-8)
    d01 = orbit_distance(system, orbits_reg[0], orbits_reg[1])
    d12 = orbit_distance(system, orbits_reg[1], orbits_reg[2])
    dd = orbit_distance(system, orbits_reg[2], direct)
    elapsed = time.time() - t0
    ok = d01 > d12 > 0.0 and dd < 1e-4 and elapsed < 300.0
    _report("criterion 3 (vanishing-shift orbits contract onto the direct one)",
            ok, f"gaps {d01:.3e} > {d12:.3e}, final-vs-direct {dd:.3e}; "
                f"{elapsed:.0f}s")


def test_criterion_4_energy_estimates(systems, orbits):
    margins = {}
    ok = True
    for name, system in systems.items():
        rep = verify_energy_estimates(orbits[name], system)
        margins[name] = (rep["gradient_bound"]["margin"],
                         rep["rate_bound"]["margin"])
        ok = ok and rep["passed"] and all(m >= 0.0 for m in margins[name])
    detail = "; ".join(f"{k}: grad {a:.3e}, rate {b:.3e}"
                       for k, (a, b) in margins.items())
    _report("criterion 4 (discrete energy bounds hold with nonnegative margin)",
            ok, detail)


def test_criterion_5_dense_oracle_equivalence(default_setup):
    t0 = time.time()
    cell, dom, cond, drive, _ = default_setup
    params = T.SolverParams(alpha=1.0, dt=1e-2)
    kappa = 1.0
    system = MicroSystem(dom, cond, T.make_nonlinearity("linear", kappa=kappa),
                         drive, params)
    n_unknowns = dom.n_cells + dom.n_facets
    assert n_unknowns <= 2000
    oracle = DenseLinearStepper(dom, cond, drive, params, kappa)

    # every step over one period, two initial states, plus the paired energy
    wa = initial_jump(dom, "random", 5.0, seed=11)
    wb = initial_jump(dom, "random", 5.0, seed=22)
    ws_a, _ = oracle.run(wa, 100)
    ws_b, _ = oracle.run(wb, 100)
    ta = simulate(system, wa, 1.0)
    tb = simulate(system, wb, 1.0)
    step_gap = max(float(np.max(np.abs(ta.jumps - ws_a))),
                   float(np.max(np.abs(tb.jumps - ws_b))))
    wscale = float(np.max(np.abs(ws_a)))
    ok_steps = step_gap <= 1e-8 * wscale

    alpha_eps = params.alpha / dom.epsilon
    e_prod = alpha_eps * np.sum(system.weights
                                * (ta.jumps - tb.jumps) ** 2, axis=1)
    e_dense = alpha_eps * dom.facets.measure * np.sum((ws_a - ws_b) ** 2, axis=1)
    ok_lyap = np.max(np.abs(e_prod - e_dense)) <= 1e-8 * max(e_dense.max(), 1.0)

    # one-period map and its fixed point against the dense monodromy
    mat, off = oracle.affine_period_map(100)
    p0 = poincare_map(system, np.zeros(dom.n_facets))
    basis = np.zeros(dom.n_facets)
    basis[dom.n_facets // 3] = 1.0
    p1 = poincare_map(system, basis)
    ok_map = (np.max(np.abs(p0 - off)) <= 1e-8 * max(1.0, np.max(np.abs(off)))
              and np.max(np.abs(p1 - (mat[:, dom.n_facets // 3] + off)))
              <= 1e-8 * max(1.0, np.max(np.abs(off))))
    w_star = scipy.linalg.solve(np.eye(dom.n_facets) - mat, off)
    orbit = find_periodic(system, tol=1e-10)
    ok_fp = np.max(np.abs(orbit.jumps[0] - w_star)) <= \
        1e-8 * max(1.0, np.max(np.abs(w_star)))
    elapsed = time.time() - t0
    ok = ok_steps and ok_lyap and ok_map and ok_fp and elapsed < 60.0
    _report("criterion 5 (dense direct-factorization oracle equivalence)",
            ok, f"{n_unknowns} unknowns; step gap {step_gap:.2e}; "
                f"{elapsed:.0f}s")


def test_criterion_6_two_scale_decay(default_setup):
    t0 = time.time()
    cell, _, cond, drive, params = default_setup
    system = TwoScaleSystem(cell, cond, T.make_nonlinearity("sin"), drive,
                            params, macro_res=4)
    orbit = find_periodic(system, tol=1e-8)
    w0 = initial_two_scale_jump(system, "random", 5.0, seed=55)
    traj = simulate(system, w0, 50.0, stride=10)
    rep = decay_metrics(traj, orbit)
    ratios = rep.as_dict()["final_over_initial"]
    ok_norms = all(r is not None and r < 1e-3 for r in ratios.values())
    ok_mean = rep.max_mean_defect <= 1e-12
    elapsed = time.time() - t0
    ok = ok_norms and ok_mean and elapsed < 600.0
    _report("criterion 6 (two-scale decay on 4x4 macro grid)",
            ok, f"ratios {ratios}; zero-mean defect {rep.max_mean_defect:.2e}; "
                f"{elapsed:.0f}s")


def test_criterion_7_homogenization_consistency(default_setup):
    t0 = time.time()
    cell, _, cond, drive, params = default_setup
    law = T.make_nonlinearity("linear", kappa=1.0)
    ts = TwoScaleSystem(cell, cond, law, drive, params, macro_res=8)
    w0 = initial_two_scale_jump(ts, "uniform", 1.0)
    traj = simulate(ts, w0, 1.0, stride=1000)
    st = ts.state_at(1.0, traj.jumps[-1])
    gaps = []
    for eps in (0.5, 0.25, 0.125):
        dom = T.tile_domain(cell, eps)
        micro = MicroSystem(dom, cond, law, drive, params)
        mt = simulate(micro, initial_jump(dom, "uniform", 1.0), 1.0,
                      stride=1000)
        gaps.append(micro_two_scale_gap(micro, mt.jumps[-1], ts, st, 1.0))
    elapsed = time.time() - t0
    ok = gaps[0] > gaps[1] > gaps[2] and elapsed < 600.0
    _report("criterion 7 (micro vs two-scale gap decreases in epsilon)",
            ok, "gaps " + " > ".join(f"{g:.5f}" for g in gaps)
                + f"; {elapsed:.0f}s")


def test_criterion_8_trivial_exactness(default_setup):
    cell, dom, cond, _, params = default_setup
    law = T.make_nonlinearity("sin")
    zero_drive = T.make_boundary_data("constant", "constant", 0.0)
    micro = MicroSystem(dom, cond, law, zero_drive, params)
    traj = simulate(micro, np.zeros(dom.n_facets), 0.05)
    z1 = float(np.max(np.abs(traj.jumps)))
    z2 = float(np.max(np.abs(micro.bulk_at(0.05, traj.jumps[-1]))))

    ts = TwoScaleSystem(cell, cond, law, zero_drive, params, macro_res=4)
    ttraj = simulate(ts, np.zeros(ts.n_w), 0.05)
    z3 = float(np.max(np.abs(ttraj.jumps)))

    const_drive = T.make_boundary_data("constant", "constant", 2.0)
    micro_c = MicroSystem(dom, cond, law, const_drive, params)
    orbit = find_periodic(micro_c, tol=1e-12)
    z4 = float(np.max(np.abs(orbit.jumps)))
    u = micro_c.bulk_at(0.0, orbit.jumps[0])
    z5 = float(np.max(np.abs(u - 2.0)))
    ok = max(z1, z2, z3) <= 1e-13 and z4 <= 1e-12 and z5 <= 1e-12
    _report("criterion 8 (zero data exactly zero; constant drive constant orbit)",
            ok, f"zero-run {max(z1, z2, z3):.2e}; const-orbit jump {z4:.2e}, "
                f"bulk gap {z5:.2e}")


def test_criterion_9_symmetry_and_scaling(default_setup):
    cell, dom, cond, drive, params = default_setup
    law = T.make_nonlinearity("sin")
    system = MicroSystem(dom, cond, law, drive, params)
    neg_drive = T.make_boundary_data("affine", "sin", -1.0)
    neg = MicroSystem(dom, cond, law, neg_drive, params)
    w0 = initial_jump(dom, "random", 5.0, seed=77)
    ta = simulate(system, w0, 1.0, stride=10)
    tb = simulate(neg, -w0, 1.0, stride=10)
    odd_gap = float(np.max(np.abs(ta.jumps + tb.jumps)))

    factor = 5.0
    lin = MicroSystem(dom, cond, T.make_nonlinearity("linear", kappa=1.0),
                      drive, params)
    scaled = MicroSystem(
        dom, T.make_conductivity(cell, factor * cond.sigma_int,
                                 factor * cond.sigma_out),
        T.make_nonlinearity("linear", kappa=factor),
        drive, T.SolverParams(alpha=factor * params.alpha, dt=params.dt))
    tc = simulate(lin, w0, 1.0, stride=10)
    td = simulate(scaled, w0, 1.0, stride=10)
    scale_gap = float(np.max(np.abs(tc.jumps - td.jumps)))
    ok = odd_gap <= 1e-10 and scale_gap <= 1e-10
    _report("criterion 9 (odd negation symmetry; common-factor invariance)",
            ok, f"negation gap {odd_gap:.2e}; scaling gap {scale_gap:.2e}")
