"""The time loop, trajectory record and step shared by both systems."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tissue as T
from tissue.membrane import PREDICTOR_ORDER, StepResult, extrapolate
from tissue.micro import initial_jump
from tissue.twoscale import initial_two_scale_jump, simulate_two_scale

from conftest import hands_over, make_micro, record_passes, rel_gap
from oracles import dense_flux, dense_newton_step
from test_twoscale import make_two_scale


@pytest.fixture(scope="module", params=["micro", "twoscale"])
def system_and_w0(request, small_domain):
    if request.param == "micro":
        system = make_micro(small_domain, law=("sin",))
        return system, initial_jump(small_domain, "random", 5.0, seed=3)
    system = make_two_scale(law=("sin",))
    return system, initial_two_scale_jump(system, "random", 5.0, seed=3)


def _balance_defect(system, w_prev, w, t):
    """|R(w)·w| recomputed from the public pieces of the step equation, in
    the stepper's order: the residual per unit weight, then weighted."""
    st = system.stepper
    fl = system.flux_map
    a = st.rate_coeff / system.params.dt
    inv_weights = 1.0 / fl.weights
    g = (a * (w - w_prev) + system.law(w / st.arg_scale)
         + fl.apply(w) * inv_weights
         - system.drive.temporal(t) * (fl.load * inv_weights))
    return float(abs((fl.weights * g) @ w))


def test_simulate_records_balance_residuals(system_and_w0):
    system, w0 = system_and_w0
    traj = T.simulate(system, w0, 0.2)
    assert traj.balance_residuals.shape == (20,)
    for n in range(20):
        expected = _balance_defect(system, traj.jumps[n], traj.jumps[n + 1],
                                   float(traj.ts[n + 1]))
        assert traj.balance_residuals[n] == expected


def test_step_matches_one_step_simulate(system_and_w0):
    system, w0 = system_and_w0
    state = system.state_at(0.0, w0)
    nxt = T.step(system, state)
    traj = T.simulate(system, w0, system.params.dt)
    assert nxt.t == traj.ts[1]
    assert np.array_equal(nxt.jump.reshape(-1), traj.jumps[1])


def test_simulate_samples_every_stride(system_and_w0):
    system, w0 = system_and_w0
    full = T.simulate(system, w0, 0.3)
    strided = T.simulate(system, w0, 0.3, stride=4)
    assert np.array_equal(strided.jumps, full.jumps[::4])
    assert np.array_equal(strided.ts, full.ts[::4])
    assert np.array_equal(strided.newton_iters, full.newton_iters)


def test_simulate_rejects_bad_stride(system_and_w0):
    system, w0 = system_and_w0
    with pytest.raises(ValueError, match="stride"):
        T.simulate(system, w0, 0.1, stride=0)


def test_simulate_two_scale_is_simulate_plus_mean_defects():
    system = make_two_scale(law=("sin",))
    w0 = initial_two_scale_jump(system, "random", 5.0, seed=4)
    plain = T.simulate(system, w0, 0.2, stride=5)
    traj = simulate_two_scale(system, w0, 0.2, stride=5)
    assert np.array_equal(traj.jumps, plain.jumps)
    assert plain.mean_defects is None
    expected = [system.state_at(float(t), w).mean_defect
                for t, w in zip(traj.ts, traj.jumps)]
    assert traj.mean_defects.tolist() == expected


def _default_dt_system(stack, law, kw, cell8, default_domain, seed,
                       dt=1e-3):
    """256 jumps on either stack (1024 on "twoscale-1024") at the default
    dt (or ``dt``), from a random start of amplitude 5."""
    if stack == "micro":
        system = make_micro(default_domain, law=(law,), dt=dt, **kw)
        return system, initial_jump(default_domain, "random", 5.0, seed=seed)
    system = make_two_scale(cell=cell8, law=(law,), dt=dt,
                            macro_res=8 if stack == "twoscale-1024" else 4,
                            **kw)
    return system, initial_two_scale_jump(system, "random", 5.0, seed=seed)


def _plain_steps(system, w, n_steps):
    """Step from each accepted jump as a plain array, which starts every
    iteration at the previous jump."""
    dt = system.params.dt
    results = []
    for n in range(n_steps):
        results.append(system.stepper.step((n + 1) * dt, w, dt))
        w = results[-1].jump
    return results


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
@pytest.mark.parametrize("law,kw", [("linear", {"kappa": 1.0}), ("sin", {})])
def test_run_at_params_dt_factors_once(stack, law, kw, cell8, default_domain):
    # the first step builds the frozen factor and every later step reuses it
    system, w = _default_dt_system(stack, law, kw, cell8, default_domain, 6)
    dt = system.params.dt
    counts = []
    for n in range(100):
        res = system.stepper.step((n + 1) * dt, w, dt)
        w = res.jump
        counts.append(res.factorizations)
    assert counts[0] == 1 and sum(counts) == 1


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
def test_simulate_keeps_per_step_solver_records(stack, cell8, default_domain):
    # a default ``sin`` run builds its one frozen factor on the first step
    if stack == "micro":
        system = make_micro(default_domain, law=("sin",), dt=1e-3)
        w0 = initial_jump(default_domain, "random", 5.0, seed=8)
    else:
        system = make_two_scale(cell=cell8, law=("sin",), dt=1e-3,
                                macro_res=4)
        w0 = initial_two_scale_jump(system, "random", 5.0, seed=8)
    traj = T.simulate(system, w0, 0.02)
    assert traj.factorizations.tolist() == [1] + [0] * 19


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
@pytest.mark.parametrize("law,dt", [
    pytest.param("sin", 1e-3, id="sin"), pytest.param("tanh", 1e-3, id="tanh"),
    pytest.param("cubic", 1e-3, id="cubic"),
    pytest.param("cubic", 1e-2, id="cubic-dt0.01")])
def test_extrapolated_start_takes_fewer_passes_to_the_same_jumps(
        stack, law, dt, cell8, default_domain):
    system, w0 = _default_dt_system(stack, law, {}, cell8, default_domain, 9,
                                    dt=dt)
    traj = T.simulate(system, w0, 100 * dt)
    # a twin builds its own frozen factor, so the factor counts compare
    plain = _plain_steps(system.with_law(system.law), w0, 100)
    for got, res in zip(traj.jumps[1:], plain):
        assert rel_gap(got, res.jump) <= 1e-10
    assert traj.newton_iters.sum() < sum(r.iterations for r in plain)
    assert traj.factorizations.sum() <= sum(r.factorizations for r in plain)
    if dt == 1e-3:
        # the frozen factor serves every step
        assert traj.factorizations.sum() == 1


@pytest.mark.parametrize("m", range(1, PREDICTOR_ORDER + 1))
def test_extrapolation_is_exact_on_polynomials_of_its_degree(m):
    # m held values of a polynomial of degree m - 1 at equal steps (newest
    # first) determine its next value; so do those of any lower degree
    rng = np.random.default_rng(m)
    t = np.arange(m, -1, -1.0)                   # t_n+1, t_n, ..., t_n+1-m
    for degree in range(m):
        coeffs = rng.uniform(-1.0, 1.0, (degree + 1, 5))
        values = np.array([sum(c * tk ** k for k, c in enumerate(coeffs))
                           for tk in t])
        got = extrapolate(tuple(values[1:]))
        assert rel_gap(got, values[0]) <= 1e-12


LAWS = ("linear", "tanh", "sin", "cubic")


def _law_kw(law):
    return {"kappa": 1.0} if law == "linear" else {}


def _continued_steps(system, w, n_steps, n_done=0):
    """Step as ``simulate`` does, each step continuing from the previous
    result, from ``w`` at step ``n_done``; returns every result."""
    dt = system.params.dt
    results = []
    res = w
    for n in range(n_done, n_done + n_steps):
        res = system.stepper.step((n + 1) * dt, res, dt)
        results.append(res)
    return results


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
@pytest.mark.parametrize("law", LAWS)
def test_step_results_carry_fluxes_of_their_jumps(law, stack, cell8,
                                                  default_domain):
    # every carried flux is a product with the response, not an
    # extrapolation, and the block holds the held jumps with their fluxes,
    # the result's own in row 0; a linear law holds its history like the
    # others
    system, w0 = _default_dt_system(stack, law, _law_kw(law), cell8,
                                    default_domain, 9)
    fl, st = system.flux_map, system.stepper
    results = _continued_steps(system, w0, 20)
    for n, res in enumerate(results):
        assert np.array_equal(res.flux, fl.apply(res.jump))
        assert np.array_equal(res.law_values,
                              system.law(res.jump / st.arg_scale))
        assert np.shares_memory(res.jump, res.block[0, 0])
        assert np.shares_memory(res.flux, res.block[0, 1])
        accepted = results[n::-1]
        jumps = [r.jump for r in accepted] + [w0]
        assert res.block.shape == (min(n + 2, PREDICTOR_ORDER), 2, w0.size)
        assert all(np.array_equal(a, b)
                   for a, b in zip(res.block[:, 0], jumps))
        # the initial jump was not accepted by a step: its flux is NaN
        fluxes = [r.flux for r in accepted][:PREDICTOR_ORDER]
        assert all(np.array_equal(a, b)
                   for a, b in zip(res.block[:, 1], fluxes))
        assert np.isnan(res.block[len(fluxes):, 1]).all()
    assert np.isfinite(results[-1].block).all()


def _count_calls(flux_map, monkeypatch) -> dict:
    """Count the flux map's products with the response, its factor builds
    and the solves with the factors it builds, from now on."""
    calls = {"apply": 0, "factor": 0, "solve": 0}

    def counted(name, method):
        def call(*args):
            calls[name] += 1
            return method(*args)
        return call

    build = counted("factor", flux_map.factor)

    def factor(d):
        built = build(d)
        built.solve = counted("solve", built.solve)
        return built

    monkeypatch.setattr(flux_map, "apply", counted("apply", flux_map.apply))
    monkeypatch.setattr(flux_map, "factor", factor)
    return calls


@pytest.mark.parametrize("stack", ["micro", "twoscale", "twoscale-1024"])
@pytest.mark.parametrize("law", ["linear", "sin"])
def test_continued_step_takes_one_flux_product(law, stack, cell8,
                                               default_domain, monkeypatch):
    # a continued default-dt step corrects its extrapolated start once: one
    # product with the response, and past the predictor's ramp no solve
    # with the frozen factor, which the first step builds.  At 1024 jumps
    # from the default configuration's seed this needs the residual's rate
    # term free of roundoff at the scale of a |w|: formed as a w - a w_prev,
    # a ratio of two roundoff-level residuals makes the r rho^2 rule skip
    # the corrector on 14 of these steps
    seed = 1234 if stack == "twoscale-1024" else 6
    system, w0 = _default_dt_system(stack, law, _law_kw(law), cell8,
                                    default_domain, seed)
    calls = _count_calls(system.flux_map, monkeypatch)
    results = _continued_steps(system, w0, PREDICTOR_ORDER)
    ramp_solves = calls["solve"]
    results += _continued_steps(system, results[-1], 100 - PREDICTOR_ORDER,
                                PREDICTOR_ORDER)
    assert calls["factor"] == 1
    assert calls["apply"] <= 1.1 * 100
    assert calls["solve"] == ramp_solves
    assert sum(r.factorizations for r in results) == 1


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
@pytest.mark.parametrize("law", LAWS)
def test_run_agrees_with_factor_path_plain_steps(law, stack, cell8,
                                                 default_domain):
    # a step from a plain array takes the factor path from it
    system, w0 = _default_dt_system(stack, law, _law_kw(law), cell8,
                                    default_domain, 9)
    traj = T.simulate(system, w0, 0.1)
    plain = _plain_steps(system.with_law(system.law), w0, 100)
    for got, res in zip(traj.jumps[1:], plain):
        assert rel_gap(got, res.jump) <= 1e-12


def _without_corrector(system):
    twin = system.with_law(system.law)
    twin.stepper._correct = lambda *args: (None, None)
    return twin


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
def test_correction_that_cannot_converge_falls_back(stack, cell8,
                                                    default_domain):
    # at dt = 0.25 the response is comparable to the capacitance diagonal:
    # the first correction leaves 0.53-0.54 of the extrapolated start's
    # residual, so the first continued step falls back to the factor path,
    # and the ratio it carries makes every later step skip the corrector;
    # each gives the jump of a twin without the corrector, and that of the
    # plain steps
    system, w0 = _default_dt_system(stack, "sin", {}, cell8, default_domain,
                                    9, dt=0.25)
    fl, st = system.flux_map, system.stepper
    dt = system.params.dt
    results = _continued_steps(system, w0, 12)
    factor_path = _continued_steps(_without_corrector(system), w0, 12)
    plain = _plain_steps(system.with_law(system.law), w0, 12)
    for n, (res, want) in enumerate(zip(results, factor_path)):
        assert np.array_equal(res.jump, want.jump)
        assert rel_gap(res.jump, plain[n].jump) <= 1e-12
        if n != PREDICTOR_ORDER:
            assert res.history == want.history
            continue
        # the first step with a flux for every held jump
        assert res.history[1:] == want.history
        prev = results[n - 1]
        start, r_start = extrapolate(prev.block)
        resid = (fl.weights * (st.rate_coeff * (start - prev.jump) / dt
                               + system.law(start / st.arg_scale))
                 + r_start - system.drive.temporal((n + 1) * dt) * fl.load)
        ratio = res.history[0] / np.abs(resid / fl.weights).max()
        assert 0.5 < ratio < 0.6
        assert res.contraction == pytest.approx(ratio, rel=1e-12)
    assert [r.contraction for r in results[:PREDICTOR_ORDER]] == \
        [None] * PREDICTOR_ORDER
    assert all(r.contraction == results[PREDICTOR_ORDER].contraction
               for r in results[PREDICTOR_ORDER:])


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
@pytest.mark.parametrize("law", ["linear", "sin"])
@pytest.mark.parametrize("dt", [1e-2, 5e-2])
def test_corrector_costs_no_more_solves_than_the_factor_path(
        dt, law, stack, cell8, default_domain, monkeypatch):
    # at larger dt a correction contracts less (about 8 dt), and two
    # corrections cost what a factor-path step does: a run stops correcting
    # where more would be needed, so its products with the response plus
    # its pass solves stay within 5% of a run without the corrector
    def solves(system):
        calls = _count_calls(system.flux_map, monkeypatch)
        T.simulate(system, w0, 100 * dt)
        monkeypatch.undo()
        return calls["apply"] + calls["solve"]

    system, w0 = _default_dt_system(stack, law, _law_kw(law), cell8,
                                    default_domain, 9, dt=dt)
    assert solves(system) <= 1.05 * solves(_without_corrector(system))


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
def test_orbit_takes_one_pass_per_step(stack, small_domain):
    # on the periodic orbit the solution is smooth on the dt scale: past the
    # predictor's ramp, its start is within the step tolerance
    if stack == "micro":
        system = make_micro(small_domain, law=("sin",), dt=1e-3)
    else:
        system = make_two_scale(law=("sin",), dt=1e-3)
    orbit = T.find_periodic(system)
    traj = T.simulate(system, orbit.jumps[0], 1.0)
    assert traj.newton_iters.mean() <= 1.05


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
def test_step_from_an_unusable_result_is_a_plain_start(stack, cell8,
                                                        default_domain):
    # a result whose oldest held jump extrapolates to a non-finite start
    # gives exactly the step from its jump
    system, w0 = _default_dt_system(stack, "sin", {}, cell8, default_domain, 9)
    dt = system.params.dt
    res = w0
    for n in range(1, PREDICTOR_ORDER):
        res = system.stepper.step(n * dt, res, dt)
    assert len(res.block) == PREDICTOR_ORDER
    bad = res.block.copy()
    bad[-1, 0, 5] = np.nan
    got = system.stepper.step((n + 1) * dt, replace(res, block=bad), dt)
    want = system.stepper.step((n + 1) * dt, res.jump.copy(), dt)
    assert np.array_equal(got.jump, want.jump)
    assert got.history == want.history


def test_step_at_another_dt_is_rejected(system_and_w0):
    # the stepper steps at params.dt only: its frozen factor, corrector
    # slope and held block all belong to that step length
    system, w0 = system_and_w0
    dt = system.params.dt
    res = system.stepper.step(dt, w0, dt)
    for prev in (w0, res):
        with pytest.raises(ValueError, match="steps at dt"):
            system.stepper.step(3 * dt, prev, 2 * dt)


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
@pytest.mark.parametrize("law", ["linear", "sin"])
def test_branches_from_one_result_are_bit_identical(law, stack, cell8,
                                                    default_domain):
    # a step copies the block it continues into a new one and writes to no
    # older one: two runs continued from one result, and a third continued
    # from it after the first has gone on past it, give the same bits
    system, w0 = _default_dt_system(stack, law, _law_kw(law), cell8,
                                    default_domain, 9)
    n_done = PREDICTOR_ORDER + 2
    fork = _continued_steps(system, w0, n_done)[-1]
    saved = fork.block.copy()
    first = _continued_steps(system, fork, 6, n_done)
    second = _continued_steps(system, fork, 6, n_done)
    _continued_steps(system, first[-1], 6, n_done + 6)
    third = _continued_steps(system, fork, 6, n_done)
    assert np.array_equal(fork.block, saved)
    for want, *others in zip(first, second, third):
        for got in others:
            assert np.array_equal(got.jump, want.jump)
            assert np.array_equal(got.flux, want.flux)
            assert np.array_equal(got.block, want.block)
            assert got.history == want.history


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
def test_simulate_steps_through_a_three_argument_step(stack, cell8,
                                                      default_domain):
    # benchmark/tracing.py wraps ``stepper.step`` as step(t_next, w_prev, dt)
    system, w0 = _default_dt_system(stack, "sin", {}, cell8, default_domain, 9)
    twin = system.with_law(system.law)
    step = twin.stepper.step
    starts = []

    def traced_step(t_next, w_prev, dt, /):
        starts.append(type(w_prev))
        return step(t_next, w_prev, dt)

    twin.stepper.step = traced_step
    traj = T.simulate(twin, w0, 0.01)
    assert starts == [np.ndarray] + [StepResult] * 9
    assert np.array_equal(traj.jumps, T.simulate(system, w0, 0.01).jumps)


def _cubic_system(stack, domain):
    if stack == "micro":
        system = make_micro(domain, law=("cubic",))
        return system, initial_jump(domain, "random", 1.0, seed=7)
    system = make_two_scale(law=("cubic",))
    return system, initial_two_scale_jump(system, "random", 1.0, seed=7)


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
@pytest.mark.parametrize("bad", [np.nan, 1e120])
def test_non_finite_step_raises_newton_error(stack, bad, small_domain):
    # a NaN, or a jump whose cubic law value overflows, fails the step at
    # once with the starting residual recorded
    system, w = _cubic_system(stack, small_domain)
    w[3] = bad
    dt = system.params.dt
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(T.NewtonError) as err:
        system.stepper.step(dt, w, dt)
    assert len(err.value.residuals) == 1
    assert not np.isfinite(err.value.residuals[0])


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
def test_non_finite_pass_ends_the_attempt(stack, small_domain):
    # a law that is finite at the start of the step only: the first pass's
    # residual estimate is NaN, and the attempt ends there
    system, w = _cubic_system(stack, small_domain)
    calls = []

    def finite_once(s):
        calls.append(s)
        return s ** 3 if len(calls) == 1 else np.full_like(s, np.nan)

    twin = system.with_law(replace(system.law, base=finite_once))
    history = []
    assert twin.stepper._iterate(w, 1.0, None, history) is None
    assert len(history) == 1 and np.isnan(history[0])


def _stress_run(system, sd, n_steps=20):
    """``n_steps`` continued steps from normal jumps of standard deviation
    ``sd``: every step converges with no more factors than passes, and a
    step that hands a chord over to Newton matches the dense Newton step.
    Returns the number of such steps."""
    stepper, dt = system.stepper, system.params.dt
    kinds = record_passes(stepper)
    w = np.random.default_rng(7).normal(0.0, sd, system.weights.size)
    res, dense, handovers = w, None, 0
    for n in range(n_steps):
        del kinds[:]
        w_prev, t = getattr(res, "jump", res), (n + 1) * dt
        res = stepper.step(t, res, dt)
        assert res.factorizations <= res.iterations
        if hands_over(kinds):
            handovers += 1
            dense = dense_flux(system) if dense is None else dense
            want = dense_newton_step(dense, system.law, stepper.rate_coeff,
                                     stepper.arg_scale, w_prev,
                                     system.drive.temporal(t), dt)
            scale = max(float(np.max(np.abs(want))), 1e-3)
            assert np.max(np.abs(res.jump - want)) <= 1e-10 * scale
    return handovers


def _stress_system(stack, domain, law, dt, contrast=2.0, kappa=1.0):
    if stack == "micro":
        return make_micro(domain, cond=(contrast, 1.0), law=(law,), dt=dt,
                          kappa=kappa)
    return make_two_scale(cond=(contrast, 1.0), law=(law,), dt=dt,
                          kappa=kappa)


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
@pytest.mark.parametrize("law", LAWS)
def test_stress_matrix_converges_in_one_attempt(law, stack, small_domain):
    # dt from 1e-3 to 0.5 and starts of standard deviation 1.25 and 12.5:
    # a chord too slow for the pass budget hands over to Newton on the
    # cubic runs and on the sin runs at dt 0.5
    handovers = sum(_stress_run(_stress_system(stack, small_domain, law, dt),
                                sd)
                    for dt in (1e-3, 1e-2, 0.1, 0.5) for sd in (1.25, 12.5))
    if law in ("sin", "cubic"):
        assert handovers > 0


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
def test_stress_tanh_at_unit_dt_converges_in_one_attempt(stack,
                                                        small_domain):
    # a weak tanh law (kappa 0.1) at contrast 0.2 and dt 1
    system = _stress_system(stack, small_domain, "tanh", 1.0, contrast=0.2,
                            kappa=0.1)
    assert _stress_run(system, 12.5) > 0


def test_with_law_shares_the_bulk_response(small_domain):
    system = make_micro(small_domain, law=("sin",))
    twin = system.with_law(T.make_nonlinearity("linear", kappa=2.0))
    assert twin.flux_map is system.flux_map
    assert twin.stepper is not system.stepper
    assert twin.stepper.law is twin.law
    assert system.law.kind == "sin"
    assert (twin.stepper.rate_coeff, twin.stepper.arg_scale) == \
        (system.stepper.rate_coeff, system.stepper.arg_scale)


_OPTIMIZED_CHECKS = """
from dataclasses import replace
from types import SimpleNamespace
import numpy as np
import tissue as T
from tissue.geometry import _check_domain
from tissue.micro import elliptic_solve_given_jump
from tissue.periodic import PeriodicOrbit
from tissue.twoscale import periodic_weak_residual

if __debug__:
    raise SystemExit("asserts are live: not running under -O")

def raises(exc, fn, *args):
    try:
        fn(*args)
    except exc:
        return
    raise SystemExit(f"{fn.__name__} did not raise {exc.__name__}")

orbit = lambda n: PeriodicOrbit(np.zeros((n + 1, 2)), 1.0 / n, 0.0, "x", 0)
raises(ValueError, T.orbit_distance, None, orbit(2), orbit(4))
raises(ValueError, periodic_weak_residual, None, orbit(2),
       lambda n, t: (np.full(1, n), np.zeros(1), np.zeros(1)))

cell = T.build_cell_geometry(0.25, 4)
dom = T.tile_domain(cell, 0.5)
op = T.BulkOperator(dom, T.make_conductivity(cell, 1.0, 1.0))
op.one_sided_fluxes = lambda u, w: (np.zeros(dom.n_facets),
                                    np.ones(dom.n_facets))
raises(T.LinearSolveError, elliptic_solve_given_jump, op,
       np.zeros(dom.n_facets), T.make_boundary_data(), 0.0)

raises(T.GeometryError, T.make_conductivity,
       SimpleNamespace(area_int=2.0, area_out=-1.0), 1.0, 2.0)
raises(T.GeometryError, _check_domain, replace(dom, memb_measure=0.0))
raises(T.NonlinearityError, T.make_nonlinearity, "linear", 0.0)
print("ok")
"""


def test_caller_errors_survive_python_optimize():
    """The checks raise typed errors, not asserts that ``-O`` strips."""
    src = Path(T.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.strip() == "ok"
