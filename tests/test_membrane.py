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

from conftest import force_shifted_retry, make_micro, rel_gap
from test_twoscale import make_two_scale


@pytest.fixture(scope="module", params=["micro", "twoscale"])
def system_and_w0(request, small_domain):
    if request.param == "micro":
        system = make_micro(small_domain, law=("sin",))
        return system, initial_jump(small_domain, "random", 5.0, seed=3)
    system = make_two_scale(law=("sin",))
    return system, initial_two_scale_jump(system, "random", 5.0, seed=3)


def _balance_defect(system, w_prev, w, t):
    """|R(w)·w| recomputed from the public pieces of the step equation."""
    st = system.stepper
    fl = system.flux_map
    dt = system.params.dt
    rate = st.rate_coeff * (w - w_prev) / dt
    resid = (fl.weights * (rate + system.law(w / st.arg_scale))
             + fl.apply(w) - system.drive.temporal(t) * fl.load)
    return float(abs(resid @ w))


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
    """256 jumps on either stack at the default dt (or ``dt``), from a
    random start of amplitude 5."""
    if stack == "micro":
        system = make_micro(default_domain, law=(law,), dt=dt, **kw)
        return system, initial_jump(default_domain, "random", 5.0, seed=seed)
    system = make_two_scale(cell=cell8, law=(law,), dt=dt, macro_res=4,
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
    # a default ``sin`` run builds its one frozen factor on the first step;
    # a twin forced into the shifted retry shows it on every step, with a
    # fresh factor per pass
    if stack == "micro":
        system = make_micro(default_domain, law=("sin",), dt=1e-3)
        w0 = initial_jump(default_domain, "random", 5.0, seed=8)
    else:
        system = make_two_scale(cell=cell8, law=("sin",), dt=1e-3,
                                macro_res=4)
        w0 = initial_two_scale_jump(system, "random", 5.0, seed=8)
    traj = T.simulate(system, w0, 0.02)
    assert traj.factorizations.tolist() == [1] + [0] * 19
    assert not traj.used_shift.any()
    twin = system.with_law(system.law)
    force_shifted_retry(twin.stepper)
    traj = T.simulate(twin, w0, 0.003)
    assert traj.used_shift.tolist() == [True] * 3
    assert np.array_equal(traj.factorizations, traj.newton_iters)


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
    assert traj.used_shift.sum() <= sum(r.used_shift for r in plain)
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


def test_linear_step_result_holds_no_prior(cell8, default_domain):
    system, w0 = _default_dt_system("micro", "linear", {"kappa": 1.0}, cell8,
                                    default_domain, 9)
    dt = system.params.dt
    res = w0
    for n in range(1, 4):
        res = system.stepper.step(n * dt, res, dt)
        assert res.prior == ()


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
def test_linear_run_is_bit_identical_to_plain_steps(stack, cell8,
                                                    default_domain):
    system, w0 = _default_dt_system(stack, "linear", {"kappa": 1.0}, cell8,
                                    default_domain, 9)
    traj = T.simulate(system, w0, 0.05)
    plain = _plain_steps(system, w0, 50)
    assert np.array_equal(traj.jumps[1:], [r.jump for r in plain])


@pytest.mark.parametrize("stack", ["micro", "twoscale"])
def test_step_from_an_unusable_result_is_a_plain_start(stack, cell8,
                                                        default_domain):
    # a result of another dt, or one whose oldest held jump extrapolates to
    # a non-finite start, gives exactly the step from its jump
    system, w0 = _default_dt_system(stack, "sin", {}, cell8, default_domain, 9)
    dt = system.params.dt
    res = w0
    for n in range(1, PREDICTOR_ORDER):
        res = system.stepper.step(n * dt, res, dt)
    assert len(res.prior) == PREDICTOR_ORDER - 1
    bad = res.prior[-1].copy()
    bad[5] = np.nan
    for prev, step_dt in [(res, 2 * dt), (replace(res, dt=dt / 2), dt),
                          (replace(res, prior=res.prior[:-1] + (bad,)), dt)]:
        got = system.stepper.step(n * dt + step_dt, prev, step_dt)
        want = system.stepper.step(n * dt + step_dt, res.jump.copy(),
                                   step_dt)
        assert np.array_equal(got.jump, want.jump)
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
    # a NaN, or a jump whose cubic law value overflows, fails both attempts
    # at once with the starting residual recorded
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
    dt = system.params.dt
    res, history, _ = twin.stepper._iterate(w, 1.0, dt, shift=0.0)
    assert res is None and len(history) == 1 and np.isnan(history[0])


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
from tissue.micro import MicroState, elliptic_solve_given_jump
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

z = np.zeros(2)
raises(ValueError, T.difference_state, MicroState(0.0, z, z, z, z, z),
       MicroState(0.5, z, z, z, z, z))
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
