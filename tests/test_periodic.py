import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import tissue as T
from tissue.errors import FixedPointError
from tissue.membrane import StepResult
from tissue.micro import (initial_jump, simulate,
                          verify_energy_estimates)
from tissue.nonlinearity import regularize
from tissue.periodic import (find_periodic, find_periodic_regularized,
                             orbit_distance, poincare_map)

from conftest import make_micro
from oracles import (DenseLinearStepper, per_step_energy_estimates,
                     picard_orbit)
from test_twoscale import make_two_scale


def test_constant_drive_zero_jump_invariant(small_domain):
    system = make_micro(small_domain, drive=("constant", "constant", 2.0))
    out = poincare_map(system, np.zeros(small_domain.n_facets))
    assert np.max(np.abs(out)) < 1e-12


def test_period_map_matches_dense_monodromy(small_domain):
    kappa = 1.0
    system = make_micro(small_domain, cond=(2.0, 1.0), law=("linear",),
                        kappa=kappa, dt=1e-2)
    oracle = DenseLinearStepper(small_domain,
                                T.make_conductivity(small_domain.cell, 2.0, 1.0),
                                system.drive, system.params, kappa)
    mat, off = oracle.affine_period_map(100)
    nf = small_domain.n_facets
    # offset = image of zero; columns = responses to basis jumps
    p0 = poincare_map(system, np.zeros(nf))
    assert np.max(np.abs(p0 - off)) < 1e-8
    for e in (0, nf // 2, nf - 1):
        basis = np.zeros(nf)
        basis[e] = 1.0
        pe = poincare_map(system, basis)
        assert np.max(np.abs(pe - (mat[:, e] + off))) < 1e-8


def test_period_map_is_contraction_for_coercive_law(small_domain):
    system = make_micro(small_domain, law=("tanh",), kappa=1.0)
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-1, 1, small_domain.n_facets)
    w2 = rng.uniform(-1, 1, small_domain.n_facets)
    num = system.jump_norm(poincare_map(system, w1) - poincare_map(system, w2))
    den = system.jump_norm(w1 - w2)
    assert num / den < 1.0


def test_fixed_point_matches_dense_affine_solve(small_domain):
    kappa = 1.0
    system = make_micro(small_domain, cond=(2.0, 1.0), law=("linear",),
                        kappa=kappa, dt=1e-2)
    oracle = DenseLinearStepper(small_domain,
                                T.make_conductivity(small_domain.cell, 2.0, 1.0),
                                system.drive, system.params, kappa)
    mat, off = oracle.affine_period_map(100)
    w_star = scipy.linalg.solve(np.eye(len(off)) - mat, off)
    orbit = find_periodic(system, tol=1e-10)
    assert np.max(np.abs(orbit.jumps[0] - w_star)) < 1e-8


def test_noncoercive_law_orbit_converges(small_domain):
    system = make_micro(small_domain, law=("sin",))
    orbit = find_periodic(system, tol=1e-8)
    assert orbit.defect <= 1e-8
    assert orbit.steps_per_period == 100


def test_constant_drive_constant_orbit(small_domain):
    system = make_micro(small_domain, drive=("constant", "constant", 1.5))
    orbit = find_periodic(system, tol=1e-10)
    assert np.max(np.abs(orbit.jumps)) < 1e-10
    u = system.bulk_at(0.0, orbit.jumps[0])
    assert np.max(np.abs(u - 1.5)) < 1e-10


def _record_maps(monkeypatch):
    """Record the start and the end jump of every period that
    ``find_periodic`` runs."""
    starts, ends = [], []

    def recording(system, w0, horizon, stride=1):
        traj = simulate(system, w0, horizon, stride)
        starts.append(np.array(w0))
        ends.append(traj.jumps[-1].copy())
        return traj
    monkeypatch.setattr("tissue.periodic.simulate", recording)
    return starts, ends


def test_defect_increase_clears_the_history(monkeypatch):
    # each rise of the defect must empty the history, so the next iterate
    # is the plain Picard step w + (P(w) - w); the stub's scripted maps make
    # the defect rise at maps 3, 6, 9 and 12
    system = _ScriptedPeriodMap()
    starts, ends = _record_maps(monkeypatch)
    with pytest.raises(FixedPointError) as err:
        find_periodic(system, tol=1e-30, max_iters=14)
    d = err.value.defects
    assert len(d) == len(starts) == 14
    picard = [np.array_equal(starts[k + 1], starts[k] + (ends[k] - starts[k]))
              for k in range(13)]
    rises = [k for k in range(1, 13) if d[k] > d[k - 1]]
    assert rises
    assert all(picard[k] for k in rises)
    # the first step has no history; the steps after a fall are accelerated
    assert picard[0] and not all(picard)


@pytest.mark.parametrize("kw", [{"max_iters": 0}, {"max_iters": -1},
                                {"tol": 0.0}, {"tol": -1.0},
                                {"tol": float("nan")}])
def test_find_periodic_rejects_bad_arguments(kw, micro_sin_small):
    with pytest.raises(ValueError, match=next(iter(kw))):
        find_periodic(micro_sin_small, **kw)


class _DriftingPeriodMap:
    """Stub system whose period map, two steps of the stub stepper, shifts
    the jump by ``drift``: it has no fixed point, so every iteration
    stalls.  All values are dyadic, so the defect is ``drift`` exactly and
    the differences of defects the mixing fits are zero.  A constant drive
    is not antiperiodic, so the loop iterates the period map."""

    weights = np.ones(3)
    params = T.SolverParams(dt=0.5)
    law = T.make_nonlinearity("linear")
    drive = T.make_boundary_data(temporal="constant")
    drift = np.array([1.0, -2.0, 0.5])

    def __init__(self):
        self.stepper = self
        self.starts = []

    def step(self, t_next, w_prev, dt):
        # simulate hands on the previous step's result
        w_prev = getattr(w_prev, "jump", w_prev)
        if t_next == dt:
            self.starts.append(w_prev)
        return StepResult(jump=w_prev + 0.5 * self.drift, iterations=1,
                          residual=0.0, balance=0.0)

    def jump_norm(self, w):
        return float(np.sqrt(np.sum(self.weights * w * w)))


class _ScriptedPeriodMap(_DriftingPeriodMap):
    """Stub whose k-th period map shifts the jump by ``drifts[k]``, whatever
    the jump: the defect falls within each group of three maps and rises
    at the start of the next, in a direction that changes from map to map.
    """

    drifts = np.tile([[1.0, -2.0, 0.5], [0.25, 0.5, -0.5],
                      [-0.25, 0.0625, 0.5]], (5, 1))

    def step(self, t_next, w_prev, dt):
        w_prev = getattr(w_prev, "jump", w_prev)
        if t_next == dt:
            self.starts.append(w_prev)
        drift = self.drifts[len(self.starts) - 1]
        return StepResult(jump=w_prev + 0.5 * drift, iterations=1,
                          residual=0.0, balance=0.0)


def test_stalled_iteration_halves_damping_once_per_window():
    stub = _DriftingPeriodMap()
    with pytest.raises(FixedPointError) as err:
        find_periodic(stub, tol=1e-12, max_iters=65)
    assert err.value.defects == [stub.jump_norm(stub.drift)] * 65
    # an iteration with damping theta moves the iterate by theta * drift
    thetas = np.diff(stub.starts, axis=0) / stub.drift
    expected = np.repeat([1.0, 0.5, 0.25, 0.125], [20, 20, 20, 4])
    assert np.array_equal(thetas, np.tile(expected[:, None], 3))


LAWS = ("linear", "tanh", "sin", "cubic")
# weakly coercive: the period map contracts slowly
WEAK = {"cond": (0.05, 0.05), "kappa": 0.01}


def _system(stack, law, small_domain, **kw):
    if stack == "resolved":
        return make_micro(small_domain, law=(law,), **kw)
    return make_two_scale(law=(law,), **kw)


@pytest.mark.parametrize("stack,law,kw", [
    *[("resolved", law, {}) for law in LAWS],
    *[("two_scale", law, {}) for law in LAWS],
    ("resolved", "linear", WEAK),
    ("two_scale", "linear", WEAK),
])
def test_accelerated_orbit_matches_picard_oracle(small_domain, stack, law, kw):
    # odd laws under the sin drive: the solve iterates the half-period map,
    # and the oracle the period map, so they are compared in steps run
    system = _system(stack, law, small_domain, **kw)
    tol = 1e-9
    orbit = find_periodic(system, tol=tol)
    oracle = picard_orbit(system, tol=tol)
    assert orbit.defect <= tol
    assert orbit.map == "half_period"
    assert (orbit.iterations * orbit.steps_per_period // 2
            <= oracle.iterations * oracle.steps_per_period)
    # a defect d leaves an iterate up to d / (1 - q) from the orbit of a map
    # contracting by q, so the reference orbit is converged ten times tighter
    oracle = picard_orbit(system, tol=tol / 10, w0=oracle.jumps[0])
    gap = max(system.jump_norm(a - b)
              for a, b in zip(orbit.jumps, oracle.jumps))
    assert gap <= 10 * tol


@pytest.mark.parametrize("stack,law,kw", [
    *[("resolved", law, {}) for law in LAWS],
    *[("two_scale", law, {}) for law in LAWS],
    ("resolved", "linear", WEAK),
    ("two_scale", "linear", WEAK),
])
def test_half_wave_start_is_a_fixed_point_of_the_period_map(
        small_domain, stack, law, kw):
    # P = Q o Q and Q is nonexpansive, so |P(w) - w| <= |Q(Q(w)) - Q(w)|
    # + |Q(w) - w| <= 2 |Q(w) - w|
    system = _system(stack, law, small_domain, **kw)
    tol = 1e-9
    orbit = find_periodic(system, tol=tol)
    w0 = orbit.jumps[0]
    assert system.jump_norm(poincare_map(system, w0) - w0) <= 2 * tol + 1e-14


class _CountingSystem:
    """A system whose stepper counts the steps it takes."""

    def __init__(self, system):
        self.system = system
        self.stepper = self
        self.steps = 0

    def __getattr__(self, name):
        return getattr(self.system, name)

    def step(self, t_next, w_prev, dt):
        self.steps += 1
        return self.system.stepper.step(t_next, w_prev, dt)


def test_converged_period_runs_once(micro_sin_small):
    # each map runs once, half a period on the half-wave path; the orbit's
    # second half is the negated first, and costs no steps
    counting = _CountingSystem(micro_sin_small)
    orbit = find_periodic(counting, tol=1e-9)
    assert orbit.map == "half_period" and orbit.iterations > 1
    assert counting.steps == orbit.iterations * orbit.steps_per_period // 2
    not_odd = replace(micro_sin_small.law, odd=False)
    counting = _CountingSystem(micro_sin_small.with_law(not_odd))
    orbit = find_periodic(counting, tol=1e-9)
    assert orbit.map == "period" and orbit.iterations > 1
    assert counting.steps == orbit.iterations * orbit.steps_per_period


@pytest.mark.parametrize("case", ["constant", "offset", "odd_steps",
                                  "not_odd"])
def test_period_map_runs_without_a_half_wave_orbit(small_domain, case):
    kw = {"constant": {"drive": ("affine", "constant", 1.0)},
          "offset": {"drive": ("affine", "offset_sin", 1.0, 0.5)},
          "odd_steps": {"dt": 1.0 / 99},
          "not_odd": {}}[case]
    system = make_micro(small_domain, **kw)
    if case == "not_odd":
        system = system.with_law(replace(system.law, odd=False))
    counting = _CountingSystem(system)
    tol = 1e-9
    orbit = find_periodic(counting, tol=tol)
    assert orbit.map == "period" and orbit.defect <= tol
    assert counting.steps == orbit.iterations * orbit.steps_per_period


@pytest.mark.parametrize("kind", LAWS)
def test_declared_oddness_matches_the_law(kind):
    # to roundoff: numpy's power of a negative base may differ in the last
    # bit from the negated power
    s = np.linspace(0.0, 20.0, 2001)
    for law in (T.make_nonlinearity(kind),
                regularize(T.make_nonlinearity(kind), 0.1)):
        assert law.odd
        np.testing.assert_allclose(law(-s), -law(s), rtol=1e-15, atol=0.0)
    assert not regularize(replace(T.make_nonlinearity(kind), odd=False),
                          0.1).odd


_ORBIT_BITS = """
import hashlib
import tissue as T
from tissue.periodic import find_periodic
cell = T.build_cell_geometry(0.25, 8)
system = T.TwoScaleSystem(cell, T.make_conductivity(cell, 2.0, 1.0),
                          T.make_nonlinearity("sin"), T.make_boundary_data(),
                          T.SolverParams(dt=1e-2), macro_res={macro_res})
orbit = find_periodic(system, tol=1e-10)
print(orbit.iterations, hashlib.sha256(orbit.jumps.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("macro_res", [8, 16])
def test_orbit_bits_do_not_depend_on_the_blas_thread_count(macro_res):
    # the mixing's least-squares solve and the macro factors go through
    # LAPACK; artifacts are byte-identical run to run, so their roundoff
    # must not follow the threads (from 4,096 jumps up, a dense Cholesky of
    # the macro matrices would)
    src = Path(T.__file__).resolve().parents[1]
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src),
               **{name: threads for name in ("OPENBLAS_NUM_THREADS",
                                             "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS")}}
        out = subprocess.run([sys.executable, "-c",
                              _ORBIT_BITS.format(macro_res=macro_res)],
                             env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_orbit_time_shift_consistency(small_domain):
    system = make_micro(small_domain, law=("sin",))
    orbit = find_periodic(system, tol=1e-9)
    # restart the dynamics mid-period on the orbit; it must stay on it
    n_half = orbit.steps_per_period // 2
    dt = orbit.dt
    w = orbit.jumps[n_half].copy()
    for k in range(n_half, orbit.steps_per_period):
        w = system.stepper.step((k + 1) * dt, w, dt).jump
    gap = system.jump_norm(w - orbit.jumps[-1])
    assert gap <= orbit.defect + 1e-12


def test_orbit_unique_from_different_starts(small_domain):
    system = make_micro(small_domain, law=("sin",))
    tol = 1e-9
    o1 = find_periodic(system, tol=tol,
                       w0=initial_jump(small_domain, "random", 5.0, seed=1))
    o2 = find_periodic(system, tol=tol,
                       w0=initial_jump(small_domain, "random", 5.0, seed=2))
    gap = max(system.jump_norm(a - b) for a, b in zip(o1.jumps, o2.jumps))
    assert gap <= 10 * tol


def test_regularized_sequence_contracts(small_domain):
    system = make_micro(small_domain, law=("sin",))
    orbits = find_periodic_regularized(system, (1e-1, 1e-2, 1e-3), tol=1e-9)
    assert len(orbits) == 3
    d01 = orbit_distance(system, orbits[0], orbits[1])
    d12 = orbit_distance(system, orbits[1], orbits[2])
    assert d01 > d12 > 0.0
    direct = find_periodic(system, tol=1e-9)
    assert orbit_distance(system, orbits[2], direct) < 1e-4


def test_regularized_linear_equals_shifted_linear(small_domain):
    # the shifted linear law is itself linear: the orbit must match the
    # direct orbit of that law
    system = make_micro(small_domain, law=("linear",), kappa=1.0, dt=1e-2)
    orbit_reg = find_periodic_regularized(system, (0.5,), tol=1e-10)[0]
    shifted = make_micro(small_domain, law=("linear",), kappa=1.5, dt=1e-2)
    orbit_direct = find_periodic(shifted, tol=1e-10)
    gap = orbit_distance(system, orbit_reg, orbit_direct)
    assert gap < 1e-8


def test_delta_sequence_validation(small_domain):
    system = make_micro(small_domain)
    with pytest.raises(ValueError, match="decreasing"):
        find_periodic_regularized(system, (1e-2, 1e-1))
    with pytest.raises(ValueError, match="1e-6"):
        find_periodic_regularized(system, (1e-3, 1e-8))


def test_energy_estimates_zero_drive(small_domain):
    system = make_micro(small_domain, drive=("constant", "constant", 0.0))
    orbit = find_periodic(system, tol=1e-12)
    rep = verify_energy_estimates(orbit, system)
    assert rep["passed"]
    assert rep["gradient_bound"]["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert rep["rate_bound"]["lhs"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("law,kw", [(("linear",), {"kappa": 1.0}),
                                    (("sin",), {})])
def test_energy_estimates_hold_with_margin(small_domain, law, kw):
    system = make_micro(small_domain, law=law, **kw)
    orbit = find_periodic(system, tol=1e-9)
    rep = verify_energy_estimates(orbit, system)
    assert rep["passed"]
    assert rep["gradient_bound"]["margin"] >= 0.0
    assert rep["rate_bound"]["margin"] >= 0.0


def _leaves(report: dict, prefix: str = ""):
    for key, value in report.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}/")
        else:
            yield f"{prefix}{key}", value


@pytest.mark.parametrize("temporal", ["constant", "sin", "offset_sin"])
@pytest.mark.parametrize("spatial", ["constant", "affine", "sines"])
def test_energy_estimates_match_the_per_step_sums(small_domain, spatial,
                                                  temporal):
    # the data terms are closed forms of the separable drive and the jump
    # terms whole-orbit sums; the oracle sums every term step by step.  A
    # one-period run from a random start (not an orbit) keeps the jump
    # rate large, and a conductivity contrast weights the data gradient.
    system = make_micro(small_domain, cond=(2.0, 0.5), law=("cubic",),
                        drive=(spatial, temporal, 1.5, 0.75), dt=0.0625)
    w0 = initial_jump(small_domain, "random", 1.0, seed=3)
    traj = simulate(system, w0, 1.0)
    orbit = T.PeriodicOrbit(jumps=traj.jumps, dt=0.0625, defect=0.0,
                            iterations=0)
    got = dict(_leaves(verify_energy_estimates(orbit, system)))
    want = dict(_leaves(per_step_energy_estimates(orbit, system)))
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_orbit_states_satisfy_step_contracts(small_domain):
    system = make_micro(small_domain, law=("cubic",))
    orbit = find_periodic(system, tol=1e-9)
    assert orbit.map == "half_period"
    # re-advancing each stored state reproduces the next stored state
    # within each half-period run (rows 0..50, and their negations 50..100)
    dt = orbit.dt
    for n in (0, 17, 49, 50, 99):
        res = system.stepper.step((n + 1) * dt, orbit.jumps[n].copy(), dt)
        gap = res.jump - orbit.jumps[n + 1]
        if n == orbit.steps_per_period // 2:
            # the seam: row 51 negates row 1, the step from w_0, and by odd
            # symmetry the step from w_50 negates the step from -w_50 =
            # w_100, which lies within the defect of w_0; a step is
            # nonexpansive in the jump norm
            assert system.jump_norm(gap) <= orbit.defect + 1e-12
        else:
            assert np.max(np.abs(gap)) < 1e-12
