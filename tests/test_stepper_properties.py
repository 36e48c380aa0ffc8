"""Property tests of the implicit step and of short runs, on both stacks.

The step against a dense Newton reference: Hypothesis draws the law and
its kappa, the conductivity contrast, the start amplitude and the step's
dt.  The amplitude range covers starts whose chord passes hand over to
Newton; the derandomized draws need not hit that narrow band, so two
explicit cubic examples (one per stack) are such starts.

The structure of short runs: Hypothesis draws the law and its kappa, the
conductivity contrast and the drive profile (spatial and temporal kind,
amplitude and offset), and the runs keep the paper's discrete invariants
at the bounds of the ``verify`` suite: the paired-jump Lyapunov energy
never rises, negating the drive and the start negates every jump, and zero
drive from a zero start gives zero jumps.

The step tolerance's scalar bound: Hypothesis draws the drive, the load
scale, the tolerance, dt, the rate coefficient, the previous jump and the
law's largest value, and the bound never exceeds the tolerance.
"""

from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import tissue as T  # noqa: E402
from tissue.decay import lyapunov_series  # noqa: E402
from tissue.membrane import JumpStepper  # noqa: E402
from tissue.micro import initial_jump  # noqa: E402
from tissue.twoscale import initial_two_scale_jump  # noqa: E402

from conftest import make_micro  # noqa: E402
from oracles import dense_flux, dense_newton_step  # noqa: E402
from test_twoscale import make_two_scale  # noqa: E402


def _system(stack, domain, contrast, kind, kappa, dt,
            drive=("affine", "sin", 1.0)):
    """A system and its start-data family."""
    cond = (contrast, 1.0)
    if stack == "micro":
        system = make_micro(domain, cond=cond, law=(kind,), drive=drive,
                            dt=dt, kappa=kappa)
        return system, lambda a, s: initial_jump(domain, "random", a, seed=s)
    system = make_two_scale(cond=cond, law=(kind,), drive=drive, dt=dt,
                            kappa=kappa)
    return system, \
        lambda a, s: initial_two_scale_jump(system, "random", a, seed=s)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stack=st.sampled_from(["micro", "twoscale"]),
       kind=st.sampled_from(["linear", "tanh", "sin", "cubic"]),
       kappa=st.floats(0.1, 3.0),
       contrast=st.floats(0.2, 5.0),
       amplitude=st.floats(0.0, 25.0),
       dt=st.sampled_from([1e-3, 1e-2, 0.1]),
       t_next=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 16))
@example(stack="micro", kind="cubic", kappa=1.0, contrast=2.0, amplitude=5.0,
         dt=1e-2, t_next=1e-2, seed=1)
@example(stack="twoscale", kind="cubic", kappa=1.0, contrast=2.0,
         amplitude=5.0, dt=1e-2, t_next=1e-2, seed=1)
def test_step_matches_dense_newton(small_domain, stack, kind, kappa, contrast,
                                   amplitude, dt, t_next, seed):
    system, start = _system(stack, small_domain, contrast, kind, kappa, dt)
    dense = dense_flux(system)
    stepper = system.stepper
    w_prev = start(amplitude, seed)
    res = stepper.step(t_next, w_prev, dt)
    want = dense_newton_step(dense, system.law, stepper.rate_coeff,
                             stepper.arg_scale, w_prev,
                             system.drive.temporal(t_next), dt)
    # relative to the solution, with a floor for a solution near zero
    scale = max(float(np.max(np.abs(want))), 1e-3)
    assert np.max(np.abs(res.jump - want)) <= 1e-10 * scale
    if kind == "linear":
        assert (res.iterations, res.factorizations) == (1, 1)
    else:
        assert 1 <= res.factorizations <= res.iterations


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stack=st.sampled_from(["micro", "twoscale"]),
       kind=st.sampled_from(["linear", "tanh", "sin", "cubic"]),
       kappa=st.floats(0.1, 3.0),
       contrast=st.floats(0.2, 5.0),
       spatial=st.sampled_from(["constant", "affine", "sines"]),
       temporal=st.sampled_from(["constant", "sin", "offset_sin"]),
       amplitude=st.floats(-3.0, 3.0),
       offset=st.floats(-1.0, 1.0))
def test_runs_dissipate_are_odd_and_stay_zero_at_zero_data(
        small_domain, stack, kind, kappa, contrast, spatial, temporal,
        amplitude, offset):
    horizon = 1.0       # one period of the periodic drives

    def build(amp):
        return _system(stack, small_domain, contrast, kind, kappa, 1e-2,
                       drive=(spatial, temporal, amp, offset))

    system, start = build(amplitude)
    wa, wb = start(3.0, 1), start(3.0, 2)
    ta, tb = (T.simulate(system, w, horizon) for w in (wa, wb))
    # the paired-jump energy of two runs never rises beyond the slack
    assert lyapunov_series(ta, tb).monotone
    # negated drive and start negate every jump, to 1e-10 of the jump size
    tneg = T.simulate(build(-amplitude)[0], -wa, horizon)
    scale = max(1.0, float(np.max(np.abs(ta.jumps))))
    assert np.max(np.abs(tneg.jumps + ta.jumps)) <= 1e-10 * scale
    # zero drive from a zero start gives zero jumps
    tzero = T.simulate(build(0.0)[0], np.zeros_like(wa), horizon)
    assert np.max(np.abs(tzero.jumps)) <= 1e-13


_SCALES = st.one_of(st.just(0.0), st.floats(0.0, 1e6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drive=st.floats(-1e6, 1e6),
       load_scale=_SCALES,
       newton_tol=st.floats(1e-16, 1e6),
       dt=st.floats(1e-6, 1e6),
       rate_coeff=st.floats(1e-6, 1e6),
       w_prev=st.lists(st.floats(-1e6, 1e6), max_size=4),
       f_max=_SCALES)
def test_tolerance_bound_never_exceeds_the_tolerance(
        drive, load_scale, newton_tol, dt, rate_coeff, w_prev, f_max):
    flux = SimpleNamespace(weights=np.ones(1), load=np.array([load_scale]))
    stepper = JumpStepper(flux, T.make_nonlinearity("linear"),
                          lambda t: 1.0, rate_coeff=rate_coeff, arg_scale=1.0,
                          params=T.SolverParams(dt=dt, newton_tol=newton_tol))
    assert stepper._tolerance_bound(drive) <= \
        stepper._tolerance(np.array(w_prev), f_max, drive)
