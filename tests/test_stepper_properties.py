"""Property test of the implicit step against a dense Newton reference.

Hypothesis draws the law and its kappa, the conductivity contrast, the
start amplitude and the step's dt, on both stacks.  The amplitude range
covers starts whose chord passes hand over to Newton; the derandomized
draws need not hit that narrow band, so two explicit cubic examples (one
per stack) are such starts.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import tissue as T  # noqa: E402
from tissue.micro import initial_jump  # noqa: E402
from tissue.twoscale import initial_two_scale_jump  # noqa: E402

from conftest import make_micro  # noqa: E402
from oracles import dense_flux, dense_newton_step  # noqa: E402
from test_twoscale import make_two_scale  # noqa: E402


def _system(stack, domain, contrast, kind, kappa, dt):
    """A system, its start-data family and its dense flux response."""
    cond = (contrast, 1.0)
    if stack == "micro":
        system = make_micro(domain, cond=cond, law=(kind,), dt=dt, kappa=kappa)
        return system, lambda a, s: initial_jump(domain, "random", a, seed=s), \
            dense_flux(system)
    system = make_two_scale(cond=cond, law=(kind,), dt=dt, kappa=kappa)
    return system, \
        lambda a, s: initial_two_scale_jump(system, "random", a, seed=s), \
        dense_flux(system)


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
    system, start, dense = _system(stack, small_domain, contrast, kind, kappa,
                                   dt)
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
