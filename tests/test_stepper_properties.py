"""Property test of the implicit step against a dense Newton reference.

Hypothesis draws the law and its kappa, the conductivity contrast, the
start amplitude, the step's dt (equal to ``params.dt`` or not) and whether
the unshifted iteration is forced to fail, on both stacks.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import tissue as T  # noqa: E402
from tissue.micro import initial_jump  # noqa: E402
from tissue.twoscale import initial_two_scale_jump  # noqa: E402

from conftest import force_shifted_retry, make_micro  # noqa: E402
from oracles import (FluxResponse, dense_newton_step, dense_response,  # noqa: E402
                     dense_two_scale)
from test_twoscale import make_two_scale  # noqa: E402


def _system(stack, domain, contrast, kind, kappa, dt):
    """A system, its start-data family and its dense flux response."""
    cond = (contrast, 1.0)
    if stack == "micro":
        system = make_micro(domain, cond=cond, law=(kind,), dt=dt, kappa=kappa)
        return system, lambda a, s: initial_jump(domain, "random", a, seed=s), \
            FluxResponse(system.weights, dense_response(system),
                         system.flux_map.load)
    system = make_two_scale(cond=cond, law=(kind,), dt=dt, kappa=kappa)
    dense = dense_two_scale(system)
    return system, \
        lambda a, s: initial_two_scale_jump(system, "random", a, seed=s), \
        FluxResponse(system.weights, dense.response, dense.load)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stack=st.sampled_from(["micro", "twoscale"]),
       kind=st.sampled_from(["linear", "tanh", "sin", "cubic"]),
       kappa=st.floats(0.1, 3.0),
       contrast=st.floats(0.2, 5.0),
       amplitude=st.floats(0.0, 8.0),
       params_dt=st.sampled_from([1e-3, 1e-2, 0.1]),
       dt_ratio=st.sampled_from([1.0, 0.5, 3.0]),
       t_next=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 16),
       forced_retry=st.booleans())
def test_step_matches_dense_newton(small_domain, stack, kind, kappa, contrast,
                                   amplitude, params_dt, dt_ratio, t_next,
                                   seed, forced_retry):
    system, start, dense = _system(stack, small_domain, contrast, kind, kappa,
                                   params_dt)
    stepper = system.stepper
    if forced_retry:
        force_shifted_retry(stepper)
    dt = params_dt * dt_ratio
    w_prev = start(amplitude, seed)
    res = stepper.step(t_next, w_prev, dt)
    want = dense_newton_step(dense, system.law, stepper.rate_coeff,
                             stepper.arg_scale, w_prev,
                             system.drive.temporal(t_next), dt)
    # relative to the solution, with a floor for a solution near zero
    scale = max(float(np.max(np.abs(want))), 1e-3)
    assert np.max(np.abs(res.jump - want)) <= 1e-10 * scale
    assert res.used_shift == forced_retry
    if forced_retry or dt != params_dt:
        # every pass refactors; the frozen factor is never built
        assert res.factorizations == res.iterations
    elif kind == "linear":
        assert (res.iterations, res.factorizations) == (1, 1)
    else:
        assert 1 <= res.factorizations <= res.iterations + 1
