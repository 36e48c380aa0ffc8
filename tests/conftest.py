import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import tissue as T
from tissue.membrane import JumpStepper
from tissue.micro import MicroSystem


@pytest.fixture(scope="session")
def cell8():
    return T.build_cell_geometry(0.25, 8)


@pytest.fixture(scope="session")
def cell4():
    return T.build_cell_geometry(0.25, 4)


@pytest.fixture(scope="session")
def small_domain(cell4):
    # 8x8 grid, 16 facets: fast enough for dense-oracle loops
    return T.tile_domain(cell4, 0.5)


@pytest.fixture(scope="session")
def default_domain(cell8):
    return T.tile_domain(cell8, 0.25)


@pytest.fixture(scope="session")
def domain_1d():
    cell = T.build_cell_geometry(0.25, 4, dim=1)
    return T.tile_domain(cell, 0.5)


def make_micro(domain, cond=(1.0, 1.0), law=("sin",), drive=("affine", "sin", 1.0),
               dt=1e-2, alpha=1.0, **law_kw):
    conductivity = T.make_conductivity(domain.cell, *cond)
    nl = T.make_nonlinearity(law[0], **law_kw)
    bd = T.make_boundary_data(*drive)
    params = T.SolverParams(alpha=alpha, dt=dt)
    return MicroSystem(domain, conductivity, nl, bd, params)


@pytest.fixture(scope="session")
def micro_sin_small(small_domain):
    return make_micro(small_domain)


# -- one system's stepper on two implementations of its flux map --------------

def rel_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def stepper_on(system, flux):
    """The system's stepper on another implementation of its flux map."""
    st = system.stepper
    return JumpStepper(flux, system.law, system.drive.temporal,
                       rate_coeff=st.rate_coeff, arg_scale=st.arg_scale,
                       params=system.params)


def force_shifted_retry(stepper):
    """Make the unshifted iteration fail, so every step takes the retry."""
    stepper._iterate = \
        lambda w, drive, dt, shift, start=None, run=stepper._iterate: \
        (None, [], 0) if shift == 0.0 else run(w, drive, dt, shift, start)


def steps_agree(stepper_a, stepper_b, w, dt, n_steps=3):
    """Step both from ``w``; same iteration counts and jumps to 1e-12."""
    for n in range(n_steps):
        t = (n + 1) * dt
        a = stepper_a.step(t, w, dt)
        b = stepper_b.step(t, w, dt)
        assert (a.iterations, a.used_shift) == (b.iterations, b.used_shift)
        assert rel_gap(a.jump, b.jump) <= 1e-12
        w = a.jump
    return a
