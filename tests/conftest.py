import sys
from pathlib import Path
from types import SimpleNamespace

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


def record_passes(stepper):
    """Wrap the stepper's flux map so that each pass of its factor path
    appends "chord" (a solve with the frozen factor) or "newton" (with a
    fresh factor) to the list returned."""
    kinds, flux = [], stepper.flux

    def factor(d):
        inner = flux.factor(d)

        def solve(r):
            kinds.append("chord" if made is stepper._frozen else "newton")
            return inner.solve(r)

        made = SimpleNamespace(solve=solve)
        return made

    stepper.flux = SimpleNamespace(weights=flux.weights, load=flux.load,
                                   apply=flux.apply, factor=factor)
    return kinds


def hands_over(kinds):
    """Whether a Newton pass follows a chord pass in ``kinds``."""
    return any(a == "chord" and b == "newton"
               for a, b in zip(kinds, kinds[1:]))


def steps_agree(stepper_a, stepper_b, w, dt, n_steps=3):
    """Step both from ``w``; same iteration counts and jumps to 1e-12."""
    for n in range(n_steps):
        t = (n + 1) * dt
        a = stepper_a.step(t, w, dt)
        b = stepper_b.step(t, w, dt)
        assert (a.iterations, a.factorizations) == \
            (b.iterations, b.factorizations)
        assert rel_gap(a.jump, b.jump) <= 1e-12
        w = a.jump
    return a
