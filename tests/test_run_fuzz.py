"""Fuzz of whole runs past the parser.

Hypothesis draws tiny configurations (cell size 1/2, a half-unit horizon)
that set 2 to 5 keys to extreme but valid values: conductivities, the law's
kappa and alpha from 1e-6 to 1e6, ``solver.newton_tol`` from 1e-16 to
1e-3, a step of 1/16, 1/8 or 1/4, cell resolution 2 to 4, macro resolution
1 or 2, and any built-in law (kappa only reaches ``linear`` and ``tanh``).
Every subcommand runs in-process through ``cli.main`` and must exit with a
documented code: 0 success, 1 solver failure, 3 validation error or 4
invariant failure.  A raw exception fails the test.  A cell resolution of
3 comes with the inclusion margin 1/3, so that it aligns; 2 has no margin
that aligns with it and is rejected with exit 3.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tissue.cli import _COMMANDS, main  # noqa: E402
from tissue.config import _F_KINDS  # noqa: E402

BASE = {
    "geometry.epsilon": "0.5",
    "geometry.cell_resolution": "4",
    "macro.resolution": "1",
    "time.dt": "0.125",
    "time.horizon": "0.5",
    "compare.epsilons": "0.5, 0.25",
}


def _decades(lo: int, hi: int):
    """10**e for e in [lo, hi], often at either end."""
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)).map(
        lambda e: repr(10.0 ** e))


_EXTREMES = {
    "conductivity.sigma_int": _decades(-6, 6),
    "conductivity.sigma_out": _decades(-6, 6),
    "f.kappa": _decades(-6, 6),
    "alpha": _decades(-6, 6),
    "solver.newton_tol": _decades(-16, -3),
    "time.dt": st.sampled_from(["0.0625", "0.125", "0.25"]),
    "geometry.cell_resolution": st.sampled_from(["4", "3", "2"]),
    "macro.resolution": st.integers(1, 2).map(str),
    "f.kind": st.sampled_from(_F_KINDS),
}


@st.composite
def _extreme_config(draw) -> dict:
    keys = draw(st.lists(st.sampled_from(sorted(_EXTREMES)), min_size=2,
                         max_size=5, unique=True))
    values = dict(BASE)
    values.update({key: draw(_EXTREMES[key]) for key in keys})
    if values["geometry.cell_resolution"] == "3":
        values["geometry.inclusion_margin"] = repr(1.0 / 3.0)
    return values


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(values=_extreme_config())
def test_every_subcommand_exits_with_a_documented_code(tmp_path_factory,
                                                       values):
    tmp = tmp_path_factory.mktemp("run")
    path = tmp / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    for cmd in _COMMANDS:
        code = main([cmd, "--config", str(path), "--out", str(tmp / "out")])
        assert code in (0, 1, 3, 4), (cmd, values)
