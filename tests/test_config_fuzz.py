"""Fuzz of the configuration parser.

Hypothesis writes ``key = value`` files over the schema keys, with values
drawn from floats (infinities, NaN and subnormals included), small
integers, float lists and arbitrary text, mixed with lines of arbitrary
text, and files of arbitrary bytes.  ``parse_config`` must return a
configuration or raise ``ConfigError`` with exit code 2 (malformed text)
or 3 (unknown key or rejected value), and nothing else.  Integers stay
small: the parser builds the cell, so an unbounded
``geometry.cell_resolution`` would allocate without limit.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tissue.config import _SCHEMA, RunConfig, parse_config  # noqa: E402
from tissue.errors import ConfigError  # noqa: E402

# text that encodes to UTF-8: no lone surrogates
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=16)
_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_VALUE = st.one_of(
    _FLOAT.map(repr),
    st.integers(-3, 64).map(str),
    st.lists(_FLOAT, min_size=1, max_size=4).map(
        lambda v: ", ".join(map(repr, v))),
    st.sampled_from(["sin", "linear", "tanh", "cubic", "affine",
                     "offset_sin", "random", "0.5, 0.25", "1/4", ""]),
    _TEXT)


@st.composite
def _config_text(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["schema", "text key", "raw"]))
        if kind == "raw":
            lines.append(draw(_TEXT))
            continue
        key = draw(st.sampled_from(sorted(_SCHEMA)) if kind == "schema"
                   else _TEXT)
        # an integer key that sizes the cell takes small integers only
        value = draw(st.integers(-3, 64).map(str)
                     if key == "geometry.cell_resolution" else _VALUE)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.one_of(_config_text().map(str.encode),
                     st.binary(max_size=64)))
def test_parse_config_returns_or_raises_config_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes(data)
    try:
        cfg = parse_config(path)
    except ConfigError as exc:
        assert exc.exit_code in (2, 3)
    else:
        assert isinstance(cfg, RunConfig)
        assert set(cfg.values) == set(_SCHEMA)
