"""Run configuration: flat dotted-key text files, validated strictly.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Unknown keys are rejected, every value is validated against its
documented range before any solver runs, and the effective configuration
(defaults filled in) echoes to the output directory byte-stably.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError, GeometryError, NonlinearityError
from .geometry import (CellGeometry, Conductivity, EpsilonDomain,
                       build_cell_geometry, make_conductivity, tile_domain)
from .membrane import SolverParams
from .nonlinearity import (BoundaryData, Nonlinearity, make_boundary_data,
                           make_nonlinearity)

_F_KINDS = ("linear", "tanh", "sin", "cubic")
_SPATIAL = ("constant", "affine", "sines")
_TEMPORAL = ("constant", "sin", "offset_sin")
_INIT = ("zero", "uniform", "modulated", "random")


def _parse_floats(raw: str) -> tuple:
    return tuple(float(p) for p in raw.replace(",", " ").split())


# key -> (parser, default, validator, range description)
_SCHEMA = {
    "geometry.dimension": (int, 2, lambda v: v in (1, 2), "1 or 2"),
    "geometry.inclusion_margin": (float, 0.25, lambda v: 0.0 < v < 0.5,
                                  "open interval (0, 0.5)"),
    "geometry.cell_resolution": (int, 8, lambda v: v >= 2, "integer >= 2"),
    "geometry.epsilon": (float, 0.25, lambda v: v > 0,
                         "finite positive, 1/epsilon integer"),
    "conductivity.sigma_int": (float, 1.0, lambda v: v > 0, "finite positive"),
    "conductivity.sigma_out": (float, 1.0, lambda v: v > 0, "finite positive"),
    "f.kind": (str, "sin", lambda v: v in _F_KINDS, f"one of {_F_KINDS}"),
    "f.kappa": (float, 1.0, lambda v: v > 0, "finite positive"),
    "f.delta_shift": (float, 0.0, lambda v: v >= 0, "finite nonnegative"),
    "psi.spatial": (str, "affine", lambda v: v in _SPATIAL, f"one of {_SPATIAL}"),
    "psi.temporal": (str, "sin", lambda v: v in _TEMPORAL, f"one of {_TEMPORAL}"),
    "psi.amplitude": (float, 1.0, lambda v: True, "any finite float"),
    "psi.offset": (float, 0.0, lambda v: True, "any finite float"),
    "time.dt": (float, 1e-3, lambda v: v > 0, "finite positive"),
    "time.horizon": (float, 10.0, lambda v: v > 0,
                     "finite positive multiple of dt"),
    "alpha": (float, 1.0, lambda v: v > 0, "finite positive"),
    "init.kind": (str, "random", lambda v: v in _INIT, f"one of {_INIT}"),
    "init.amplitude": (float, 5.0, lambda v: v >= 0, "finite nonnegative"),
    "solver.newton_tol": (float, 1e-13, lambda v: v > 0, "finite positive"),
    "solver.newton_max_iter": (int, 30, lambda v: v >= 1, "integer >= 1"),
    "periodic.tol": (float, 1e-8, lambda v: v > 0, "finite positive"),
    "periodic.max_iters": (int, 500, lambda v: v >= 1, "integer >= 1"),
    "periodic.deltas": (_parse_floats, (1e-1, 1e-2, 1e-3),
                        lambda v: len(v) >= 1 and all(d >= 1e-6 for d in v)
                        and all(b < a for a, b in zip(v, v[1:])),
                        "finite, strictly decreasing, all >= 1e-6"),
    "macro.resolution": (int, 4, lambda v: v >= 1, "integer >= 1"),
    "macro.dimension": (int, 2, lambda v: v in (1, 2), "1 or 2"),
    "compare.epsilons": (_parse_floats, (0.5, 0.25, 0.125),
                         lambda v: len(v) >= 2 and all(b < a for a, b in zip(v, v[1:])),
                         "finite, strictly decreasing, at least two values"),
    "seed": (int, 1234, lambda v: v >= 0, "nonnegative integer"),
    "output.stride": (int, 10, lambda v: v >= 1, "integer >= 1"),
}


@dataclass
class RunConfig:
    """Validated configuration with builder helpers for the solver objects."""

    values: dict
    source: Optional[str] = None

    def __getitem__(self, key: str):
        return self.values[key]

    # -- builders ----------------------------------------------------------

    def build_cell(self) -> CellGeometry:
        return build_cell_geometry(self["geometry.inclusion_margin"],
                                   self["geometry.cell_resolution"],
                                   dim=self["geometry.dimension"])

    def build_domain(self, cell: Optional[CellGeometry] = None,
                     epsilon: Optional[float] = None) -> EpsilonDomain:
        cell = self.build_cell() if cell is None else cell
        eps = self["geometry.epsilon"] if epsilon is None else epsilon
        return tile_domain(cell, eps)

    def build_conductivity(self, cell: CellGeometry) -> Conductivity:
        return make_conductivity(cell, self["conductivity.sigma_int"],
                                 self["conductivity.sigma_out"])

    def build_law(self) -> Nonlinearity:
        return make_nonlinearity(self["f.kind"], kappa=self["f.kappa"],
                                 delta_shift=self["f.delta_shift"])

    def build_drive(self) -> BoundaryData:
        return make_boundary_data(self["psi.spatial"], self["psi.temporal"],
                                  amplitude=self["psi.amplitude"],
                                  offset=self["psi.offset"])

    def build_params(self) -> SolverParams:
        return SolverParams(alpha=self["alpha"], dt=self["time.dt"],
                            newton_tol=self["solver.newton_tol"],
                            newton_max_iter=self["solver.newton_max_iter"])

    # -- echo and hashing ---------------------------------------------------

    def echo_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, tuple):
                val = ", ".join(repr(v) for v in val)
            lines.append(f"{key} = {val!r}" if isinstance(val, str)
                         else f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.echo_text().encode()).hexdigest()[:16]


def _validated(key: str, value) -> None:
    parser, _, check, rng = _SCHEMA[key]
    # every float, alone or in a tuple, must be finite (NaN included)
    floats = value if parser is _parse_floats \
        else (value,) if parser is float else ()
    if not (all(map(math.isfinite, floats)) and check(value)):
        raise ConfigError(f"field {key} = {value!r} out of range; expected {rng}",
                          exit_code=3)


def parse_config(path) -> RunConfig:
    """Parse and validate a configuration file.

    Raises ConfigError with exit code 2 for malformed text and 3 for unknown
    keys or out-of-range values; cross-field checks (tiling closure, aligned
    membrane, horizon divisibility) also surface as code 3 here rather than
    from deep inside a solver run.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}", exit_code=2)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}", exit_code=2) \
            from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}",
                exit_code=2)
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip().strip('"').strip("'")
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}", exit_code=3)
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}", exit_code=2)
        parser = _SCHEMA[key][0]
        try:
            values[key] = parser(rhs)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}",
                              exit_code=2) from exc
    return finalize_config(values, source=str(path))


def finalize_config(values: dict, source: Optional[str] = None) -> RunConfig:
    """Fill defaults, validate ranges and cross-field constraints."""
    full = {}
    for key, (_, default, _, _) in _SCHEMA.items():
        full[key] = values.get(key, default)
    for key in values:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", exit_code=3)
    for key, val in full.items():
        _validated(key, val)

    am = full["geometry.inclusion_margin"] * full["geometry.cell_resolution"]
    if abs(am - round(am)) > 1e-9:
        raise ConfigError(
            "fields geometry.inclusion_margin * geometry.cell_resolution must "
            f"be integral (got {am:.6g}); pick an aligned resolution", exit_code=3)
    steps = full["time.horizon"] / full["time.dt"]
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-6:
        raise ConfigError(
            f"field time.horizon = {full['time.horizon']} is not a multiple "
            f"of time.dt = {full['time.dt']}", exit_code=3)
    if full["macro.dimension"] != full["geometry.dimension"]:
        raise ConfigError(
            "field macro.dimension must equal geometry.dimension", exit_code=3)
    cfg = RunConfig(values=full, source=source)
    # surface geometry construction problems as validation errors
    try:
        cell = cfg.build_cell()
        cfg.build_conductivity(cell)
        cfg.build_law()
        cfg.build_drive()
        cfg.build_params()
    except (GeometryError, NonlinearityError, ValueError) as exc:
        raise ConfigError(f"configuration rejected: {exc}", exit_code=3) from exc
    # every cell size a run tiles must close the tiling under the cell cap
    tiled = [("geometry.epsilon", full["geometry.epsilon"])]
    tiled += [("compare.epsilons", eps) for eps in full["compare.epsilons"]]
    for key, eps in tiled:
        try:
            cfg.build_domain(cell, epsilon=eps)
        except GeometryError as exc:
            raise ConfigError(f"field {key} = {eps} rejected: {exc}",
                              exit_code=3) from exc
    return cfg
