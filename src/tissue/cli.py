"""Command-line entry point: ``tissue <subcommand> --config <path>``.

Subcommands: simulate, periodic, decay, homogenize, verify, compare.
Artifacts are CSV time series (one header row) and JSON reports, all
embedding the configuration hash and package version; identical config and
seed reproduce them byte for byte.  Exit codes: 0 success, 1 solver
failure, 2 config parse or command-line usage error, 3 validation error,
4 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .decay import decay_metrics
from .errors import TissueError
from .micro import (MicroSystem, bulk_l2, gradient_l2, initial_jump,
                    simulate, verify_energy_estimates)
from .nonlinearity import PERIOD
from .periodic import (PeriodicOrbit, find_periodic, find_periodic_regularized,
                       orbit_distance)
from .twoscale import (TwoScaleSystem, initial_two_scale_jump,
                       micro_two_scale_gap)
from .verify import run_invariant_suite

log = logging.getLogger("tissue")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _stamp(cfg: RunConfig) -> str:
    return f"# tissue {__version__} config {cfg.sha256()}"


def _write_csv(path: Path, cfg: RunConfig, header: list[str],
               rows) -> None:
    lines = [_stamp(cfg), ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["config_sha256"] = cfg.sha256()
    payload["version"] = __version__
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _echo_config(cfg: RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.txt").write_text(cfg.echo_text())


def _micro_system(cfg: RunConfig) -> MicroSystem:
    cell = cfg.build_cell()
    dom = cfg.build_domain(cell)
    cond = cfg.build_conductivity(cell)
    return MicroSystem(dom, cond, cfg.build_law(), cfg.build_drive(),
                       cfg.build_params())


def _two_scale_system(cfg: RunConfig) -> TwoScaleSystem:
    cell = cfg.build_cell()
    cond = cfg.build_conductivity(cell)
    return TwoScaleSystem(cell, cond, cfg.build_law(), cfg.build_drive(),
                          cfg.build_params(), macro_res=cfg["macro.resolution"],
                          macro_dim=cfg["macro.dimension"])


def _run_header(system: MicroSystem) -> dict:
    return {
        "geometry": system.domain.summary(),
        "membrane_law": system.law.describe(),
        "drive": {
            "spatial": system.drive.spatial_kind,
            "temporal": system.drive.temporal_kind,
            "amplitude": system.drive.amplitude,
            "offset": system.drive.offset,
        },
    }


# -- subcommands --------------------------------------------------------------

def _cmd_simulate(cfg: RunConfig, out: Path, args) -> int:
    system = _micro_system(cfg)
    w0 = initial_jump(system.domain, cfg["init.kind"], cfg["init.amplitude"],
                      seed=cfg["seed"])
    traj = simulate(system, w0, cfg["time.horizon"], stride=cfg["output.stride"])
    dom = system.domain
    rows = []
    for i in range(len(traj)):
        t = float(traj.ts[i])
        w = traj.jumps[i]
        u = system.bulk_at(t, w)
        bvals = system.drive.values(dom.boundary.midpoint, t)
        n = traj.stride * i
        rows.append((
            t, bulk_l2(dom, u), gradient_l2(dom, u, w, bvals),
            system.jump_norm(w),
            traj.balance_residuals[n - 1] if n > 0 else 0.0,
            traj.newton_iters[n - 1] if n > 0 else 0,
        ))
    _write_csv(out / "simulate.csv", cfg,
               ["t", "L2_bulk", "L2_grad", "L2_jump", "dissipation_residual",
                "newton_iters"], rows)
    _write_json(out / "run_header.json", cfg, _run_header(system))
    log.info("simulate: %d steps, max newton iters %d",
             len(traj.newton_iters), int(traj.newton_iters.max(initial=0)))
    return 0


def _orbit(cfg: RunConfig, system) -> PeriodicOrbit:
    return find_periodic(system, tol=cfg["periodic.tol"],
                         max_iters=cfg["periodic.max_iters"])


def _orbit_rows(system, orbit: PeriodicOrbit):
    dom = system.domain
    rows = []
    for n in range(orbit.steps_per_period + 1):
        t = n * orbit.dt
        w = orbit.jumps[n]
        u = system.bulk_at(t, w)
        rows.append((t, system.jump_norm(w), bulk_l2(dom, u)))
    return rows


def _cmd_periodic(cfg: RunConfig, out: Path, args) -> int:
    system = _micro_system(cfg)
    tol, max_iters = cfg["periodic.tol"], cfg["periodic.max_iters"]
    if args.method == "delta":
        orbits = find_periodic_regularized(system, cfg["periodic.deltas"],
                                           tol=tol, max_iters=max_iters)
        gaps = [orbit_distance(system, a, b)
                for a, b in zip(orbits, orbits[1:])]
        orbit = orbits[-1]
        extra = {"method": "delta",
                 "deltas": list(cfg["periodic.deltas"]),
                 "successive_orbit_gaps": gaps}
    else:
        orbit = find_periodic(system, tol=tol, max_iters=max_iters)
        extra = {"method": "picard"}

    _write_csv(out / "periodic.csv", cfg, ["t", "jump_norm", "bulk_energy"],
               _orbit_rows(system, orbit))
    energy = verify_energy_estimates(orbit, system)
    report = {"defect": orbit.defect, "iterations": orbit.iterations,
              "map": orbit.map, "energy_check": energy}
    report.update(extra)
    _write_json(out / "periodic_report.json", cfg, report)
    _write_json(out / "run_header.json", cfg, _run_header(system))
    return 0


def _decay_run(cfg: RunConfig, out: Path, system, w0, name: str,
               header: list[str]) -> tuple[dict, PeriodicOrbit]:
    """Write ``name``.csv, the transient from w0 against the system's
    periodic orbit; return the decay report's payload and the orbit."""
    orbit = _orbit(cfg, system)
    traj = simulate(system, w0, cfg["time.horizon"], stride=cfg["output.stride"])
    report = decay_metrics(traj, orbit)
    _write_csv(out / f"{name}.csv", cfg, ["t"] + header,
               zip(report.ts, *report.columns.values()))
    return report.as_dict(), orbit


def _cmd_decay(cfg: RunConfig, out: Path, args) -> int:
    system = _micro_system(cfg)
    w0 = initial_jump(system.domain, cfg["init.kind"], cfg["init.amplitude"],
                      seed=cfg["seed"])
    payload, _ = _decay_run(cfg, out, system, w0, "decay",
                            ["norm_L2", "norm_grad", "norm_jump", "E"])
    _write_json(out / "decay_report.json", cfg, payload)
    _write_json(out / "run_header.json", cfg, _run_header(system))
    return 0


def _cmd_homogenize(cfg: RunConfig, out: Path, args) -> int:
    system = _two_scale_system(cfg)
    w0 = initial_two_scale_jump(system, cfg["init.kind"], cfg["init.amplitude"],
                                seed=cfg["seed"])
    payload, orbit = _decay_run(
        cfg, out, system, w0, "homogenize",
        ["norm_macro_H1", "norm_corrector", "norm_corrector_grad",
         "norm_jump", "lyapunov"])
    payload["orbit"] = {"defect": orbit.defect, "iterations": orbit.iterations,
                        "map": orbit.map}
    payload["cell_geometry"] = system.cell.summary()
    payload["macro_grid"] = {"dimension": system.macro.dim,
                             "resolution": system.macro.res,
                             "nodes": system.macro.n_nodes}
    payload["membrane_law"] = system.law.describe()
    _write_json(out / "homogenize_report.json", cfg, payload)
    return 0


def _compare_one(cfg: RunConfig, system_ts, state, eps: float) -> tuple:
    cell = cfg.build_cell()
    dom = cfg.build_domain(cell, epsilon=eps)
    cond = cfg.build_conductivity(cell)
    micro = MicroSystem(dom, cond, cfg.build_law(), cfg.build_drive(),
                        cfg.build_params())
    gap = micro_two_scale_gap(micro, _orbit(cfg, micro).jumps[-1], system_ts,
                              state, PERIOD)
    return eps, gap


def _cmd_compare(cfg: RunConfig, out: Path, args) -> int:
    system = _two_scale_system(cfg)
    state = system.state_at(PERIOD, _orbit(cfg, system).jumps[-1])
    results = [_compare_one(cfg, system, state, e)
               for e in cfg["compare.epsilons"]]
    _write_csv(out / "compare.csv", cfg, ["epsilon", "l2_error"], results)
    gaps = [g for _, g in results]
    _write_json(out / "compare_report.json", cfg, {
        "epsilons": [e for e, _ in results],
        "l2_errors": gaps,
        "monotone_decreasing": bool(all(b < a for a, b in zip(gaps, gaps[1:]))),
    })
    return 0


def _cmd_verify(cfg: RunConfig, out: Path, args) -> int:
    checks = run_invariant_suite(cfg)
    ok = all(c["passed"] for c in checks)
    _write_json(out / "verify_report.json", cfg,
                {"passed": ok, "checks": checks})
    for c in checks:
        log.info("%-32s %s", c["name"], "pass" if c["passed"] else "FAIL")
    return 0 if ok else 4


_COMMANDS = {
    "simulate": _cmd_simulate,
    "periodic": _cmd_periodic,
    "decay": _cmd_decay,
    "homogenize": _cmd_homogenize,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}

_CSV_DOC = {
    "simulate": "t, L2_bulk, L2_grad, L2_jump, dissipation_residual, newton_iters",
    "periodic": "t, jump_norm, bulk_energy",
    "decay": "t, norm_L2, norm_grad, norm_jump, E",
    "homogenize": "t, norm_macro_H1, norm_corrector, norm_corrector_grad, "
                  "norm_jump, lyapunov",
    "compare": "epsilon, l2_error",
    "verify": "(JSON report only)",
}


def run(subcommand: str, cfg: RunConfig, out: Path, args) -> int:
    """Dispatch a validated configuration to a subcommand."""
    _echo_config(cfg, out)
    try:
        return _COMMANDS[subcommand](cfg, out, args)
    except ConfigError:
        raise
    except TissueError as exc:
        log.error("solver failure: %s", exc)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tissue",
        description="Electrical conduction in periodic two-phase tissue with "
                    "dynamic membrane interfaces.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=f"{name} (CSV columns: {_CSV_DOC[name]})")
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default="out", help="output directory")
        if name == "periodic":
            p.add_argument("--method", choices=("picard", "delta"),
                           default="picard")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=os.environ.get("TISSUE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = parse_config(args.config)
        return run(args.command, cfg, Path(args.out), args)
    except ConfigError as exc:
        print(f"tissue: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
