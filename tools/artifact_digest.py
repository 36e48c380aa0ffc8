"""Run the default-config artifact set and print a digest of every file.

Usage:  python tools/artifact_digest.py OUT_DIR

Every run goes through ``tissue.cli.main``, so its bytes follow from the
configuration, the subcommand and ``--method`` alone:

- the empty configuration (``OUT_DIR/default``): simulate, periodic, decay,
  homogenize, compare and verify, plus ``periodic --method delta`` in its
  own directory (``OUT_DIR/default_delta``);
- ``init.kind = modulated`` with ``time.horizon = 2.0``
  (``OUT_DIR/modulated``): simulate, homogenize and compare;
- the same in dimension 1 (``geometry.dimension = 1``,
  ``macro.dimension = 1``; ``OUT_DIR/dim1``): simulate, periodic, decay,
  homogenize, compare and verify;
- the weakly coercive linear law (``f.kind = linear``, ``f.kappa = 0.01``,
  both conductivities 0.05, ``time.dt = 0.01``, ``time.horizon = 2.0``;
  ``OUT_DIR/weak``), where the period map contracts slowly: periodic and
  decay;
- the largest resolved grid, ``geometry.epsilon = 0.03125`` (16,384
  facets, the tiling's 65,536-cell cap) with ``time.horizon = 0.01``
  (``OUT_DIR/fine``): simulate;
- spacings that are not powers of two: ``geometry.cell_resolution = 12``
  (cell grid spacing 1/48) and ``macro.resolution = 3``, with
  ``init.kind = modulated`` and ``time.horizon = 2.0``
  (``OUT_DIR/nondyadic``): simulate, periodic, decay, homogenize, compare
  and verify.  Every other set has power-of-two spacings, where products
  with the spacing or the facet measure are exact, so a refactor that
  reorders such products would leave their bytes alone.

Prints each subcommand's exit code, then one ``sha256  path`` line per file
under OUT_DIR, sorted by path.  A refactor that must leave the artifacts
byte-identical is checked by one ``diff`` of two such outputs.  The tissue
package is imported from the ``src`` directory next to this script.

The digest does not depend on the BLAS thread count: the output is the
same under ``OPENBLAS_NUM_THREADS=1`` and ``=2``.  The largest set,
``fine``, is where a threaded reduction would show first, and
``tests/test_cli.py::test_fine_simulate_bytes_do_not_depend_on_the_blas_thread_count``
runs its ``simulate`` at both thread counts with every step written.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tissue.cli import main  # noqa: E402

CONFIGS = {
    "default": "",
    "modulated": "init.kind = modulated\ntime.horizon = 2.0\n",
    "dim1": "geometry.dimension = 1\nmacro.dimension = 1\n"
            "init.kind = modulated\ntime.horizon = 2.0\n",
    "weak": "f.kind = linear\nf.kappa = 0.01\nconductivity.sigma_int = 0.05\n"
            "conductivity.sigma_out = 0.05\ntime.dt = 0.01\ntime.horizon = 2.0\n",
    "fine": "geometry.epsilon = 0.03125\ntime.horizon = 0.01\n",
    "nondyadic": "geometry.cell_resolution = 12\nmacro.resolution = 3\n"
                 "init.kind = modulated\ntime.horizon = 2.0\n",
}

# (config, output directory, subcommand and its extra arguments)
RUNS = [
    ("default", "default", ["simulate"]),
    ("default", "default", ["periodic"]),
    ("default", "default_delta", ["periodic", "--method", "delta"]),
    ("default", "default", ["decay"]),
    ("default", "default", ["homogenize"]),
    ("default", "default", ["compare"]),
    ("default", "default", ["verify"]),
    ("modulated", "modulated", ["simulate"]),
    ("modulated", "modulated", ["homogenize"]),
    ("modulated", "modulated", ["compare"]),
    ("dim1", "dim1", ["simulate"]),
    ("dim1", "dim1", ["periodic"]),
    ("dim1", "dim1", ["decay"]),
    ("dim1", "dim1", ["homogenize"]),
    ("dim1", "dim1", ["compare"]),
    ("dim1", "dim1", ["verify"]),
    ("weak", "weak", ["periodic"]),
    ("weak", "weak", ["decay"]),
    ("fine", "fine", ["simulate"]),
] + [("nondyadic", "nondyadic", [cmd]) for cmd in (
    "simulate", "periodic", "decay", "homogenize", "compare", "verify")]


def run_all(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, text in CONFIGS.items():
        (out / f"{name}.cfg").write_text(text)
    for cfg, sub, cmd in RUNS:
        code = main(cmd + ["--config", str(out / f"{cfg}.cfg"),
                           "--out", str(out / sub)])
        print(f"exit {code}  {sub}: {' '.join(cmd)}", flush=True)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/artifact_digest.py OUT_DIR")
    run_all(Path(sys.argv[1]))
