"""Run the default-config artifact set and print a digest of every file.

Usage:  python tools/artifact_digest.py OUT_DIR

Every run goes through ``tissue.cli.main``, so its bytes follow from the
configuration, the subcommand and ``--method`` alone:

- the empty configuration (``OUT_DIR/default``): simulate, periodic, decay,
  homogenize, compare and verify, plus ``periodic --method delta`` in its
  own directory (``OUT_DIR/default_delta``);
- ``init.kind = modulated`` with ``time.horizon = 2.0``
  (``OUT_DIR/modulated``): simulate and homogenize.  Its ``compare``
  would repeat the default one: the orbits do not depend on
  ``init.kind``;
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
  reorders such products would leave their bytes alone;
- a conductivity contrast, ``conductivity.sigma_int = 0.37`` and
  ``conductivity.sigma_out = 2.9``, with ``init.kind = modulated`` and
  ``time.horizon = 2.0`` (``OUT_DIR/contrast``): simulate, periodic, decay
  and homogenize.  Every other set has ``sigma_int = sigma_out``, so all
  face conductances of an assembly are one number and a change of the
  order in which it sums them would leave their bytes alone;
- the cubic law on a coarse grid, ``f.kind = cubic``, ``time.dt = 0.125``
  and ``time.horizon = 2.0`` (``OUT_DIR/coarse``): simulate, periodic,
  decay, homogenize and verify.  No other set has the cubic law, whose
  steps take Newton passes with fresh factors, and no other step length
  fails to divide the 0.2-unit runs of ``verify``.

Prints each subcommand's exit code, or ``raised TYPE: message`` for a run
that raises, and carries on; then one ``sha256  path`` line per file under
OUT_DIR, sorted by path.  Every run of every set exits 0, so the tool
exits 1 after the last digest line if any run exited non-zero or raised,
and 0 otherwise.  A refactor that must leave the artifacts
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
    "contrast": "conductivity.sigma_int = 0.37\nconductivity.sigma_out = 2.9\n"
                "init.kind = modulated\ntime.horizon = 2.0\n",
    "coarse": "f.kind = cubic\ntime.dt = 0.125\ntime.horizon = 2.0\n",
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
    "simulate", "periodic", "decay", "homogenize", "compare", "verify")] + [
    ("contrast", "contrast", [cmd]) for cmd in (
        "simulate", "periodic", "decay", "homogenize")] + [
    ("coarse", "coarse", [cmd]) for cmd in (
        "simulate", "periodic", "decay", "homogenize", "verify")]


def run_all(out: Path) -> int:
    """Run every set into ``out``, print the digest, and return the
    number of runs that exited non-zero or raised."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in CONFIGS.items():
        (out / f"{name}.cfg").write_text(text)
    failed = 0
    for cfg, sub, cmd in RUNS:
        try:
            code = main(cmd + ["--config", str(out / f"{cfg}.cfg"),
                               "--out", str(out / sub)])
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        failed += code != 0
        print(f"exit {code}  {sub}: {' '.join(cmd)}", flush=True)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/artifact_digest.py OUT_DIR")
    sys.exit(1 if run_all(Path(sys.argv[1])) else 0)
