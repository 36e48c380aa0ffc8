"""Time the two-scale stack at each macro resolution (the README size table).

Usage:  python tools/twoscale_sizes.py [RESOLUTION ...]     (default 4 8 16 32)

Each RESOLUTION is a positive integer; any other argument (``--help``
included) prints the usage line and exits with status 2.

Each resolution runs in its own Python process, one after another, with
OPENBLAS_NUM_THREADS=1 (and the OpenMP and MKL equivalents) set in that
process's environment before numpy loads.  The system is the default
configuration (cell resolution 8, ``sin`` law, dt = 1e-3) at that
``macro.resolution``, stepped from the default seeded random jump of
amplitude 5.  Each process builds the system 5 times and reports the median
CPU time (``time.process_time``) of:

- set-up: ``TwoScaleSystem`` construction;
- first step: the first step, which builds the stepper's frozen factor;
- step: the mean of 20 steps after the first ``PREDICTOR_ORDER`` (the
  predictor's ramp, untimed), each continuing from the previous step's
  result as ``simulate`` does (an extrapolated start);
- iterations per step: the mean ``StepResult.iterations`` of those 20
  steps, corrections and factor passes alike;
- solves per step: the mean number of bulk-sized solves of those 20
  steps, products with the flux response (``flux_map.apply``) plus
  solves with a pass factor; a count, so the machine's speed does not
  move it;
- ``state_at``: the mean of one state rebuild at each of those 20 steps;

and its peak RSS, the process maximum (interpreter and imports included).
Prints one Markdown table row per resolution as its process finishes.  The
tissue package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

USAGE = "usage: python tools/twoscale_sizes.py [RESOLUTION ...]"
REPEATS = 5
STEPS = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HEADER = ("| `macro.resolution` | jumps | set-up (s) | first step (ms) "
          "| ms per `sin` step | iterations per step | solves per step "
          "| `state_at` (ms) | peak RSS (MB) |\n"
          "|---|---|---|---|---|---|---|---|---|")


def count_solves(flux_map) -> list:
    """Count the calls of the flux map's ``apply`` and of the ``solve`` of
    every factor it builds from now on, in the returned one-item list."""
    calls = [0]

    def counted(fn):
        def call(*args):
            calls[0] += 1
            return fn(*args)
        return call

    build = flux_map.factor

    def factor(d):
        built = build(d)
        built.solve = counted(built.solve)
        return built

    flux_map.apply = counted(flux_map.apply)
    flux_map.factor = factor
    return calls


def measure(res: int) -> dict:
    """Medians of ``REPEATS`` set-ups and runs at one macro resolution; runs
    in the child process."""
    import gc
    import resource
    import time

    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from tissue.config import finalize_config
    from tissue.membrane import PREDICTOR_ORDER
    from tissue.twoscale import TwoScaleSystem, initial_two_scale_jump

    cfg = finalize_config({"macro.resolution": res})
    dt = cfg["time.dt"]
    rows = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        cell = cfg.build_cell()
        system = TwoScaleSystem(cell, cfg.build_conductivity(cell),
                                cfg.build_law(), cfg.build_drive(),
                                cfg.build_params(), macro_res=res,
                                macro_dim=cfg["macro.dimension"])
        t1 = time.process_time()
        w = initial_two_scale_jump(system, cfg["init.kind"],
                                   cfg["init.amplitude"], seed=cfg["seed"])
        solves = count_solves(system.flux_map)
        t2 = time.process_time()
        last = system.stepper.step(dt, w, dt)
        t3 = time.process_time()
        for n in range(2, PREDICTOR_ORDER + 1):    # the predictor's ramp
            last = system.stepper.step(n * dt, last, dt)
        first_timed = PREDICTOR_ORDER + 1
        solves_before = solves[0]
        t4 = time.process_time()
        results = []
        for n in range(first_timed, first_timed + STEPS):
            last = system.stepper.step(n * dt, last, dt)
            results.append(last)
        t5 = time.process_time()
        solved = (solves[0] - solves_before) / STEPS
        for n, step_res in enumerate(results, start=first_timed):
            system.state_at(n * dt, step_res.jump)
        t6 = time.process_time()
        iterations = sum(r.iterations for r in results) / STEPS
        rows.append((t1 - t0, 1e3 * (t3 - t2), 1e3 * (t5 - t4) / STEPS,
                     iterations, solved, 1e3 * (t6 - t5) / STEPS))
        # free this system before the next one is built, so that the peak
        # RSS is that of one system
        n_w = system.n_w
        del system, last, results
        gc.collect()
    setup, first, step, iterations, solved, state = np.median(
        np.array(rows), axis=0)
    return {"res": res, "jumps": n_w, "setup_s": setup,
            "first_step_ms": first, "step_ms": step,
            "iterations": iterations, "solves": solved, "state_ms": state,
            # ru_maxrss is in kB on Linux
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_one(res: int) -> dict:
    """``measure(res)`` in a fresh single-BLAS-thread process."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    out = subprocess.run([sys.executable, __file__, "--measure", str(res)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def row(m: dict) -> str:
    return (f"| {m['res']} | {m['jumps']:,} | {m['setup_s']:.3g} "
            f"| {m['first_step_ms']:.3g} | {m['step_ms']:.3g} "
            f"| {m['iterations']:.3g} | {m['solves']:.3g} "
            f"| {m['state_ms']:.3g} "
            f"| {m['peak_rss_mb']:.0f} |")


def main(argv: list[str]) -> None:
    if argv[:1] == ["--measure"]:
        print(json.dumps(measure(int(argv[1]))))
        return
    if not all(a.isdecimal() and int(a) > 0 for a in argv):
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    resolutions = [int(a) for a in argv] or [4, 8, 16, 32]
    print(f"# {platform.machine()}, {os.cpu_count()} CPUs, Python "
          f"{platform.python_version()}; CPU times, median of {REPEATS}, "
          "one BLAS thread")
    print(HEADER, flush=True)
    for res in resolutions:
        print(row(run_one(res)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
