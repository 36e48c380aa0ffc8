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
- ms in the flux map per step: the CPU time of those 20 steps spent
  inside these solves, per step; the rest of the step time is the
  stepper's own vector work;
- ``state_at``: the mean of one state rebuild at each of those 20 steps;

held: the ``tracemalloc`` current size of one more system, built after
the timed ones with the cell, conductivity, law, drive and parameters it
holds (measured once, as it is deterministic); the weak form: the
``tracemalloc`` peak of one ``transient_weak_residual`` over a
``WEAK_STEPS``-step stride-1 run of the last system built (the sum's own
allocations: a chunk's stacked tests, their Gram product and smaller
arrays, about two and a half chunks of test triples; measured once); and
its peak RSS, the process maximum (interpreter and imports included).
The three memory columns are in MiB (2**20 bytes; ``ru_maxrss`` is in
KiB on Linux).  Prints one Markdown table row per resolution as its
process finishes.  The tissue package is imported from the ``src``
directory next to this script.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

USAGE = "usage: python tools/twoscale_sizes.py [RESOLUTION ...]"
REPEATS = 5
STEPS = 20
WEAK_STEPS = 100
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HEADER = ("| `macro.resolution` | jumps | set-up (s) | first step (ms) "
          "| ms per `sin` step | iterations per step | solves per step "
          "| ms in the flux map per step | `state_at` (ms) | held (MiB) "
          "| weak form (MiB) | peak RSS (MiB) |\n"
          "|---|---|---|---|---|---|---|---|---|---|---|---|")


def count_solves(flux_map) -> dict:
    """Count the calls of the flux map's ``apply`` and of the ``solve`` of
    every factor it builds from now on, and the CPU time spent in them, in
    the returned dict's "calls" and "s"."""
    calls = {"calls": 0, "s": 0.0}

    def counted(fn):
        def call(*args):
            t0 = time.process_time()
            out = fn(*args)
            calls["s"] += time.process_time() - t0
            calls["calls"] += 1
            return out
        return call

    build = flux_map.factor

    def factor(d):
        built = build(d)
        built.solve = counted(built.solve)
        return built

    flux_map.apply = counted(flux_map.apply)
    flux_map.factor = factor
    return calls


def weak_form_peak_mib(system, w) -> float:
    """The ``tracemalloc`` peak of ``transient_weak_residual`` over a
    ``WEAK_STEPS``-step stride-1 run from ``w``, with a test pair whose
    jump part falls linearly to zero at the last step."""
    import tracemalloc

    import numpy as np

    from tissue.membrane import simulate
    from tissue.twoscale import transient_weak_residual

    dt = system.params.dt
    traj = simulate(system, w, WEAK_STEPS * dt)
    rng = np.random.default_rng(0)
    phi = rng.normal(size=system.n_nodes)
    phc = rng.normal(size=(system.n_nodes, system.n_y))
    phw = rng.normal(size=system.n_w)

    def test(n, t):
        fac = 1.0 - n / WEAK_STEPS
        return phi * fac, phc * fac, phw * fac

    tracemalloc.start()
    try:
        transient_weak_residual(system, traj, test)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def held_mib(build) -> float:
    """The ``tracemalloc`` current size of what ``build()`` returns, with
    everything it holds, after a garbage collection."""
    import gc
    import tracemalloc

    tracemalloc.start()
    try:
        built = build()     # alive until its size is read
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / 2 ** 20
    finally:
        tracemalloc.stop()


def measure(res: int) -> dict:
    """Medians of ``REPEATS`` set-ups and runs at one macro resolution; runs
    in the child process."""
    import gc
    import resource

    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from tissue.config import finalize_config
    from tissue.membrane import PREDICTOR_ORDER
    from tissue.twoscale import TwoScaleSystem, initial_two_scale_jump

    cfg = finalize_config({"macro.resolution": res})
    dt = cfg["time.dt"]

    def build() -> TwoScaleSystem:
        cell = cfg.build_cell()
        return TwoScaleSystem(cell, cfg.build_conductivity(cell),
                              cfg.build_law(), cfg.build_drive(),
                              cfg.build_params(), macro_res=res,
                              macro_dim=cfg["macro.dimension"])

    rows = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        system = build()
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
        solves_before, solve_s_before = solves["calls"], solves["s"]
        t4 = time.process_time()
        results = []
        for n in range(first_timed, first_timed + STEPS):
            last = system.stepper.step(n * dt, last, dt)
            results.append(last)
        t5 = time.process_time()
        solved = (solves["calls"] - solves_before) / STEPS
        solve_ms = 1e3 * (solves["s"] - solve_s_before) / STEPS
        for n, step_res in enumerate(results, start=first_timed):
            system.state_at(n * dt, step_res.jump)
        t6 = time.process_time()
        iterations = sum(r.iterations for r in results) / STEPS
        rows.append((t1 - t0, 1e3 * (t3 - t2), 1e3 * (t5 - t4) / STEPS,
                     iterations, solved, solve_ms, 1e3 * (t6 - t5) / STEPS))
        n_w = system.n_w
        if len(rows) == REPEATS:
            weak_mib = weak_form_peak_mib(system, w)
        # free this system before the next one is built, so that the peak
        # RSS is that of one system
        del system, last, results
        gc.collect()
    held = held_mib(build)
    setup, first, step, iterations, solved, solve_ms, state = np.median(
        np.array(rows), axis=0)
    return {"res": res, "jumps": n_w, "setup_s": setup,
            "first_step_ms": first, "step_ms": step,
            "iterations": iterations, "solves": solved,
            "flux_map_ms": solve_ms, "state_ms": state, "held_mib": held,
            "weak_mib": weak_mib,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mib": resource.getrusage(
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
            f"| {m['flux_map_ms']:.3g} | {m['state_ms']:.3g} "
            f"| {m['held_mib']:.3g} | {m['weak_mib']:.3g} "
            f"| {m['peak_rss_mib']:.0f} |")


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
