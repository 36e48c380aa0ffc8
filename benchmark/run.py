"""Run one benchmark workload, check its outputs and print its metrics.

    python3 benchmark/run.py --workload twoscale_orbit_256 --seed 1 --seconds 45 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 45 --trace 1

Each workload runs in a process of its own with the BLAS pool at one
thread.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it describe the machine, the failures and the trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# numpy and scipy are imported only after main() has set these, so the
# BLAS pools start with one thread
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Before each pass, the set-up is timed as often as fits in SETUP_BATCH_S
# (a 256-facet set-up takes about 25 ms, a 1024-facet one about 0.45 s),
# within these counts.  The batches spread the set-up samples over the whole
# run, as the passes are, instead of one stretch of a machine whose speed
# drifts.
SETUP_BATCH_S = 0.7
SETUP_BATCH_MIN, SETUP_BATCH_MAX = 2, 60
MIN_PASSES = 3
CHILD_TIMEOUT_S = 600
LAYERS = ("geometry", "nonlinearity", "micro", "twoscale", "membrane",
          "periodic", "decay")

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "steps_per_s": "1/s",
    "linear_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# A layer's figures are 0 on a workload that does not run that layer.
PER_LAYER_UNITS = {
    "process.baseline_rss_mb": "MB",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
    "geometry.build_s": "s",
    "nonlinearity.build_s": "s",
    "micro.precompute_s": "s",
    "micro.dense_bytes": "B",
    "micro.state_ms.p50": "ms",
    "twoscale.precompute_s": "s",
    "twoscale.dense_bytes": "B",
    "twoscale.state_ms.p50": "ms",
    "twoscale.weak_residual_s": "s",
    "membrane.newton_step_ms.p50": "ms",
    "membrane.newton_step_ms.p90": "ms",
    "membrane.linear_step_ms.p50": "ms",
    "membrane.linear_step_ms.p90": "ms",
    "membrane.newton_steps": "count",
    "membrane.newton_iters": "count",
    "membrane.shift_retries": "count",
    "periodic.find_s": "s",
    "periodic.picard_iters": "count",
    "decay.metrics_s": "s",
    "decay.lyapunov_s": "s",
    **{f"{layer}.self_share": "share" for layer in LAYERS},
}


# -- process and machine facts -------------------------------------------------

def rss_now_mb() -> float:
    """Resident set size of this process now, from /proc/self/status."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS not found in /proc/self/status")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_pools() -> list:
    """Config string and live thread count of every OpenBLAS loaded here."""
    import ctypes

    paths = sorted({line.split()[-1] for line in
                    Path("/proc/self/maps").read_text().splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry.update(threads=threads(),
                                 config=config().decode().strip())
        pools.append(entry)
    return pools


def environment() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "blas_pools": _blas_pools(),
    }


# -- one workload in this process ----------------------------------------------

def _steps(p, phases) -> int:
    return sum(p.steps[ph] for ph in phases)


def _rate(passes, *phases: str) -> float:
    """Implicit steps per second over the phases' calls, median over passes."""
    rates = []
    for p in passes:
        busy = sum(p.phase_s[ph] for ph in phases)
        if busy > 0.0:
            rates.append(_steps(p, phases) / busy)
    return statistics.median(rates) if rates else 0.0


def _percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer(tracer, traced, untraced_total_s: float,
              baseline_mb: float) -> dict:
    """The per-layer metrics of one traced pass."""
    spans = tracer.by_name()
    layer_s = tracer.layer_self_s()
    total = traced.phase_s["total"]
    newton = tracer.durations_ms("membrane.newton_step")
    linear = tracer.durations_ms("membrane.linear_step")

    def span_s(*names: str) -> float:
        return sum(spans[n]["total_s"] for n in names if n in spans)

    def prefix_s(prefix: str) -> float:
        return sum(v["total_s"] for k, v in spans.items() if k.startswith(prefix))

    def dense(ctor: str) -> int:
        return traced.facts["dense_bytes"] if ctor in spans else 0

    values = {
        "process.baseline_rss_mb": baseline_mb,
        "trace.overhead_s": total - untraced_total_s,
        "trace.remainder_s": total - sum(layer_s.get(layer, 0.0)
                                         for layer in LAYERS),
        "geometry.build_s": prefix_s("geometry."),
        "nonlinearity.build_s": prefix_s("nonlinearity."),
        "micro.precompute_s": span_s("micro.MicroSystem"),
        "micro.dense_bytes": dense("micro.MicroSystem"),
        "micro.state_ms.p50": _percentile(tracer.durations_ms("micro.state_at"), 50),
        "twoscale.precompute_s": span_s("twoscale.TwoScaleSystem"),
        "twoscale.dense_bytes": dense("twoscale.TwoScaleSystem"),
        "twoscale.state_ms.p50":
            _percentile(tracer.durations_ms("twoscale.state_at"), 50),
        "twoscale.weak_residual_s": span_s("twoscale.periodic_weak_residual"),
        "membrane.newton_step_ms.p50": _percentile(newton, 50),
        "membrane.newton_step_ms.p90": _percentile(newton, 90),
        "membrane.linear_step_ms.p50": _percentile(linear, 50),
        "membrane.linear_step_ms.p90": _percentile(linear, 90),
        "membrane.newton_steps": tracer.counts["membrane.newton_steps"],
        "membrane.newton_iters": tracer.counts["membrane.newton_iters"],
        "membrane.shift_retries": tracer.counts["membrane.shift_retries"],
        "periodic.find_s": span_s("periodic.find_periodic_two_scale"),
        "periodic.picard_iters": traced.facts.get("orbit", {}).get("iterations", 0),
        "decay.metrics_s": span_s("decay.two_scale_decay_metrics"),
        "decay.lyapunov_s": span_s("decay.lyapunov_series"),
        **{f"{layer}.self_share": layer_s.get(layer, 0.0) / total
           for layer in LAYERS},
    }
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", overrides: dict | None = None,
                 min_passes: int = MIN_PASSES) -> dict:
    """Run passes for about ``seconds`` (at least ``min_passes``), each after
    a batch of timed set-ups, then one traced pass if asked.  Returns the
    result object and a report.

    The end-to-end times are CPU times scaled to the reference speed of
    ``speed.SpeedProbe``, whose kernel runs before every set-up batch and
    every checked operation of the untraced passes.  The per-layer times are
    CPU times as measured.
    """
    from speed import REFERENCE_S, SpeedProbe
    from tracing import NullTracer, Tracer
    from workloads import (SCALES, WORKLOADS, make_config, run_pass,
                           time_setup)

    baseline_mb = rss_now_mb()
    workload, sc = WORKLOADS[name], SCALES[scale]
    overrides = dict(overrides or {})
    cfg = make_config(workload, sc, overrides)
    probe = SpeedProbe(workload.unknowns)

    # Past min_passes, a further pass starts only if, at the mean pass time
    # so far, it ends within ``seconds``.
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        probe()
        batch = []
        while len(batch) < SETUP_BATCH_MAX and (
                len(batch) < SETUP_BATCH_MIN or sum(batch) < SETUP_BATCH_S):
            batch.append(time_setup(workload, cfg))
        passes.append(run_pass(workload, cfg, NullTracer(), seed, sc, probe))
        setups += batch + [passes[-1].phase_s["setup"]]
        gc.collect()    # free the pass's system before the next one allocates
        if len(passes) == 1:
            # Later passes reuse a heap the earlier ones left fragmented, and
            # raised the peak by 0-7 MB from run to run at 256 facets.  The
            # peak of one set-up batch and one pass repeats to within 0.3 MB.
            first_peak_mb = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and \
                elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    probe()
    total_s = statistics.median(p.phase_s["total"] for p in passes)
    checked = list(passes)
    report = {"workload": name, "seed": seed, "scale": scale,
              "environment": environment(),
              "pass_phase_s": [dict(p.phase_s) for p in passes],
              "setup_samples_s": setups,
              "steps": dict(passes[0].steps),
              "facts": passes[0].facts}
    if trace:
        tracer = Tracer(run_id=f"{name}-seed{seed}")
        traced = run_pass(workload, cfg, tracer, seed, sc)
        checked.append(traced)
        metrics = per_layer(tracer, traced, total_s, baseline_mb)
        report.update(spans=tracer.by_name(),
                      traced_total_s=traced.phase_s["total"],
                      untraced_total_s=total_s)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
    else:
        sin, linear = ("orbit", "sin"), ("linear",)
        raw = {
            "setup_s": statistics.median(setups),
            "total_s": total_s,
            "steps_per_s": _rate(passes, *sin),
            "linear_steps_per_s": _rate(passes, *linear),
        }
        speed = probe.factor()
        values = {
            "setup_s": raw["setup_s"] * speed,
            "total_s": raw["total_s"] * speed,
            "steps_per_s": raw["steps_per_s"] / speed,
            "linear_steps_per_s": raw["linear_steps_per_s"] / speed,
            "peak_rss_mb": first_peak_mb,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
        report["unscaled"] = raw
        report["speed"] = {"factor": speed,
                           "reference_s": REFERENCE_S[probe.n],
                           "probe_samples_s": probe.samples}
        report["samples"] = {
            "setup_s": f"median of {len(setups)} set-ups",
            "total_s": f"median of {len(passes)} passes",
            "steps_per_s": f"{sum(_steps(p, sin) for p in passes)} steps",
            "linear_steps_per_s":
                f"{sum(_steps(p, linear) for p in passes)} steps"}
    attempted = sum(p.attempted for p in checked)
    failures = [f for p in checked for f in p.failures]
    report["failures"] = failures
    report["failed_frac"] = len(failures) / attempted
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return {"result": result, "report": report}


# -- command line ----------------------------------------------------------------

def _print_result(out: dict) -> None:
    report, result = out["report"], out["result"]
    wl = report["workload"]
    samples = report.get("samples", {})
    for name, m in result["metrics"].items():
        n = f" ({samples[name]})" if name in samples else ""
        print(f"{wl:<24} {name:<32} {m['value']:.6g} {m['unit']}{n}")
    print(f"{wl:<24} failed_frac {report['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} checked operations)")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(report, default=float))
    print(json.dumps(result))


def _run_all(args) -> int:
    """Every workload in its own process; prints each result, then a summary."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"benchmark: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for one process each")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="run passes for about this many seconds of wall "
                             f"time (at least {MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "tissue" / "__init__.py").is_file():
        print(f"benchmark: no tissue sources under {SRC}", file=sys.stderr)
        return 2
    # the BLAS pools read these when numpy and scipy load, below
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import tissue
    if Path(tissue.__file__).resolve().parent != SRC / "tissue":
        print(f"benchmark: imported tissue from {tissue.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or 'all'")
    _print_result(run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
