"""The benchmark's own tests, at the tiny ``smoke`` size (epsilon = 1/2,
macro resolution 2, dt = 1e-2), so they take seconds:

    python -m pytest benchmark -q

They cover every workload path, every declared metric with its unit, the
failure path, the trace bookkeeping and the command-line contract.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _smoke(name, trace=False, seed=7, min_passes=1, **overrides):
    return run.run_workload(name, seed=seed, seconds=0, trace=trace,
                            scale="smoke", overrides=overrides,
                            min_passes=min_passes)


def _units(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_is_correct_and_reports_end_to_end_metrics(name):
    out = _smoke(name)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0, out["report"]["failures"]
    assert result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # times are scaled to the reference speed, rates divided by the factor
    report = out["report"]
    speed = report["speed"]["factor"]
    assert speed > 0 and len(report["speed"]["probe_samples_s"]) > 2
    for key in ("setup_s", "total_s"):
        assert result["metrics"][key]["value"] == \
            pytest.approx(report["unscaled"][key] * speed)
    for key in ("steps_per_s", "linear_steps_per_s"):
        assert result["metrics"][key]["value"] == \
            pytest.approx(report["unscaled"][key] / speed)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_per_layer_metrics_that_add_up(name):
    out = _smoke(name, trace=True)
    result, report = out["result"], out["report"]
    assert result["correct"], report["failures"]
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _units("per_layer")
    shares = sum(metrics[f"{layer}.self_share"]["value"] for layer in run.LAYERS)
    remainder = metrics["trace.remainder_s"]["value"] / report["traced_total_s"]
    assert shares + remainder == pytest.approx(1.0, abs=1e-9)
    steps = metrics["membrane.newton_steps"]["value"]
    assert steps > 0 and metrics["membrane.newton_iters"]["value"] >= steps
    assert metrics["membrane.linear_step_ms.p50"]["value"] > 0
    # a layer's figures are positive where it runs, 0 where it does not
    module = name.split("_", 1)[0]
    other = "micro" if module == "twoscale" else "twoscale"
    for key in ("precompute_s", "dense_bytes", "state_ms.p50"):
        assert metrics[f"{module}.{key}"]["value"] > 0
        assert metrics[f"{other}.{key}"]["value"] == 0
    orbit = name.endswith("orbit_256")
    for key in ("periodic.find_s", "periodic.picard_iters", "decay.metrics_s",
                "twoscale.weak_residual_s"):
        assert (metrics[key]["value"] > 0) == orbit, key
    assert (metrics["decay.lyapunov_s"]["value"] > 0) == (not orbit)


def test_state_spans_do_not_nest():
    """The linear-law copy of a traced system is traced once, not twice."""
    wl, sc = workloads.WORKLOADS["twoscale_orbit_256"], workloads.SCALES["smoke"]
    tracer = Tracer("test")
    p = workloads.run_pass(wl, workloads.make_config(wl, sc, {}), tracer, 7, sc)
    assert not p.failures
    names = [span[0] for span in tracer.spans]
    states = [span for span in tracer.spans if span[0] == "twoscale.state_at"]
    assert states
    assert all(names[parent] != "twoscale.state_at" for *_, parent in states)


def test_run_takes_at_least_min_passes():
    out = run.run_workload("twoscale_orbit_256", seed=7, seconds=0, trace=False,
                           scale="smoke")
    report = out["report"]
    assert len(report["pass_phase_s"]) == run.MIN_PASSES
    assert len(report["setup_samples_s"]) >= (run.SETUP_BATCH_MIN + 1) * run.MIN_PASSES


def test_self_time_is_within_span_duration():
    wl, sc = workloads.WORKLOADS["twoscale_orbit_256"], workloads.SCALES["smoke"]
    tracer = Tracer("test")
    p = workloads.run_pass(wl, workloads.make_config(wl, sc, {}), tracer, 7, sc)
    assert not p.failures
    for (name, start, end, _), own in zip(tracer.spans, tracer.self_times()):
        assert -1e-9 <= own <= end - start + 1e-12, name
    root = tracer.spans[0]
    assert root[0] == "bench.pass"
    assert sum(tracer.layer_self_s().values()) == \
        pytest.approx(root[2] - root[1], rel=1e-9)


@pytest.mark.parametrize("name", NAMES)
def test_newton_failure_is_counted_not_raised(name):
    out = _smoke(name, **{"solver.newton_max_iter": 1})
    result = out["result"]
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert out["report"]["failed_frac"] == result["failed"] / result["attempted"]
    assert any("NewtonError" in f for f in out["report"]["failures"])


@pytest.mark.parametrize("name,key", [("twoscale_orbit_256", "norm_t0"),
                                      ("micro_transient_1024", "norm_end")])
def test_changed_answer_is_caught_by_the_references(monkeypatch, name, key):
    refs = workloads.load_references()
    refs["smoke"][name][key] *= 1.0 + 1e-4
    monkeypatch.setattr(workloads, "load_references", lambda: refs)
    failures = _smoke(name)["report"]["failures"]
    assert any(key in f for f in failures)


def test_seed_fixes_the_inputs():
    rates = [_smoke("twoscale_orbit_256", seed=s)["report"]["facts"]["decay_rate"]
             for s in (3, 3, 4)]
    assert rates[0] == rates[1] != rates[2]


def _command(*args, cwd):
    return subprocess.run([sys.executable, "benchmark/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_command_prints_the_result_last_with_one_blas_thread():
    proc = _command("--workload", "micro_transient_1024", "--seed", "3",
                    "--seconds", "0", "--trace", "0", "--scale", "smoke",
                    cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    env = json.loads(lines[-2])["environment"]
    assert env["blas_pools"] and all(p["threads"] == 1 for p in env["blas_pools"])


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _command("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
