"""The benchmark's use of the package, checked with the package's tests.

``benchmark/`` imports and wraps names that nothing else in the repository
calls: the two-scale aliases ``simulate_two_scale``,
``two_scale_decay_metrics`` and ``find_periodic_two_scale``,
``StepResult.used_shift``, the three-argument ``JumpStepper.step``,
``Nonlinearity.is_linear``, the ``macro.dimension`` config key and
``TwoScaleSystem(macro_dim=...)``.  These tests run every workload of
``BENCHMARK.json`` at the benchmark's ``smoke`` size, untraced and traced,
so a change that drops one of them fails here and not only in a benchmark
run.  The traced run writes its spans under ``tmp_path``, not under
``benchmark/``.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NAMES = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_benchmark_workload_runs_on_the_package(name, trace, tmp_path):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "benchmark"))
        import run
        mp.setattr(run, "OUT", tmp_path)
        out = run.run_workload(name, seed=7, seconds=0, trace=trace,
                               scale="smoke", min_passes=1)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0, \
        out["report"]["failures"]
