import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tissue
from tissue.cli import main
from tissue.config import finalize_config, parse_config
from tissue.errors import ConfigError

FAST = """
geometry.epsilon = 0.5
geometry.cell_resolution = 4
time.dt = 0.01
time.horizon = 1.0
output.stride = 10
macro.resolution = 2
"""


def write_cfg(tmp_path, text=FAST, name="run.cfg", **overrides):
    lines = [ln for ln in text.strip().splitlines()
             if not any(ln.startswith(k + " ") for k in overrides)]
    lines += [f"{k} = {v}" for k, v in overrides.items()]
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p


# -- parsing and validation ----------------------------------------------------

def test_defaults_fill_and_echo_stable(tmp_path):
    cfg = parse_config(write_cfg(tmp_path))
    assert cfg["geometry.dimension"] == 2
    assert cfg["f.kind"] == "sin"
    assert cfg["alpha"] == 1.0
    text1 = cfg.echo_text()
    text2 = parse_config(write_cfg(tmp_path)).echo_text()
    assert text1 == text2
    assert "geometry.epsilon = 0.5" in text1


def test_unknown_key_rejected(tmp_path):
    p = write_cfg(tmp_path, FAST + "f.gamma = 1.0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.exit_code == 3
    assert "f.gamma" in str(err.value)


@pytest.mark.parametrize("key", ["solver.newton_shift",
                                 "solver.linear_tol", "periodic.theta"])
def test_removed_solver_key_exits_as_unknown(tmp_path, capsys, key):
    # a step makes one attempt, with no shift to set, verify's bulk solve
    # keeps its fixed tolerance, and the orbit iteration starts undamped:
    # none of these knobs is a key any more
    cfg = write_cfg(tmp_path, FAST + f"{key} = 0.01\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_epsilon_rejected(tmp_path):
    p = write_cfg(tmp_path, "geometry.epsilon = 0.3\n")
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.exit_code == 3
    assert "epsilon" in str(err.value)


@pytest.mark.parametrize("epsilons", ["0.5, 0.3", "0.5, 0.015625"])
def test_compare_epsilons_must_tile(tmp_path, capsys, epsilons):
    # an entry whose tiling does not close, or exceeds the cell cap, is out
    # of range before any run starts, not a solver failure after the first
    cfg = write_cfg(tmp_path, "init.kind = modulated\n"
                              f"compare.epsilons = {epsilons}\n")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 3
    assert "compare.epsilons" in capsys.readouterr().err
    assert not out.exists()


def test_parse_error_reports_line(tmp_path):
    p = write_cfg(tmp_path, "geometry.epsilon 0.5\n")
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.exit_code == 2
    assert ":1:" in str(err.value)


def test_bad_value_type_is_parse_error(tmp_path):
    p = write_cfg(tmp_path, "time.dt = fast\n")
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.exit_code == 2


def test_out_of_range_named_with_range(tmp_path):
    p = write_cfg(tmp_path, "f.kappa = -2.0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.exit_code == 3
    assert "f.kappa" in str(err.value) and "positive" in str(err.value)


def test_horizon_must_divide(tmp_path):
    p = write_cfg(tmp_path, "time.dt = 0.01\ntime.horizon = 0.505\n")
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.exit_code == 3


@pytest.mark.parametrize("key,value", [
    ("geometry.epsilon", "inf"), ("compare.epsilons", "inf, 0.5"),
    ("time.horizon", "inf"), ("conductivity.sigma_int", "inf"),
    ("time.dt", "inf"), ("f.kappa", "inf"), ("periodic.tol", "inf"),
    ("solver.newton_tol", "inf"), ("psi.amplitude", "nan"),
    ("periodic.deltas", "inf, 0.1")])
def test_non_finite_float_exits_3(tmp_path, capsys, key, value):
    # each was a raw IndexError, OverflowError or LinAlgError past the
    # CLI's error mapping, or a run that exited 0
    cfg = write_cfg(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("data,code", [
    (b"geometry.epsilon = 5e-324\n", 3),
    (b"time.dt = 1e-300\ntime.horizon = 1e300\n", 3),
    (b"time.dt = 0.01 \xff\n", 2),
    (b"time.dt = 0.3\ntime.horizon = 0.9\n", 3),
    (b"time.dt = 1.0\ntime.horizon = 5.0000009\n", 3)])
def test_config_fuzz_findings_exit_2_or_3(tmp_path, data, code):
    # raw tracebacks that tests/test_config_fuzz.py found: 1/epsilon and
    # horizon/dt overflow to inf, which no tiling closes and no step count
    # divides, and a file that is not UTF-8 text; and two time grids that
    # a run could not step, a dt that does not divide the drive period and
    # a horizon 9e-7 off a whole number of steps
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.exit_code == code


def test_misaligned_membrane_rejected(tmp_path):
    p = write_cfg(tmp_path, "geometry.cell_resolution = 6\n")
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.exit_code == 3


def test_macro_dimension_cross_check():
    with pytest.raises(ConfigError):
        finalize_config({"geometry.dimension": 1, "macro.dimension": 2,
                         "geometry.cell_resolution": 4})


# -- subcommand round trips ------------------------------------------------------

def test_simulate_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "simulate.csv").exists()
    assert (out / "run_header.json").exists()
    assert (out / "effective_config.txt").exists()
    header = json.loads((out / "run_header.json").read_text())
    assert header["geometry"]["n_membrane_facets"] == 32
    assert header["geometry"]["boundary_gap_over_epsilon"] == 0.25
    assert "config_sha256" in header
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[1].split(",") == ["t", "L2_bulk", "L2_grad", "L2_jump",
                                   "dissipation_residual", "newton_iters"]


def test_simulate_zero_data_all_zero_columns(tmp_path):
    cfg = write_cfg(tmp_path, **{"psi.amplitude": 0.0, "init.kind": "zero"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt((tmp_path / "out" / "simulate.csv").read_text()
                      .splitlines()[2:], delimiter=",")
    assert np.max(np.abs(rows[:, 1:5])) == 0.0


def test_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["periodic", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("simulate.csv", "periodic.csv", "periodic_report.json",
                 "effective_config.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("method", ["picard", "delta"])
def test_periodic_writes_exactly_its_four_files(tmp_path, method):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["periodic", "--config", str(cfg), "--out", str(out),
                 "--method", method]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "effective_config.txt", "periodic.csv", "periodic_report.json",
        "run_header.json"]


def test_every_subcommand_runs_from_the_empty_config(tmp_path):
    # init.kind stays random: decay and compare solve their own orbits, so
    # decay needs no periodic run before it and compare takes any start
    cfg = write_cfg(tmp_path, "", **{"time.horizon": 1.0,
                                     "compare.epsilons": "0.5, 0.25"})
    out = tmp_path / "out"
    for cmd in ("decay", "periodic", "simulate", "homogenize", "compare",
                "verify"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0, cmd
    rep = json.loads((out / "compare_report.json").read_text())
    assert rep["monotone_decreasing"] is True
    # the orbits' gap halves with the cell size: first order
    first, second = rep["l2_errors"]
    assert 1.9 <= first / second <= 2.1


def test_decay_after_periodic(tmp_path):
    cfg = write_cfg(tmp_path, **{"time.horizon": 3.0})
    out = tmp_path / "out"
    assert main(["periodic", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "decay_report.json").read_text())
    assert rep["lyapunov_monotone"] is True
    lines = (out / "decay.csv").read_text().splitlines()
    assert lines[1] == "t,norm_L2,norm_grad,norm_jump,E"


def test_decay_ignores_the_periodic_artifacts(tmp_path):
    # decay solves its orbit itself: an empty directory, a picard orbit and
    # the orbit of the last shifted law leave the same bytes
    cfg = write_cfg(tmp_path, **{"periodic.deltas": "0.1, 0.01"})
    written = set()
    for name, before in (("empty", []), ("picard", ["periodic"]),
                         ("delta", ["periodic", "--method", "delta"])):
        out = tmp_path / name
        if before:
            assert main(before + ["--config", str(cfg), "--out", str(out)]) == 0
        assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
        written.add(tuple((out / f).read_bytes()
                          for f in ("decay.csv", "decay_report.json")))
    assert len(written) == 1


def test_periodic_delta_method(tmp_path):
    cfg = write_cfg(tmp_path, **{"periodic.deltas": "0.1, 0.01"})
    out = tmp_path / "out"
    assert main(["periodic", "--config", str(cfg), "--out", str(out),
                 "--method", "delta"]) == 0
    rep = json.loads((out / "periodic_report.json").read_text())
    assert rep["method"] == "delta"
    assert len(rep["successive_orbit_gaps"]) == 1
    assert rep["energy_check"]["passed"] is True


def test_homogenize_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, **{"time.horizon": 2.0})
    out = tmp_path / "out"
    assert main(["homogenize", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "homogenize_report.json").read_text())
    assert rep["max_mean_defect"] <= 1e-12
    lines = (out / "homogenize.csv").read_text().splitlines()
    assert lines[1].startswith("t,norm_macro_H1,norm_corrector")


def _strict_json(path: Path) -> dict:
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("cmd,report", [("decay", "decay_report.json"),
                                        ("homogenize",
                                         "homogenize_report.json")])
def test_one_sample_decay_report_is_strict_json(tmp_path, cmd, report):
    # 5 steps at stride 10 leave only the initial sample: no rate to fit
    cfg = write_cfg(tmp_path, **{"time.horizon": 0.05})
    out = tmp_path / "out"
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    rep = _strict_json(out / report)
    assert rep["rate"] is None and rep["r_squared"] is None
    assert rep["classification"] == "too_few_samples"


def test_compare_monotone(tmp_path):
    cfg = write_cfg(tmp_path, **{"f.kind": "linear", "init.kind": "uniform",
                                 "init.amplitude": 1.0,
                                 "compare.epsilons": "0.5, 0.25",
                                 "macro.resolution": 4})
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "compare_report.json").read_text())
    assert rep["monotone_decreasing"] is True


def test_verify_exit_code_and_report(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert "lyapunov_nonincreasing" in names
    assert "two_scale_weak_form" in names
    assert all(c["passed"] for c in rep["checks"])
    # measured numbers sit in "value", so reports compare number by number
    for c in rep["checks"]:
        value = c["value"]
        assert value is None or (isinstance(value, (int, float))
                                 and not isinstance(value, bool))
    values = {c["name"]: c["value"] for c in rep["checks"]}
    assert values["two_scale_weak_form"] is not None
    assert values["refinement_stability"] is None


def test_verify_short_runs_take_whole_steps(tmp_path):
    # dt = 0.125 divides the drive period but not verify's 0.2-unit runs,
    # which take the nearest whole number of steps instead
    cfg = write_cfg(tmp_path, **{"time.dt": 0.125, "time.horizon": 2.0,
                                 "f.kind": "cubic"})
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "verify_report.json").read_text())["passed"]


def test_solver_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, **{"periodic.tol": 1e-16,
                                 "periodic.max_iters": 2})
    out = tmp_path / "out"
    code = main(["periodic", "--config", str(cfg), "--out", str(out)])
    assert code == 1


@pytest.mark.parametrize("flag,value", [
    ("--max-iters", "0"), ("--max-iters", "-3"), ("--max-iters", "2.5"),
    ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "x"),
    ("--threads", "0"), ("--threads", "-3")])
def test_periodic_rejects_bad_flag_values_as_usage_errors(tmp_path, capsys,
                                                          flag, value):
    # the tolerance, the iteration cap and the thread count are no flags:
    # the first two are config keys, under the stamp, and compare runs its
    # epsilons in turn; any value of these flags is argparse's usage error
    cfg = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["periodic", "--config", str(cfg), "--out",
              str(tmp_path / "out"), flag, value])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_rejects_threads_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **{"init.kind": "modulated"})
    with pytest.raises(SystemExit) as err:
        main(["compare", "--config", str(cfg), "--out",
              str(tmp_path / "out"), "--threads", "2"])
    assert err.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value,code", [
    ("periodic.tol", "0", 3), ("periodic.tol", "-1", 3),
    ("periodic.tol", "nan", 3), ("periodic.max_iters", "0", 3),
    ("periodic.max_iters", "-3", 3), ("periodic.max_iters", "2.5", 2)])
def test_periodic_rejects_bad_config_values(tmp_path, capsys, key, value,
                                            code):
    # out of range is a validation error (3), a non-integer a parse error
    # (2); both before any solver runs
    cfg = write_cfg(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main(["periodic", "--config", str(cfg), "--out", str(out)]) == code
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


# the "fine" set of tools/artifact_digest.py, with every step written
FINE = """
geometry.epsilon = 0.03125
time.horizon = 0.01
output.stride = 1
"""


def test_fine_simulate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 16,384 facets: a BLAS dot product of that length splits across the
    # threads; at stride 1 every step's dissipation_residual is written
    src = Path(tissue.__file__).resolve().parents[1]
    cfg = write_cfg(tmp_path, FINE)
    written = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src),
               **{name: threads for name in ("OPENBLAS_NUM_THREADS",
                                             "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS")}}
        out = tmp_path / f"threads{threads}"
        run = subprocess.run([sys.executable, "-m", "tissue", "simulate",
                              "--config", str(cfg), "--out", str(out)],
                             env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        written.add((out / "simulate.csv").read_bytes())
    assert len(written) == 1
