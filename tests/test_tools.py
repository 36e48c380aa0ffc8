"""``tools/artifact_diff.py`` on small artifact directories, the exit code
of ``tools/artifact_digest.py`` and a smoke run of
``tools/twoscale_sizes.py``."""

import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("artifact_diff",
                                               _TOOLS / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)
_spec = importlib.util.spec_from_file_location("artifact_digest",
                                               _TOOLS / "artifact_digest.py")
artifact_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digest)


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _diff(tmp_path, files_a, files_b):
    out = io.StringIO()
    n = artifact_diff.diff_dirs(_write(tmp_path / "a", files_a),
                                _write(tmp_path / "b", files_b), out=out)
    return n, out.getvalue().splitlines()


def test_rel_dev_has_an_absolute_floor():
    assert artifact_diff.rel_dev(1.0, 1.0) == 0.0
    assert artifact_diff.rel_dev(2.0, 2.0 + 2e-6) == pytest.approx(1e-6,
                                                                  rel=1e-5)
    # roundoff in a roundoff-sized value is no deviation
    assert artifact_diff.rel_dev(1e-15, 3e-15) == 0.0
    assert artifact_diff.rel_dev(0.0, 2e-12) == pytest.approx(0.5)


def test_csv_columns_and_comment_lines(tmp_path):
    a = "# tissue 0.1 config aaaa\nt,x,y\n0.0,1.0,2.0\n0.5,4.0,5e-16\n"
    b = "# tissue 0.1 config bbbb\nt,x,y\n0.0,1.0,2.0\n0.5,4.004,1e-15\n"
    n, lines = _diff(tmp_path, {"run/s.csv": a}, {"run/s.csv": b})
    assert n == 0
    assert lines[0] == \
        "run/s.csv  max rel 9.990e-04  at x  max abs 4.000e-03  at x"
    assert lines[1:] == [f"    x  {artifact_diff.rel_dev(4.0, 4.004):.3e}"
                         "  abs 4.000e-03"]


def test_absolute_deviation_beside_the_relative_one(tmp_path):
    # a roundoff-sized column that moves by 1.45e-12 reads 0.31 relative
    # past the floor; its absolute deviation shows the move is roundoff
    a = "t,x,r\n0.0,1.0,0.0\n1.0,2.0,3e-13\n"
    b = "t,x,r\n0.0,1.0,1.45e-12\n1.0,2.0000001,3e-13\n"
    n, lines = _diff(tmp_path, {"s.csv": a}, {"s.csv": b})
    rel_x = artifact_diff.rel_dev(2.0, 2.0000001)
    assert n == 0
    assert lines == [
        "s.csv  max rel 3.103e-01  at r  max abs 1.000e-07  at x",
        f"    x  {rel_x:.3e}  abs 1.000e-07",
        "    r  3.103e-01  abs 1.450e-12"]


def test_json_numbers_and_non_numeric_differences(tmp_path):
    a = {"rate": -2.0, "fit": {"class": "exponential", "r2": [0.99, 1.0]},
         "flag": True, "gone": 1}
    b = {"rate": -2.0000002, "fit": {"class": "subexponential",
                                     "r2": [0.99, 1.0]},
         "flag": True}
    n, lines = _diff(tmp_path, {"r.json": json.dumps(a)},
                     {"r.json": json.dumps(b)})
    assert n == 2
    assert lines[0].startswith("r.json  max rel 1.00")
    assert lines[0].endswith("max abs 2.000e-07  at /rate")
    assert "    differs: /gone: in one file only" in lines
    assert "    differs: /fit/class: 'exponential' against " \
        "'subexponential'" in lines


def test_missing_files_and_changed_shape(tmp_path):
    n, lines = _diff(tmp_path,
                     {"one.csv": "t,x\n0,1\n1,2\n", "only_a.json": "{}",
                      "notes.txt": "ignored"},
                     {"one.csv": "t,x\n0,1\n"})
    assert n == 2
    assert lines[0] == "one.csv  max rel 0.000e+00  max abs 0.000e+00"
    assert lines[1] == "    differs: 2 rows against 1"
    assert lines[2].startswith("only_a.json  only in ")


def test_artifact_digest_counts_a_failing_run_and_carries_on(
        tmp_path, monkeypatch, capsys):
    # one run exits 3 and one raises; every run is still printed, every
    # file still digested, and the two count as failures
    def fake_main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{argv[0]}.csv").write_text(argv[0])
        if argv[0] == "bad":
            return 3
        if argv[0] == "boom":
            raise ValueError("no step")
        return 0
    monkeypatch.setattr(artifact_digest, "main", fake_main)
    monkeypatch.setattr(artifact_digest, "CONFIGS", {"one": ""})
    monkeypatch.setattr(artifact_digest, "RUNS", [
        ("one", "one", ["good"]), ("one", "one", ["bad"]),
        ("one", "one", ["boom"])])
    assert artifact_digest.run_all(tmp_path) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["exit 0  one: good", "exit 3  one: bad",
                         "exit raised ValueError: no step  one: boom"]
    assert [ln.split("  ")[1] for ln in lines[3:]] == [
        "one/bad.csv", "one/boom.csv", "one/good.csv", "one.cfg"]
    monkeypatch.setattr(artifact_digest, "RUNS", [("one", "one", ["good"])])
    assert artifact_digest.run_all(tmp_path) == 0


def test_twoscale_sizes_prints_one_row_per_resolution():
    out = subprocess.run([sys.executable, str(_TOOLS / "twoscale_sizes.py"),
                          "2"], capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0].startswith("# ") and "one BLAS thread" in lines[0]
    assert lines[1].startswith("| `macro.resolution` | jumps | set-up (s)")
    header = [c.strip() for c in lines[1].strip("|").split("|")]
    assert len(lines) == 4
    cells = [c.strip() for c in lines[3].strip("|").split("|")]
    assert len(cells) == len(header)
    assert cells[:2] == ["2", "64"]
    assert all(float(c) > 0.0 for c in cells[2:])
    # the flux map's share of a step is part of the step
    row = dict(zip(header, cells))
    assert float(row["ms in the flux map per step"]) \
        < float(row["ms per `sin` step"])
    assert header[-3:] == ["held (MiB)", "weak form (MiB)", "peak RSS (MiB)"]
    # one system and the weak-form sum are small parts of the process
    assert float(row["held (MiB)"]) < float(row["peak RSS (MiB)"])
    assert float(row["weak form (MiB)"]) < float(row["peak RSS (MiB)"])


@pytest.mark.parametrize("args", [["--help"], ["4", "x"], ["0"]])
def test_twoscale_sizes_rejects_bad_arguments_with_usage(args):
    out = subprocess.run([sys.executable, str(_TOOLS / "twoscale_sizes.py"),
                          *args], capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("usage: ") and "Traceback" not in out.stderr
    assert out.stdout == ""
