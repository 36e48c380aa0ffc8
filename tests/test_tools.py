"""``tools/artifact_diff.py`` on small artifact directories and a smoke run
of ``tools/twoscale_sizes.py``."""

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
    assert lines[0].startswith("run/s.csv  max rel 9.990e-04")
    assert lines[0].endswith("at x")
    assert lines[1:] == [f"    x  {artifact_diff.rel_dev(4.0, 4.004):.3e}"]


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
    assert lines[0].endswith("at /rate")
    assert "    differs: /gone: in one file only" in lines
    assert "    differs: /fit/class: 'exponential' against " \
        "'subexponential'" in lines


def test_missing_files_and_changed_shape(tmp_path):
    n, lines = _diff(tmp_path,
                     {"one.csv": "t,x\n0,1\n1,2\n", "only_a.json": "{}",
                      "notes.txt": "ignored"},
                     {"one.csv": "t,x\n0,1\n"})
    assert n == 2
    assert lines[0] == "one.csv  max rel 0.000e+00"
    assert lines[1] == "    differs: 2 rows against 1"
    assert lines[2].startswith("only_a.json  only in ")


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
