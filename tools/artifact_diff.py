"""Compare two artifact directories value by value.

Usage:  python tools/artifact_diff.py DIR_A DIR_B

For every CSV and JSON file under either directory, prints the largest
relative and the largest absolute deviation of its numeric fields, each
with the field where it occurs, and for a CSV file also each column that
deviates, with both.  The relative deviation of a pair is
(|a - b| - 1e-12) / max(|a|, |b|), or 0 if that is negative: the smallest
relative tolerance at which ``numpy.isclose`` with an absolute tolerance
of 1e-12 accepts the pair.  The floor keeps roundoff in values that are
themselves roundoff-sized (a decayed gap norm, a jump crossing zero) from
reading as a large relative change; the absolute deviation |a - b| next
to it tells a roundoff-sized move from a real one.  CSV lines that start with
``#`` (the version and config-hash comment) are skipped.  Everything that
does not compare as numbers is listed as a difference: a file present in
one directory only, a changed header, row count or JSON key, a changed
non-numeric value.  Exit status 1 if there is such a difference, else 0.

This is the check for a change that moves artifacts at roundoff, where
``artifact_digest.py`` can only say that the bytes differ.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

FLOOR = 1e-12


def rel_dev(a: float, b: float) -> float:
    if a == b:                           # also equal infinities
        return 0.0
    return max(abs(a - b) - FLOOR, 0.0) / max(abs(a), abs(b))


def deviation(a: float, b: float) -> tuple[float, float]:
    """The relative and the absolute deviation of a pair."""
    return rel_dev(a, b), 0.0 if a == b else abs(a - b)


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(path_a: Path, path_b: Path, other: list) -> dict:
    """Largest (relative, absolute) deviation per column; non-numeric
    differences go to ``other``."""
    def rows(path):
        with path.open(newline="") as fh:
            return list(csv.reader(line for line in fh
                                   if not line.startswith("#")))

    rows_a, rows_b = rows(path_a), rows(path_b)
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        other.append("header differs")
        return {}
    header = rows_a[0]
    if len(rows_a) != len(rows_b):
        other.append(f"{len(rows_a) - 1} rows against {len(rows_b) - 1}")
    dev = dict.fromkeys(header, (0.0, 0.0))
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(rb):
            other.append(f"row {i}: {len(ra)} fields against {len(rb)}")
            continue
        for name, a, b in zip(header, ra, rb):
            x, y = _number(a), _number(b)
            if x is not None and y is not None:
                dev[name] = tuple(map(max, dev[name], deviation(x, y)))
            elif a != b:
                other.append(f"row {i} {name}: {a!r} against {b!r}")
    return dev


def compare_json(a, b, where: str, dev: dict, other: list) -> None:
    """(Relative, absolute) deviation of every number of two JSON values,
    keyed by its path."""
    def numeric(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if numeric(a) and numeric(b):
        dev[where] = deviation(float(a), float(b))
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) ^ set(b)):
            other.append(f"{where}/{key}: in one file only")
        for key in a:
            if key in b:
                compare_json(a[key], b[key], f"{where}/{key}", dev, other)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            other.append(f"{where}: {len(a)} entries against {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            compare_json(x, y, f"{where}[{i}]", dev, other)
    elif a != b:
        other.append(f"{where}: {a!r} against {b!r}")


def diff_dirs(dir_a: Path, dir_b: Path, out=sys.stdout) -> int:
    """Print the report; the number of non-numeric differences."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*")
                if p.is_file() and p.suffix in (".csv", ".json")}

    names_a, names_b = files(dir_a), files(dir_b)
    n_other = 0
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{name}  only in {dir_a if name in names_a else dir_b}",
                  file=out)
            n_other += 1
            continue
        other: list = []
        if name.endswith(".csv"):
            dev = compare_csv(dir_a / name, dir_b / name, other)
        else:
            dev = {}
            compare_json(json.loads((dir_a / name).read_text()),
                         json.loads((dir_b / name).read_text()), "", dev,
                         other)
        line = name
        for i, kind in enumerate(("rel", "abs")):
            worst = max(dev, key=lambda k: dev[k][i], default=None)
            value = dev[worst][i] if dev else 0.0
            line += f"  max {kind} {value:.3e}" + (f"  at {worst}" if value
                                                  else "")
        print(line, file=out)
        if name.endswith(".csv"):
            for col, (rel, ab) in dev.items():
                if rel > 0.0:
                    print(f"    {col}  {rel:.3e}  abs {ab:.3e}", file=out)
        for line in other:
            print(f"    differs: {line}", file=out)
        n_other += len(other)
    return n_other


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/artifact_diff.py DIR_A DIR_B")
    sys.exit(1 if diff_dirs(Path(sys.argv[1]), Path(sys.argv[2])) else 0)
