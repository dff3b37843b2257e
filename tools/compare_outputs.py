#!/usr/bin/env python3
"""Compare two trees written by tools/cli_outputs.sh, number by number.

    python tools/compare_outputs.py OUT_A OUT_B

`diff -r` says only that two files differ.  This script reads each pair of
files that differ in their bytes and prints one line for it: the largest
absolute and relative difference between corresponding numbers, where the
largest absolute one sits, and, for a trajectory (`*_trajectory.*`,
`*_run<k>.*`), its point counts.  Where a trajectory's time grid moved
(other step times or another number of points), its rows are compared at
the last point only, since rows of the same number then sit at different
times.  JSON is compared value by value, CSV cell by cell, and any other
file (stdout, stderr, exit_code) by the numbers in its text.  A difference
that is not numeric (a changed string, key, header or word, a file present
in one tree only, a changed number of entries) is flagged with
`NON-NUMERIC`.

Exit code: 0 when the trees are byte-identical, 1 when every difference is
numeric, 2 when one is not.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?(?:inf|nan|Infinity|NaN)\b")
_TRAJECTORY = re.compile(r"_(?:trajectory|run\d+)\.(?:csv|json)$")


class Diff:
    """Running record of one file pair's differences."""

    def __init__(self):
        self.abs = 0.0
        self.rel = 0.0
        self.where = ""
        self.grid = None  # point counts of a trajectory whose grid moved
        self.flags: list[str] = []

    def number(self, a: float, b: float, where: str) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        if not (math.isfinite(a) and math.isfinite(b)):
            self.flags.append(f"{where}: {a!r} -> {b!r}")
            return
        gap = abs(a - b)
        self.rel = max(self.rel, gap / max(abs(a), abs(b)))
        if gap > self.abs:
            self.abs, self.where = gap, where

    def value(self, a, b, where: str) -> None:
        if _is_number(a) and _is_number(b):
            self.number(float(a), float(b), where)
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.flags.append(f"{where}: keys {sorted(a.keys() ^ b.keys())}")
            for key in sorted(a.keys() & b.keys()):
                self.value(a[key], b[key], f"{where}/{key}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.flags.append(f"{where}: {len(a)} -> {len(b)} entries")
            for k, (x, y) in enumerate(zip(a, b)):
                self.value(x, y, f"{where}/{k}")
        elif a != b:
            self.flags.append(f"{where}: {_short(a)} -> {_short(b)}")

    def trajectory(self, a: dict, b: dict, times_a: list,
                   times_b: list) -> None:
        """Per-point series: element by element on the same time grid,
        else at the last point."""
        if times_a == times_b or not (times_a and times_b):
            self.value(a, b, "")
            return
        self.grid = (len(times_a), len(times_b))
        self.value({f"{k}/-1": v[-1] for k, v in a.items()},
                   {f"{k}/-1": v[-1] for k, v in b.items()}, "")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _short(v) -> str:
    text = repr(v)
    return text if len(text) <= 60 else text[:57] + "..."


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _tokens(text: str) -> tuple[list[str], list[float]]:
    """Text with every number cut out, and the numbers."""
    return _NUMBER.split(text), [float(m) for m in _NUMBER.findall(text)]


_PER_POINT = ("times", "states", "w_norms", "residuals")


def compare_files(a: Path, b: Path, name: str) -> Diff:
    diff = Diff()
    text_a, text_b = a.read_text(), b.read_text()
    trajectory = bool(_TRAJECTORY.search(name))
    if name.endswith(".json"):
        data_a, data_b = json.loads(text_a), json.loads(text_b)
        if trajectory:
            per_a = {k: data_a.pop(k) for k in _PER_POINT}
            per_b = {k: data_b.pop(k) for k in _PER_POINT}
            diff.trajectory(per_a, per_b, per_a["times"], per_b["times"])
        diff.value(data_a, data_b, "")
    elif name.endswith(".csv"):
        rows_a = [line.split(",") for line in text_a.splitlines()]
        rows_b = [line.split(",") for line in text_b.splitlines()]
        diff.value(rows_a[:1], rows_b[:1], "/header")
        cells_a = [[_cell(c) for c in row] for row in rows_a[1:]]
        cells_b = [[_cell(c) for c in row] for row in rows_b[1:]]
        if trajectory:
            diff.trajectory({"row": cells_a}, {"row": cells_b},
                            [row[0] for row in cells_a],
                            [row[0] for row in cells_b])
        else:
            diff.value(cells_a, cells_b, "/row")
    else:
        words_a, nums_a = _tokens(text_a)
        words_b, nums_b = _tokens(text_b)
        if words_a != words_b or len(nums_a) != len(nums_b):
            diff.flags.append("text changed")
        else:
            for k, (x, y) in enumerate(zip(nums_a, nums_b)):
                diff.number(x, y, f"number {k}")
    return diff


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Numeric comparison of two tools/cli_outputs.sh trees.")
    parser.add_argument("out_a", type=Path)
    parser.add_argument("out_b", type=Path)
    args = parser.parse_args(argv)
    files_a, files_b = _files(args.out_a), _files(args.out_b)
    numeric_only, identical = True, True
    for name in sorted(files_a ^ files_b):
        side = "A" if name in files_a else "B"
        print(f"NON-NUMERIC {name}: only in {side}")
        numeric_only = identical = False
    for name in sorted(files_a & files_b):
        a, b = args.out_a / name, args.out_b / name
        if a.read_bytes() == b.read_bytes():
            continue
        identical = False
        diff = compare_files(a, b, name)
        line = (f"{name}: max abs {diff.abs:.3g}"
                + (f" at {diff.where}" if diff.where else "")
                + f", max rel {diff.rel:.3g}")
        if diff.grid:
            line += (f", time grid moved, points {diff.grid[0]} -> "
                     f"{diff.grid[1]} (compared at the last point)")
        if diff.flags:
            numeric_only = False
            line = f"NON-NUMERIC {line}; " + "; ".join(diff.flags[:3])
            if len(diff.flags) > 3:
                line += f"; {len(diff.flags) - 3} more"
        print(line)
    return 0 if identical else 1 if numeric_only else 2


if __name__ == "__main__":
    sys.exit(main())
