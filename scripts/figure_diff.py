#!/usr/bin/env python3
"""Cell-by-cell difference of two `reproduce` output trees.

For each CSV found under OLD or NEW (matched by its path relative to the
tree), prints how many cells moved in each column and the largest relative
move of a numeric cell, |new - old| / |old|; then names each `_meta.txt`
that differs or is missing on one side, and ends with the moved cells per
column over all CSVs.  Exits 0 whatever it finds, like a report.

Usage: python scripts/figure_diff.py OLD NEW
"""

import csv
import math
import sys
from collections import Counter
from pathlib import Path


def _relative_move(old: str, new: str) -> float:
    try:
        a, b = float(old), float(new)
    except ValueError:  # text or an empty cell: no size to compare
        return math.nan
    return abs(b - a) / abs(a) if a else math.inf


def _table(path: Path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def _compare(name, old: Path, new: Path, totals: Counter):
    old_rows, new_rows = _table(old), _table(new)
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        print(f"{name}: header or row count differs")
        return
    moved, largest = Counter(), {}
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        for column, a, b in zip(old_rows[0], old_row, new_row):
            if a != b:
                moved[column] += 1
                move = _relative_move(a, b)
                if not math.isnan(move):
                    largest[column] = max(largest.get(column, 0.0), move)
    print(f"{name}: {sum(moved.values())} cells moved in {len(old_rows) - 1} rows")
    for column in old_rows[0]:
        if moved[column]:
            size = (f", largest relative move {largest[column]:.3g}"
                    if column in largest else "")
            print(f"  {column}: {moved[column]}{size}")
    totals.update(moved)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.rsplit("Usage: ", 1)[1].strip())
    old_root, new_root = Path(sys.argv[1]), Path(sys.argv[2])
    names = sorted({p.relative_to(root).as_posix()
                    for root in (old_root, new_root)
                    for pattern in ("*.csv", "*_meta.txt")
                    for p in root.rglob(pattern)})
    totals = Counter()
    for name in names:
        old, new = old_root / name, new_root / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {old_root if old.exists() else new_root}")
        elif name.endswith(".csv"):
            _compare(name, old, new, totals)
        elif old.read_bytes() != new.read_bytes():
            print(f"{name}: differs")
    print("moved cells per column: " + (", ".join(
        f"{column} {count}" for column, count in sorted(totals.items())) or "none"))


if __name__ == "__main__":
    main()
