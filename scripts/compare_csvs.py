#!/usr/bin/env python3
"""Compare every CSV under two directories byte for byte.

Usage:
    python3 scripts/compare_csvs.py OLD NEW

Files are matched by their path relative to OLD and NEW.  For each file
that differs, prints per column the number of rows whose cell changed and
the largest relative difference of those cells.  Exits 1 if any file
differs or exists on one side only, 0 if all are identical, and 2 on bad
usage.
"""
import csv
import math
import sys
from pathlib import Path


def _relative(old: str, new: str) -> float:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.nan
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def _describe(old_path: Path, new_path: Path) -> list:
    """Lines describing how two differing CSV files differ."""
    with open(old_path, newline="") as fh:
        old = list(csv.reader(fh))
    with open(new_path, newline="") as fh:
        new = list(csv.reader(fh))
    if not old or not new or old[0] != new[0]:
        return ["  header differs"]
    if len(old) != len(new):
        return [f"  {len(old) - 1} rows -> {len(new) - 1} rows"]
    lines = []
    for k, name in enumerate(old[0]):
        changed = [(a[k], b[k]) for a, b in zip(old[1:], new[1:]) if a[k] != b[k]]
        if changed:
            worst = max(_relative(a, b) for a, b in changed)
            lines.append(f"  {name}: {len(changed)} of {len(old) - 1} rows changed, "
                         f"max relative difference {worst:.3g}")
    return lines or ["  same cells, different bytes (line endings or quoting)"]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_dir, new_dir = (Path(a) for a in argv)
    for d in (old_dir, new_dir):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    old = {p.relative_to(old_dir) for p in old_dir.rglob("*.csv")}
    new = {p.relative_to(new_dir) for p in new_dir.rglob("*.csv")}
    bad = 0
    for rel in sorted(old | new):
        if rel not in new or rel not in old:
            print(f"{rel}: only in {old_dir if rel in old else new_dir}")
            bad += 1
        elif (old_dir / rel).read_bytes() != (new_dir / rel).read_bytes():
            print(f"{rel}: differs")
            print("\n".join(_describe(old_dir / rel, new_dir / rel)))
            bad += 1
    print(f"{len(old | new)} files, {len(old | new) - bad} identical, {bad} differ or missing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
