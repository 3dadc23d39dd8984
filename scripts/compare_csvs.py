#!/usr/bin/env python3
"""Compare every CSV under two directories byte for byte, and every run
manifest present under both apart from its wall time.

Usage:
    python3 scripts/compare_csvs.py OLD NEW

Files are matched by their path relative to OLD and NEW.  For each CSV
that differs, prints per column the number of rows whose cell changed, the
largest relative difference of those cells, and the scaled difference
max|new - old| / max|old| over the column (the benchmark gate's
`scaled_error`; absolute where the column is all zero).  The relative
difference blows up near a zero crossing, so the scaled one is the
difference to state a tolerance in.  For each `*.manifest.json` under both
trees that differs in anything but `wall_time_s`, prints the keys that
differ.  Exits 1 if any CSV differs or exists on one side only, or any
manifest differs; 0 if all match; and 2 on bad usage.
"""
import csv
import json
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


def _scaled(old: list, new: list) -> float:
    try:
        a, b = [float(v) for v in old], [float(v) for v in new]
    except ValueError:
        return math.nan
    if not all(map(math.isfinite, a + b)):
        return math.inf
    scale = max(abs(v) for v in a)
    err = max(abs(y - x) for x, y in zip(a, b))
    return err / scale if scale > 0 else err


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
            scaled = _scaled([r[k] for r in old[1:]], [r[k] for r in new[1:]])
            lines.append(f"  {name}: {len(changed)} of {len(old) - 1} rows changed, "
                         f"max relative difference {worst:.3g}, "
                         f"scaled difference {scaled:.3g}")
    return lines or ["  same cells, different bytes (line endings or quoting)"]


def _json_diff(old, new, path: str = "") -> list:
    """Dotted paths of the leaves at which two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [p for key in sorted(old.keys() | new.keys())
                for p in _json_diff(old.get(key), new.get(key),
                                    f"{path}.{key}" if path else key)]
    # compared as JSON text, so NaN (a failed run's error estimate) equals NaN
    return [] if json.dumps(old) == json.dumps(new) else [path or "(whole file)"]


def _manifest_diff(old_path: Path, new_path: Path) -> list:
    """Keys at which two manifests differ, `wall_time_s` ignored."""
    manifests = []
    for path in (old_path, new_path):
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            return [f"{path} is not valid JSON: {exc}"]
        if isinstance(manifest, dict):
            manifest.pop("wall_time_s", None)
        manifests.append(manifest)
    return _json_diff(*manifests)


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

    both = sorted({p.relative_to(old_dir) for p in old_dir.rglob("*.manifest.json")}
                  & {p.relative_to(new_dir) for p in new_dir.rglob("*.manifest.json")})
    bad_manifests = 0
    for rel in both:
        keys = _manifest_diff(old_dir / rel, new_dir / rel)
        if keys:
            print(f"{rel}: differs in {', '.join(keys)}")
            bad_manifests += 1
    print(f"{len(both)} manifests, {len(both) - bad_manifests} equal apart from "
          f"wall_time_s, {bad_manifests} differ")
    return 1 if bad or bad_manifests else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
