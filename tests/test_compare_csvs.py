"""scripts/compare_csvs.py: byte comparison of two CSV trees, manifests
compared apart from their wall time."""
import json
import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_csvs.py"


def run(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def write(path: Path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("zeta,gamma_ratio,shift_res_ratio\n"
                    + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


def test_identical_trees_pass_and_changed_cells_are_counted(tmp_path):
    rows = [("1.0e-01", "2.00000000000e+00", "-3.0e+00"),
            ("2.0e-01", "4.00000000000e+00", "5.0e+00")]
    for side in ("old", "new"):
        write(tmp_path / side / "a.csv", rows)
        write(tmp_path / side / "sub" / "b.csv", rows)
    code, out = run(tmp_path / "old", tmp_path / "new")
    assert code == 0 and "2 files, 2 identical" in out

    write(tmp_path / "new" / "sub" / "b.csv",
          [rows[0], ("2.0e-01", "4.00000000001e+00", "5.0e+00")])
    code, out = run(tmp_path / "old", tmp_path / "new")
    assert code == 1
    assert "sub/b.csv: differs" in out
    assert ("gamma_ratio: 1 of 2 rows changed, max relative difference 2.5e-12, "
            "scaled difference 2.5e-12") in out
    assert "shift_res_ratio" not in out

    # near a zero crossing the relative difference explodes; the scaled one
    # measures the change against the column's largest magnitude
    write(tmp_path / "old" / "sub" / "b.csv",
          [rows[0], ("2.0e-01", "4.00000000000e+00", "1.0e-04")])
    write(tmp_path / "new" / "sub" / "b.csv",
          [rows[0], ("2.0e-01", "4.00000000000e+00", "3.0e-04")])
    code, out = run(tmp_path / "old", tmp_path / "new")
    assert ("shift_res_ratio: 1 of 2 rows changed, max relative difference 2, "
            "scaled difference 6.67e-05") in out


def test_missing_files_and_bad_usage_fail(tmp_path):
    write(tmp_path / "old" / "a.csv", [("1.0", "2.0", "3.0")])
    (tmp_path / "new").mkdir()
    code, out = run(tmp_path / "old", tmp_path / "new")
    assert code == 1 and "a.csv: only in" in out
    assert run(tmp_path / "old")[0] == 2
    assert run(tmp_path / "old", tmp_path / "absent")[0] == 2


def write_manifest(path: Path, **changes):
    manifest = {"command": "scan", "config": {"medium": "axion", "epsilon": 16.0},
                "wall_time_s": 0.5, "quad_error": {"max": math.nan, "mean": math.nan},
                "status": "failed", "outputs": ["a.manifest.json"]}
    for key, value in changes.items():
        head, _, tail = key.partition("__")
        if tail:
            manifest[head] = {**manifest[head], tail: value}
        else:
            manifest[key] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")


def test_manifests_compared_apart_from_wall_time(tmp_path):
    for side, wall in (("old", 0.5), ("new", 7.25)):
        write(tmp_path / side / "a.csv", [("1.0", "2.0", "3.0")])
        write_manifest(tmp_path / side / "sub" / "a.manifest.json", wall_time_s=wall)
    # a manifest on one side only is not compared
    write_manifest(tmp_path / "old" / "extra.manifest.json")
    code, out = run(tmp_path / "old", tmp_path / "new")
    assert code == 0, out
    assert "1 manifests, 1 equal apart from wall_time_s, 0 differ" in out

    write_manifest(tmp_path / "new" / "sub" / "a.manifest.json", wall_time_s=7.25,
                   config__epsilon=4.0, quad_error__max=1e-9)
    code, out = run(tmp_path / "old", tmp_path / "new")
    assert code == 1
    assert "sub/a.manifest.json: differs in config.epsilon, quad_error.max" in out
    assert "1 files, 1 identical" in out

    (tmp_path / "new" / "sub" / "a.manifest.json").write_text("{", encoding="utf-8")
    code, out = run(tmp_path / "old", tmp_path / "new")
    assert code == 1 and "not valid JSON" in out
