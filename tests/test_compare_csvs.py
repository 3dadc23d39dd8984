"""scripts/compare_csvs.py: byte comparison of two CSV trees."""
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
