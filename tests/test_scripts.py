"""Smoke tests of the scripts under scripts/: they run and print what they promise."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from cpshift.quadrature import _G7_WEIGHTS, _K15_NODES, _K15_WEIGHTS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_asymptotics_check_prints_the_difference_ratios():
    code, out = run("asymptotics_check.py")
    assert code == 0
    # "rate  near 0.117647  (2/17 = 0.117647)"; the quadrature rows also
    # carry the height: "rate  z= 23.562  0.160030  (4/25 = 0.160000)"
    rows = [line.split() for line in out.splitlines()
            if "(2/17 =" in line or "(4/25 =" in line]
    assert len(rows) == 7
    for row in rows:
        assert abs(float(row[-4]) / float(row[-1].rstrip(")")) - 1.0) < 1e-3, row


def test_reproduce_figures_writes_one_figure(tmp_path):
    code, out = run("reproduce_figures.py", tmp_path, "--only", "gamma_mirrors")
    assert code == 0 and out.startswith("gamma_mirrors")
    # "gamma_mirrors     0.0 s          0 evaluations  3 files": every file
    # on disk, manifest included, and the manifest's evaluation count
    words = out.splitlines()[0].split()
    assert int(words[-2]) == len(list(tmp_path.iterdir())) == 3
    assert words[-4:-2] == ["0", "evaluations"]
    for medium in ("perfect_conductor", "nonreciprocal_mirror"):
        lines = (tmp_path / f"gamma_mirrors_{medium}.csv").read_text().splitlines()
        assert lines[0] == "zeta,gamma_ratio" and len(lines) == 401
    manifest = json.loads((tmp_path / "gamma_mirrors.manifest.json").read_text())
    assert manifest["status"] == "ok" and manifest["points"] == 800


def test_gauss_kronrod_derives_the_engine_constants():
    # the arrays the script prints are the ones quadrature.py holds, bit for bit
    code, out = run("gauss_kronrod.py")
    assert code == 0
    printed = {"np": np, "_G7_WEIGHTS": np.zeros(15)}
    exec(out, printed)
    assert np.array_equal(printed["_K15_NODES"], _K15_NODES)
    assert np.array_equal(printed["_K15_WEIGHTS"], _K15_WEIGHTS)
    assert np.array_equal(printed["_G7_WEIGHTS"], _G7_WEIGHTS)


def test_make_oracle_regenerates_a_row_of_the_table():
    # the cheapest row, computed again: every digit as committed
    code, out = run("make_oracle.py", "--only", "16", "8")
    assert code == 0
    table = json.loads((Path(__file__).with_name("oracle_real_axis.json")).read_text())
    committed = [row for row in table["rows"]
                 if (row["epsilon"], row["zeta"]) == (16.0, 8.0)]
    assert json.loads(out) == committed[0]



def test_make_oracle_regenerates_a_nonresonant_row():
    # the cheapest nonresonant row (zeta = 100, well under a second),
    # computed again by the script's own function: every digit as committed
    spec = importlib.util.spec_from_file_location("make_oracle", SCRIPTS / "make_oracle.py")
    make_oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_oracle)
    table = json.loads((Path(__file__).with_name("oracle_real_axis.json")).read_text())
    committed = [row for row in table["nonresonant_rows"] if row["zeta"] == 100.0]
    assert make_oracle.nonresonant_row(100.0) == committed[0]
