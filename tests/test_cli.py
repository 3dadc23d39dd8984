"""Command-line surface: subcommands, exit codes, stdout CSV rows."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cpshift.cli
from cpshift.atomics import decay_rate, nonresonant_shift, resonant_shift
from cpshift.cli import main
from cpshift.media import AxionMedium, PerfectNonreciprocalMirror, PoleError
from cpshift.units import canonical_transition
from cpshift.version import __version__

TR = canonical_transition("plus")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_row(out):
    header, row = out.strip().splitlines()
    return header.split(","), [float(c) for c in row.split(",")]


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert __version__ in out


def test_rates_perfect_conductor(capsys):
    code, out, _ = run(capsys, "rates", "--medium", "perfect_conductor",
                       "--zeta", "1.5")
    assert code == 0
    header, row = parse_row(out)
    assert header == ["zeta", "gamma_ratio"]
    assert row[0] == pytest.approx(1.5)
    from cpshift.media import PerfectConductor
    assert row[1] == pytest.approx(decay_rate(TR, 1.5, PerfectConductor()),
                                   rel=1e-11)


def test_rates_axion_with_pi_multiple_theta(capsys):
    code, out, _ = run(capsys, "rates", "--medium", "axion",
                       "--epsilon", "16", "--theta", "1.0pi", "--zeta", "0.8")
    assert code == 0
    _, row = parse_row(out)
    medium = AxionMedium(epsilon=16.0, theta=math.pi)
    assert row[1] == pytest.approx(decay_rate(TR, 0.8, medium), rel=1e-9)


def test_negative_pi_multiple_attached_with_equals(capsys):
    # a negative angle is the same value attached with `=` or as a separate
    # token, which argparse alone would read as an option
    args = ("rates", "--medium", "axion", "--epsilon", "16", "--zeta", "0.7")
    code, out, _ = run(capsys, *args, "--theta=-1.0pi")
    assert code == 0
    assert out == run(capsys, *args, "--theta=-3.141592653589793")[1]
    for value in ("-1.0pi", "-1e-3"):
        attached = run(capsys, *args, f"--theta={value}")
        assert attached[0] == 0
        assert run(capsys, *args, "--theta", value) == attached


def test_rates_handedness_flip(capsys):
    args = ("rates", "--medium", "nonreciprocal_mirror", "--zeta", "1.2")
    _, out_p, _ = run(capsys, *args)
    _, out_m, _ = run(capsys, *args, "--handedness", "minus")
    assert parse_row(out_p)[1][1] == pytest.approx(-parse_row(out_m)[1][1],
                                                   rel=1e-12)


def test_shift_nonreciprocal_mirror(capsys):
    code, out, _ = run(capsys, "shift", "--medium", "nonreciprocal_mirror",
                       "--sign", "1", "--zeta", "2.0")
    assert code == 0
    header, row = parse_row(out)
    assert header == ["zeta", "shift_res_ratio", "shift_nres_ratio"]
    medium = PerfectNonreciprocalMirror(sign=1.0)
    assert row[1] == pytest.approx(resonant_shift(TR, 2.0, medium), rel=1e-11)
    assert row[2] == pytest.approx(nonresonant_shift(TR, 2.0, medium), rel=1e-9)


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "rates", "--medium", "water", "--zeta", "1.0")[0] == 1
    assert run(capsys, "rates", "--medium", "axion")[0] == 1      # missing zeta
    assert run(capsys, "rates", "--medium", "axion", "--zeta", "-1.0")[0] == 1
    assert run(capsys, "figure", "gamma_everything", "--out", "/tmp/x")[0] == 1


def test_scan_subcommand(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("""\
medium = perfect_conductor
zeta_min = 0.3
zeta_max = 2.0
count = 5
quantities = rate
name = cli_demo
""", encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "scan", "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "cli_demo.csv").read_text().splitlines()
    assert lines[0] == "zeta,gamma_ratio"
    assert len(lines) == 6
    manifest = json.loads((out_dir / "cli_demo.manifest.json").read_text())
    assert manifest["status"] == "ok"


def test_scan_config_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("medium = perfect_conductor\n", encoding="utf-8")
    assert run(capsys, "scan", "--config", str(bad), "--out", str(tmp_path))[0] == 1
    missing = tmp_path / "missing.cfg"
    assert run(capsys, "scan", "--config", str(missing), "--out", str(tmp_path))[0] == 1
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"medium = perfect_conductor\nzeta_min = 0.1\nzeta_max = 1\n"
                      b"count = 2\nname = \xff\xfe\n")
    code, out, err = run(capsys, "scan", "--config", str(latin), "--out",
                         str(tmp_path / "out"))
    assert (code, out) == (1, "") and "config error: cannot read config" in err


def test_scan_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    # a stand-in reflection with a pole at the first node of the quadrature
    def pole(self, omega, k_perp):
        raise PoleError("stand-in pole", owner=0)

    monkeypatch.setattr(AxionMedium, "reflection", pole)
    cfg = tmp_path / "fail.cfg"
    cfg.write_text("""\
medium = axion
epsilon = 16
zeta_min = 0.5
zeta_max = 2
count = 2
quantities = rate
name = fail
""", encoding="utf-8")
    code, _, err = run(capsys, "scan", "--config", str(cfg), "--out",
                       str(tmp_path / "out"))
    assert code == 2
    assert "numerical failure" in err and "zeta=0.5" in err
    manifest = json.loads((tmp_path / "out" / "fail.manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_a_non_finite_value_exits_two_and_names_its_zeta(tmp_path, capsys):
    # above the height floor, the s-integrand still overflows below zeta ~
    # 1e-77 for the canonical transition
    cfg = tmp_path / "close.cfg"
    cfg.write_text("medium = axion\nepsilon = 16\nzeta_min = 1e-90\nzeta_max = 1e-80\n"
                   "count = 3\nspacing = log\nquantities = nonresonant_shift\n"
                   "name = close\n", encoding="utf-8")
    code, out, err = run(capsys, "scan", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "numerical failure" in err and "zeta=1e-90" in err and "non-finite" in err


def test_a_single_point_numerical_failure_exits_two_and_names_its_zeta(capsys):
    # above the height floor, the quadratures still fail this close
    code, out, err = run(capsys, "shift", "--medium", "axion", "--epsilon", "16",
                         "--zeta", "1e-90")
    assert code == 2
    assert out == ""
    assert "numerical failure" in err and "zeta=1e-90" in err


def test_a_height_below_the_floor_exits_one_before_any_evaluation(tmp_path, capsys,
                                                                  monkeypatch):
    # the conductor's closed forms overflow near zeta = 1e-103: text input
    # stops at ZETA_MIN = 1e-100, with exit 1 and no file written
    import cpshift.scan

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluation started")

    cfg = tmp_path / "close.cfg"
    cfg.write_text("medium = perfect_conductor\nzeta_min = 1e-120\nzeta_max = 1e-100\n"
                   "count = 5\nspacing = log\nname = close\n", encoding="utf-8")
    with monkeypatch.context() as patched:
        for module in (cpshift.cli, cpshift.scan):
            patched.setattr(module, "_scan_values", no_evaluation)
        code, out, err = run(capsys, "scan", "--config", str(cfg), "--out",
                             str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert "zeta_min must be at least ZETA_MIN = 1e-100" in err
        assert [p.name for p in tmp_path.rglob("*")] == ["close.cfg"]
        for command in ("rates", "shift"):
            code, out, err = run(capsys, command, "--medium", "perfect_conductor",
                                 "--zeta", "1e-110")
            assert (code, out) == (1, ""), command
            assert "--zeta must be at least ZETA_MIN = 1e-100" in err
    # at the floor itself the conductor's values are finite
    cfg.write_text("medium = perfect_conductor\nzeta_min = 1e-100\nzeta_max = 1e-99\n"
                   "count = 5\nspacing = log\nname = close\n", encoding="utf-8")
    assert run(capsys, "scan", "--config", str(cfg), "--out", str(tmp_path / "out"))[0] == 0


def test_unwritable_output_exits_two(tmp_path, capsys):
    # --out naming an existing file: the output directory cannot be made
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "figure", "gamma_mirrors", "--out", str(blocker))
    assert code == 2
    assert "i/o failure" in err
    assert blocker.read_text() == ""


def test_scan_name_with_a_path_separator_exits_one_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    # the name is the file stem of both outputs: rejected with the config,
    # before any quadrature, never a file under or outside --out
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature started")

    monkeypatch.setattr("cpshift.greens.integrate_batch", no_quadrature)
    cfg = tmp_path / "bad.cfg"
    for name in ("sub/dir", "../escaped", "a\0b"):
        cfg.write_text("medium = axion\nepsilon = 16\nzeta_min = 0.1\nzeta_max = 1\n"
                       f"count = 4\nquantities = rate\nname = {name}\n", encoding="utf-8")
        code, out, err = run(capsys, "scan", "--config", str(cfg), "--out",
                             str(tmp_path / "out"))
        assert code == 1, name
        assert out == "" and "config error" in err and "path separator" in err
        assert [p.name for p in tmp_path.rglob("*")] == ["bad.cfg"]


def test_non_finite_zeta_exits_one(capsys):
    for command in ("rates", "shift"):
        for zeta in ("nan", "inf", "-inf"):
            code, out, err = run(capsys, command, "--medium", "axion",
                                 "--zeta", zeta)
            assert code == 1
            assert out == ""
            assert "--zeta" in err


def test_bad_medium_parameters_exit_one_before_quadrature(capsys, monkeypatch):
    import cpshift.quadrature

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature started")

    for module in ("cpshift.greens", "cpshift.atomics"):
        monkeypatch.setattr(f"{module}.integrate_batch", no_quadrature)
    monkeypatch.setattr(cpshift.quadrature, "integrate_batch", no_quadrature)
    for command in ("rates", "shift"):
        for flag, value in (("--epsilon", "nan"), ("--epsilon", "inf"),
                            ("--theta", "inf"), ("--theta", "nan"), ("--theta", "1e300")):
            code, out, err = run(capsys, command, "--medium", "axion",
                                 "--zeta", "1.5", flag, value)
            assert code == 1, (command, flag, value)
            assert out == ""
            assert "config error" in err


def test_mu_is_neither_flag_nor_key(tmp_path, capsys):
    # the model is nonmagnetic: mu is no setting, not even at its one value
    for command in ("rates", "shift"):
        for value in ("1", "2.5", "nan"):
            code, out, err = run(capsys, command, "--medium", "axion",
                                 "--zeta", "1.5", "--mu", value)
            assert (code, out) == (1, ""), (command, value)
            assert "unrecognized arguments: --mu" in err
    cfg = tmp_path / "mu.cfg"
    cfg.write_text("medium = axion\nmu = 1\nzeta_min = 0.1\nzeta_max = 1\ncount = 2\n")
    code, out, err = run(capsys, "scan", "--config", str(cfg),
                         "--out", str(tmp_path / "out"))
    assert code == 1 and "line 2: unknown key 'mu'" in err
    assert not (tmp_path / "out").exists()


def test_epsilon_beyond_its_bound_exits_one_before_quadrature(tmp_path, capsys,
                                                              monkeypatch):
    # the axion reflection overflows near epsilon = 1.6e201; the medium takes
    # epsilon up to 1e100, and the CLI rejects more with the config
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature started")

    for module in ("cpshift.greens", "cpshift.atomics", "cpshift.quadrature"):
        monkeypatch.setattr(f"{module}.integrate_batch", no_quadrature)
    for command in ("rates", "shift"):
        code, out, err = run(capsys, command, "--medium", "axion",
                             "--epsilon", "1e300", "--zeta", "1")
        assert code == 1, command
        assert out == "" and "config error" in err and "at most 1e+100" in err
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("medium = axion\nepsilon = 1e250\nzeta_min = 0.1\nzeta_max = 1\n"
                   "count = 4\nquantities = rate\nname = huge\n", encoding="utf-8")
    code, out, err = run(capsys, "scan", "--config", str(cfg), "--out",
                         str(tmp_path / "out"))
    assert code == 1
    assert out == "" and "config error" in err and "at most 1e+100" in err
    assert [p.name for p in tmp_path.rglob("*")] == ["huge.cfg"]


def test_epsilon_at_its_bound_runs(capsys):
    code, out, _ = run(capsys, "rates", "--medium", "axion", "--epsilon", "1e100",
                       "--zeta", "1")
    assert code == 0
    header, row = parse_row(out)
    assert header == ["zeta", "gamma_ratio"] and math.isfinite(row[1])


def test_figure_subcommand(tmp_path, capsys):
    code, _, _ = run(capsys, "figure", "gamma_mirrors", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "gamma_mirrors_perfect_conductor.csv").exists()
    assert (tmp_path / "gamma_mirrors.manifest.json").exists()


def test_cli_medium_flags_follow_the_table(capsys, monkeypatch):
    import cpshift.cli
    from cpshift.config import MEDIUM_KINDS, MEDIUM_PARAMETERS, ScanConfig

    for command in ("rates", "shift"):
        sub = cpshift.cli.build_parser()._subparsers._group_actions[0].choices[command]
        flags = {a.dest: a for a in sub._actions}
        assert flags["medium"].choices == tuple(MEDIUM_KINDS)
        for name in MEDIUM_PARAMETERS:
            assert flags[name].default is None

    build_medium, built = cpshift.cli.build_medium, []

    def recording(*args, **kwargs):
        built.append(build_medium(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cpshift.cli, "build_medium", recording)
    for kind in MEDIUM_KINDS:
        assert run(capsys, "rates", "--medium", kind, "--zeta", "1.5")[0] == 0
        defaults = ScanConfig(medium_kind=kind, zeta_min=1.0, zeta_max=2.0, count=2)
        assert built[-1] == defaults.build_medium(), kind
    # a flag of another kind is refused, as its config key is
    values = {"epsilon": "4", "theta": "0.5pi", "sign": "1"}
    for command in ("rates", "shift"):
        for kind in MEDIUM_KINDS:
            for name, other in MEDIUM_PARAMETERS.items():
                if other != kind:
                    code, out, err = run(capsys, command, "--medium", kind, "--zeta", "1",
                                         f"--{name}", values[name])
                    assert (code, out) == (1, ""), (command, kind, name)
                    assert f"key '{name}' only applies to medium {other}, not {kind}" in err


def test_reused_parser_matches_fresh_interpreters(tmp_path, capsys):
    # main keeps one parser per process; each call of a sequence prints and
    # returns what it does as the first call of a fresh interpreter, so no
    # flag value (here --theta) carries over into the next call
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("medium = nonreciprocal_mirror\nzeta_min = 0.3\nzeta_max = 2.0\n"
                   "count = 4\nname = reuse\n", encoding="utf-8")

    def calls(out):
        return [(0, ["rates", "--medium", "axion", "--zeta", "0.7", "--theta", "-1.0pi"]),
                (1, ["rates", "--medium", "axion", "--theta", "1.0pi"]),
                (0, ["rates", "--medium", "axion", "--zeta", "0.7"]),
                (0, ["scan", "--config", str(cfg), "--out", str(out)])]

    env = {**os.environ, "PYTHONPATH": str(Path(cpshift.__file__).resolve().parents[1])}
    cpshift.cli._parser.cache_clear()
    outs = []
    for (code, argv), (_, fresh_argv) in zip(calls(tmp_path / "reused"),
                                             calls(tmp_path / "fresh")):
        reused = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "cpshift", *fresh_argv],
                               capture_output=True, text=True, env=env)
        assert reused[0] == fresh.returncode == code, argv
        assert reused[1] == fresh.stdout, argv
        outs.append(reused[1])
    assert cpshift.cli._parser.cache_info().misses == 1
    assert outs[0] != outs[2]  # theta = -pi, then the default theta
    assert ((tmp_path / "reused" / "reuse.csv").read_bytes()
            == (tmp_path / "fresh" / "reuse.csv").read_bytes())
