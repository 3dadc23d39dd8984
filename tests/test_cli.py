"""Command-line surface: subcommands, exit codes, stdout CSV rows."""
import json
import math

import numpy as np
import pytest

from cpshift.atomics import decay_rate, nonresonant_shift, resonant_shift
from cpshift.cli import main
from cpshift.media import AxionMedium, PerfectNonreciprocalMirror
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


def test_scan_numerical_failure_exits_two(tmp_path, capsys):
    cfg = tmp_path / "fail.cfg"
    cfg.write_text("""\
medium = axion
epsilon = 16
zeta_min = 2.9e5
zeta_max = 3.1e5
count = 2
quantities = rate
name = fail
""", encoding="utf-8")
    code, _, err = run(capsys, "scan", "--config", str(cfg), "--out",
                       str(tmp_path / "out"))
    assert code == 2
    assert "numerical failure" in err
    manifest = json.loads((tmp_path / "out" / "fail.manifest.json").read_text())
    assert manifest["status"] == "failed"


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
                            ("--mu", "2.5"), ("--mu", "nan"), ("--theta", "inf"),
                            ("--theta", "nan")):
            code, out, err = run(capsys, command, "--medium", "axion",
                                 "--zeta", "1.5", flag, value)
            assert code == 1, (command, flag, value)
            assert out == ""
            assert "config error" in err


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
