"""Scan configuration: dataclass validation and the key = value file format."""
import math

import numpy as np
import pytest

from cpshift.config import (ZETA_MIN, ConfigError, MEDIUM_KINDS, MEDIUM_PARAMETERS,
                            QUANTITY_COLUMNS, ScanConfig, build_medium, parse_config)
from cpshift.media import AxionMedium, PerfectConductor, PerfectNonreciprocalMirror


def write(tmp_path, text):
    path = tmp_path / "scan.cfg"
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """\
# smallest valid scan
medium = perfect_conductor
zeta_min = 0.1
zeta_max = 2.0
count = 5
"""


def test_minimal_file_applies_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.medium_kind == "perfect_conductor"
    assert cfg.spacing == "linear"
    assert cfg.handedness == "plus"
    assert cfg.quantities == ("rate", "resonant_shift", "nonresonant_shift")
    assert cfg.name == "scan"
    assert isinstance(cfg.build_medium(), PerfectConductor)


def test_pi_multiple_angles(tmp_path):
    for text, want in (("1.0pi", math.pi), ("-0.5pi", -0.5 * math.pi),
                       ("pi", math.pi), ("+pi", math.pi), ("-pi", -math.pi),
                       ("2pi", 2 * math.pi), ("3.14159", 3.14159)):
        cfg = parse_config(write(tmp_path, f"""\
medium = axion
epsilon = 16
theta = {text}
zeta_min = 0.1
zeta_max = 2.0
count = 5
"""))
        assert cfg.theta == pytest.approx(want, rel=1e-12)


def test_duplicate_key_names_both_lines(tmp_path):
    path = write(tmp_path, """\
medium = perfect_conductor
zeta_min = 0.1
zeta_min = 0.2
zeta_max = 2.0
count = 5
""")
    with pytest.raises(ConfigError, match=r"line 3.*line 2"):
        parse_config(path)


def test_unknown_and_missing_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write(tmp_path, MINIMAL + "colour = red\n"))
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config(write(tmp_path, "medium = perfect_conductor\n"))


def test_medium_specific_keys_enforced(tmp_path):
    with pytest.raises(ConfigError, match="only applies to"):
        parse_config(write(tmp_path, MINIMAL + "epsilon = 4.0\n"))
    with pytest.raises(ConfigError, match="only applies to"):
        parse_config(write(tmp_path, """\
medium = axion
sign = -1
zeta_min = 0.1
zeta_max = 2.0
count = 5
"""))
    # two keys of other kinds: the first in file order names its line
    with pytest.raises(ConfigError, match="line 6: key 'theta' only applies to medium "
                                          "axion, not nonreciprocal_mirror"):
        parse_config(write(tmp_path, MINIMAL.replace("perfect_conductor",
                                                     "nonreciprocal_mirror")
                           + "theta = 1.0pi\nsign = 1\nepsilon = 4.0\n"))


def test_pi_suffix_rejected_on_dimensionless_keys(tmp_path):
    with pytest.raises(ConfigError, match="only valid for angles"):
        parse_config(write(tmp_path, """\
medium = axion
epsilon = 1.0pi
zeta_min = 0.1
zeta_max = 2.0
count = 5
"""))


def test_malformed_lines(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(write(tmp_path, "just words\n"))
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config(write(tmp_path, "medium =\n"))
    with pytest.raises(ConfigError, match="as integer"):
        parse_config(write(tmp_path, MINIMAL.replace("count = 5", "count = 5.5")))
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(write(tmp_path, MINIMAL.replace("zeta_min = 0.1",
                                                     "zeta_min = small")))


def test_comments_and_blank_lines_ignored(tmp_path):
    cfg = parse_config(write(tmp_path, """
# leading comment

medium = nonreciprocal_mirror   # trailing comment
sign = 1
zeta_min = 0.1
zeta_max = 2.0
count = 5
"""))
    medium = cfg.build_medium()
    assert isinstance(medium, PerfectNonreciprocalMirror)
    assert medium.sign == 1.0


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/path.cfg")
    # a file that is not UTF-8 cannot be read either
    path = tmp_path / "latin.cfg"
    path.write_bytes(MINIMAL.encode() + b"name = \xff\xfe\n")
    with pytest.raises(ConfigError, match="cannot read config .*latin.cfg"):
        parse_config(path)


def test_a_byte_order_mark_is_no_part_of_the_first_key(tmp_path):
    # some editors start a UTF-8 file with U+FEFF
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.split("\n", 1)[1].encode())
    assert parse_config(path) == parse_config(write(tmp_path, MINIMAL))


def test_quantities_parsing(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL + "quantities = rate, resonant_shift\n"))
    assert cfg.quantities == ("rate", "resonant_shift")
    with pytest.raises(ConfigError, match="unknown quantities"):
        parse_config(write(tmp_path, MINIMAL + "quantities = rate, force\n"))


def test_scan_config_validation():
    ok = dict(medium_kind="perfect_conductor", zeta_min=0.1, zeta_max=2.0, count=5)
    ScanConfig(**ok)
    for bad in (dict(zeta_min=0.0), dict(zeta_max=0.05), dict(count=1),
                dict(spacing="cubic"), dict(handedness="left"),
                dict(medium_kind="metal"), dict(quantities=()),
                dict(quantities=("rate", "rate")), dict(sign=0.5),
                dict(epsilon=-2.0), dict(count=10.5), dict(count=np.float64(3.0)),
                dict(count=True), dict(count=math.nan), dict(sign=True),
                dict(zeta_min=True), dict(zeta_max=True), dict(zeta_min=np.True_),
                dict(name=""), dict(name="sub/dir"), dict(name="../escaped"),
                dict(name="a\0b"), dict(sign=1.0)):
        with pytest.raises(ConfigError):
            ScanConfig(**{**ok, **bad})


def test_scan_config_rejects_non_finite_zeta():
    ok = dict(medium_kind="axion", zeta_min=0.1, zeta_max=2.0, count=5)
    for bad in (dict(zeta_min=math.nan), dict(zeta_max=math.nan),
                dict(zeta_max=math.inf), dict(zeta_min=math.inf, zeta_max=math.inf)):
        with pytest.raises(ConfigError, match="finite"):
            ScanConfig(**{**ok, **bad})


def test_scan_config_holds_the_height_floor():
    # zeta_min from ZETA_MIN up: below it the shifts overflow, so no grid
    # there can succeed (zeta_max exceeds zeta_min and needs no check)
    ok = dict(medium_kind="perfect_conductor", zeta_max=1.0, count=5)
    assert ScanConfig(zeta_min=ZETA_MIN, **ok).zeta_min == 1e-100
    for zeta_min in (np.nextafter(ZETA_MIN, 0.0), 1e-120, 5e-324):
        with pytest.raises(ConfigError, match="at least ZETA_MIN = 1e-100"):
            ScanConfig(zeta_min=zeta_min, **ok)
    with pytest.raises(ConfigError, match="zeta_min must be positive"):
        ScanConfig(zeta_min=-1.0, **ok)


def test_grid_spacings():
    lin = ScanConfig(medium_kind="perfect_conductor", zeta_min=0.1,
                     zeta_max=2.0, count=5).grid()
    assert np.allclose(lin, np.linspace(0.1, 2.0, 5))
    log = ScanConfig(medium_kind="perfect_conductor", zeta_min=0.1,
                     zeta_max=10.0, count=7, spacing="log").grid()
    assert np.allclose(log, np.geomspace(0.1, 10.0, 7))


def test_build_medium_passes_parameters():
    cfg = ScanConfig(medium_kind="axion", zeta_min=0.1, zeta_max=2.0, count=5,
                     epsilon=16.0, theta=-math.pi)
    medium = cfg.build_medium()
    assert isinstance(medium, AxionMedium)
    assert (medium.epsilon, medium.theta) == (16.0, -math.pi)


def test_scan_config_rejects_parameters_the_model_cannot_honour(tmp_path):
    ok = dict(medium_kind="axion", zeta_min=0.1, zeta_max=2.0, count=5)
    for bad in (dict(epsilon=math.nan), dict(epsilon=math.inf),
                dict(theta=math.nan), dict(theta=-math.inf)):
        with pytest.raises(ConfigError):
            ScanConfig(**{**ok, **bad})
    for line, match in (("epsilon = nan", None), ("theta = inf", None),
                        ("theta = xpi", "line 5: cannot parse pi-multiple 'xpi'"),
                        ("theta = abc", "line 5: cannot parse 'abc'")):
        text = "medium = axion\nzeta_min = 0.1\nzeta_max = 2.0\ncount = 5\n"
        with pytest.raises(ConfigError, match=match):
            parse_config(write(tmp_path, text + line + "\n"))
    with pytest.raises(ConfigError, match="unknown medium parameter 'bogus'"):
        build_medium("axion", bogus=1.0)
    with pytest.raises(ConfigError, match="key 'sign' only applies to medium "
                                          "nonreciprocal_mirror, not axion"):
        build_medium("axion", sign=1.0)
    # the Fresnel weights are those of a nonmagnetic medium: mu is no
    # setting, not even at its one value
    assert set(MEDIUM_PARAMETERS) == {"epsilon", "theta", "sign"}
    with pytest.raises(TypeError):
        ScanConfig(**ok, mu=1.0)
    for line in ("mu = 2.0", "mu = 1"):
        text = "medium = axion\nzeta_min = 0.1\nzeta_max = 2.0\ncount = 5\n"
        with pytest.raises(ConfigError, match="unknown key 'mu'"):
            parse_config(write(tmp_path, text + line + "\n"))


def test_quantity_column_map_is_total():
    assert set(QUANTITY_COLUMNS) == {"rate", "resonant_shift", "nonresonant_shift"}
    assert QUANTITY_COLUMNS["rate"] == "gamma_ratio"


# one non-default value per medium parameter: config text -> the value it
# must become
PARAMETER_VALUES = {"epsilon": ("4.0", 4.0), "theta": ("-0.5pi", -0.5 * math.pi),
                    "sign": ("1", 1.0)}


def test_medium_table_round_trips(tmp_path):
    import json
    from cpshift.scan import run_scan

    assert set(PARAMETER_VALUES) == set(MEDIUM_PARAMETERS)
    grid = "zeta_min = 1.0\nzeta_max = 2.0\ncount = 2\nquantities = rate\n"
    for kind, cls in MEDIUM_KINDS.items():
        own = [name for name, k in MEDIUM_PARAMETERS.items() if k == kind]
        lines = "".join(f"{name} = {PARAMETER_VALUES[name][0]}\n" for name in own)
        cfg = parse_config(write(tmp_path, f"medium = {kind}\n{grid}name = {kind}\n"
                                           + lines))
        medium = cfg.build_medium()
        assert type(medium) is cls
        echo = json.loads(run_scan(cfg, tmp_path / "out").manifest_path.read_text())["config"]
        assert echo["medium"] == kind
        for name in own:
            assert getattr(medium, name) == PARAMETER_VALUES[name][1], (kind, name)
            assert echo[name] == PARAMETER_VALUES[name][1], (kind, name)
        # the echo names this kind's parameters and no other kind's
        assert set(echo) & set(MEDIUM_PARAMETERS) == set(own)
        for name, other in MEDIUM_PARAMETERS.items():
            if other != kind:
                text = f"medium = {kind}\n{grid}{name} = {PARAMETER_VALUES[name][0]}\n"
                with pytest.raises(ConfigError, match=f"only applies to medium {other}, "
                                                      f"not {kind}"):
                    parse_config(write(tmp_path, text))
