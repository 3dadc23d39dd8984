"""Scan configuration: dataclass validation and the key = value file format."""
import math

import numpy as np
import pytest

from cpshift.config import ConfigError, QUANTITY_COLUMNS, ScanConfig, parse_config
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


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/path.cfg")


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
                dict(epsilon=-2.0)):
        with pytest.raises(ConfigError):
            ScanConfig(**{**ok, **bad})


def test_scan_config_rejects_non_finite_zeta():
    ok = dict(medium_kind="axion", zeta_min=0.1, zeta_max=2.0, count=5)
    for bad in (dict(zeta_min=math.nan), dict(zeta_max=math.nan),
                dict(zeta_max=math.inf), dict(zeta_min=math.inf, zeta_max=math.inf)):
        with pytest.raises(ConfigError, match="finite"):
            ScanConfig(**{**ok, **bad})


def test_grid_spacings():
    lin = ScanConfig(medium_kind="perfect_conductor", zeta_min=0.1,
                     zeta_max=2.0, count=5).grid()
    assert np.allclose(lin, np.linspace(0.1, 2.0, 5))
    log = ScanConfig(medium_kind="perfect_conductor", zeta_min=0.1,
                     zeta_max=10.0, count=7, spacing="log").grid()
    assert np.allclose(log, np.geomspace(0.1, 10.0, 7))


def test_build_medium_passes_parameters():
    cfg = ScanConfig(medium_kind="axion", zeta_min=0.1, zeta_max=2.0, count=5,
                     epsilon=16.0, mu=1.0, theta=-math.pi)
    medium = cfg.build_medium()
    assert isinstance(medium, AxionMedium)
    assert (medium.epsilon, medium.mu, medium.theta) == (16.0, 1.0, -math.pi)


def test_scan_config_rejects_parameters_the_model_cannot_honour(tmp_path):
    # the Fresnel weights are those of a nonmagnetic medium: mu must be 1
    ok = dict(medium_kind="axion", zeta_min=0.1, zeta_max=2.0, count=5)
    for bad in (dict(mu=2.0), dict(mu=0.5), dict(mu=math.nan),
                dict(epsilon=math.nan), dict(epsilon=math.inf),
                dict(theta=math.nan), dict(theta=-math.inf)):
        with pytest.raises(ConfigError):
            ScanConfig(**{**ok, **bad})
    for line in ("mu = 2.0", "epsilon = nan", "theta = inf"):
        text = "medium = axion\nzeta_min = 0.1\nzeta_max = 2.0\ncount = 5\n"
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, text + line + "\n"))


def test_quantity_column_map_is_total():
    assert set(QUANTITY_COLUMNS) == {"rate", "resonant_shift", "nonresonant_shift"}
    assert QUANTITY_COLUMNS["rate"] == "gamma_ratio"
