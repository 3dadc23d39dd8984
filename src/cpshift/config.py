"""Line-based `key = value` config files describing a distance scan.

Format: one assignment per line, `#` starts a comment, blank lines ignored.
Angles accept plain radians or pi-multiples written as `1.0pi` / `-0.5pi`.
Unknown keys, duplicate keys (both line numbers reported), and keys that do
not apply to the chosen medium are errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .media import AxionMedium, PerfectConductor, PerfectNonreciprocalMirror

__all__ = ["ConfigError", "ScanConfig", "parse_config", "build_medium",
           "zeta_grid", "QUANTITY_COLUMNS"]


class ConfigError(ValueError):
    """Malformed or inconsistent scan configuration."""


# quantity name -> CSV column it fills
QUANTITY_COLUMNS = {
    "rate": "gamma_ratio",
    "resonant_shift": "shift_res_ratio",
    "nonresonant_shift": "shift_nres_ratio",
}

_MEDIA = ("perfect_conductor", "nonreciprocal_mirror", "axion")
_MEDIUM_ONLY_KEYS = {
    "epsilon": ("axion",),
    "mu": ("axion",),
    "theta": ("axion",),
    "sign": ("nonreciprocal_mirror",),
}


@dataclass(frozen=True)
class ScanConfig:
    """Distance scan: a medium, a dipole handedness, and a zeta grid."""

    medium_kind: str
    zeta_min: float
    zeta_max: float
    count: int
    spacing: str = "linear"
    handedness: str = "plus"
    epsilon: float = 1.0
    mu: float = 1.0
    theta: float = math.pi
    sign: float = -1.0
    quantities: tuple = ("rate", "resonant_shift", "nonresonant_shift")
    name: str = "scan"

    def __post_init__(self):
        if self.medium_kind not in _MEDIA:
            raise ConfigError(f"unknown medium {self.medium_kind!r}; "
                              f"expected one of {', '.join(_MEDIA)}")
        if not (math.isfinite(self.zeta_min) and math.isfinite(self.zeta_max)):
            raise ConfigError(f"zeta_min and zeta_max must be finite, got "
                              f"[{self.zeta_min}, {self.zeta_max}]")
        if self.zeta_min <= 0:
            raise ConfigError(f"zeta_min must be > 0, got {self.zeta_min}")
        if self.zeta_max <= self.zeta_min:
            raise ConfigError(f"zeta_max ({self.zeta_max}) must exceed "
                              f"zeta_min ({self.zeta_min})")
        if self.count < 2:
            raise ConfigError(f"count must be >= 2, got {self.count}")
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"spacing must be linear or log, got {self.spacing!r}")
        if self.handedness not in ("plus", "minus"):
            raise ConfigError(f"handedness must be plus or minus, got {self.handedness!r}")
        if not self.quantities:
            raise ConfigError("quantities must not be empty")
        bad = [q for q in self.quantities if q not in QUANTITY_COLUMNS]
        if bad:
            raise ConfigError(f"unknown quantities {bad}; "
                              f"expected subset of {sorted(QUANTITY_COLUMNS)}")
        if len(set(self.quantities)) != len(self.quantities):
            raise ConfigError(f"duplicate quantities in {self.quantities}")
        self.build_medium()

    def build_medium(self):
        return build_medium(self.medium_kind, self.epsilon, self.mu, self.theta,
                            self.sign)

    def grid(self) -> np.ndarray:
        return zeta_grid(self.zeta_min, self.zeta_max, self.count, self.spacing)


def build_medium(medium_kind: str, epsilon: float = 1.0, mu: float = 1.0,
                 theta: float = math.pi, sign: float = -1.0):
    """The medium named by `medium_kind`.

    Every parameter is checked by its medium, used by this one or not;
    ConfigError names one the model cannot honour.
    """
    try:
        media = {"perfect_conductor": PerfectConductor(),
                 "nonreciprocal_mirror": PerfectNonreciprocalMirror(sign=sign),
                 "axion": AxionMedium(epsilon=epsilon, mu=mu, theta=theta)}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if medium_kind not in media:
        raise ConfigError(f"unknown medium {medium_kind!r}; "
                          f"expected one of {', '.join(_MEDIA)}")
    return media[medium_kind]


def zeta_grid(zeta_min: float, zeta_max: float, count: int,
              spacing: str = "linear") -> np.ndarray:
    """The scan grid: `count` points from zeta_min to zeta_max, linear or log."""
    if spacing == "log":
        return np.geomspace(zeta_min, zeta_max, count)
    return np.linspace(zeta_min, zeta_max, count)


def _parse_angle(text: str, key: str, line_no: int) -> float:
    t = text.strip()
    if t.endswith("pi"):
        head = t[:-2].strip()
        try:
            return (float(head) if head not in ("", "+", "-")
                    else float(head + "1")) * math.pi
        except ValueError:
            raise ConfigError(f"line {line_no}: cannot parse pi-multiple "
                              f"{text!r} for {key}") from None
    try:
        return float(t)
    except ValueError:
        raise ConfigError(f"line {line_no}: cannot parse {text!r} "
                          f"for {key}") from None


def _parse_float(text: str, key: str, line_no: int) -> float:
    t = text.strip()
    if t.endswith("pi"):
        raise ConfigError(f"line {line_no}: pi-multiples are only valid for "
                          f"angles, not for {key}")
    try:
        return float(t)
    except ValueError:
        raise ConfigError(f"line {line_no}: cannot parse {text!r} "
                          f"for {key}") from None


def _parse_int(text: str, key: str, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"line {line_no}: cannot parse {text!r} "
                          f"as integer for {key}") from None


def parse_config(path) -> ScanConfig:
    """Read a scan config file; raises ConfigError with line numbers."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None

    seen: dict[str, int] = {}
    raw: dict[str, str] = {}
    for i, full_line in enumerate(lines, start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {i}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {i}: empty key or value in {line!r}")
        if key in seen:
            raise ConfigError(f"line {i}: duplicate key {key!r} "
                              f"(first set on line {seen[key]})")
        seen[key] = i
        raw[key] = value

    known = {"medium", "epsilon", "mu", "theta", "sign", "handedness",
             "zeta_min", "zeta_max", "count", "spacing", "quantities", "name"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"line {seen[key]}: unknown key {key!r}")

    for key in ("medium", "zeta_min", "zeta_max", "count"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    medium_kind = raw["medium"]
    if medium_kind not in _MEDIA:
        raise ConfigError(f"line {seen['medium']}: unknown medium "
                          f"{medium_kind!r}; expected one of {', '.join(_MEDIA)}")
    for key, allowed in _MEDIUM_ONLY_KEYS.items():
        if key in raw and medium_kind not in allowed:
            raise ConfigError(f"line {seen[key]}: key {key!r} only applies to "
                              f"medium {', '.join(allowed)}, not {medium_kind}")

    kwargs = {
        "medium_kind": medium_kind,
        "zeta_min": _parse_float(raw["zeta_min"], "zeta_min", seen["zeta_min"]),
        "zeta_max": _parse_float(raw["zeta_max"], "zeta_max", seen["zeta_max"]),
        "count": _parse_int(raw["count"], "count", seen["count"]),
    }
    if "spacing" in raw:
        kwargs["spacing"] = raw["spacing"]
    if "handedness" in raw:
        kwargs["handedness"] = raw["handedness"]
    if "epsilon" in raw:
        kwargs["epsilon"] = _parse_float(raw["epsilon"], "epsilon", seen["epsilon"])
    if "mu" in raw:
        kwargs["mu"] = _parse_float(raw["mu"], "mu", seen["mu"])
    if "theta" in raw:
        kwargs["theta"] = _parse_angle(raw["theta"], "theta", seen["theta"])
    if "sign" in raw:
        kwargs["sign"] = _parse_float(raw["sign"], "sign", seen["sign"])
    if "quantities" in raw:
        kwargs["quantities"] = tuple(
            q.strip() for q in raw["quantities"].split(",") if q.strip())
    if "name" in raw:
        kwargs["name"] = raw["name"]

    try:
        return ScanConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
