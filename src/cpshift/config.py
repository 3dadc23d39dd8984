"""Line-based `key = value` config files describing a distance scan.

Format: one assignment per line, `#` starts a comment, blank lines ignored.
Angles accept plain radians or pi-multiples written as `1.0pi` / `-0.5pi`.
Unknown keys, duplicate keys (both line numbers reported), and keys that do
not apply to the chosen medium are errors; `build_medium`, and so a CLI
flag or ScanConfig field, refuses another kind's parameter the same way.
A medium's keys are the init fields of its class; the axion half-space is
nonmagnetic, so its keys are epsilon and theta, and `mu` is an unknown key.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .media import AxionMedium, PerfectConductor, PerfectNonreciprocalMirror
from .quadrature import _check_count, _check_positive

__all__ = ["ConfigError", "ScanConfig", "parse_config", "parse_value",
           "build_medium", "zeta_grid", "QUANTITY_COLUMNS", "MEDIUM_KINDS",
           "MEDIUM_PARAMETERS", "ZETA_MIN"]


class ConfigError(ValueError):
    """Malformed or inconsistent scan configuration."""


# quantity name -> CSV column it fills
QUANTITY_COLUMNS = {
    "rate": "gamma_ratio",
    "resonant_shift": "shift_res_ratio",
    "nonresonant_shift": "shift_nres_ratio",
}

# medium kind -> its class.  A kind's parameters, and their defaults, are
# its class's init fields (an InitVar, such as AxionMedium's mu, is none);
# every other description of a medium (config keys, CLI flags, the
# manifest echo) is derived from this table.
MEDIUM_KINDS = {
    "perfect_conductor": PerfectConductor,
    "nonreciprocal_mirror": PerfectNonreciprocalMirror,
    "axion": AxionMedium,
}
# medium parameter -> the kind it belongs to (names are unique across kinds)
MEDIUM_PARAMETERS = {f.name: kind for kind, cls in MEDIUM_KINDS.items()
                     for f in fields(cls) if f.init}


# The smallest zeta a config or the CLI takes.  The shifts grow as zeta^-3:
# for the canonical transition the resonant shift is -9.4e307 at zeta =
# 1e-103, where the closed forms' shifts overflow.  The overflow height
# depends on w and |d|^2, so library calls have no floor: there a value
# that is not finite raises at its height (`atomics._finite`).
ZETA_MIN = 1e-100


def _check_zeta(name: str, zeta) -> None:
    """ConfigError unless zeta is a positive finite number (not a bool) of at
    least ZETA_MIN."""
    try:
        _check_positive(name, zeta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if zeta < ZETA_MIN:
        raise ConfigError(f"{name} must be at least ZETA_MIN = {ZETA_MIN:g}, got {zeta}")


@dataclass(frozen=True)
class ScanConfig:
    """Distance scan: a medium, a dipole handedness, and a zeta grid."""

    medium_kind: str
    zeta_min: float
    zeta_max: float
    count: int
    spacing: str = "linear"
    handedness: str = "plus"
    epsilon: float = AxionMedium.epsilon
    theta: float = AxionMedium.theta
    sign: float = PerfectNonreciprocalMirror.sign
    quantities: tuple = ("rate", "resonant_shift", "nonresonant_shift")
    name: str = "scan"

    def __post_init__(self):
        _check_zeta("zeta_min", self.zeta_min)
        try:
            _check_positive("zeta_max", self.zeta_max)
            _check_count("count", self.count, 2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.zeta_max <= self.zeta_min:
            raise ConfigError(f"zeta_max ({self.zeta_max}) must exceed "
                              f"zeta_min ({self.zeta_min})")
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
        if not self.name or any(s and s in self.name for s in ("/", "\0", os.sep, os.altsep)):
            raise ConfigError(f"name must be a file stem without a path separator "
                              f"or NUL byte, got {self.name!r}")
        self.build_medium()

    def build_medium(self):
        """The scan's medium, from its kind's fields.  Another kind's field
        set off its default is passed on too, and build_medium refuses it."""
        return build_medium(self.medium_kind, **{
            name: getattr(self, name) for name, kind in MEDIUM_PARAMETERS.items()
            if kind == self.medium_kind
            or getattr(self, name) != getattr(ScanConfig, name)})

    def grid(self) -> np.ndarray:
        return zeta_grid(self.zeta_min, self.zeta_max, self.count, self.spacing)


def build_medium(medium_kind: str, **params):
    """The medium named by `medium_kind`, from `params` and its class defaults.

    Only that medium is built.  ConfigError names an unknown parameter,
    a parameter of another kind (`_check_own`), or a value the model
    cannot honour.
    """
    _parse_kind(medium_kind, "medium")
    for name in params:
        if name not in MEDIUM_PARAMETERS:
            raise ConfigError(f"unknown medium parameter {name!r}")
        _check_own(medium_kind, name)
    try:
        return MEDIUM_KINDS[medium_kind](**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_own(medium_kind: str, key: str) -> None:
    """ConfigError if `key` is a parameter of a medium kind other than
    `medium_kind`; any other key passes."""
    kind = MEDIUM_PARAMETERS.get(key, medium_kind)
    if kind != medium_kind:
        raise ConfigError(f"key {key!r} only applies to medium {kind}, not {medium_kind}")


def zeta_grid(zeta_min: float, zeta_max: float, count: int,
              spacing: str = "linear") -> np.ndarray:
    """The scan grid: `count` points from zeta_min to zeta_max, linear or log."""
    if spacing == "log":
        return np.geomspace(zeta_min, zeta_max, count)
    return np.linspace(zeta_min, zeta_max, count)


def _parse_float(text: str, key: str) -> float:
    """A float; an angle (`_ANGLES`) may also be a pi-multiple."""
    t = text.strip()
    if t.endswith("pi"):
        if key not in _ANGLES:
            raise ConfigError(f"pi-multiples are only valid for angles, not for {key}")
        head = t[:-2].strip()
        try:
            return (float(head) if head not in ("", "+", "-")
                    else float(head + "1")) * math.pi
        except ValueError:
            raise ConfigError(f"cannot parse pi-multiple {text!r} for {key}") from None
    try:
        return float(t)
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} for {key}") from None


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as integer for {key}") from None


def _parse_text(text: str, key: str) -> str:
    return text


def _parse_kind(text: str, key: str) -> str:
    if text not in MEDIUM_KINDS:
        raise ConfigError(f"unknown medium {text!r}; "
                          f"expected one of {', '.join(MEDIUM_KINDS)}")
    return text


def _parse_list(text: str, key: str) -> tuple:
    return tuple(item.strip() for item in text.split(",") if item.strip())


# the medium parameters marked as angles (radians), which take pi-multiples
_ANGLES = {f.name for cls in MEDIUM_KINDS.values() for f in fields(cls)
           if f.metadata.get("angle")}
# config key -> parser; the medium parameters come from MEDIUM_KINDS
_PARSERS = {
    "medium": _parse_kind, "zeta_min": _parse_float, "zeta_max": _parse_float,
    "count": _parse_int, "spacing": _parse_text, "handedness": _parse_text,
    "quantities": _parse_list, "name": _parse_text,
    **dict.fromkeys(MEDIUM_PARAMETERS, _parse_float),
}


def parse_value(key: str, text: str):
    """`text` read as the value of config key `key` (medium parameters
    included, e.g. `theta` takes `1.0pi`); raises ConfigError."""
    return _PARSERS[key](text, key)


def parse_config(path) -> ScanConfig:
    """Read a scan config file; raises ConfigError with line numbers."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in _PARSERS:
            raise ConfigError(f"line {i}: unknown key {key!r}")
        seen[key] = i
        raw[key] = value

    for key in ("medium", "zeta_min", "zeta_max", "count"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    def at_line(key, check, *args):
        """check(*args), a ConfigError it raises prefixed with key's line."""
        try:
            return check(*args)
        except ConfigError as exc:
            raise ConfigError(f"line {seen[key]}: {exc}") from None

    medium_kind = at_line("medium", parse_value, "medium", raw["medium"])
    for key in raw:
        at_line(key, _check_own, medium_kind, key)
    return ScanConfig(**{"medium_kind" if key == "medium" else key:
                         at_line(key, parse_value, key, raw[key]) for key in raw})
