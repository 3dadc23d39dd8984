"""Distance scans and figure-data emission (CSV + JSON run manifest).

All outputs are scaled: lengths as zeta = w z / c, rates and shifts divided
by the free-space rate of the scan's transition.  Each requested quantity
is evaluated over the whole grid at once, on the calling thread
(`atomics.greens_grid`, `atomics.nonresonant_shift_grid`); where it takes
quadrature, the grid points are owners of one lockstep quadrature, and
where the medium has a constant reflection matrix, closed forms run
instead.  Every manifest records the run's total integrand evaluations
(`neval`), 0 for closed forms.  Every point's value equals its one-point
evaluation bit for bit, so identical configs give byte-identical CSV files.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .atomics import (asymptotic, AsymptoticCase, greens_grid,
                      nonresonant_shift_grid)
# not called here but importable from this module: perfbench/tracer.py
# wraps them by these names.
from .atomics import greens_tensor, nonresonant_shift_terms  # noqa: F401
from .config import (ConfigError, MEDIUM_PARAMETERS, QUANTITY_COLUMNS, ScanConfig,
                     build_medium, zeta_grid)
from .quadrature import QuadratureConfig, QuadratureError
from .units import canonical_transition, free_space_rate_formula
from .version import __version__

__all__ = ["ScanError", "RunManifest", "ScanResult", "run_scan", "figure",
           "FIGURE_NAMES"]


class ScanError(RuntimeError):
    """A grid point failed to evaluate; carries the offending zeta."""

    def __init__(self, message, zeta=None):
        super().__init__(message)
        self.zeta = zeta


@dataclass(frozen=True)
class RunManifest:
    """Machine-readable record emitted for every run, successful or not."""

    command: str
    config: dict
    quadrature: dict
    wall_time_s: float
    points: int
    quad_error_max: float
    quad_error_mean: float
    neval: int | None
    status: str
    error: str | None
    outputs: tuple

    def to_json(self) -> str:
        payload = {
            "tool": "cpshift",
            "version": __version__,
            "command": self.command,
            "config": self.config,
            "quadrature": self.quadrature,
            "wall_time_s": self.wall_time_s,
            "points": self.points,
            "quad_error": {"max": self.quad_error_max,
                           "mean": self.quad_error_mean},
            "neval": self.neval,
            "status": self.status,
            "error": self.error,
            "outputs": list(self.outputs),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class ScanResult:
    zetas: np.ndarray
    columns: tuple
    values: np.ndarray  # shape (len(zetas), len(columns))
    csv_path: Path
    manifest_path: Path
    manifest: RunManifest


def _scan_values(zetas, medium, transition, quantities, qcfg: QuadratureConfig):
    """All requested scaled quantities over the whole grid.

    Each quantity is one batched call over every grid point (the rate and
    the resonant shift share their tensors).  Returns (values[N, Q], summed
    quadrature error estimate per point, summed integrand evaluations per
    point; both 0 where a closed form ran).  The heights are z = zeta/w;
    the normalization Gamma0 is computed rather than assumed 1 so
    non-canonical transitions stay correct.  A failure raises ScanError
    naming the zeta of the failing point.
    """
    w = transition.frequency
    z = zetas / w
    gamma0 = free_space_rate_formula(transition)
    err = np.zeros(zetas.size)
    neval = np.zeros(zetas.size, dtype=int)
    s = None
    columns = []
    try:
        for q in quantities:
            if q in ("rate", "resonant_shift") and s is None:
                g = greens_grid(medium, z, w, qcfg)
                s = g.sandwich(transition.dipole)
                err += g.quad_error
                neval += g.neval
            if q == "rate":
                columns.append(2.0 * w ** 2 * s.imag / gamma0)
            elif q == "resonant_shift":
                columns.append(-w ** 2 * s.real / gamma0)
            elif q == "nonresonant_shift":
                terms = nonresonant_shift_grid(transition, z, medium, qcfg)
                err += terms.quad_error
                neval += terms.neval
                columns.append(terms.total / gamma0)
            else:
                raise ScanError(f"unknown quantity {q!r}")
    except (QuadratureError, ArithmeticError) as exc:
        owner = getattr(exc, "owner", None)
        zeta = None if owner is None else float(zetas[owner])
        where = "" if zeta is None else f" at zeta={zeta:.6g}"
        raise ScanError(f"{type(exc).__name__}{where}: {exc}", zeta=zeta) from exc
    return np.column_stack(columns), err, neval


def _format_csv(columns, zetas, values) -> str:
    """A header `zeta,<columns>`, then one row per zeta of `%.11e` cells.

    The whole table is one `%` operation over the flat list of its cells.
    `"%.11e" % x` and `f"{x:.11e}"` format a double through the same
    routine, so the text is byte for byte that of one f-string per cell,
    nan, inf and -0.0 included.
    """
    table = np.column_stack([zetas, values])
    row = ",".join(["%.11e"] * table.shape[1]) + "\n"
    return (",".join(("zeta",) + tuple(columns)) + "\n"
            + (row * len(table)) % tuple(table.ravel().tolist()))


def _write_manifest(path: Path, command: str, config: dict, qcfg: QuadratureConfig,
                    t0: float, points: int, outputs, error: str | None = None,
                    quad_error=(math.nan, math.nan), neval=None) -> RunManifest:
    """Write the manifest of a run that started at t0: status "ok", or
    "failed" with `error` (the quadrature errors are then NaN, and the
    evaluation count None)."""
    quadrature = {"rel_tol": qcfg.rel_tol, "xi_rel_tol": qcfg.xi_rel_tol}
    manifest = RunManifest(command=command, config=config, quadrature=quadrature,
                           wall_time_s=time.perf_counter() - t0, points=points,
                           quad_error_max=quad_error[0], quad_error_mean=quad_error[1],
                           neval=neval, status="ok" if error is None else "failed",
                           error=error, outputs=tuple(outputs))
    path.write_text(manifest.to_json(), encoding="utf-8")
    return manifest


def run_scan(config: ScanConfig, out_dir,
             qcfg: QuadratureConfig | None = None) -> ScanResult:
    """Evaluate the configured scan and write CSV + manifest into out_dir.

    On a numerical failure the manifest is still written (status "failed",
    error naming the offending zeta) before ScanError propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    qcfg = qcfg or QuadratureConfig()
    medium = config.build_medium()
    transition = canonical_transition(config.handedness)
    zetas = config.grid()
    columns = tuple(QUANTITY_COLUMNS[q] for q in config.quantities)
    csv_path = out / f"{config.name}.csv"
    manifest_path = out / f"{config.name}.manifest.json"
    write_manifest = partial(_write_manifest, manifest_path, "scan", _config_echo(config),
                             qcfg, time.perf_counter(), len(zetas))
    try:
        values, errs, neval = _scan_values(zetas, medium, transition,
                                           config.quantities, qcfg)
    except ScanError as exc:
        write_manifest((manifest_path.name,), error=str(exc))
        raise

    csv_path.write_text(_format_csv(columns, zetas, values), encoding="utf-8")
    manifest = write_manifest((csv_path.name, manifest_path.name),
                              quad_error=(float(errs.max()), float(errs.mean())),
                              neval=int(neval.sum()))
    return ScanResult(zetas=zetas, columns=columns, values=values,
                      csv_path=csv_path, manifest_path=manifest_path,
                      manifest=manifest)


def _config_echo(config: ScanConfig) -> dict:
    echo = {
        "medium": config.medium_kind, "handedness": config.handedness,
        "zeta_min": config.zeta_min, "zeta_max": config.zeta_max,
        "count": config.count, "spacing": config.spacing,
        "quantities": list(config.quantities), "name": config.name,
    }
    echo.update((name, getattr(config, name)) for name, kind in MEDIUM_PARAMETERS.items()
                if kind == config.medium_kind)
    return echo


# ---------------------------------------------------------------------------
# Figure data

FIGURE_NAMES = ("gamma_mirrors", "omega_mirrors", "loglog_nres",
                "gamma_ti", "omega_ti")

_OSC_GRID = dict(zeta_min=0.05, zeta_max=8.0, count=400, spacing="linear")
_LOG_GRID = dict(zeta_min=1e-2, zeta_max=1e2, count=361, spacing="log")
_MIRRORS = ("perfect_conductor", "nonreciprocal_mirror")


def _trace_scan(name, medium_kind, quantities, grid, out, qcfg, **medium_kw):
    cfg = ScanConfig(medium_kind=medium_kind, quantities=quantities,
                     name=name, **grid, **medium_kw)
    return run_scan(cfg, out, qcfg)


def _difference_traces(name_prefix, quantity, grid, out, qcfg):
    """ε = 16 with-minus-without-axion traces for theta = ±pi."""
    transition = canonical_transition("plus")
    zetas = zeta_grid(**grid)
    values, errs, neval = {}, 0.0, 0
    for key, theta in (("plus", np.pi), ("minus", -np.pi), ("zero", 0.0)):
        v, e, n = _scan_values(zetas, build_medium("axion", epsilon=16.0, theta=theta),
                               transition, (quantity,), qcfg)
        values[key] = v
        errs = errs + e
        neval += int(n.sum())
    outputs = []
    for which, sign_name in (("plus", "theta_pi"), ("minus", "theta_minus_pi")):
        path = Path(out) / f"{name_prefix}_difference_eps16_{sign_name}.csv"
        path.write_text(_format_csv((QUANTITY_COLUMNS[quantity],), zetas,
                                    values[which] - values["zero"]), encoding="utf-8")
        outputs.append(path.name)
    return outputs, errs, neval


def figure(name: str, out_dir, qcfg: QuadratureConfig | None = None) -> list:
    """Emit the CSV traces for one named figure; returns written file names.

    gamma_mirrors / omega_mirrors: rate resp. shifts for both ideal mirrors
    on a linear grid.  loglog_nres: nonresonant shift for both mirrors on a
    log grid plus the four closed-form asymptote traces.  gamma_ti /
    omega_ti: pure-axion theta = ±pi traces plus the eps=16
    with-minus-without-axion difference traces.
    """
    if name not in FIGURE_NAMES:
        raise ConfigError(f"unknown figure {name!r}; expected one of "
                          f"{', '.join(FIGURE_NAMES)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    qcfg = qcfg or QuadratureConfig()
    manifest_path = out / f"{name}.manifest.json"
    write_manifest = partial(_write_manifest, manifest_path, f"figure:{name}",
                             {"figure": name}, qcfg, time.perf_counter())
    outputs = []
    err_max = 0.0
    err_sum = 0.0
    npts = 0
    neval = 0

    def collect(result: ScanResult):
        outputs.extend([result.csv_path.name])
        nonlocal err_max, err_sum, npts, neval
        err_max = max(err_max, result.manifest.quad_error_max)
        err_sum += result.manifest.quad_error_mean * result.manifest.points
        npts += result.manifest.points
        neval += result.manifest.neval

    try:
        if name == "gamma_mirrors":
            for medium_kind in _MIRRORS:
                collect(_trace_scan(f"gamma_mirrors_{medium_kind}", medium_kind,
                                    ("rate",), _OSC_GRID, out, qcfg))
        elif name == "omega_mirrors":
            for medium in _MIRRORS:
                for q in ("resonant_shift", "nonresonant_shift"):
                    collect(_trace_scan(f"omega_mirrors_{q}_{medium}", medium,
                                        (q,), _OSC_GRID, out, qcfg))
        elif name == "loglog_nres":
            transition = canonical_transition("plus")
            gamma0 = free_space_rate_formula(transition)
            for medium_kind in _MIRRORS:
                collect(_trace_scan(f"loglog_nres_{medium_kind}", medium_kind,
                                    ("nonresonant_shift",), _LOG_GRID, out, qcfg))
                medium = build_medium(medium_kind)
                zetas = zeta_grid(**_LOG_GRID)
                for regime in ("retarded", "nonretarded"):
                    case = AsymptoticCase(regime, medium, "nonresonant_shift")
                    vals = np.array([[asymptotic(case, transition, z) / gamma0]
                                     for z in zetas])
                    path = out / f"loglog_nres_{medium_kind}_{regime}_asymptote.csv"
                    path.write_text(_format_csv(("shift_nres_ratio",), zetas, vals),
                                    encoding="utf-8")
                    outputs.append(path.name)
        elif name in ("gamma_ti", "omega_ti"):
            quantity = "rate" if name == "gamma_ti" else "resonant_shift"
            for theta, tag in ((np.pi, "theta_pi"), (-np.pi, "theta_minus_pi")):
                collect(_trace_scan(f"{name}_pure_axion_{tag}", "axion",
                                    (quantity,), _OSC_GRID, out, qcfg,
                                    theta=float(theta)))
            diff_outputs, diff_errs, diff_neval = _difference_traces(
                name, quantity, _OSC_GRID, out, qcfg)
            outputs.extend(diff_outputs)
            neval += diff_neval
            err_max = max(err_max, float(diff_errs.max()))
            err_sum += float(diff_errs.sum())
            npts += diff_errs.size
    except ScanError as exc:
        write_manifest(npts, outputs, error=str(exc))
        raise

    write_manifest(npts, outputs, quad_error=(err_max, err_sum / max(npts, 1)),
                   neval=neval)
    outputs.append(manifest_path.name)
    return outputs
