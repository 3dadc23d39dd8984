"""Distance scans and figure-data emission (CSV + JSON run manifest).

All outputs are scaled: lengths as zeta = w z / c, rates and shifts divided
by the free-space rate of the scan's transition.  Each requested quantity
is evaluated over the whole grid at once, on the calling thread
(`atomics.greens_grid`, `atomics.nonresonant_shift_grid`); where it takes
quadrature, the grid points are owners of one lockstep quadrature, and
where the medium has a constant reflection matrix, closed forms run
instead.  Every point's value equals its one-point evaluation bit for
bit, so identical configs give byte-identical CSV files.  A value that is
not finite fails the run at its zeta, as a quadrature failure does.

`_scan_values` is the one path from a medium to values, for scans, figures
and the CLI's point queries.  A run is a list of jobs, and one writer
(`_write_run`) turns it into files: the jobs' CSVs, then one manifest whose
points, neval (0 for closed forms) and quad_error are totals over the jobs
and whose outputs list every file written, itself last.  A scan is one job;
a figure is a job list, each job one medium, each CSV the trace of one
transition above it (the loglog asymptote lines aside).
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .atomics import (asymptotic, AsymptoticCase, greens_grid,
                      nonresonant_shift_grid, _tensor_quantities)
# not called here but importable from this module: perfbench/tracer.py
# wraps them by these names.
from .atomics import greens_tensor, nonresonant_shift_terms  # noqa: F401
from .config import (ConfigError, MEDIUM_PARAMETERS, QUANTITY_COLUMNS, ScanConfig,
                     build_medium, zeta_grid)
from .media import AxionMedium, _AxionDifference
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureError
from .units import canonical_transition, free_space_rate_formula
from .version import __version__

__all__ = ["ScanError", "RunManifest", "ScanResult", "run_scan", "figure",
           "FIGURE_NAMES"]

# the settings a manifest echoes: every field of QuadratureConfig
_QUADRATURE_SETTINGS = tuple(f.name for f in fields(QuadratureConfig))


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
        """The manifest file's text: every field, the two quad_error ones
        nested as quad_error {max, mean}, plus the tool and its version."""
        payload = {name: getattr(self, name) for name in _MANIFEST_FIELDS}
        payload["quad_error"] = {"max": payload.pop("quad_error_max"),
                                 "mean": payload.pop("quad_error_mean")}
        payload.update(tool="cpshift", version=__version__)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# read by name, not with dataclasses.asdict, which deep-copies every value
_MANIFEST_FIELDS = tuple(f.name for f in fields(RunManifest))


@dataclass(frozen=True)
class ScanResult:
    zetas: np.ndarray
    columns: tuple
    values: np.ndarray  # shape (len(zetas), len(columns))
    csv_path: Path
    manifest_path: Path
    manifest: RunManifest


def _scan_values(zetas, medium, transitions, quantities, qcfg: QuadratureConfig):
    """All requested scaled quantities over the whole grid, per transition.

    The transitions share one frequency w, and the heights are z = zeta/w.
    Each quantity is one batched call over every grid point, in the order
    `quantities` asks: the medium's tensor is evaluated once, for the rate
    and the resonant shift of every transition, and the s-integral once per
    transition.  Returns per transition (values[N, Q], summed quadrature
    error estimate per point, summed integrand evaluations per point; both
    0 where a closed form ran); the tensor's evaluations count once, on the
    first transition that reads it.  The normalization Gamma0 is computed
    rather than assumed 1 so non-canonical transitions stay correct.  A
    failure, a value that is not finite included (`atomics._finite`),
    raises ScanError naming the zeta of its point (the exception's
    `owner`); the grid runs under np.errstate, so a tensor that overflows
    reaches that check.
    """
    w = transitions[0].frequency
    z = zetas / w
    g, results = None, []
    try:
        with np.errstate(all="ignore"):
            for transition in transitions:
                err = np.zeros(zetas.size)
                neval = np.zeros(zetas.size, dtype=int)
                rate_and_shift, columns = None, []
                for q in quantities:
                    if q == "nonresonant_shift":
                        terms = nonresonant_shift_grid(transition, z, medium, qcfg)
                        err += terms.quad_error
                        neval += terms.neval
                        columns.append(terms.total)
                        continue
                    if rate_and_shift is None:
                        if g is None:
                            g = greens_grid(medium, z, w, qcfg)
                            neval += g.neval
                        rate_and_shift = _tensor_quantities(g, transition)
                        err += g.quad_error
                    columns.append(rate_and_shift[q])
                values = np.column_stack(columns) / free_space_rate_formula(transition)
                results.append((values, err, neval))
    except (QuadratureError, ArithmeticError) as exc:
        owner = getattr(exc, "owner", None)
        zeta = None if owner is None else float(zetas[owner])
        where = "" if zeta is None else f" at zeta={zeta:.6g}"
        raise ScanError(f"{type(exc).__name__}{where}: {exc}", zeta=zeta) from exc
    return results


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


def _write_run(out_dir, name: str, command: str, config: dict,
               qcfg: QuadratureConfig, jobs) -> tuple:
    """Run `jobs` in order, write their CSVs and one manifest
    `<name>.manifest.json` into out_dir; return (manifest, tables).

    A job returns (tables, quad_error, neval): CSV tables as (file name,
    columns, zetas, values), then per grid point its error estimate and
    integrand evaluations.  On a ScanError the manifest is written with
    status "failed" and the files and points of the completed jobs (errors
    NaN, neval None), and the ScanError propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / f"{name}.manifest.json"
    t0 = time.perf_counter()
    tables, errs, nevals = [], [], []

    def write_manifest(error=None, quad_error=(math.nan, math.nan), neval=None):
        manifest = RunManifest(
            command=command, config=config,
            quadrature={name: getattr(qcfg, name) for name in _QUADRATURE_SETTINGS},
            wall_time_s=time.perf_counter() - t0, points=sum(e.size for e in errs),
            quad_error_max=quad_error[0], quad_error_mean=quad_error[1], neval=neval,
            status="ok" if error is None else "failed", error=error,
            outputs=tuple(t[0] for t in tables) + (manifest_path.name,))
        manifest_path.write_text(manifest.to_json(), encoding="utf-8")
        return manifest

    try:
        for job in jobs:
            job_tables, err, neval = job()
            for file_name, columns, zetas, values in job_tables:
                (out / file_name).write_text(_format_csv(columns, zetas, values),
                                             encoding="utf-8")
            tables += job_tables
            errs.append(err)
            nevals.append(neval)
    except ScanError as exc:
        write_manifest(error=str(exc))
        raise
    err = np.concatenate(errs)
    manifest = write_manifest(quad_error=(float(err.max()), float(err.mean())),
                              neval=sum(int(n.sum()) for n in nevals))
    return manifest, tables


def _trace(traces: dict, zetas, medium, quantities, qcfg):
    """The job of one CSV `<name>.csv` per (name, transition) of `traces`:
    `quantities` over `zetas` above `medium`, all from one `_scan_values`
    call."""
    values, errs, nevals = zip(*_scan_values(zetas, medium, tuple(traces.values()),
                                             quantities, qcfg))
    columns = tuple(QUANTITY_COLUMNS[q] for q in quantities)
    return ([(f"{name}.csv", columns, zetas, v) for name, v in zip(traces, values)],
            np.concatenate(errs), np.concatenate(nevals))


def run_scan(config: ScanConfig, out_dir,
             qcfg: QuadratureConfig | None = None) -> ScanResult:
    """Evaluate the configured scan and write `<name>.csv` and
    `<name>.manifest.json` into out_dir: the writer's one-job run.

    On a numerical failure the manifest is still written (status "failed",
    error naming the offending zeta, outputs itself alone) before ScanError
    propagates.
    """
    out = Path(out_dir)
    qcfg = qcfg or DEFAULT_CONFIG
    job = partial(_trace, {config.name: canonical_transition(config.handedness)},
                  config.grid(), config.build_medium(), config.quantities, qcfg)
    manifest, [(_, columns, zetas, values)] = _write_run(
        out, config.name, "scan", _config_echo(config), qcfg, [job])
    return ScanResult(zetas=zetas, columns=columns, values=values,
                      csv_path=out / f"{config.name}.csv",
                      manifest_path=out / f"{config.name}.manifest.json",
                      manifest=manifest)


def _config_echo(config: ScanConfig) -> dict:
    """The manifest's `config`: every ScanConfig field (`medium_kind` as
    `medium`) but the parameters of other medium kinds."""
    return {"medium" if f.name == "medium_kind" else f.name: getattr(config, f.name)
            for f in fields(config)
            if MEDIUM_PARAMETERS.get(f.name, config.medium_kind) == config.medium_kind}


# ---------------------------------------------------------------------------
# Figure data

FIGURE_NAMES = ("gamma_mirrors", "omega_mirrors", "loglog_nres",
                "gamma_ti", "omega_ti")

_OSC_GRID = dict(zeta_min=0.05, zeta_max=8.0, count=400, spacing="linear")
_LOG_GRID = dict(zeta_min=1e-2, zeta_max=1e2, count=361, spacing="log")
_MIRRORS = ("perfect_conductor", "nonreciprocal_mirror")
_PLUS, _MINUS = canonical_transition("plus"), canonical_transition("minus")


def _loglog_job(medium_kind, zetas, qcfg):
    """The nonresonant shift above one mirror, then its retarded and
    nonretarded closed-form asymptotes."""
    medium = build_medium(medium_kind)
    tables, err, neval = _trace({f"loglog_nres_{medium_kind}": _PLUS}, zetas, medium,
                                ("nonresonant_shift",), qcfg)
    gamma0 = free_space_rate_formula(_PLUS)
    for regime in ("retarded", "nonretarded"):
        case = AsymptoticCase(regime, medium, "nonresonant_shift")
        values = np.array([[asymptotic(case, _PLUS, z) / gamma0] for z in zetas])
        tables.append((f"loglog_nres_{medium_kind}_{regime}_asymptote.csv",
                       ("shift_nres_ratio",), zetas, values))
    return tables, err, neval


def _figure_jobs(name: str, qcfg: QuadratureConfig) -> list:
    """The jobs of figure `name`, in the order their files are written."""
    osc = zeta_grid(**_OSC_GRID)

    def trace(traces, medium, quantity):
        return partial(_trace, traces, osc, medium, (quantity,), qcfg)

    if name == "gamma_mirrors":
        return [trace({f"{name}_{m}": _PLUS}, build_medium(m), "rate") for m in _MIRRORS]
    if name == "omega_mirrors":
        return [trace({f"{name}_{q}_{m}": _PLUS}, build_medium(m), q) for m in _MIRRORS
                for q in ("resonant_shift", "nonresonant_shift")]
    if name == "loglog_nres":
        return [partial(_loglog_job, m, zeta_grid(**_LOG_GRID), qcfg) for m in _MIRRORS]
    quantity = "rate" if name == "gamma_ti" else "resonant_shift"
    media = {"pure_axion": AxionMedium(theta=np.pi),
             "difference_eps16": _AxionDifference(epsilon=16.0, theta=np.pi)}
    return [trace({f"{name}_{tag}_theta_pi": _PLUS, f"{name}_{tag}_theta_minus_pi": _MINUS},
                  medium, quantity) for tag, medium in media.items()]


def figure(name: str, out_dir, qcfg: QuadratureConfig | None = None) -> list:
    """Write the CSV traces of one named figure and its one manifest
    `<name>.manifest.json` into out_dir; return the names of every file
    written, the manifest last, as its `outputs` lists them.

    gamma_mirrors / omega_mirrors: rate resp. shifts for both ideal mirrors
    on a linear grid.  loglog_nres: nonresonant shift for both mirrors on a
    log grid plus the four closed-form asymptote traces.  gamma_ti /
    omega_ti: pure-axion theta = +-pi traces plus the eps = 16
    with-minus-without-axion traces of r(theta) - r(0), each medium
    evaluated once, at theta = pi, and its theta = -pi trace read with the
    sigma- dipole.  The manifest's points, neval and quad_error are totals
    over every trace; a tensor's evaluations count once, on its theta = pi
    trace, and its error on both.
    """
    if name not in FIGURE_NAMES:
        raise ConfigError(f"unknown figure {name!r}; expected one of "
                          f"{', '.join(FIGURE_NAMES)}")
    qcfg = qcfg or DEFAULT_CONFIG
    manifest, _ = _write_run(out_dir, name, f"figure:{name}", {"figure": name}, qcfg,
                             _figure_jobs(name, qcfg))
    return list(manifest.outputs)
