"""Output check against the stored reference.

A trace (one CSV column, or one term of one nonresonant point) passes when
its largest absolute deviation from the reference, divided by the largest
|value| of the reference trace, is at most TOL.  Scaling by the trace's own
maximum keeps the check meaningful where a rate or shift crosses zero.  The
two nonresonant terms are separate traces: im_term, which carries the
theta-dependent part, is 1e-3 to 1e-4 of re_term, so a shared scale would
let it be off by far more than TOL.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

TOL = 1e-6
# CSV cells are written with 12 significant digits, so the grid column is
# compared with a tolerance well above that rounding.
ZETA_TOL = 1e-9


def scaled_error(values, reference) -> float:
    """max |values - reference| / max |reference| (absolute if the scale is 0)."""
    v = np.asarray(values, dtype=float)
    r = np.asarray(reference, dtype=float)
    if v.shape != r.shape:
        return float("inf")
    if not np.all(np.isfinite(v)):
        return float("inf")
    scale = float(np.max(np.abs(r))) if r.size else 0.0
    err = float(np.max(np.abs(v - r))) if r.size else 0.0
    return err / scale if scale > 0 else err


def read_csv(path) -> dict:
    """Column name -> float array of a cpshift CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array([[float(x) for x in row] for row in body], dtype=float)
    data = data.reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def check_table(table: dict, reference: dict, label: str) -> list:
    """Problems found comparing one CSV's columns with its reference columns."""
    problems = []
    if set(table) != set(reference):
        return [f"{label}: columns {sorted(table)} != {sorted(reference)}"]
    zeta, ref_zeta = table["zeta"], np.asarray(reference["zeta"], dtype=float)
    if zeta.shape != ref_zeta.shape:
        return [f"{label}: {zeta.size} rows, reference has {ref_zeta.size}"]
    if np.max(np.abs(zeta / ref_zeta - 1.0)) > ZETA_TOL:
        problems.append(f"{label}: zeta grid differs from the reference")
    for name in sorted(table):
        if name == "zeta":
            continue
        err = scaled_error(table[name], reference[name])
        if not err <= TOL:
            problems.append(f"{label}:{name}: scaled error {err:.3e} > {TOL:g}")
    return problems


def check_csv(path, reference: dict) -> list:
    """Problems found in one written CSV file; a missing file is a problem."""
    path = Path(path)
    try:
        table = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    return check_table(table, reference, path.name)


def check_terms(im_term: float, re_term: float, ref_im: float, ref_re: float,
                label: str) -> list:
    """Problems in one nonresonant point; each term is scaled by its own
    reference value."""
    problems = []
    for name, value, ref in (("im_term", im_term, ref_im), ("re_term", re_term, ref_re)):
        err = scaled_error([value], [ref])
        if not err <= TOL:
            problems.append(f"{label}:{name}: scaled error {err:.3e} > {TOL:g}")
    return problems
