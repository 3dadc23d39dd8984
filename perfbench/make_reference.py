"""Regenerate the stored references the benchmark checks outputs against.

    PYTHONPATH=src python3 perfbench/make_reference.py [nres_axion ti_traces mirror_scan]

Every reference is computed with the package at tightened tolerances:
QuadratureConfig().tighter(1e-3) for nres_axion and mirror_scan.  The
real-axis tensor behind ti_traces cannot reach tighter(1e-3): at
zeta ~ 0.71 its k-integral exhausts the 20,000-panel budget at an error
of ~4e-20 against a requested ~1e-20 (a round-off floor), so ti_traces
uses tighter(1e-2).  Outputs at the default tolerances agree with these
to ~1e-10, well inside the benchmark's 1e-6 gate.

Takes about four minutes on one core; run it only when the numbers the
program must produce have changed on purpose.
"""
from __future__ import annotations

import gzip
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs the path entry above)

REF = workloads.REFERENCE_DIR


def _quad(cfg) -> dict:
    return {"rel_tol": cfg.rel_tol, "xi_rel_tol": cfg.xi_rel_tol,
            "kappa_cutoff": cfg.kappa_cutoff, "xi_cutoff": cfg.xi_cutoff}


def nres_axion():
    from cpshift import (SCALED, AxionMedium, QuadratureConfig, atomics,
                         canonical_transition)
    cfg = QuadratureConfig().tighter(1e-3)
    tr = canonical_transition("plus")
    medium = AxionMedium(epsilon=16.0, theta=math.pi)
    points = []
    for zeta in workloads.nres_pool():
        t = atomics.nonresonant_shift_terms(tr, zeta * SCALED.c / tr.frequency,
                                            medium, config=cfg)
        points.append([zeta, t.im_term, t.re_term])
        print(f"nres_axion zeta={zeta:.6g} total={t.total:.12e}", flush=True)
    payload = {"quadrature": _quad(cfg), "medium": {"epsilon": 16.0, "theta": math.pi},
               "columns": ["zeta", "im_term", "re_term"], "points": points}
    (REF / "nres_axion.json").write_text(json.dumps(payload, indent=1) + "\n")


def ti_traces():
    from cpshift import QuadratureConfig, ScanConfig, run_scan
    cfg = QuadratureConfig().tighter(1e-2)
    dest = REF / "ti_traces"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    grid = workloads.TI_GRID
    with tempfile.TemporaryDirectory() as tmp:
        for trace, (epsilon, theta) in workloads.TI_TRACES.items():
            scan = ScanConfig(medium_kind="axion", epsilon=epsilon, theta=theta,
                              quantities=("resonant_shift",), zeta_min=float(grid[0]),
                              zeta_max=float(grid[-1]), count=len(grid),
                              spacing="linear", name=trace)
            run_scan(scan, tmp, cfg)
            shutil.copy(Path(tmp) / f"{trace}.csv", dest / f"{trace}.csv")
    (dest / "quadrature.json").write_text(json.dumps(_quad(cfg), indent=1) + "\n")


def mirror_scan():
    from cpshift import QuadratureConfig, ScanConfig, run_scan
    cfg = QuadratureConfig().tighter(1e-3)
    master = workloads.mirror_master()
    media = {}
    with tempfile.TemporaryDirectory() as tmp:
        for medium in workloads.MIRROR_MEDIA:
            scan = ScanConfig(medium_kind=medium, zeta_min=float(master[0]),
                              zeta_max=float(master[-1]), count=len(master),
                              spacing="log", name=medium)
            res = run_scan(scan, tmp, cfg)
            columns = {"zeta": master}
            columns.update(zip(res.columns, res.values.T))
            media[medium] = {k: [float(x) for x in v] for k, v in columns.items()}
    payload = {"quadrature": _quad(cfg), "count": workloads.MIRROR_COUNT,
               "media": media}
    with gzip.open(REF / "mirror_scan.json.gz", "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    REF.mkdir(exist_ok=True)
    makers = {"nres_axion": nres_axion, "ti_traces": ti_traces,
                "mirror_scan": mirror_scan}
    for name in sys.argv[1:] or makers:
        makers[name]()
