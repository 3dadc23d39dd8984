#!/usr/bin/env python3
"""Regenerate every figure dataset (CSV traces + JSON manifests).

Usage:
    python3 scripts/reproduce_figures.py [outdir] [--only NAME] [--tight FACTOR]

Writes, per figure name, one CSV per trace plus one run manifest,
`<name>.manifest.json`, whose `outputs` list every file the figure wrote,
itself last.  Each figure's line prints its wall time, the integrand
evaluations of its quadratures (the manifest's `neval`, 0 for closed
forms, the same on every machine) and "N files", all of them:

  gamma_mirrors  decay rate vs zeta above both ideal mirrors
  omega_mirrors  resonant + nonresonant shifts vs zeta, both mirrors
  loglog_nres    |nonresonant shift| on a log grid with the z^-3 / z^-4 /
                 z^-5 asymptote lines
  gamma_ti       rate above the axion-coupled surface: pure-axion response
                 at theta = +/- pi and the eps = 16 with/without difference
  omega_ti       the same traces for the resonant shift

The gamma_ti and omega_ti sets dominate the runtime: every grid point of
their two difference traces runs the real-axis k-quadrature of the
eps = 16 reflection difference r(theta) - r(0) at theta = pi, 40,500
integrand evaluations per set, on the path k_perp = omega + i u, where
nothing oscillates (`greens.numeric_greens`); each theta = -pi trace is
the theta = pi tensor of its medium read with the sigma- dipole.
The two pure-axion traces (eps = 1) and the mirror sets have
k_par-independent reflection and take closed forms, in milliseconds.

`--tight FACTOR` multiplies rel_tol by FACTOR, which must be positive and
finite; any other value is a usage error, before any figure runs.
"""
import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cpshift.quadrature import DEFAULT_CONFIG
from cpshift.scan import FIGURE_NAMES, figure


def factor(text: str) -> float:
    """--tight's FACTOR: a positive, finite number, or a usage error."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"FACTOR must be positive and finite, got {text}")
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", nargs="?", default="figures", type=Path)
    ap.add_argument("--only", choices=FIGURE_NAMES, default=None,
                    help="regenerate a single figure dataset")
    ap.add_argument("--tight", type=factor, default=None, metavar="FACTOR",
                    help="multiply rel_tol, the one accuracy setting, by FACTOR "
                         "(e.g. 0.1)")
    args = ap.parse_args()

    qcfg = None if args.tight is None else DEFAULT_CONFIG.tighter(args.tight)
    names = [args.only] if args.only else list(FIGURE_NAMES)
    args.outdir.mkdir(parents=True, exist_ok=True)

    for name in names:
        t0 = time.perf_counter()
        outputs = figure(name, args.outdir, qcfg=qcfg)
        dt = time.perf_counter() - t0
        manifest = json.loads((args.outdir / f"{name}.manifest.json").read_text())
        print(f"{name:14s} {dt * 1e3:8.1f} ms  {manifest['neval']:9,d} evaluations  "
              f"{len(outputs)} files")
        for fn in outputs:
            print(f"    {args.outdir / fn}")


if __name__ == "__main__":
    main()
