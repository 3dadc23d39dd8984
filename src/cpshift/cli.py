"""Command-line entry point.

Subcommands:
    scan   --config FILE --out DIR      run a configured distance scan
    figure NAME --out DIR               emit the data traces of one figure
    rates  --medium M --zeta Z [...]    one-point rate query (CSV to stdout)
    shift  --medium M --zeta Z [...]    one-point shift query (CSV to stdout)

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import sys

from .atomics import decay_rate, nonresonant_shift_terms, resonant_shift
from .config import ConfigError, build_medium, parse_config, _parse_angle
from .constants import SCALED
from .media import PoleError
from .quadrature import QuadratureError
from .scan import FIGURE_NAMES, ScanError, figure, run_scan
from .units import canonical_transition, free_space_rate_formula
from .version import __version__

__all__ = ["main", "build_parser"]


def _angle(text: str) -> float:
    # shares the config-file syntax, e.g. `--theta 1.0pi`
    return _parse_angle(text, "theta", 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpshift",
        description="Decay rates and Casimir-Polder shifts of circularly "
                    "polarized atoms above reciprocal and nonreciprocal "
                    "planar media (scaled units).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="run a distance scan from a config file")
    p_scan.add_argument("--config", required=True, help="key = value config file")
    p_scan.add_argument("--out", required=True, help="output directory")

    p_fig = sub.add_parser("figure", help="emit the data traces of one figure")
    p_fig.add_argument("name", choices=FIGURE_NAMES)
    p_fig.add_argument("--out", required=True, help="output directory")

    for cmd, help_text in (("rates", "body-induced decay rate at one point"),
                           ("shift", "resonant and nonresonant shift at one point")):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--medium", required=True,
                       choices=("perfect_conductor", "nonreciprocal_mirror", "axion"))
        p.add_argument("--zeta", required=True, type=float,
                       help="scaled distance w z / c")
        p.add_argument("--epsilon", type=float, default=1.0)
        p.add_argument("--mu", type=float, default=1.0,
                       help="permeability; the model is nonmagnetic, so only 1")
        p.add_argument("--theta", type=_angle, default=math.pi,
                       help="axion angle, radians or pi-multiples like 1.0pi")
        p.add_argument("--sign", type=float, default=-1.0,
                       choices=(-1.0, 1.0), help="mirror cross-reflection sign")
        p.add_argument("--handedness", choices=("plus", "minus"), default="plus")
    return parser


def _single_point(args) -> int:
    if not (math.isfinite(args.zeta) and args.zeta > 0):
        raise ConfigError(f"--zeta must be positive and finite, got {args.zeta}")
    medium = build_medium(args.medium, args.epsilon, args.mu, args.theta, args.sign)
    transition = canonical_transition(args.handedness)
    gamma0 = free_space_rate_formula(transition, SCALED)
    z = args.zeta * SCALED.c / transition.frequency
    if args.command == "rates":
        value = decay_rate(transition, z, medium) / gamma0
        print("zeta,gamma_ratio")
        print(f"{args.zeta:.11e},{value:.11e}")
    else:
        res = resonant_shift(transition, z, medium) / gamma0
        nres = nonresonant_shift_terms(transition, z, medium).total / gamma0
        print("zeta,shift_res_ratio,shift_nres_ratio")
        print(f"{args.zeta:.11e},{res:.11e},{nres:.11e}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the config-error code
        return 0 if exc.code == 0 else 1

    try:
        if args.command == "scan":
            cfg = parse_config(args.config)
            run_scan(cfg, args.out)
            return 0
        if args.command == "figure":
            figure(args.name, args.out)
            return 0
        return _single_point(args)
    except ConfigError as exc:
        print(f"cpshift: config error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, PoleError, ScanError) as exc:
        print(f"cpshift: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cpshift: i/o failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
