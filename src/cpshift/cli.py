"""Command-line entry point.

Subcommands:
    scan   --config FILE --out DIR      run a configured distance scan
    figure NAME --out DIR               emit the data traces of one figure
    rates  --medium M --zeta Z [...]    one-point rate query (CSV to stdout)
    shift  --medium M --zeta Z [...]    one-point shift query (CSV to stdout)

Exit codes: 0 success, 1 configuration error, 2 numerical failure.

`main` builds its argument parser once per process and reuses it: building
one costs about a millisecond, more than a closed-form scan window, while
parsing returns a fresh namespace each call, so no value carries over from
one call to the next.  `build_parser` itself builds a new parser each time.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .config import (ConfigError, MEDIUM_KINDS, MEDIUM_PARAMETERS, QUANTITY_COLUMNS,
                     _ANGLES, _check_zeta, build_medium, parse_config, parse_value)
from .quadrature import DEFAULT_CONFIG
from .scan import FIGURE_NAMES, ScanError, _format_csv, _scan_values, figure, run_scan
from .units import canonical_transition
from .version import __version__

__all__ = ["main", "build_parser"]


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
        p.add_argument("--medium", required=True, choices=tuple(MEDIUM_KINDS))
        p.add_argument("--zeta", required=True, type=float,
                       help="scaled distance w z / c")
        # values in the config-file syntax, e.g. `--theta 1.0pi`
        for name, kind in MEDIUM_PARAMETERS.items():
            note = "; radians or a pi-multiple" if name in _ANGLES else ""
            default = getattr(MEDIUM_KINDS[kind], name)
            p.add_argument(f"--{name}", help=f"{kind} parameter (default {default:g}){note}")
        p.add_argument("--handedness", choices=("plus", "minus"), default="plus")
    return parser


def _single_point(args) -> int:
    _check_zeta("--zeta", args.zeta)
    medium = build_medium(args.medium, **{
        name: parse_value(name, getattr(args, name))
        for name in MEDIUM_PARAMETERS if getattr(args, name) is not None})
    quantities = (("rate",) if args.command == "rates"
                  else ("resonant_shift", "nonresonant_shift"))
    zetas = np.array([args.zeta])
    [(values, _, _)] = _scan_values(zetas, medium, (canonical_transition(args.handedness),),
                                    quantities, DEFAULT_CONFIG)
    print(_format_csv([QUANTITY_COLUMNS[q] for q in quantities], zetas, values), end="")
    return 0


def _attach_medium_values(argv) -> list:
    """`--theta -1.0pi` as `--theta=-1.0pi`: argparse reads a separate token
    that starts with '-' as an option unless it is a plain negative number,
    so `-1.0pi` and `-1e-3` would leave the flag without its value."""
    flags = {f"--{name}" for name in MEDIUM_PARAMETERS}
    out = []
    for token in argv:
        if out and out[-1] in flags and token.startswith("-"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(
            _attach_medium_values(sys.argv[1:] if argv is None else argv))
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
    except ScanError as exc:
        print(f"cpshift: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cpshift: i/o failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
