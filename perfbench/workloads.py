"""The benchmark's three workloads.

Each workload is a closed loop with one caller.  Its inputs come from the
seed alone; `operations` lists the calls into the public API that make up
the workload's fixed work (one pass), and `check` compares what a pass
produced with the stored reference (see make_reference.py).

nres_axion  -- atomics.nonresonant_shift_terms for sigma+ above
               AxionMedium(epsilon=16, theta=pi) at 8 zeta, one drawn
               log-uniformly from each eighth of log10 zeta in [-2, 1].
               Stratifying keeps the pass cost nearly seed-independent.
ti_traces   -- cli.main(["scan", ...]) for three axion resonant-shift
               traces of the paper's omega_ti figure, on its preset grid
               (so the seed has no effect), each scanned as 4 windows of
               100 points.
mirror_scan -- cli.main(["scan", ...]) for perfect_conductor and
               nonreciprocal_mirror, all three quantities on a 2,000-point
               log grid spanning three decades, scanned as 4 consecutive
               windows of 500 points.  The seed picks where the grid starts
               on a fixed master grid, so every grid the seed can produce
               has a stored reference.
"""
from __future__ import annotations

import gzip
import json
import math
import random
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

import gate

WORKLOADS = ("nres_axion", "ti_traces", "mirror_scan")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

NRES_LOG10_RANGE = (-2.0, 1.0)
NRES_STRATA = 8
NRES_PER_STRATUM = 8

MIRROR_MEDIA = ("perfect_conductor", "nonreciprocal_mirror")
MIRROR_COUNT = 2000
MIRROR_PARTS = 8  # one cli call per part, with speed probes in between
MIRROR_PART = MIRROR_COUNT // MIRROR_PARTS
MIRROR_OFFSETS = 256
MIRROR_START = 0.01
MIRROR_DECADES = 3.0

# the omega_ti figure's grid (linear, zeta 0.05 to 8, 400 points) and
# three of the axion media it is drawn for: trace name -> (epsilon, theta)
TI_GRID = np.linspace(0.05, 8.0, 400)
TI_TRACES = {"omega_ti_pure_axion_theta_pi": (1.0, math.pi),
             "omega_ti_pure_axion_theta_minus_pi": (1.0, -math.pi),
             "omega_ti_eps16_theta_pi": (16.0, math.pi)}
TI_PARTS = 8  # one cli call per part, with speed probes in between
TI_PART = len(TI_GRID) // TI_PARTS


def nres_pool() -> list:
    """Candidate zeta values, NRES_PER_STRATUM per stratum, in stratum order."""
    lo, hi = NRES_LOG10_RANGE
    width = (hi - lo) / NRES_STRATA
    return [10.0 ** (lo + width * (s + (k + 0.5) / NRES_PER_STRATUM))
            for s in range(NRES_STRATA) for k in range(NRES_PER_STRATUM)]


def nres_choice(seed: int) -> list:
    """Indices into nres_pool(): one candidate per stratum."""
    rng = random.Random(seed)
    return [s * NRES_PER_STRATUM + rng.randrange(NRES_PER_STRATUM)
            for s in range(NRES_STRATA)]


def mirror_master() -> np.ndarray:
    """The master log grid every mirror_scan grid is a window of."""
    n = np.arange(MIRROR_COUNT + MIRROR_OFFSETS - 1)
    return MIRROR_START * 10.0 ** (MIRROR_DECADES * n / (MIRROR_COUNT - 1))


def mirror_choice(seed: int) -> dict:
    """Medium -> start index of its scan window on the master grid."""
    rng = random.Random(seed)
    return {m: rng.randrange(MIRROR_OFFSETS) for m in MIRROR_MEDIA}


def mirror_config_text(medium: str, zeta_min: float, zeta_max: float) -> str:
    return (f"medium = {medium}\nzeta_min = {zeta_min!r}\n"
            f"zeta_max = {zeta_max!r}\ncount = {MIRROR_PART}\n"
            f"spacing = log\nname = {medium}\n")


def ti_config_text(trace: str, zeta_min: float, zeta_max: float, count: int) -> str:
    epsilon, theta = TI_TRACES[trace]
    return (f"medium = axion\nepsilon = {epsilon!r}\ntheta = {theta!r}\n"
            f"quantities = resonant_shift\nzeta_min = {zeta_min!r}\n"
            f"zeta_max = {zeta_max!r}\ncount = {count}\nspacing = linear\n"
            f"name = {trace}\n")


def _failure(label: str, exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{label}: {type(exc).__name__}: {exc}"


def _tally(per_op: list) -> tuple:
    """(attempted, failed, problems) from each operation's problem list."""
    return (len(per_op), sum(1 for found in per_op if found),
            [p for found in per_op for p in found])


class NresAxion:
    name = "nres_axion"

    def __init__(self, seed: int, workdir: Path):
        from cpshift import SCALED, AxionMedium, atomics, canonical_transition
        self._atomics = atomics
        self.transition = canonical_transition("plus")
        self.medium = AxionMedium(epsilon=16.0, theta=math.pi)
        pool = nres_pool()
        self.indices = nres_choice(seed)
        self.heights = [pool[i] * SCALED.c / self.transition.frequency
                        for i in self.indices]
        self.inputs = {"zeta": [pool[i] for i in self.indices]}

    def operations(self, pass_dir: Path) -> list:
        # looked up per call so a traced pass sees the wrapped function
        return [lambda z=z: self._atomics.nonresonant_shift_terms(
            self.transition, z, self.medium) for z in self.heights]

    def check(self, results: list, reference: dict, pass_dir: Path) -> tuple:
        per_op = []
        for i, res in zip(self.indices, results):
            zeta, ref_im, ref_re = reference["points"][i]
            label = f"zeta={zeta:.6g}"
            if isinstance(res, Exception):
                per_op.append([_failure(label, res)])
            else:
                per_op.append(gate.check_terms(res.im_term, res.re_term,
                                               ref_im, ref_re, label))
        return _tally(per_op)

    @staticmethod
    def neval(results: list):
        """Evaluations reported by the NonresonantTerms of one pass."""
        return sum(r.neval for r in results if not isinstance(r, Exception))

    def load_reference(self) -> dict:
        ref = json.loads((REFERENCE_DIR / "nres_axion.json").read_text())
        pool = nres_pool()
        stored = [p[0] for p in ref["points"]]
        if len(stored) != len(pool) or max(
                abs(a / b - 1.0) for a, b in zip(stored, pool)) > 1e-15:
            raise ValueError("nres_axion reference does not match the zeta pool")
        return ref


class _CliWorkload:
    """A workload made of cpshift.cli.main calls that write CSV files."""

    calls: list  # (label, argv without --out, expected CSV names)

    def __init__(self):
        import cpshift.cli
        self._cli = cpshift.cli

    def operations(self, pass_dir: Path) -> list:
        return [lambda argv=argv + ["--out", str(pass_dir / label)]: self._cli.main(argv)
                for label, argv, _ in self.calls]

    def check(self, results: list, reference: dict, pass_dir: Path) -> tuple:
        per_op = []
        for (label, _, names), res in zip(self.calls, results):
            if isinstance(res, Exception):
                per_op.append([_failure(label, res)])
            elif res != 0:
                per_op.append([f"{label}: cli.main exited {res}"])
            else:
                per_op.append([p for name in names for p in gate.check_csv(
                    pass_dir / label / name, reference[label][name])])
        return _tally(per_op)

    @staticmethod
    def neval(results: list):
        return None  # the CLI returns no result objects; see the traced run


class TiTraces(_CliWorkload):
    name = "ti_traces"

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.calls = []
        for trace in TI_TRACES:
            for first in range(0, len(TI_GRID), TI_PART):
                label = f"{trace}-{first}"
                path = workdir / f"{label}.cfg"
                path.write_text(ti_config_text(
                    trace, float(TI_GRID[first]), float(TI_GRID[first + TI_PART - 1]),
                    TI_PART), encoding="utf-8")
                self.calls.append((label, ["scan", "--config", str(path)], [f"{trace}.csv"]))
        self.inputs = {"traces": list(TI_TRACES), "zeta": [0.05, 8.0, len(TI_GRID)]}

    def load_reference(self) -> dict:
        out = {}
        for trace in TI_TRACES:
            table = gate.read_csv(REFERENCE_DIR / "ti_traces" / f"{trace}.csv")
            for first in range(0, len(TI_GRID), TI_PART):
                out[f"{trace}-{first}"] = {f"{trace}.csv": {
                    k: v[first:first + TI_PART] for k, v in table.items()}}
        return out


class MirrorScan(_CliWorkload):
    name = "mirror_scan"

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        master = mirror_master()
        self.offsets = mirror_choice(seed)
        self.calls = []
        self.inputs = {}
        for medium, j in self.offsets.items():
            for first in range(j, j + MIRROR_COUNT, MIRROR_PART):
                lo, hi = float(master[first]), float(master[first + MIRROR_PART - 1])
                label = f"{medium}-{first - j}"
                path = workdir / f"{label}.cfg"
                path.write_text(mirror_config_text(medium, lo, hi), encoding="utf-8")
                self.calls.append((label, ["scan", "--config", str(path)],
                                   [f"{medium}.csv"]))
            self.inputs[medium] = {"offset": j, "zeta_min": float(master[j]),
                                   "zeta_max": float(master[j + MIRROR_COUNT - 1])}

    def load_reference(self) -> dict:
        with gzip.open(REFERENCE_DIR / "mirror_scan.json.gz", "rt") as fh:
            ref = json.load(fh)
        out = {}
        for medium, j in self.offsets.items():
            columns = ref["media"][medium]
            for first in range(j, j + MIRROR_COUNT, MIRROR_PART):
                window = slice(first, first + MIRROR_PART)
                out[f"{medium}-{first - j}"] = {
                    f"{medium}.csv": {k: np.asarray(v[window]) for k, v in columns.items()}}
        return out


def make(name: str, seed: int, workdir: Path):
    """Build a workload's inputs (the part of set-up after the import)."""
    workdir.mkdir(parents=True, exist_ok=True)
    cls = {"nres_axion": NresAxion, "ti_traces": TiTraces,
           "mirror_scan": MirrorScan}[name]
    return cls(seed, workdir)


def clear(path: Path):
    shutil.rmtree(path, ignore_errors=True)
