"""cpshift benchmark: one workload, one run.

    python3 perfbench/run.py --workload nres_axion --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Workloads, metrics and bounds are listed in BENCHMARK.json.

Set-up is timed SETUP_REPEATS times: from starting a fresh interpreter to
its `ready` line, after `import cpshift` and building the inputs; the last
of these interpreters is the worker that then measures the workload (see
worker.py).  solve_s and cpu_s are taken relative to the speed probes run
around every operation and given at the probe's reference speed (see
probe.py).  With --trace 0 the end-to-end metrics are printed, with
--trace 1 the per-layer ones.  A table goes first; the last line is one
JSON object {"correct", "attempted", "failed", "metrics"}.

The benchmark drives the program from one thread; the program's own scan
pool gets CPSHIFT_THREADS = nproc, its default on a machine whose CPU
affinity is not restricted.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nres_axion", "ti_traces", "mirror_scan")
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(description="Run one cpshift benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


class BenchError(RuntimeError):
    pass


def _start(args, env, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    setup = time.perf_counter() - t0
    if line != "ready":
        _stop(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def _git_commit():
    try:
        # the ceiling keeps git from searching directories above the checkout
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cpshift").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _at_reference_speed(ops: list, probes: list) -> float:
    """Time of one pass at the probe's reference speed (see probe.py).

    `ops[k][i]` is operation i's time in untraced pass k, and `probes[k][i]`
    and `probes[k][i + 1]` are the probes on either side of it.  Each
    operation's time over its probes' mean is a median over the passes,
    and the medians are summed and scaled to REFERENCE_S.
    """
    per_op = zip(*[[t / ((p[i] + p[i + 1]) / 2) for i, t in enumerate(times)]
                   for times, p in zip(ops, probes)])
    return REFERENCE_S * sum(statistics.median(ratios) for ratios in per_op)


def run(args) -> dict:
    if not (ROOT / "src" / "cpshift" / "__init__.py").is_file():
        raise BenchError(f"no cpshift sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, CPSHIFT_THREADS=str(nproc),
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, setup = _start(args, env, setup_only=True)
        _finish(proc, deadline)
        setups.append(setup)
    proc, setup = _start(args, env, setup_only=False)
    setups.append(setup)
    worker = json.loads(_finish(proc, deadline).strip().splitlines()[-1])

    if args.trace:
        values, specs = worker["layers"], spec["per_layer"]
    else:
        values = {"solve_s": _at_reference_speed(worker["op_wall_s"], worker["probe_wall_s"]),
                  "cpu_s": _at_reference_speed(worker["op_cpu_s"], worker["probe_cpu_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    env_record = dict(worker["env"], nproc=nproc, seed=args.seed,
                      workload=args.workload, seconds=args.seconds,
                      trace=args.trace, os=platform.platform(),
                      git_commit=_git_commit(), src_sha256=_src_digest())
    return {"worker": worker, "setup_s": setups, "env": env_record,
            "metrics": metrics,
            "correct": worker["failed"] == 0 and worker["counts_repeat"]}


def _report(args, rec: dict):
    w = rec["worker"]
    print(f"env {json.dumps(rec['env'], sort_keys=True)}")
    print(f"inputs {json.dumps(w['inputs'])}")
    print(f"{args.workload}: {w['passes']} passes in a closed loop, one caller")
    for name, m in rec["metrics"].items():
        value = m["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:34s} {shown} {m['unit']}")
    share = w["failed"] / w["attempted"]
    print(f"  {'fail_share':34s} {share:>14.6g} share "
          f"({w['failed']} of {w['attempted']} operations)")
    if not args.trace:
        print(f"  measured pass times: wall {w['solve_s']}  cpu {w['cpu_s']}")
        print(f"  speed probes, wall (s): {w['probe_wall_s']}")
        print(f"  setup_s samples: {rec['setup_s']}")
    print(f"  steal per pass, all CPUs (s): {w['steal_s']}")
    print(f"  neval per pass (NonresonantTerms): {w['neval']}  "
          f"counts repeat across passes: {w['counts_repeat']}")
    for problem in w["problems"]:
        print(f"  FAIL {problem}")
    out = ROOT / ".bench_run" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": rec["correct"], "attempted": w["attempted"],
                      "failed": w["failed"], "metrics": rec["metrics"]}))


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        rec = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _report(args, rec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
