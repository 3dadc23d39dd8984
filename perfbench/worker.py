"""One benchmark run of one workload, in a fresh interpreter.

run.py starts this with PYTHONPATH pointing at the checkout's src/ and
CPSHIFT_THREADS pinned.  The worker imports cpshift, builds the workload's
inputs from the seed and prints `ready`; run.py times set-up up to that
line.  With --setup-only it stops there.  Otherwise it repeats the
workload's fixed work (one pass) until --seconds are used, at least
MIN_PASSES times, checks every pass's outputs against the reference, and
prints one JSON line with the samples: per pass, the wall and CPU time of
each operation and of the speed probes around it (see probe.py).

With --trace 1 the passes alternate untraced and traced, so one run gives
the per-layer numbers and the tracing overhead.  A traced run makes at
least MIN_TRACED_PASSES passes, so at least two of them are traced and the
exact per-layer counts can be compared between them.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs the path entry above)
from probe import speed_probe  # noqa: E402

MIN_PASSES = 2
TIMING_KEYS = ("op_wall_s", "op_cpu_s", "probe_wall_s", "probe_cpu_s")
MIN_TRACED_PASSES = 4
MAX_PROBLEMS = 20
# per-layer metrics that are exact counts and must repeat pass to pass
_COUNT_SUFFIXES = (".calls", ".nodes", ".rounds", ".neval", ".points", ".spans")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    import cpshift
    expected = (ROOT / "src" / "cpshift").resolve()
    if Path(cpshift.__file__).resolve().parent != expected:
        print(f"perfbench: imported cpshift from {cpshift.__file__}, "
              f"not from {expected}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = _measure(wl, args, workdir)
    finally:
        workloads.clear(workdir)
    print(json.dumps(result), flush=True)
    return 0


def _measure(wl, args, workdir: Path) -> dict:
    import cpshift
    import numpy
    import scipy
    from tracer import Tracer, layer_metrics
    reference = wl.load_reference()
    tracer = Tracer() if args.trace else None
    pass_dir = workdir / "pass"
    walls = {False: [], True: []}
    cpus = []
    samples = {key: [] for key in TIMING_KEYS}
    steals = []
    layers = []
    nevals = []
    attempted = failed = 0
    problems = []
    last_spans = []
    min_passes = MIN_TRACED_PASSES if tracer is not None else MIN_PASSES
    speed_probe()  # the first call after start-up runs slow
    start = time.perf_counter()
    last = 0.0
    k = 0
    while k < min_passes or time.perf_counter() - start + last <= args.seconds:
        traced = tracer is not None and k % 2 == 1
        workloads.clear(pass_dir)
        p0 = time.perf_counter()
        with tracer.patched() if traced else contextlib.nullcontext():
            s0 = _steal_s()
            results, timing = _run_pass(wl.operations(pass_dir))
            s1 = _steal_s()
        steals.append(None if s0 is None or s1 is None else s1 - s0)
        if traced:
            last_spans = tracer.take()
            layers.append(layer_metrics(last_spans))
        else:
            cpus.append(sum(timing["op_cpu_s"]))
            for key, values in timing.items():
                samples[key].append(values)
        walls[traced].append(sum(timing["op_wall_s"]))
        n, bad, found = wl.check(results, reference, pass_dir)
        attempted += n
        failed += bad
        problems += found
        nevals.append(wl.neval(results))
        last = time.perf_counter() - p0
        k += 1
    workloads.clear(pass_dir)

    count_problems = _count_problems(nevals, layers)
    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": (problems + count_problems)[:MAX_PROBLEMS],
        "counts_repeat": not count_problems,
        "passes": k,
        "solve_s": walls[False],
        "cpu_s": cpus,
        **samples,
        "steal_s": steals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "neval": nevals[0],
        "inputs": wl.inputs,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "cpshift": cpshift.__version__,
                "CPSHIFT_THREADS": os.environ.get("CPSHIFT_THREADS")},
    }
    if tracer is not None:
        traced_s, untraced_s = statistics.fmean(walls[True]), statistics.fmean(walls[False])
        out["layers"] = dict(_combine_layers(layers), **{
            "trace.solve_s": traced_s, "trace.untraced_solve_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s})
        path = ROOT / ".bench_run" / "traces" / f"{wl.name}-seed{args.seed}.spans.jsonl.gz"
        tracer.write(path, last_spans)
        out["spans_file"] = str(path.relative_to(ROOT))
    return out


def _run_pass(operations: list) -> tuple:
    """Run one pass with a speed probe before each operation and after the
    last.  Returns each operation's result, or the exception it raised,
    and the wall and CPU times of the operations and of the probes."""
    results = []
    timing = {key: [] for key in TIMING_KEYS}

    def probe():
        wall, cpu = speed_probe()
        timing["probe_wall_s"].append(wall)
        timing["probe_cpu_s"].append(cpu)

    probe()
    for op in operations:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            results.append(op())
        except Exception as exc:  # counted as a failed operation
            results.append(exc)
        timing["op_wall_s"].append(time.perf_counter() - w0)
        timing["op_cpu_s"].append(time.process_time() - c0)
        probe()
    return results, timing


def _steal_s():
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs (/proc/stat), or None where that is not available.
    It explains wall time that no code change caused."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _count_problems(nevals: list, layers: list) -> list:
    """Exact counts must repeat across passes, traced or not."""
    found = []
    if len(layers) == 1:
        found.append("only one traced pass, so its counts were not compared")
    if len(set(map(str, nevals))) > 1:
        found.append(f"neval differs between passes: {nevals}")
    for key in layers[0] if layers else ():
        if key.endswith(_COUNT_SUFFIXES):
            seen = {layer[key] for layer in layers}
            if len(seen) > 1:
                found.append(f"{key} differs between traced passes: {sorted(seen)}")
    if layers and nevals[0] is not None:
        traced = layers[0]["atomics.nonresonant.neval"]
        if traced != nevals[0]:
            found.append(f"traced neval {traced} != untraced neval {nevals[0]}")
    return found


def _combine_layers(layers: list) -> dict:
    """Counts from the first traced pass, times as the mean over them."""
    out = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        out[key] = values[0] if key.endswith(_COUNT_SUFFIXES) else statistics.fmean(values)
    return out


if __name__ == "__main__":
    sys.exit(main())
