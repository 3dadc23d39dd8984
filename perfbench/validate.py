"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/validate.py [--out perfbench/baseline/BENCH_1.json]
                                  [--compare an-earlier-out-file.json]

For every workload in BENCHMARK.json it runs run.py once per seed in SEEDS
with --trace 0, then prints for each end-to-end metric the median and the
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound.  It adds one traced run per workload, with seed TRACE_SEED.  --out
writes all values as JSON.  --compare reads an earlier --out file and
reports how far each median moved from it; a move to the worse side beyond
the metric's bound fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr[-3000:]}")
    lines = res.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    return {"result": json.loads(lines[-1]), "env": env}


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None)
    p.add_argument("--compare", default=None, help="an earlier --out file")
    args = p.parse_args(argv)
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"seeds": SEEDS, "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        metric_values = {m["name"]: [] for m in spec["end_to_end"]}
        correct = []
        for seed in SEEDS:
            t0 = time.monotonic()
            run = _run(name, seed, spec["run_seconds"], 0)
            report.setdefault("env", {k: v for k, v in run["env"].items()
                                      if k not in ("seed", "workload", "trace")})
            res = run["result"]
            correct.append(res["correct"])
            for key in metric_values:
                metric_values[key].append(res["metrics"][key]["value"])
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v[-1]:.4f}" for k, v in metric_values.items())
                  + f" ({time.monotonic() - t0:.0f} s)", flush=True)
        entry = {"correct": all(correct), "end_to_end": {}}
        for m in spec["end_to_end"]:
            s = summarize(metric_values[m["name"]])
            entry["end_to_end"][m["name"]] = dict(s, unit=m["unit"], bound=m["bound"])
            steady = s["spread"] < m["bound"] / 3
            ok &= all(correct) and (steady or m["name"] == "setup_s")
            print(f"  {name} {m['name']}: median {s['median']:.4f} {m['unit']}, "
                  f"spread {s['spread']:.4f} (bound {m['bound']}, "
                  f"{'below' if steady else 'NOT below'} a third)", flush=True)
            if earlier is not None:
                before = earlier["workloads"][name]["end_to_end"][m["name"]]["median"]
                worse = s["median"] / before - 1.0
                if m["better"] == "higher":
                    worse = -worse
                ok &= worse <= m["bound"]
                print(f"    median {before:.4f} -> {s['median']:.4f}: "
                      f"{worse:+.4f} worse (bound {m['bound']})", flush=True)
        traced = _run(name, TRACE_SEED, spec["run_seconds"], 1)["result"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_correct"] = traced["correct"]
        ok &= traced["correct"]
        report["workloads"][name] = entry
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
