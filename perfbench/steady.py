#!/usr/bin/env python3
"""Steadiness mode of the dpg benchmark.

    python3 perfbench/steady.py --runs 10 [--seconds S] [--workloads a,b]

Runs `perfbench/run.py` N times per workload with seeds 1..N, and
prints every end-to-end metric's median, quartiles and
quartile spread (Q3 - Q1) / median next to the metric's bound in
BENCHMARK.json, plus the share of failed operations. A spread above a
third of its bound is flagged: the bounds are set from this output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"steady: {' '.join(cmd)} exited {p.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            r = one_run(workload, seed, args.seconds, 0)
            runs.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {args.runs} runs, all correct={all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':<14} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} "
              f"{'bound':>6}")
        for name in bounds:
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
            flag = "" if sp < bounds[name] / 3 else "  <-- above bound/3"
            flagged += bool(flag)
            print(f"  {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>8.4f} "
                  f"{bounds[name]:>6}{flag}")
        print(flush=True)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
