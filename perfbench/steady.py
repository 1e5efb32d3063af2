"""Steadiness check: run each workload repeatedly and summarise every metric.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--first-seed 1] [--workloads a,b]

Each run is `perfbench/run.py` with its own seed. For each workload and
end-to-end metric it prints the median, the first and third quartiles
(`statistics.quantiles(n=4)`), the spread (Q3 - Q1) / median, and the
metric's bound from BENCHMARK.json with the spread as a share of it. It
also prints the share of failed operations of every run, which must not
vary. The numbers are saved to perfbench_out/steady/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import OUT, ROOT, write_json


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(f"{workload} seed={seed} {took:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        rows = {}
        print(f"\n{workload}: failed share per run {shares}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'of bound':>8s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name, float("nan"))
            rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            print(f"  {name:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f} {spread / bound:8.2f}")
        summary[workload] = {"failed_shares": shares, "correct": all(r["correct"] for r in results), "metrics": rows}
        print()
    write_json(os.path.join(OUT, "steady", f"steady-{int(time.time())}.json"), summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
