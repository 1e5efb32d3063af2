"""Benchmark for the mmbus switch: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: xfer_mem (funded transfers in memory), adversity (faults,
crashes and designed failures in memory, then the fault matrix
file-backed with an fsync per journal record), live_tcp (the switch
served over loopback TCP). The last line of standard output is one JSON
object: whether every check held, how many operations were attempted and
failed, and the metrics: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1.
Run from the root of a checkout; the program is imported from its src/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import tracing
from common import OUT, NoProgram, metric, peak_rss_mb, use_checkout_program, write_json

WORKLOADS = ("xfer_mem", "adversity", "live_tcp")
END_TO_END = {
    "sagas_per_s": "1/s",
    "setup_s": "s",
    "audit_s": "s",
    "ack_p50_ms": "ms",
    "result_p50_ms": "ms",
    "result_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def spans_path(workload: str, seed: int) -> str:
    return os.path.join(OUT, "spans", f"{workload}-seed{seed}.ndjson")


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    tracer = None
    try:
        # the workload modules import mmbus, so they load once its path is set
        if workload == "live_tcp":
            import livetcp

            out = livetcp.run(seed, seconds, work_dir, trace, spans_path(workload, seed))
        else:
            import simrun

            tracer = tracing.install() if trace else None
            out = simrun.run(workload, seed, seconds, work_dir, tracer)
            out["peak_rss_mb"] = peak_rss_mb()
            if tracer is not None:
                out["layers"] = tracing.per_layer(tracer.summary(), out["sagas"], out["layers"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    verdict = out["verdict"]
    for note in verdict.notes[:20]:
        print(f"check: {note}", file=sys.stderr)
    if trace:
        metrics = {name: metric(out["layers"][name], unit) for name, unit in tracing.PER_LAYER.items()}
        if tracer is not None:
            tracer.write(spans_path(workload, seed))
        print(f"tracing: sagas_per_s {out['sagas_per_s']:.1f} with spans on", file=sys.stderr)
    else:
        metrics = {name: metric(out[name], unit) for name, unit in END_TO_END.items()}
    return {"correct": verdict.global_ok, "attempted": verdict.attempted, "failed": verdict.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_program()
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    write_json(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
