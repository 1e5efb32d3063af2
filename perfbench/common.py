"""Paths, the program's import, and the statistics every workload reports."""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")


class NoProgram(Exception):
    pass


def use_checkout_program() -> None:
    """Import mmbus from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mmbus", "__init__.py")):
        raise NoProgram(f"no mmbus sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mmbus

    if not os.path.abspath(mmbus.__file__).startswith(SRC + os.sep):
        raise NoProgram(f"mmbus imported from {mmbus.__file__}, not {SRC}")


def median(xs: list[float]) -> float:
    return statistics.median(xs)


def p95(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=20)[18]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
