"""Every artifact `mmbus run --out` writes, pinned by sha256.

`artifact_digests.json` holds one digest per file written for each
scenario file, each cell of the fault-matrix file, and each
crash-during-recovery cell. `perf.json` and `matrix.json` carry wall-clock
times and are left out. A change that means to alter artifacts
regenerates the digests with

    PYTHONPATH=src python tests/test_artifacts.py

and says in CHANGES.md which files changed and why.
"""
from __future__ import annotations

import hashlib
import json
import os

from conftest import CRASH_TWICE_CMDS, SCENARIO_DIR, crash_twice_cell
from mmbus.cli import main
from mmbus.harness import run_scenario

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifact_digests.json")
UNPINNED = {"perf.json", "matrix.json"}


def write_runs(out_root: str) -> None:
    for fname in sorted(os.listdir(SCENARIO_DIR)):
        out = os.path.join(out_root, fname[: -len(".json")])
        main(["run", "--scenario", os.path.join(SCENARIO_DIR, fname), "--out", out])
    for cmd_type in CRASH_TWICE_CMDS:
        for torn_tail in (False, True):
            out = os.path.join(out_root, "crash_twice", f"{cmd_type}_{'torn' if torn_tail else 'untorn'}")
            run_scenario(crash_twice_cell(cmd_type, torn_tail), out_dir=out)


def digests(out_root: str) -> dict[str, str]:
    """sha256 of every pinned file under out_root, by its path relative to it."""
    found = {}
    for root, _, files in os.walk(out_root):
        for fname in files:
            if fname in UNPINNED:
                continue
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_root).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def test_artifacts_match_pinned_digests(tmp_path):
    write_runs(str(tmp_path))
    got = digests(str(tmp_path))
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    differ = sorted(name for name in pinned.keys() | got.keys() if pinned.get(name) != got.get(name))
    assert not differ, f"{len(differ)} of {len(pinned)} pinned artifacts differ:\n" + "\n".join(differ)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as out_root:
        write_runs(out_root)
        pinned = digests(out_root)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{DIGESTS}: {len(pinned)} files")
