"""Command line entry points: run, verify, replay, serve."""
from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (
    InvalidScenario,
    RunError,
    load_scenario,
    replay_journal,
    run_matrix,
    run_scenario,
    scenario_from_obj,
    verify_run,
)


class UsageError(Exception):
    pass


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.scenario, encoding="utf-8") as fh:
        obj = json.load(fh)
    name = os.path.splitext(os.path.basename(args.scenario))[0]
    if "cells" in obj:
        result = run_matrix(obj, name, seed=args.seed, out_dir=args.out)
        for cell in result["cells"]:
            mark = "ok" if cell["conservation_ok"] and cell["holds_outstanding"] == 0 else "BAD"
            print(f"  [{mark}] {cell['cell']}: states={cell['saga_states']} crashes={cell['crashes']}")
        print(f"matrix {name}: {len(result['cells'])} cells in {result['wall_seconds']:.2f}s ok={result['ok']}")
        if args.out:
            with open(os.path.join(args.out, "matrix.json"), "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 0 if result["ok"] else 1

    scenario = scenario_from_obj(obj, name)
    report, _ = run_scenario(scenario, seed=args.seed, out_dir=args.out)
    ok = report["conservation"]["ok"] and report["holds_outstanding"] == 0
    expected = scenario.expected.get("sagas", {})
    if expected:
        by_ref = {s["client_ref"]: s["state"] for s in report["sagas"]}
        for ref, want in sorted(expected.items()):
            got = by_ref.get(ref)
            if got != want:
                print(f"  expected {ref} -> {want}, got {got}")
                ok = False
    print(f"scenario {report['scenario']} seed={report['seed']} final_tick={report['final_tick']}")
    print(f"  sagas: {report['saga_states'] or '{}'}")
    print(f"  conservation: {report['conservation']}")
    print(f"  holds_outstanding: {report['holds_outstanding']} crashes: {len(report['recovery'])}")
    if args.out:
        print(f"  artifacts: {args.out}")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    ledgers_dir = args.ledgers or os.path.join(os.path.dirname(args.report), "ledgers")
    checks = verify_run(args.report, ledgers_dir)
    failed = 0
    for name, ok, detail in checks:
        print(f"  [{'ok' if ok else 'BAD'}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"verify {args.report}: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    result = replay_journal(args.journal, report_path=args.report)
    print(f"replay {args.journal}: {result['records']} records, {len(result['sagas'])} sagas")
    if result["pending"]:
        print(f"  pending: {result['pending']}")
    for line in result["divergence"]:
        print(f"  divergence: {line}")
    if "compared_with" in result:
        print(f"  compared with {result['compared_with']}: {'match' if result['ok'] else 'DIVERGED'}")
    return 0 if result["ok"] and not result["pending"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import SwitchServer

    host, _, port = args.listen.rpartition(":")
    if not port.isdecimal() or int(port) > 65535:
        raise UsageError(f"--listen {args.listen!r}: port must be an integer from 0 to 65535")
    scenario = load_scenario(args.scenario)
    with SwitchServer(scenario, host or "127.0.0.1", int(port)) as server:
        addr = server.server_address
        print(f"listening on {addr[0]}:{addr[1]} (gateway json lines and USSD| frames)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mmbus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario (or fault matrix) to quiescence")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="directory for report, journal, ledgers, receipts")
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="independent checks over a run's report and ledger dumps")
    p_verify.add_argument("--report", required=True)
    p_verify.add_argument("--ledgers", default=None, help="ledger dump directory (default: <report dir>/ledgers)")
    p_verify.set_defaults(fn=_cmd_verify)

    p_replay = sub.add_parser("replay", help="rebuild saga states from a journal and diff the report")
    p_replay.add_argument("--journal", required=True)
    p_replay.add_argument("--report", default=None)
    p_replay.set_defaults(fn=_cmd_replay)

    p_serve = sub.add_parser("serve", help="expose a scenario's switch over TCP")
    p_serve.add_argument("--scenario", required=True)
    p_serve.add_argument("--listen", default="127.0.0.1:9900")
    p_serve.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidScenario, RunError, UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
