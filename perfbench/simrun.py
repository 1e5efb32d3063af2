"""The two simulator workloads: xfer_mem and adversity.

A run repeats whole rounds until its time is up. One round builds a fresh
scenario from the seed and the round number, sets up a Simulator, runs it
to quiescence in memory (the timed run), audits the artifacts with
`verify` and `replay`, checks every request against the oracles, then sends
closed-loop probe transfers to a switch with the round's configuration to
time what a client waits for. adversity also runs the 25 fault-matrix
cells file-backed, with an fsync per journal record, outside the timed run.
"""
from __future__ import annotations

import gc
import json
import os
import shutil
import time

from mmbus.engine import fold_records, load_journal
from mmbus.harness import Simulator, replay_journal, scenario_from_obj, verify_run

import inputs
from common import median, p95
from oracles import BalanceOracle, ClientView, Verdict, check_run, gateway_line, read_transcript
from tracing import held_state

perf = time.perf_counter
SETUPS = 5  # set-up samples per round


class Round:
    """What one round measured."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.run_s = 0.0
        self.loop_s = 0.0  # the simulators' own event-loop wall, as their reports give it
        self.sagas = 0
        # the file-backed matrix cells: outside sagas_per_s, inside the per-layer figures
        self.cells_run_s = 0.0
        self.cells_loop_s = 0.0
        self.cells_sagas = 0
        self.audit_verify_s = 0.0
        self.audit_replay_s = 0.0
        self.journal_bytes = 0
        self.ack_s: list[float] = []
        self.result_s: list[float] = []
        self.verdict = Verdict()


def _run_sim(sim: Simulator, rnd: Round) -> dict:
    started = perf()
    report = sim.run()
    rnd.run_s += perf() - started
    rnd.loop_s += report["_wall_seconds"]
    rnd.sagas += _terminal(report)
    return report


def _run_cell(sim: Simulator, rnd: Round) -> None:
    started = perf()
    report = sim.run()
    rnd.cells_run_s += perf() - started
    rnd.cells_loop_s += report["_wall_seconds"]
    rnd.cells_sagas += _terminal(report)


def _terminal(report: dict) -> int:
    return sum(report["saga_states"].get(s, 0) for s in ("COMPLETED", "FAILED"))


def whole_journal(sim: Simulator) -> list[dict]:
    """Every journal record of an in-memory run, those folded by bus recoveries first.

    A file-backed journal keeps them all in its file; in memory each
    recovery starts a new Journal and the simulator keeps the old records.
    """
    return sim._preserved_records + sim.engine.journal.records


def export_artifacts(report: dict, ledgers, records, channels, out_dir: str) -> None:
    """Write an in-memory switch's state in the layout `mmbus run --out` uses."""
    os.makedirs(os.path.join(out_dir, "ledgers"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "transcripts"), exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in report.items() if not k.startswith("_")}, fh)
    for lg in ledgers:
        with open(os.path.join(out_dir, "ledgers", f"{lg.endpoint_id}.ndjson"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row, separators=(",", ":")) + "\n" for row in lg.dump_rows())
    with open(os.path.join(out_dir, "journal.ndjson"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    for cid, ch in channels.items():
        with open(os.path.join(out_dir, "transcripts", _transcript_name(cid)), "w", encoding="utf-8") as fh:
            fh.writelines(f"{tick}|{d}|{text}\n" for tick, d, text in ch.transcript.lines)


def _transcript_name(channel_id: str) -> str:
    return channel_id.replace(":", "_").replace("/", "_") + ".txt"


def audit(out_dir: str, rnd: Round) -> None:
    """Time the program's own audit, `verify` then `replay`, over one artifact directory."""
    report_path = os.path.join(out_dir, "report.json")
    journal_path = os.path.join(out_dir, "journal.ndjson")
    t0 = perf()
    checks = verify_run(report_path, os.path.join(out_dir, "ledgers"))
    t1 = perf()
    replay = replay_journal(journal_path, report_path)
    rnd.audit_verify_s += t1 - t0
    rnd.audit_replay_s += perf() - t1
    rnd.journal_bytes += os.path.getsize(journal_path)
    failed = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    if failed or not replay["ok"] or replay["pending"]:
        rnd.verdict.bad(f"{out_dir}: verify {failed} replay ok={replay['ok']} pending={replay['pending'][:3]}")


def load_artifacts(out_dir: str) -> tuple[dict, list[dict], dict]:
    """The report, the ledger dump rows, and the journal folded back into saga rows."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    ledger_rows = []
    for name in sorted(os.listdir(os.path.join(out_dir, "ledgers"))):
        with open(os.path.join(out_dir, "ledgers", name), encoding="utf-8") as fh:
            ledger_rows.extend(json.loads(line) for line in fh)
    replay_rows = {
        sid: (s.state.value, s.reason, s.fee.minor_units if s.fee is not None else None)
        for sid, s in fold_records(load_journal(os.path.join(out_dir, "journal.ndjson"))).items()
    }
    return report, ledger_rows, replay_rows


def check_artifacts(out_dir: str, scenario: dict, requests) -> tuple[Verdict, BalanceOracle]:
    """Check every request of a run from its artifacts alone."""
    report, ledger_rows, replay_rows = load_artifacts(out_dir)
    view = ClientView()
    for ch in scenario["channels"]:
        lines = []
        with open(os.path.join(out_dir, "transcripts", _transcript_name(ch["id"])), encoding="utf-8") as fh:
            for raw in fh:
                tick, direction, text = raw.rstrip("\n").split("|", 2)
                lines.append((int(tick), direction, text))
        read_transcript(lines, view, ch["protocol"] == "ussd", scenario["currency"])
    return check_run(scenario, requests, view, report["sagas"], replay_rows, ledger_rows)


def probe(scenario: dict, requests, rnd: Round) -> None:
    """Closed-loop transfers, driven the way the TCP front door drives the switch.

    They go to a fresh in-memory switch with the round's endpoints, rules
    and channels (no traffic, no faults, no journal file), so they time the
    switch's own service; a durable journal's cost shows in the journal's
    per-layer metrics.
    The ack is timed to the channel's first reply line, the result to the
    saga.result it delivers once the switch has drained.
    """
    quiet = dict(scenario, name=f"{scenario['name']}-probe", traffic=[], faults=[], torn_tail=False)
    sim = Simulator(scenario_from_obj(quiet, quiet["name"]))
    book = BalanceOracle(quiet)
    channel = sim.channels["ch:web"]
    for req in requests:
        line = gateway_line(req.ref, req.src, req.dst, req.amount, inputs.CCY)
        t0 = perf()
        sim.now_tick += 1
        ack = channel.on_line(line, sim.now_tick)
        t1 = perf()
        sim.drain()
        out = sim.outboxes.pop("ch:web", [])
        t2 = perf()
        rnd.ack_s.append(t1 - t0)
        rnd.result_s.append(t2 - t0)
        rnd.verdict.attempted += 1
        want = book.transfer(req.src, req.dst, req.amount)
        got = [(b["client_ref"], b["state"], b["reason"]) for b in (json.loads(x)["body"] for x in out)]
        if len(ack) != 1 or json.loads(ack[0]).get("accepted") != req.ref or got != [(req.ref, want.state, want.reason)]:
            rnd.verdict.fail(f"probe {req.ref}: ack {ack} results {got}, oracle {want}")
    rows = [r for lg in sim.ledgers() for r in lg.dump_rows() if r["kind"] == "account"]
    got = {r["party"]: (r["posted"], r["held"]) for r in rows}
    wrong = [p for p, v in book.posted.items() if got.get(p) != (v, 0)]
    if wrong or len(got) != len(book.posted):
        rnd.verdict.bad(f"book after probes differs at {wrong[:5]}")


def _setup(scenario: dict, out_dir: str | None, rnd: Round) -> Simulator:
    """Build the scenario and the Simulator SETUPS times; the last one runs."""
    sim = None
    for _ in range(SETUPS):
        if sim is not None:
            sim.engine.journal.close()
        t0 = perf()
        sim = Simulator(scenario_from_obj(scenario, scenario["name"]), out_dir=out_dir)
        rnd.setup_s.append(perf() - t0)
    return sim


def xfer_mem_round(seed: int, k: int, work_dir: str) -> tuple[Round, Simulator]:
    rnd = Round()
    scenario, requests = inputs.xfer_mem_round(seed, k)
    sim = _setup(scenario, None, rnd)
    report = _run_sim(sim, rnd)
    out_dir = os.path.join(work_dir, f"round-{k}")
    export_artifacts(report, sim.ledgers(), whole_journal(sim), sim.channels, out_dir)
    audit(out_dir, rnd)
    verdict, _ = check_artifacts(out_dir, scenario, requests)
    rnd.verdict.merge(verdict)
    probe(scenario, inputs.probe_requests("xfer_mem", scenario, seed, k), rnd)
    shutil.rmtree(out_dir)
    return rnd, sim


def adversity_round(seed: int, k: int, work_dir: str) -> tuple[Round, Simulator]:
    rnd = Round()
    round_dir = os.path.join(work_dir, f"round-{k}")
    scenario, requests = inputs.adversity_round(seed, k)
    sim = _setup(scenario, None, rnd)
    report = _run_sim(sim, rnd)
    main_dir = os.path.join(round_dir, "main")
    export_artifacts(report, sim.ledgers(), whole_journal(sim), sim.channels, main_dir)
    runs = [(main_dir, scenario, requests)]
    # file-backed, fsync per record: their wall time follows the shared disk, so it stays out of sagas_per_s
    for name, cell, cell_requests in inputs.matrix_cells():
        cell_dir = os.path.join(round_dir, name)
        cell_sim = Simulator(scenario_from_obj(cell, cell["name"]), out_dir=cell_dir)
        _run_cell(cell_sim, rnd)
        cell_sim.engine.journal.close()
        runs.append((cell_dir, cell, cell_requests))
    for out_dir, _, _ in runs:
        audit(out_dir, rnd)
    for out_dir, scn, reqs in runs:
        rnd.verdict.merge(check_artifacts(out_dir, scn, reqs)[0])
    probe(scenario, inputs.probe_requests("adversity", scenario, seed, k), rnd)
    shutil.rmtree(round_dir)
    return rnd, sim


ROUNDS = {"xfer_mem": xfer_mem_round, "adversity": adversity_round}


def run(workload: str, seed: int, seconds: float, work_dir: str, tracer=None) -> dict:
    """Whole rounds until `seconds` have passed; each metric is its median over the rounds."""
    round_fn = ROUNDS[workload]
    rounds: list[Round] = []
    deadline = perf() + seconds
    sim = None
    while not rounds or perf() < deadline:
        gc.collect()
        rnd, sim = round_fn(seed, len(rounds), work_dir)
        rounds.append(rnd)
    verdict = Verdict()
    for r in rounds:
        verdict.merge(r.verdict)
    out = {
        "verdict": verdict,
        "sagas_per_s": median([r.sagas / r.run_s for r in rounds]),
        "setup_s": median([x for r in rounds for x in r.setup_s]),
        "audit_s": median([r.audit_verify_s + r.audit_replay_s for r in rounds]),
        "ack_p50_ms": median([median(r.ack_s) for r in rounds]) * 1e3,
        "result_p50_ms": median([median(r.result_s) for r in rounds]) * 1e3,
        "result_p95_ms": median([p95(r.result_s) for r in rounds]) * 1e3,
    }
    if tracer is not None:
        sagas = sum(r.sagas + r.cells_sagas + len(r.result_s) for r in rounds)
        out["layers"] = dict(
            held_state(sim),
            **{
                "harness.artifacts_s": median([r.run_s + r.cells_run_s - r.loop_s - r.cells_loop_s for r in rounds]),
                "harness.verify_s": median([r.audit_verify_s for r in rounds]),
                "harness.replay_s": median([r.audit_replay_s for r in rounds]),
                "engine.journal_bytes_per_saga": (
                    sum(r.journal_bytes for r in rounds) / sum(r.sagas + r.cells_sagas for r in rounds) if workload == "adversity" else 0.0
                ),
            },
        )
        out["sagas"] = sagas
    return out
