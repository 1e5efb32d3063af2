"""Acceptance checks, one per shipped property, printed as a checklist.

Run with plain `pytest`: each check prints its own [PASS]/[FAIL] line past
the capture so the checklist is visible either way.
"""
from __future__ import annotations

import copy
import json
import os
from collections import defaultdict
from fractions import Fraction

import pytest

from conftest import rational_fee, scenario_path
from mmbus.bus import BusCrash
from mmbus.canonical import make_money
from mmbus.harness import (
    Simulator,
    load_scenario,
    run_matrix,
    run_scenario,
    scenario_from_obj,
    verify_run,
)
from test_routing import check_pairs

RESULTS: list[tuple[int, bool]] = []

COMMANDS = ("authorize", "hold", "credit", "commit", "release")
FAULTS = ("drop", "duplicate", "delay", "crash_endpoint", "crash_bus")


def emit(capsys, num: int, ok: bool, detail: str) -> None:
    RESULTS.append((num, ok))
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {num:2d} {detail}")
    assert ok, f"criterion {num}: {detail}"


def minor(text: str) -> int:
    return make_money("GHS", text).minor_units


def scenario_obj(name: str) -> dict:
    with open(scenario_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def ledger_rows(out_dir: str) -> tuple[list[dict], list[dict]]:
    accounts, entries = [], []
    ledgers = os.path.join(out_dir, "ledgers")
    for fname in sorted(os.listdir(ledgers)):
        with open(os.path.join(ledgers, fname), encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                (accounts if row["kind"] == "account" else entries).append(row)
    return accounts, entries


def saga_party_deltas(entries: list[dict]) -> dict[tuple[str, str], int]:
    deltas: dict[tuple[str, str], int] = defaultdict(int)
    for e in entries:
        for party, delta in e["legs"]:
            deltas[(e["saga"], party)] += delta
    return deltas


def failed_saga_violations(report: dict, entries: list[dict]) -> tuple[int, list[str]]:
    """Count FAILED sagas and list any with a nonzero (source, dest, fee_pot) delta."""
    deltas = saga_party_deltas(entries)
    failed = 0
    bad = []
    for s in report["sagas"]:
        if s["state"] != "FAILED":
            continue
        failed += 1
        pot = f"fee_pot:{s['from'].split(':')[1]}:main"
        triple = (
            deltas.get((s["saga"], s["from"]), 0),
            deltas.get((s["saga"], s["to"]), 0),
            deltas.get((s["saga"], pot), 0),
        )
        if triple != (0, 0, 0):
            bad.append(f"{s['saga']}={triple}")
    return failed, bad


# -- shared runs -------------------------------------------------------------


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def matrix(out_root):
    out = str(out_root / "matrix")
    result = run_matrix(scenario_obj("fault_matrix"), "fault_matrix", out_dir=out)
    return result, out


@pytest.fixture(scope="module")
def named_runs(out_root):
    runs = {}
    for name in ("interop", "offline_sync", "extensibility", "parity_gateway", "parity_ussd"):
        out = str(out_root / name)
        report, _ = run_scenario(load_scenario(scenario_path(name)), out_dir=out)
        runs[name] = (report, out)
    return runs


@pytest.fixture(scope="module")
def duplicate_runs(out_root):
    noisy_obj = scenario_obj("duplicates_200")
    clean_obj = copy.deepcopy(noisy_obj)
    del clean_obj["faults"]
    noisy_out = str(out_root / "dup_noisy")
    clean_out = str(out_root / "dup_clean")
    noisy, _ = run_scenario(scenario_from_obj(noisy_obj, "duplicates_200"), out_dir=noisy_out)
    clean, _ = run_scenario(scenario_from_obj(clean_obj, "duplicates_200"), out_dir=clean_out)
    return (noisy, noisy_out), (clean, clean_out)


# -- checks ------------------------------------------------------------------


def test_01_conservation_under_adversity(matrix, capsys):
    result, out = matrix
    problems = []
    covered = set()
    for cell in result["cells"]:
        cmd, _, fault = cell["cell"].partition("_")
        covered.add((cmd, fault))
        if set(cell["saga_states"]) - {"COMPLETED", "FAILED"}:
            problems.append(f"{cell['cell']}: non-terminal states {cell['saga_states']}")
        checks = verify_run(os.path.join(out, cell["cell"], "report.json"),
                            os.path.join(out, cell["cell"], "ledgers"))
        for name, ok, detail in checks:
            if not ok:
                problems.append(f"{cell['cell']}: {name}: {detail}")
    if covered != {(c, f) for c in COMMANDS for f in FAULTS}:
        problems.append(f"matrix covers {len(covered)} of 25 command x fault cells")
    if not result["ok"]:
        problems.append("matrix reported not ok")
    if result["wall_seconds"] >= 60:
        problems.append(f"matrix took {result['wall_seconds']:.1f}s")
    ok = not problems
    emit(capsys, 1, ok,
         f"conservation under adversity: {len(result['cells'])} fault cells, "
         f"9 artifact checks each, wall={result['wall_seconds']:.2f}s"
         + ("" if ok else f" | {problems[:3]}"))


def test_02_compensation_exactness(matrix, named_runs, duplicate_runs, capsys):
    total_failed = 0
    violations: list[str] = []
    matrix_result, matrix_out = matrix
    for cell in matrix_result["cells"]:
        cell_dir = os.path.join(matrix_out, cell["cell"])
        with open(os.path.join(cell_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        _, entries = ledger_rows(cell_dir)
        failed, bad = failed_saga_violations(report, entries)
        total_failed += failed
        violations += [f"{cell['cell']}: {b}" for b in bad]
    for name, (report, out) in named_runs.items():
        _, entries = ledger_rows(out)
        failed, bad = failed_saga_violations(report, entries)
        total_failed += failed
        violations += [f"{name}: {b}" for b in bad]
    for report, out in duplicate_runs:
        _, entries = ledger_rows(out)
        failed, bad = failed_saga_violations(report, entries)
        total_failed += failed
        violations += [f"duplicates: {b}" for b in bad]
    ok = not violations and total_failed >= 3
    emit(capsys, 2, ok,
         f"compensation exactness: {total_failed} FAILED sagas across all runs, "
         f"every (source, dest, fee_pot) delta == (0, 0, 0)"
         + ("" if ok else f" | violations={violations[:3]}"))


def test_03_exactly_once_effects(duplicate_runs, capsys):
    (noisy, noisy_out), (clean, clean_out) = duplicate_runs
    problems = []
    if noisy["saga_states"] != {"COMPLETED": 200}:
        problems.append(f"noisy run states {noisy['saga_states']}")
    if clean["saga_states"] != {"COMPLETED": 200}:
        problems.append(f"clean run states {clean['saga_states']}")
    for fname in sorted(os.listdir(os.path.join(noisy_out, "ledgers"))):
        with open(os.path.join(noisy_out, "ledgers", fname), "rb") as fh:
            noisy_bytes = fh.read()
        with open(os.path.join(clean_out, "ledgers", fname), "rb") as fh:
            clean_bytes = fh.read()
        if noisy_bytes != clean_bytes:
            problems.append(f"{fname} differs with duplication on")
    ok = not problems
    emit(capsys, 3, ok,
         "exactly-once effects: duplicating every command in a 200-transfer run "
         "leaves ledger dumps byte-identical" + ("" if ok else f" | {problems[:3]}"))


def crash_sweep_scenario(torn: bool) -> dict:
    return {
        "name": "crash_sweep",
        "seed": 3,
        "currency": "GHS",
        "torn_tail": torn,
        "endpoints": [
            {
                "id": "MTNG", "kind": "wallet_platform", "native_format": "wallet_kv",
                "operations": ["transfer.request", "hold.cmd", "credit.cmd", "commit.cmd", "release.cmd"],
                "per_txn_cap": "500.00", "daily_cap": "5000.00",
                "fee": {"flat": "0.10", "basis_points": 100, "fee_cap": "2.00"},
                "float": "10000.00",
                "accounts": [{"party": "wallet:MTNG:233240000071", "balance": "100.00"}],
            },
            {
                "id": "ABBANK", "kind": "rural_bank", "native_format": "bank_pipe",
                "operations": ["transfer.request", "hold.cmd", "credit.cmd", "commit.cmd", "release.cmd"],
                "per_txn_cap": "500.00", "daily_cap": "5000.00",
                "fee": {"flat": "0.25", "basis_points": 50, "fee_cap": "1.50"},
                "float": "10000.00",
                "accounts": [{"party": "bank:ABBANK:ACC900", "balance": "50.00"}],
            },
        ],
        "rules": [
            {"id": "to-mtng", "priority": 10, "target": "MTNG", "match": {"party_institution": "MTNG"}},
            {"id": "to-abbank", "priority": 10, "target": "ABBANK", "match": {"party_institution": "ABBANK"}},
        ],
        "channels": [{"id": "ch:web", "protocol": "gateway"}],
        "traffic": [{
            "tick": 2, "channel": "ch:web",
            "line": json.dumps({
                "v": 1, "id": "c-x1", "corr": "c-x1", "type": "transfer.request",
                "src": "ch:web", "dst": "bus",
                "body": {"from": "wallet:MTNG:233240000071", "to": "bank:ABBANK:ACC900",
                         "amount": {"ccy": "GHS", "minor": 2500}, "client_ref": "x1"},
            }, separators=(",", ":")),
        }],
    }


def crash_after_record(k: int, torn: bool) -> dict:
    """One transfer with the bus crashing right after journal record k."""
    sim = Simulator(scenario_from_obj(crash_sweep_scenario(torn), "crash_sweep"))
    journal = sim.engine.journal
    real_append = journal.append
    seen = 0

    def crashing_append(record):
        nonlocal seen
        real_append(record)
        seen += 1
        if seen == k:
            raise BusCrash(f"crash after record {k}")

    journal.append = crashing_append
    return sim.run()


def test_04_recovery_from_every_crash_point(capsys):
    baseline, _ = run_scenario(scenario_from_obj(crash_sweep_scenario(False), "crash_sweep"))
    records = baseline["journal_records"]
    problems = []
    latencies = []
    if records != 5:
        problems.append(f"baseline transfer journals {records} records, expected 5")
    for torn in (False, True):
        for k in range(1, records + 1):
            label = f"k={k}{' torn' if torn else ''}"
            report = crash_after_record(k, torn)
            if len(report["recovery"]) != 1:
                problems.append(f"{label}: {len(report['recovery'])} crashes")
                continue
            crash = report["recovery"][0]
            latencies.append((label, crash["resume_tick"] - crash["crash_tick"]))
            if crash["resumed"] is None:
                problems.append(f"{label}: bus never resumed")
            if set(report["saga_states"]) - {"COMPLETED", "FAILED"}:
                problems.append(f"{label}: states {report['saga_states']}")
            if not torn and report["saga_states"] != {"COMPLETED": 1}:
                problems.append(f"{label}: settled-journal crash should still complete, got {report['saga_states']}")
            if not report["conservation"]["ok"]:
                problems.append(f"{label}: conservation {report['conservation']}")
            if report["holds_outstanding"] != 0:
                problems.append(f"{label}: {report['holds_outstanding']} holds outstanding")
    ok = not problems
    shown = ", ".join(f"{lbl}:{lat}t" for lbl, lat in latencies[:5])
    emit(capsys, 4, ok,
         f"recovery: bus crash after each of {records} journal records "
         f"(plus torn-tail variants), resume latency {shown}, ..."
         + ("" if ok else f" | {problems[:3]}"))


def interop_oracle(obj: dict) -> dict[str, int]:
    """Expected posted balance per account, exact rational fee arithmetic."""
    fees = {}
    posted: dict[str, int] = {}
    for ep in obj["endpoints"]:
        fees[ep["id"]] = (minor(ep["fee"]["flat"]), ep["fee"]["basis_points"], minor(ep["fee"]["fee_cap"]))
        posted[f"float:{ep['id']}:main"] = minor(ep["float"])
        posted[f"fee_pot:{ep['id']}:main"] = 0
        for acct in ep["accounts"]:
            posted[acct["party"]] = minor(acct["balance"])
    for item in obj["traffic"]:
        body = json.loads(item["line"])["body"]
        amount = body["amount"]["minor"]
        src, dst = body["from"], body["to"]
        src_inst, dst_inst = src.split(":")[1], dst.split(":")[1]
        fee = rational_fee(amount, *fees[src_inst])
        posted[src] -= amount + fee
        posted[f"float:{src_inst}:main"] += amount
        posted[f"fee_pot:{src_inst}:main"] += fee
        posted[f"float:{dst_inst}:main"] -= amount
        posted[dst] += amount
    return posted


def test_05_interoperability_corridors(named_runs, capsys):
    report, out = named_runs["interop"]
    obj = scenario_obj("interop")
    problems = []
    states = {s["client_ref"]: s["state"] for s in report["sagas"]}
    if states != {"t1": "COMPLETED", "t2": "COMPLETED", "t3": "COMPLETED", "t4": "COMPLETED"}:
        problems.append(f"states {states}")
    kinds = {s["client_ref"]: (s["kind"], s["from"].split(":")[0], s["to"].split(":")[0]) for s in report["sagas"]}
    if kinds.get("t1", ("",) * 3)[0] != "cashout.request" or kinds.get("t1", ("",) * 3)[2] != "agent":
        problems.append(f"t1 should be a cash-out at an agent, got {kinds.get('t1')}")
    expected = interop_oracle(obj)
    accounts, _ = ledger_rows(out)
    actual = {a["party"]: a["posted"] for a in accounts}
    for party in sorted(expected):
        if actual.get(party) != expected[party]:
            problems.append(f"{party}: posted {actual.get(party)} != oracle {expected[party]}")
    ok = not problems
    emit(capsys, 5, ok,
         "interoperability: wallet-to-wallet cross operator, bank-to-bank, "
         "wallet-to-bank, cash-out at agent all COMPLETED, balances equal the "
         "rational fee oracle" + ("" if ok else f" | {problems[:3]}"))


def test_06_channel_parity(named_runs, capsys):
    gw_report, gw_out = named_runs["parity_gateway"]
    us_report, us_out = named_runs["parity_ussd"]
    problems = []
    if gw_report["sagas"] != us_report["sagas"]:
        problems.append("saga rows differ between gateway and ussd runs")
    gw_accounts, gw_entries = ledger_rows(gw_out)
    us_accounts, us_entries = ledger_rows(us_out)
    if gw_accounts != us_accounts:
        problems.append("account rows differ")
    strip = lambda rows: [{k: v for k, v in r.items() if k != "tick"} for r in rows]
    if strip(gw_entries) != strip(us_entries):
        problems.append("ledger entries differ beyond timing")
    ok = not problems
    emit(capsys, 6, ok,
         f"channel parity: {len(gw_report['sagas'])} transfers via gateway and via "
         "full USSD sessions: identical saga rows, identical ledger effects"
         + ("" if ok else f" | {problems[:3]}"))


def offline_oracle(obj: dict) -> tuple[dict[str, int], dict[str, str]]:
    """Apply the agent queue sequentially with exact admission and fee math."""
    eps = {ep["id"]: ep for ep in obj["endpoints"]}
    posted: dict[str, int] = {}
    for ep in obj["endpoints"]:
        posted[f"float:{ep['id']}:main"] = minor(ep["float"])
        posted[f"fee_pot:{ep['id']}:main"] = 0
        for acct in ep["accounts"]:
            posted[acct["party"]] = minor(acct["balance"])
    used: dict[str, int] = defaultdict(int)
    outcomes: dict[str, str] = {}
    for item in obj["agents"][0]["queue"]:
        src, dst = item["from"], item["to"]
        amount = minor(item["amount"])
        inst = src.split(":")[1]
        ep = eps[inst]
        admitted = (
            item["kind"] in ep["operations"]
            and 0 < amount <= minor(ep["per_txn_cap"])
            and used[inst] + amount <= minor(ep["daily_cap"])
        )
        if not admitted:
            outcomes[item["client_ref"]] = "FAILED"
            continue
        used[inst] += amount  # cap usage is consumed at admission, held or not
        fee = rational_fee(amount, minor(ep["fee"]["flat"]), ep["fee"]["basis_points"], minor(ep["fee"]["fee_cap"]))
        if posted[src] < amount + fee:
            outcomes[item["client_ref"]] = "FAILED"
            continue
        dst_inst = dst.split(":")[1]
        posted[src] -= amount + fee
        posted[f"float:{inst}:main"] += amount
        posted[f"fee_pot:{inst}:main"] += fee
        posted[f"float:{dst_inst}:main"] -= amount
        posted[dst] += amount
        outcomes[item["client_ref"]] = "COMPLETED"
    return posted, outcomes


def test_07_offline_sync(named_runs, capsys):
    report, out = named_runs["offline_sync"]
    obj = scenario_obj("offline_sync")
    problems = []
    states = {s["client_ref"]: s["state"] for s in report["sagas"]}
    counts = defaultdict(int)
    for state in states.values():
        counts[state] += 1
    if (counts["COMPLETED"], counts["FAILED"]) != (8, 2):
        problems.append(f"got {dict(counts)}, expected 8 COMPLETED / 2 FAILED")
    expected_posted, expected_outcomes = offline_oracle(obj)
    if states != expected_outcomes:
        diff = {r: (states.get(r), expected_outcomes.get(r)) for r in expected_outcomes if states.get(r) != expected_outcomes.get(r)}
        problems.append(f"outcomes diverge from sequential oracle: {diff}")
    accounts, _ = ledger_rows(out)
    for a in accounts:
        if a["posted"] != expected_posted[a["party"]]:
            problems.append(f"{a['party']}: posted {a['posted']} != oracle {expected_posted[a['party']]}")
        if a["held"] != 0:
            problems.append(f"{a['party']}: {a['held']} still held")
    (agent_row,) = report["sync"]
    drained = [o["state"] for o in agent_row["outcomes"]]
    if not agent_row["done"] or drained.count("COMPLETED") != 8 or drained.count("FAILED") != 2:
        problems.append(f"agent drain log says {agent_row}")
    if [o["client_ref"] for o in agent_row["outcomes"]] != sorted(expected_outcomes):
        problems.append("agent drained out of queue order")
    ok = not problems
    emit(capsys, 7, ok,
         "offline sync: 10 queued agent transactions drain FIFO to 8 COMPLETED / "
         "2 FAILED, ledgers equal the sequential-application oracle exactly"
         + ("" if ok else f" | {problems[:3]}"))


def test_08_routing_oracle(capsys):
    compared = check_pairs(seed=2026, tables=20, messages=50)
    ok = compared == 1000
    emit(capsys, 8, ok,
         f"routing oracle: switch routing equals the brute-force oracle on "
         f"{compared}/1000 random (rule-set, message) pairs")


def test_09_extensibility_by_configuration(named_runs, capsys):
    report, out = named_runs["extensibility"]
    problems = []
    states = {s["client_ref"]: s["state"] for s in report["sagas"]}
    if states != {"bill1": "COMPLETED", "refund1": "COMPLETED", "refund2": "FAILED"}:
        problems.append(f"states {states}")
    reasons = {s["client_ref"]: s["reason"] for s in report["sagas"]}
    if reasons.get("refund2") != "per_txn_cap":
        problems.append(f"refund2 failed with {reasons.get('refund2')!r}, expected the biller's own cap")
    _, entries = ledger_rows(out)
    billpay_entries = [e for e in entries if e["endpoint"] == "BILLPAY"]
    if not billpay_entries:
        problems.append("no ledger entries ever reached the BILLPAY endpoint")
    ok = not problems
    emit(capsys, 9, ok,
         "extensibility: a biller endpoint added purely in scenario config routes, "
         "authorizes under its own contract, and posts"
         + ("" if ok else f" | {problems[:3]}"))


def test_10_throughput_reported(out_root, capsys):
    out = str(out_root / "throughput")
    report, _ = run_scenario(load_scenario(scenario_path("throughput")), out_dir=out)
    with open(os.path.join(out, "perf.json"), encoding="utf-8") as fh:
        perf = json.load(fh)
    problems = []
    if report["saga_states"] != {"COMPLETED": 1500}:
        problems.append(f"states {report['saga_states']}")
    if not report["conservation"]["ok"]:
        problems.append(f"conservation {report['conservation']}")
    ok = not problems  # the rate itself is reported, not gated
    emit(capsys, 10, ok,
         f"throughput (informational): {perf['sagas']} sagas in "
         f"{perf['wall_seconds']:.2f}s = {perf['sagas_per_second']:.0f}/s "
         f"single-threaded, {perf['journal']['backing']}-backed journal "
         f"(fsync policy: {perf['journal']['fsync']}; soft target 500/s)"
         + ("" if ok else f" | {problems[:3]}"))


def test_checklist_summary(capsys):
    passed = sum(1 for _, ok in RESULTS if ok)
    with capsys.disabled():
        print(f"\nacceptance: {passed}/{len(RESULTS)} checks passed")
    assert passed == len(RESULTS)
