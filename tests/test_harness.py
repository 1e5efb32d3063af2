"""Scenario runner: determinism, artifact verification, replay, validation."""
from __future__ import annotations

import copy
import json
import os

import pytest

from conftest import CRASH_TWICE_CMDS, SCENARIO_DIR, crash_twice_cell, scenario_path
from mmbus.engine import fold_records, saga_row, truncate_last_record
from mmbus.harness import (
    InvalidScenario,
    RunError,
    Simulator,
    load_scenario,
    matrix_cells,
    replay_journal,
    run_scenario,
    scenario_from_obj,
    verify_run,
)

CHECK_NAMES = [
    "conservation",
    "conservation_matches_report",
    "entries_zero_sum",
    "accounts_match_entries",
    "no_negative_available",
    "exactly_once_postings",
    "holds_match_report",
    "sagas_terminal",
    "saga_deltas_exact",
]


def run_happy(out_dir):
    scenario = load_scenario(scenario_path("happy_path"))
    return run_scenario(scenario, out_dir=str(out_dir))


def read_artifacts(out_dir):
    """Everything deterministic a run writes, as bytes (perf.json is wall-clock)."""
    blobs = {}
    for root, _, files in os.walk(out_dir):
        for fname in files:
            if fname == "perf.json":
                continue
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                blobs[os.path.relpath(path, out_dir)] = fh.read()
    return blobs


def test_run_writes_expected_artifacts(tmp_path):
    report, _ = run_happy(tmp_path)
    assert {s["client_ref"]: s["state"] for s in report["sagas"]} == {
        "t1": "COMPLETED", "t2": "COMPLETED", "t3": "COMPLETED",
    }
    assert report["conservation"]["ok"]
    assert report["holds_outstanding"] == 0
    names = set(os.listdir(tmp_path))
    assert {"report.json", "perf.json", "journal.ndjson", "receipts.ndjson", "ledgers", "transcripts"} <= names
    assert set(os.listdir(tmp_path / "ledgers")) == {"MTNG.ndjson", "ABBANK.ndjson"}
    # wall-clock time never lands in the persisted report
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        assert "_wall_seconds" not in json.load(fh)


def test_same_seed_same_bytes(tmp_path):
    run_happy(tmp_path / "a")
    run_happy(tmp_path / "b")
    first, second = read_artifacts(tmp_path / "a"), read_artifacts(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"


def test_verify_passes_on_clean_run(tmp_path):
    run_happy(tmp_path)
    checks = verify_run(str(tmp_path / "report.json"), str(tmp_path / "ledgers"))
    assert [name for name, _, _ in checks] == CHECK_NAMES
    assert all(ok for _, ok, _ in checks)


def test_verify_catches_tampered_ledger(tmp_path):
    run_happy(tmp_path)
    path = tmp_path / "ledgers" / "MTNG.ndjson"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        if row["kind"] == "account":
            row["posted"] += 1
            break
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows))
    failed = {name for name, ok, _ in verify_run(str(tmp_path / "report.json"), str(tmp_path / "ledgers")) if not ok}
    assert "conservation" in failed
    assert "accounts_match_entries" in failed


def test_replay_matches_report(tmp_path):
    run_happy(tmp_path)
    result = replay_journal(str(tmp_path / "journal.ndjson"))
    assert result["ok"] and result["divergence"] == []
    assert result["pending"] == []
    assert set(result["sagas"].values()) == {"COMPLETED"}
    assert result["compared_with"] == str(tmp_path / "report.json")


def test_replay_flags_truncated_journal(tmp_path):
    run_happy(tmp_path)
    journal = str(tmp_path / "journal.ndjson")
    truncate_last_record(journal)
    result = replay_journal(journal)
    assert not result["ok"]
    assert result["divergence"]
    assert len(result["pending"]) == 1


def test_replay_flags_edited_reason(tmp_path):
    run_happy(tmp_path)
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    report["sagas"][1]["reason"] = "insufficient"
    report_path.write_text(json.dumps(report))
    result = replay_journal(str(tmp_path / "journal.ndjson"))
    saga_id = report["sagas"][1]["saga"]
    assert not result["ok"]
    assert result["divergence"] == [f"{saga_id}: reason journal='' report='insufficient'"]


def test_perf_names_journal_durability(tmp_path):
    run_happy(tmp_path)
    with open(tmp_path / "perf.json", encoding="utf-8") as fh:
        perf = json.load(fh)
    assert perf["journal"] == {"backing": "file", "fsync": "record"}


def _every_run():
    """(id, scenario) for each scenario file, and for each cell of each fault-matrix file."""
    runs = []
    for fname in sorted(os.listdir(SCENARIO_DIR)):
        name = fname[: -len(".json")]
        with open(os.path.join(SCENARIO_DIR, fname), encoding="utf-8") as fh:
            obj = json.load(fh)
        if "cells" in obj:
            runs.extend((f"{name}:{cell}", scenario) for cell, scenario in matrix_cells(obj, name))
        else:
            runs.append((name, scenario_from_obj(obj, name)))
    return runs


@pytest.mark.parametrize("scenario", [pytest.param(s, id=run_id) for run_id, s in _every_run()])
def test_live_rows_equal_replayed_rows(scenario):
    _, sim = run_scenario(scenario)
    replayed = fold_records(sim.journal_records())
    assert [saga_row(replayed[saga_id]) for saga_id in sorted(replayed)] == sim.engine.saga_rows()


@pytest.mark.parametrize("torn_tail", [False, True], ids=["untorn", "torn"])
@pytest.mark.parametrize("cmd_type", CRASH_TWICE_CMDS)
def test_crash_during_recovery_recovers_again(tmp_path, cmd_type, torn_tail):
    report, _ = run_scenario(crash_twice_cell(cmd_type, torn_tail), out_dir=str(tmp_path))
    checks = verify_run(str(tmp_path / "report.json"), str(tmp_path / "ledgers"))
    assert [name for name, _, _ in checks] == CHECK_NAMES
    assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
    replay = replay_journal(str(tmp_path / "journal.ndjson"))
    assert replay["ok"] and replay["divergence"] == []
    assert len(report["recovery"]) == 2
    if not torn_tail:
        # the first recovery re-emits the command that crashes the bus again
        assert report["recovery"][0]["resumed"] is None
        assert report["recovery"][1]["resumed"] is not None


def test_run_closes_file_journal(tmp_path):
    scenario = load_scenario(scenario_path("happy_path"))
    sim = Simulator(scenario, out_dir=str(tmp_path / "ok"))
    sim.run()
    assert sim.journal._fh is None

    obj = base_obj()
    obj["max_ticks"] = 3
    sim = Simulator(scenario_from_obj(obj, "runaway"), out_dir=str(tmp_path / "runaway"))
    with pytest.raises(RunError, match="watchdog"):
        sim.run()
    assert sim.journal._fh is None


def base_obj():
    with open(scenario_path("happy_path"), encoding="utf-8") as fh:
        return json.load(fh)


def test_watchdog_aborts_runaway_run():
    obj = base_obj()
    obj["max_ticks"] = 3
    scenario = scenario_from_obj(obj, "runaway")
    with pytest.raises(RunError, match="watchdog"):
        run_scenario(scenario)


def add_generator(obj, **fields):
    gen = {"kind": "transfers", "count": 3, "channel": "ch:web",
           "parties": ["wallet:MTNG:233240000001", "bank:ABBANK:ACC100"]}
    gen.update(fields)
    obj["traffic"].append({"generate": {k: v for k, v in gen.items() if v is not None}})


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda o: o.pop("currency"), r"\.currency: missing"),
        (lambda o: o["endpoints"].append(copy.deepcopy(o["endpoints"][0])), "duplicate endpoint id 'MTNG'"),
        (lambda o: o["endpoints"][0].__setitem__("native_format", "iso8583"), "unknown format 'iso8583'"),
        (lambda o: o["endpoints"][0]["accounts"][0].__setitem__("party", "wallet:VODAG:233240000001"),
         "party institution 'VODAG' is not 'MTNG'"),
        (lambda o: o["endpoints"][0]["accounts"][0].__setitem__("balance", "-1.00"), "must be >= 0"),
        (lambda o: o["rules"][0].__setitem__("priority", -5), "negative priorities are reserved"),
        (lambda o: o["rules"][0].__setitem__("target", "GHOST"), "unknown endpoint 'GHOST'"),
        (lambda o: o["rules"][0]["match"].__setitem__("colour", "blue"), r"unknown matchers \['colour'\]"),
        (lambda o: o["channels"][0].__setitem__("protocol", "smpp"), "unknown protocol 'smpp'"),
        (lambda o: o["channels"].append({"id": "ch:u", "protocol": "ussd"}), "ussd channels need an institution"),
        (lambda o: o["traffic"][0].__setitem__("channel", "ch:nope"), "unknown channel 'ch:nope'"),
        (lambda o: o["traffic"][0].pop("line"), "needs line or frame"),
        (lambda o: o["faults"].append({"action": "jitter"}) if "faults" in o else o.update(faults=[{"action": "jitter"}]),
         r"faults\[0\]"),
        (lambda o: o["endpoints"][0].__setitem__("per_txn_cap", "999999.00"),
         r"endpoints\[0\]: MTNG: per_txn_cap exceeds daily_cap"),
        (lambda o: o["endpoints"][0]["fee"].__setitem__("basis_points", -1),
         r"endpoints\[0\]: basis_points must be >= 0"),
        (lambda o: o["rules"][0].__setitem__("priority", "x"), r"rules\[0\]\.priority: must be an integer, got 'x'"),
        (lambda o: o["traffic"][0].__setitem__("tick", None), r"traffic\[0\]\.tick: must be an integer, got None"),
        (lambda o: add_generator(o, count=None), r"traffic\[\d+\]\.generate\.count: missing"),
        (lambda o: add_generator(o, channel="ch:gone"), r"generate\.channel: unknown channel 'ch:gone'"),
        (lambda o: add_generator(o, kind="bursts"), r"generate\.kind: unknown kind 'bursts'"),
        (lambda o: o.__setitem__("endpoints", [5]), r"^bad\.endpoints\[0\]: must be an object$"),
        (lambda o: o.__setitem__("endpoints", {"a": 1}), r"^bad\.endpoints: must be a list$"),
        (lambda o: o.__setitem__("traffic", [3]), r"^bad\.traffic\[0\]: must be an object$"),
        (lambda o: o.__setitem__("channels", [7]), r"^bad\.channels\[0\]: must be an object$"),
        (lambda o: o["endpoints"][0].__setitem__("fee", "cheap"), r"^bad\.endpoints\[0\]\.fee: must be an object$"),
        (lambda o: o["rules"][0].__setitem__("match", 5), r"^bad\.rules\[0\]\.match: must be an object$"),
        (lambda o: add_generator(o, parties=5), r"^bad\.traffic\[\d+\]\.generate\.parties: must be a list$"),
        (lambda o: o["endpoints"][0].__setitem__("operations", [["x"]]),
         r"^bad\.endpoints\[0\]\.operations\[0\]: must be a string$"),
        (lambda o: o["rules"][0]["match"].__setitem__("msg_type", 5),
         r"^bad\.rules\[0\]\.match\.msg_type: must be a string or a list of strings$"),
        (lambda o: o["rules"][0]["match"].__setitem__("msg_type", [["x"]]),
         r"^bad\.rules\[0\]\.match\.msg_type\[0\]: must be a string$"),
        (lambda o: o["rules"].append(dict(o["rules"][0])), r"^bad\.rules\[2\]: duplicate rule id 'to-mtng'$"),
        (lambda o: o["endpoints"][0].__setitem__("id", ["MTNG"]), r"^bad\.endpoints\[0\]\.id: must be a string"),
    ],
)
def test_scenario_diagnostics_carry_field_paths(mutate, fragment):
    obj = base_obj()
    mutate(obj)
    with pytest.raises(InvalidScenario, match=fragment):
        scenario_from_obj(obj, "bad")


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda m: m.__setitem__("cells", [5]), r"^fm\.cells\[0\]: must be an object$"),
        (lambda m: m["cells"][0].__setitem__("faults", 5), r"^fm\.cells\[0\]\.faults: must be a list$"),
        (lambda m: m["base"].__setitem__("faults", [5]), r"^fm\.base\.faults\[0\]: must be an object$"),
    ],
)
def test_matrix_diagnostics_carry_field_paths(mutate, fragment):
    with open(scenario_path("fault_matrix"), encoding="utf-8") as fh:
        obj = json.load(fh)
    assert len(matrix_cells(obj, "fm")) == 25
    mutate(obj)
    with pytest.raises(InvalidScenario, match=fragment):
        matrix_cells(obj, "fm")
