"""Tests for the benchmark's own oracles, and a short smoke run of each workload.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
from oracles import (  # noqa: E402
    BalanceOracle,
    ClientView,
    Request,
    check_run,
    fee_oracle,
    gateway_line,
    minor,
    read_transcript,
)


# --- fee oracle ---------------------------------------------------------------


@pytest.mark.parametrize(
    "amount, flat, bps, cap, fee",
    [
        (250, 10, 100, 200, 13),  # 2.5 rounds half-up to 3
        (249, 10, 100, 200, 12),  # 2.49 rounds down
        (50, 0, 100, 200, 1),  # exactly one half rounds up
        (150, 5, 150, 100, 7),  # 2.25 rounds down to 2
        (1_000_000, 10, 100, 200, 200),  # capped
        (1234, 25, 0, 150, 25),  # flat only
        (0, 10, 100, 200, 10),
    ],
)
def test_fee_oracle_cases(amount, flat, bps, cap, fee):
    assert fee_oracle(amount, flat, bps, cap) == fee


def test_fee_oracle_agrees_with_exact_rationals():
    rng = random.Random(7)
    for _ in range(2000):
        amount, flat, bps, cap = rng.randint(0, 10**7), rng.randint(0, 500), rng.randint(0, 500), rng.randint(0, 5000)
        exact = Fraction(amount * bps, 10000)
        whole = exact.numerator // exact.denominator
        rounded = whole + (1 if exact - whole >= Fraction(1, 2) else 0)
        assert fee_oracle(amount, flat, bps, cap) == min(flat + rounded, cap)


def test_fee_oracle_agrees_with_the_switch():
    from mmbus.canonical import Money
    from mmbus.contracts import FeeSchedule, compute_fee

    rng = random.Random(11)
    for _ in range(2000):
        amount, flat, bps, cap = rng.randint(0, 10**7), rng.randint(0, 500), rng.randint(0, 500), rng.randint(0, 5000)
        schedule = FeeSchedule(Money("GHS", flat), bps, Money("GHS", cap))
        assert fee_oracle(amount, flat, bps, cap) == compute_fee(Money("GHS", amount), schedule).minor_units


def test_minor_parses_decimal_strings():
    assert [minor(t) for t in ("12", "12.5", "12.05", "0.10", "1000000.00")] == [1200, 1250, 1205, 10, 100000000]


# --- balance oracle -------------------------------------------------------------

SCENARIO = {
    "endpoints": [
        {"id": "AAA", "per_txn_cap": "100.00", "float": "500.00",
         "fee": {"flat": "0.10", "basis_points": 100, "fee_cap": "1.00"},
         "accounts": [{"party": "wallet:AAA:233000000001", "balance": "50.00"}]},
        {"id": "BBB", "per_txn_cap": "100.00", "float": "500.00",
         "accounts": [{"party": "bank:BBB:ACC-1", "balance": "0.00"}]},
    ]
}
SRC, DST = "wallet:AAA:233000000001", "bank:BBB:ACC-1"


def test_balance_oracle_completed_transfer_moves_amount_and_fee():
    book = BalanceOracle(SCENARIO)
    total = sum(book.posted.values())
    out = book.transfer(SRC, DST, 2000)
    assert (out.state, out.reason, out.fee) == ("COMPLETED", "", 30)
    assert book.posted[SRC] == 5000 - 2030
    assert book.posted[DST] == 2000
    assert book.posted["fee_pot:AAA:main"] == 30
    assert book.posted["float:AAA:main"] == 50000 + 2000
    assert book.posted["float:BBB:main"] == 50000 - 2000
    assert sum(book.posted.values()) == total


@pytest.mark.parametrize(
    "src, dst, amount, outcome",
    [
        (SRC, DST, 10001, ("FAILED", "per_txn_cap", None)),
        (SRC, DST, 4990, ("FAILED", "insufficient", 60)),
        (SRC, "bank:BBB:NOSUCH", 100, ("FAILED", "compensated:no_account", 11)),
    ],
)
def test_balance_oracle_designed_failures_leave_the_book(src, dst, amount, outcome):
    book = BalanceOracle(SCENARIO)
    before = dict(book.posted)
    out = book.transfer(src, dst, amount)
    assert (out.state, out.reason, out.fee) == outcome
    assert book.posted == before


def test_balance_oracle_funds_run_out_in_order():
    book = BalanceOracle(SCENARIO)
    assert book.transfer(SRC, DST, 3000).state == "COMPLETED"  # 30.00 + 0.40 fee
    assert book.transfer(SRC, DST, 3000).reason == "insufficient"
    assert book.posted[SRC] == 5000 - 3040


# --- client views and the run check ----------------------------------------------------


def _fabricated_run():
    """A consistent two-request run as the switch would have written it."""
    req_ok = Request("r1", SRC, DST, 2000)
    req_down = Request("r2", SRC, DST, 500)
    transcript = [
        (5, "in", gateway_line("r1", SRC, DST, 2000, "GHS")),
        (5, "out", json.dumps({"v": 1, "accepted": "r1", "saga": "sg-000001"})),
        (6, "in", gateway_line("r2", SRC, DST, 500, "GHS")),
        (6, "out", json.dumps({"v": 1, "error": "unavailable", "detail": "retry later"})),
        (9, "out", json.dumps({"type": "saga.result", "body": {"saga": "sg-000001", "client_ref": "r1",
                                                               "state": "COMPLETED", "reason": ""}})),
    ]
    rows = [{"saga": "sg-000001", "client_ref": "r1", "state": "COMPLETED", "reason": "",
             "from": SRC, "to": DST, "amount": {"ccy": "GHS", "minor": 2000}, "fee": {"ccy": "GHS", "minor": 30}}]
    book = BalanceOracle(SCENARIO)
    initial = dict(book.posted)
    book.transfer(SRC, DST, 2000)
    ledger = [{"kind": "account", "party": p, "initial": initial[p], "posted": v, "held": 0} for p, v in book.posted.items()]
    ledger += [
        {"kind": "entry", "saga": "sg-000001", "cmd": "eg-3", "legs": [["float:BBB:main", -2000], [DST, 2000]]},
        {"kind": "entry", "saga": "sg-000001", "cmd": "eg-4",
         "legs": [[SRC, -2030], ["float:AAA:main", 2000], ["fee_pot:AAA:main", 30]]},
    ]
    replay = {"sg-000001": ("COMPLETED", "", 30)}
    return [req_ok, req_down], transcript, rows, replay, ledger


def test_check_run_passes_a_consistent_run():
    requests, transcript, rows, replay, ledger = _fabricated_run()
    view = ClientView()
    read_transcript(transcript, view, False, "GHS")
    assert view.accepted == {"r1": "sg-000001"} and view.unavailable == {"r2"}
    verdict, _ = check_run(SCENARIO, requests, view, rows, replay, ledger)
    assert (verdict.attempted, verdict.failed, verdict.global_ok) == (2, 0, True), verdict.notes


def test_check_run_counts_a_replay_mismatch_as_one_failed_operation():
    requests, transcript, rows, replay, ledger = _fabricated_run()
    view = ClientView()
    read_transcript(transcript, view, False, "GHS")
    replay["sg-000001"] = ("COMPLETED", "other", 30)
    verdict, _ = check_run(SCENARIO, requests, view, rows, replay, ledger)
    assert (verdict.failed, verdict.global_ok) == (1, True)


def test_check_run_catches_a_double_posting():
    requests, transcript, rows, replay, ledger = _fabricated_run()
    view = ClientView()
    read_transcript(transcript, view, False, "GHS")
    ledger.append(dict(ledger[-1]))
    verdict, _ = check_run(SCENARIO, requests, view, rows, replay, ledger)
    assert verdict.failed == 1 and not verdict.global_ok


def test_read_transcript_follows_a_ussd_session():
    frames = [
        (5, "in", "USSD|233000000001|BEGIN|*170#"),
        (5, "out", "USSD|us-000001|CONT|menu"),
        (6, "in", "USSD|us-000001|INPUT|1"),
        (6, "out", "USSD|us-000001|CONT|Enter recipient (kind:institution:id):"),
        (7, "in", f"USSD|us-000001|INPUT|{DST}"),
        (7, "out", "USSD|us-000001|CONT|Enter amount:"),
        (8, "in", "USSD|us-000001|INPUT|20.00"),
        (8, "out", f"USSD|us-000001|CONT|Fee: GHS 0.30. Send GHS 20.00 to {DST}. 1=Confirm 0=Cancel"),
        (9, "in", "USSD|us-000001|INPUT|1"),
        (9, "out", "USSD|us-000001|END|Transfer accepted. Ref: sg-000007"),
        (15, "out", "USSD|us-000001|NOTICE|Result sg-000007: FAILED (compensated:no_account)"),
    ]
    view = ClientView()
    read_transcript(frames, view, True, "GHS")
    assert view.quoted_fee == {"us-000001": 30}
    assert view.accepted == {"us-000001": "sg-000007"}
    assert view.results == {"us-000001": ("FAILED", "compensated:no_account")}


# --- inputs and the benchmark's declared form ---------------------------------------------


def test_rounds_have_the_same_size_whatever_the_seed():
    sizes = {len(inputs.adversity_round(seed, 0)[1]) for seed in range(5)}
    assert sizes == {inputs.ADV_USSD_SESSIONS + inputs.ADV_TRANSFERS}
    assert inputs.adversity_round(3, 1) == inputs.adversity_round(3, 1)
    assert inputs.xfer_mem_round(3, 0) != inputs.xfer_mem_round(4, 0)
    assert all("generate" not in item for item in inputs.xfer_mem_round(1, 0)[0]["traffic"])


def test_metric_names_match_benchmark_json():
    import run
    import tracing

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


# --- smoke runs -------------------------------------------------------------------


def _run(workload: str, trace: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["xfer_mem", "live_tcp"])
def test_smoke_run_has_no_failed_operation(workload):
    result = _run(workload)
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_adversity_fails_only_the_named_matrix_rows():
    result = _run("adversity")
    per_round = inputs.ADV_USSD_SESSIONS + inputs.ADV_TRANSFERS + 25 * 7 + inputs.PROBES["adversity"]
    assert result["correct"] and result["attempted"] % per_round == 0
    assert result["failed"] == 3 * result["attempted"] // per_round


def test_smoke_traced_run_prints_every_per_layer_metric():
    import tracing

    result = _run("xfer_mem", trace=1)
    assert set(result["metrics"]) == set(tracing.PER_LAYER)
    assert result["metrics"]["bus.route_us"]["value"] > 0
