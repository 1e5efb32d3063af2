"""Workload inputs, generated from the seed the benchmark is given.

The switch only ever receives explicit traffic lines and frames; no
scenario here carries a `generate` block. Every round of a workload has
the same number of requests whatever the seed, so a run's share of failed
operations depends on the program alone.
"""
from __future__ import annotations

import copy
import json
import os
import random

from common import ROOT
from oracles import Request, gateway_line, minor

CCY = "GHS"

XFER_TRANSFERS = 1500  # the size of scenarios/throughput.json
PROBES = {"xfer_mem": 200, "adversity": 200}  # 10 samples beyond each p95

ADV_USSD_SESSIONS = 16
ADV_TRANSFERS = 480
ADV_DESIGNED_EVERY = 32  # every 32nd transfer is a designed failure
ADV_BIG = "100000.00"


def load_repo_json(name: str) -> dict:
    with open(os.path.join(ROOT, "scenarios", name), encoding="utf-8") as fh:
        return json.load(fh)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _throughput_base() -> tuple[dict, list[str], int, int]:
    obj = load_repo_json("throughput.json")
    gen = next(t["generate"] for t in obj["traffic"] if "generate" in t)
    base = {k: v for k, v in obj.items() if k not in ("traffic", "seed")}
    return base, list(gen["parties"]), minor(gen["amount_min"]), minor(gen["amount_max"])


def xfer_mem_round(seed: int, rnd: int) -> tuple[dict, list[Request]]:
    """throughput.json's endpoints, rules and amount range; explicit funded transfers."""
    base, parties, lo, hi = _throughput_base()
    rng = _rng("xfer_mem", seed, rnd)
    scenario = dict(base, name=f"xfer_mem-{seed}-{rnd}", seed=seed, traffic=[])
    requests = []
    for i in range(XFER_TRANSFERS):
        src, dst = rng.sample(parties, 2)
        req = Request(f"x{rnd}-{i:05d}", src, dst, rng.randint(lo, hi))
        requests.append(req)
        scenario["traffic"].append({"tick": 5 + i, "channel": "ch:web", "line": gateway_line(req.ref, src, dst, req.amount, CCY)})
    return scenario, requests


def live_scenario() -> tuple[dict, list[str], int, int]:
    """The xfer_mem switch plus a USSD channel, served over TCP.

    Balances and daily caps are raised so that a faster switch cannot
    drain an account or reach a cap within a run of any length.
    """
    base, parties, lo, hi = _throughput_base()
    scenario = copy.deepcopy(base)
    scenario["name"] = "live_tcp"
    scenario["traffic"] = []
    for ep in scenario["endpoints"]:
        ep["daily_cap"] = "1000000000.00"
        for acct in ep["accounts"]:
            acct["balance"] = "1000000.00"
    scenario["channels"].append({"id": "ch:ussd", "protocol": "ussd", "institution": scenario["endpoints"][0]["id"]})
    return scenario, parties, lo, hi


# --- adversity ----------------------------------------------------------------

# (id, native format, kind, party kind, fee flat, fee bps, fee cap)
_INSTITUTIONS = [
    ("MTNG", "wallet_kv", "wallet_platform", "wallet", "0.10", 100, "2.00"),
    ("AIRTG", "wallet_kv", "wallet_platform", "wallet", "0.15", 80, "1.50"),
    ("VODAG", "canonical", "wallet_platform", "wallet", "0.05", 150, "1.00"),
    ("GCBANK", "canonical", "bank", "bank", "0.30", 40, "3.00"),
    ("ABBANK", "bank_pipe", "rural_bank", "bank", "0.25", 50, "1.50"),
    # RB01 only ever pays out: no credit is routed to it, so no endpoint
    # crash can hold up the releases of the designed compensations it sends
    ("RB01", "bank_pipe", "rural_bank", "bank", "0.20", 75, "2.50"),
]
QUIET = "RB01"
USSD_INSTITUTION = "MTNG"
_ACCOUNTS_PER_INSTITUTION = 8
_RULE_TYPES = (("hold", "hold.cmd"), ("credit", "credit.cmd"), ("commit", "commit.cmd"),
               ("release", "release.cmd"), ("balance", "balance.request"))
_OPS = ["transfer.request", "cashout.request", "cashin.request", "hold.cmd", "credit.cmd",
        "commit.cmd", "release.cmd", "balance.request"]


def _party(inst: str, kind: str, i: int) -> str:
    code = sum(ord(c) for c in inst) % 900 + 100
    return f"wallet:{inst}:233{code}{i:06d}" if kind == "wallet" else f"bank:{inst}:ACC-{i:04d}"


def adversity_base(seed: int, rnd: int, poor: int) -> tuple[dict, list[str]]:
    """Six institutions over all three native formats and 36 routing rules."""
    endpoints, rules, payers = [], [], []
    for inst, fmt, kind, pkind, flat, bps, cap in _INSTITUTIONS:
        accounts = [{"party": _party(inst, pkind, i), "balance": ADV_BIG} for i in range(1, _ACCOUNTS_PER_INSTITUTION + 1)]
        if inst == QUIET:
            # one short-funded account per designed insufficient-funds request
            accounts += [{"party": f"bank:{inst}:POOR-{i:04d}", "balance": "1.00"} for i in range(poor)]
        endpoints.append({
            "id": inst, "kind": kind, "native_format": fmt, "operations": _OPS,
            "per_txn_cap": "200.00", "daily_cap": "1000000000.00",
            "fee": {"flat": flat, "basis_points": bps, "fee_cap": cap},
            "float": "10000000.00", "accounts": accounts,
        })
        for short, msg_type in _RULE_TYPES:
            rules.append({"id": f"{inst}-{short}", "priority": 10, "target": inst,
                          "match": {"msg_type": msg_type, "party_institution": inst}})
        rules.append({"id": f"{inst}-any", "priority": 50, "target": inst, "match": {"party_institution": inst}})
        payers += [a["party"] for a in accounts if "POOR" not in a["party"]]
    scenario = {
        "name": f"adversity-{seed}-{rnd}", "seed": seed, "currency": CCY, "torn_tail": True,
        "endpoints": endpoints, "rules": rules,
        "channels": [{"id": "ch:web", "protocol": "gateway"},
                     {"id": "ch:ussd", "protocol": "ussd", "institution": USSD_INSTITUTION}],
        "traffic": [],
    }
    return scenario, payers


def adversity_round(seed: int, rnd: int) -> tuple[dict, list[Request]]:
    """USSD sessions, then gateway transfers with designed failures, under a fault schedule."""
    rng = _rng("adversity", seed, rnd)
    designed = ADV_TRANSFERS // ADV_DESIGNED_EVERY
    scenario, payers = adversity_base(seed, rnd, (designed + 2) // 3)
    receivers = [p for p in payers if p.split(":")[1] != QUIET]
    ussd_payers = [p for p in payers if p.split(":")[1] == USSD_INSTITUTION]
    traffic, requests = scenario["traffic"], []

    tick = 5
    for k in range(ADV_USSD_SESSIONS):
        src = rng.choice(ussd_payers)
        dst = rng.choice([p for p in receivers if p != src])
        amount = rng.randint(100, 15000)
        session = f"us-{k + 1:06d}"
        frames = [f"USSD|{src.split(':')[2]}|BEGIN|*170#", f"USSD|{session}|INPUT|1", f"USSD|{session}|INPUT|{dst}",
                  f"USSD|{session}|INPUT|{amount // 100}.{amount % 100:02d}", f"USSD|{session}|INPUT|1"]
        for i, frame in enumerate(frames):
            traffic.append({"tick": tick + i, "channel": "ch:ussd", "frame": frame})
        requests.append(Request(session, src, dst, amount))
        tick += 8

    tick += 10
    poor = iter(range(designed))
    for i in range(ADV_TRANSFERS):
        ref = f"a{rnd}-{i:05d}"
        src = rng.choice(payers)
        dst = rng.choice([p for p in receivers if p != src])
        amount = rng.randint(100, 15000)
        if i % ADV_DESIGNED_EVERY == ADV_DESIGNED_EVERY - 1:
            kind = (i // ADV_DESIGNED_EVERY) % 3
            if kind == 0:  # short-funded sender: hold.err insufficient
                src, amount = f"bank:{QUIET}:POOR-{next(poor):04d}", rng.randint(2000, 15000)
            elif kind == 1:  # unknown destination: credit.err, then compensation
                src = rng.choice([p for p in payers if p.split(":")[1] == QUIET])
                dst = f"bank:{rng.choice(['ABBANK', 'GCBANK'])}:NOSUCH-{i:04d}"
            else:  # over the per-transaction cap: auth.denied
                amount = rng.randint(20001, 40000)
        requests.append(Request(ref, src, dst, amount))
        traffic.append({"tick": tick + 2 * i, "channel": "ch:web", "line": gateway_line(ref, src, dst, amount, CCY)})

    scenario["faults"] = fault_schedule(rng)
    return scenario, requests


def fault_schedule(rng: random.Random) -> list[dict]:
    """Drops, duplicates and delays of every command type, endpoint and bus crashes.

    Directives on one command type sit at least 60 dispatches apart, and a
    crashed endpoint restarts within 6 ticks, so no command of a funded
    transfer can time out three times: every request's designed outcome
    holds under the schedule. Release commands are duplicated and delayed
    within their 5-tick reply window only, because a timed-out release
    rewrites the saga's failure reason (see the README). Occurrences start
    past the dispatches the USSD sessions can make, so no bus crash defers
    a USSD frame, and end well before the fewest dispatches a round makes
    of each of the four busiest command types.
    """
    first = 3 * ADV_USSD_SESSIONS + 10
    faults = []

    def place(msg_type: str, actions: list[dict]) -> None:
        for j, action in enumerate(actions):
            occurrence = first + 70 * j + rng.randint(0, 9)
            faults.append(dict(action, msg_type=msg_type, occurrence=occurrence))

    drop, dup = {"action": "drop"}, {"action": "duplicate"}
    delay = {"action": "delay", "ticks": 7}
    crash_bus = {"action": "crash_bus"}
    place("authorize.cmd", [drop, crash_bus, dup, {"action": "crash_endpoint", "restart_after": 6}, delay, crash_bus])
    place("hold.cmd", [dup, drop, crash_bus, delay, drop, dup])
    place("credit.cmd", [delay, {"action": "crash_endpoint", "restart_after": 6}, drop, crash_bus, dup, drop])
    place("commit.cmd", [crash_bus, dup, delay, drop, crash_bus, dup])
    faults.append({"msg_type": "release.cmd", "occurrence": 2, "action": "duplicate"})
    faults.append({"msg_type": "release.cmd", "occurrence": 4, "action": "delay", "ticks": 3})
    return faults


def matrix_cells() -> list[tuple[str, dict, list[Request]]]:
    """The 25 cells of scenarios/fault_matrix.json, merged as `mmbus run` merges them."""
    obj = load_repo_json("fault_matrix.json")
    base = obj["base"]
    requests = []
    for item in base["traffic"]:
        body = json.loads(item["line"])["body"]
        requests.append(Request(body["client_ref"], body["from"], body["to"], body["amount"]["minor"]))
    cells = []
    for i, cell in enumerate(obj["cells"]):
        name = cell.get("name", f"cell{i}")
        merged = dict(base, faults=list(base.get("faults", [])) + list(cell.get("faults", [])), name=f"fault_matrix:{name}")
        cells.append((name, merged, requests))
    return cells


def probe_requests(workload: str, scenario: dict, seed: int, rnd: int) -> list[Request]:
    """Funded transfers between the round's well-funded accounts, for the latency probes."""
    rng = _rng("probe", workload, seed, rnd)
    parties = [a["party"] for ep in scenario["endpoints"] for a in ep["accounts"] if minor(a["balance"]) >= 100000]
    out = []
    for i in range(PROBES[workload]):
        src, dst = rng.sample(parties, 2)
        out.append(Request(f"p{rnd}-{i:04d}", src, dst, rng.randint(100, 2000)))
    return out
