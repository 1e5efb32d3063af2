"""Oracles the benchmark checks the switch against, written apart from mmbus.

Nothing here imports the program. Fees are computed with exact rationals,
balances with a plain dict of posted minor units, and the artifact check
recomputes every property from ledger dump rows, saga rows and client
lines as the switch wrote them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction


def fee_oracle(amount_minor: int, flat_minor: int, bps: int, cap_minor: int) -> int:
    """flat + (amount * bps / 10000 rounded half-up), then capped."""
    variable = math.floor(Fraction(amount_minor * bps, 10000) + Fraction(1, 2))
    return min(flat_minor + variable, cap_minor)


def minor(text: str) -> int:
    """A decimal amount string ("12", "12.5", "12.05") in minor units."""
    whole, _, frac = text.partition(".")
    return int(whole) * 100 + int((frac or "0").ljust(2, "0"))


@dataclass(frozen=True)
class Terms:
    flat: int
    bps: int
    cap: int
    per_txn_cap: int


@dataclass(frozen=True)
class Outcome:
    state: str
    reason: str
    fee: int | None


class BalanceOracle:
    """Posted balances of every account, applied one request at a time.

    Floats and fee pots are tracked like customer accounts, so the final
    book can be compared with every row of a ledger dump.
    """

    def __init__(self, scenario: dict) -> None:
        self.terms: dict[str, Terms] = {}
        self.posted: dict[str, int] = {}
        for ep in scenario["endpoints"]:
            inst = ep["id"]
            fee = ep.get("fee", {})
            self.terms[inst] = Terms(
                minor(fee.get("flat", "0")), int(fee.get("basis_points", 0)),
                minor(fee.get("fee_cap", "0")), minor(ep["per_txn_cap"]),
            )
            self.posted[f"float:{inst}:main"] = minor(ep.get("float", "0"))
            self.posted[f"fee_pot:{inst}:main"] = 0
            for acct in ep.get("accounts", []):
                self.posted[acct["party"]] = minor(acct["balance"])

    def fee(self, src: str, amount: int) -> int:
        t = self.terms[src.split(":")[1]]
        return fee_oracle(amount, t.flat, t.bps, t.cap)

    def transfer(self, src: str, dst: str, amount: int) -> Outcome:
        """The designed outcome of one transfer, applied to the book if it completes."""
        src_inst = src.split(":")[1]
        if amount > self.terms[src_inst].per_txn_cap:
            return Outcome("FAILED", "per_txn_cap", None)
        fee = self.fee(src, amount)
        if src not in self.posted:
            return Outcome("FAILED", "no_account", fee)
        if self.posted[src] < amount + fee:
            return Outcome("FAILED", "insufficient", fee)
        if dst not in self.posted:
            return Outcome("FAILED", "compensated:no_account", fee)
        self.posted[src] -= amount + fee
        self.posted[f"fee_pot:{src_inst}:main"] += fee
        self.posted[f"float:{src_inst}:main"] += amount
        self.posted[f"float:{dst.split(':')[1]}:main"] -= amount
        self.posted[dst] += amount
        return Outcome("COMPLETED", "", fee)


@dataclass(frozen=True)
class Request:
    """One customer request: a gateway transfer line or a whole USSD session."""

    ref: str  # the client_ref the switch files the saga under
    src: str
    dst: str
    amount: int


def gateway_line(ref: str, src: str, dst: str, amount: int, ccy: str) -> str:
    return json.dumps(
        {"v": 1, "id": ref, "corr": ref, "type": "transfer.request", "src": "client", "dst": "bus",
         "body": {"from": src, "to": dst, "amount": {"ccy": ccy, "minor": amount}, "client_ref": ref}},
        separators=(",", ":"),
    )


def balance_line(ref: str, party: str) -> str:
    return json.dumps(
        {"v": 1, "id": ref, "corr": ref, "type": "balance.request", "src": "client", "dst": "bus",
         "body": {"party": party}},
        separators=(",", ":"),
    )


@dataclass
class ClientView:
    """What the clients saw, keyed by client_ref."""

    accepted: dict[str, str] = field(default_factory=dict)  # ref -> saga id from the ack
    unavailable: set[str] = field(default_factory=set)
    results: dict[str, tuple[str, str]] = field(default_factory=dict)  # ref -> (state, reason)
    quoted_fee: dict[str, int] = field(default_factory=dict)  # USSD confirm prompts
    problems: dict[str, str] = field(default_factory=dict)


def read_transcript(lines, view: ClientView, ussd: bool, ccy: str) -> None:
    """Fold a channel transcript ((tick, direction, text) rows) into the client view."""
    pending: str | None = None  # the client_ref whose synchronous reply comes next
    pending_id = ""  # and its message id, which a gateway ack echoes
    for _, direction, text in lines:
        if direction == "in":
            if ussd:
                _, ref, verb, arg = text.split("|", 3)
                pending = ref if verb == "INPUT" and arg == "1" and ref in view.quoted_fee else None
            else:
                obj = json.loads(text)
                pending, pending_id = obj["body"]["client_ref"], obj["id"]
            continue
        if ussd:
            _, ref, verb, body = text.split("|", 3)
            if verb == "NOTICE":
                state_part = body.split(": ", 1)[1]
                state, _, reason = state_part.partition(" (")
                view.results[ref] = (state, reason[:-1] if reason else "")
            elif body.startswith("Fee: "):
                # "Fee: GHS 0.25. Send GHS 12.00 to wallet:... 1=Confirm 0=Cancel"
                quoted = body[len("Fee: "):].split(". ", 1)[0]
                view.quoted_fee[ref] = minor(quoted.removeprefix(ccy + " "))
            elif pending is not None and pending == ref:
                if body.startswith("Service unavailable"):
                    view.unavailable.add(ref)
                elif "accepted. Ref: " in body:
                    view.accepted[ref] = body.rsplit(" ", 1)[1]
                else:
                    view.problems[ref] = f"confirm answered {body!r}"
                pending = None
            continue
        obj = json.loads(text)
        if obj.get("type") == "saga.result":
            body = obj["body"]
            view.results[body["client_ref"]] = (body["state"], body["reason"])
        elif pending is not None:
            if obj.get("error") == "unavailable":
                view.unavailable.add(pending)
            elif obj.get("accepted") == pending_id:
                view.accepted[pending] = obj["saga"]
            else:
                view.problems[pending] = f"answered {text!r}"
            pending = None


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    global_ok: bool = True
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def bad(self, note: str) -> None:
        self.global_ok = False
        self.notes.append(note)

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.global_ok = self.global_ok and other.global_ok
        self.notes.extend(other.notes)


def check_run(
    scenario: dict,
    requests: list[Request],
    view: ClientView,
    saga_rows: list[dict],
    replay_rows: dict[str, tuple[str, str, int | None]],
    ledger_rows: list[dict],
    oracle: BalanceOracle | None = None,
) -> tuple[Verdict, BalanceOracle]:
    """Check one run's outputs, operation by operation, against the oracles.

    An operation is one request. It fails when any of its own checks fail:
    the designed outcome (state, reason, fee), the client's result, the
    journal replay row, and the ledger postings of its saga. Properties of
    the whole run (conservation, zero-sum entries, exactly-once postings,
    terminal sagas, the final book) clear `global_ok` instead.
    """
    oracle = oracle or BalanceOracle(scenario)
    verdict = Verdict()
    rows_by_ref = {row["client_ref"]: row for row in saga_rows}
    accounts = [r for r in ledger_rows if r["kind"] == "account"]
    entries = [r for r in ledger_rows if r["kind"] == "entry"]
    entries_by_saga: dict[str, list[dict]] = {}
    for e in entries:
        entries_by_saga.setdefault(e["saga"], []).append(e)

    for req in requests:
        verdict.attempted += 1
        row = rows_by_ref.get(req.ref)
        if req.ref in view.problems:
            verdict.fail(f"{req.ref}: {view.problems[req.ref]}")
            continue
        if req.ref in view.unavailable:
            if row is not None:
                verdict.fail(f"{req.ref}: answered unavailable but has saga {row['saga']}")
            continue
        saga = view.accepted.get(req.ref)
        if saga is None or row is None or row["saga"] != saga:
            verdict.fail(f"{req.ref}: ack saga {saga} vs row {row and row['saga']}")
            continue
        want = oracle.transfer(req.src, req.dst, req.amount)
        got = (row["state"], row["reason"], row["fee"]["minor"] if row["fee"] else None)
        problems = []
        if got != (want.state, want.reason, want.fee):
            problems.append(f"row {got} != oracle {(want.state, want.reason, want.fee)}")
        if (row["from"], row["to"], row["amount"]["minor"]) != (req.src, req.dst, req.amount):
            problems.append("row parties/amount differ from the request")
        if replay_rows.get(saga) != got:
            problems.append(f"replay {replay_rows.get(saga)} != row {got}")
        if view.results.get(req.ref) != (row["state"], row["reason"]):
            problems.append(f"client result {view.results.get(req.ref)} != row {(row['state'], row['reason'])}")
        if req.ref in view.quoted_fee and view.quoted_fee[req.ref] != oracle.fee(req.src, req.amount):
            problems.append(f"quoted fee {view.quoted_fee[req.ref]} != oracle")
        posted = entries_by_saga.get(saga, [])
        delta: dict[str, int] = {}
        for e in posted:
            for party, d in e["legs"]:
                delta[party] = delta.get(party, 0) + d
        if want.state == "COMPLETED":
            src_inst = req.src.split(":")[1]
            expect = {req.src: -(req.amount + want.fee), req.dst: req.amount}
            pot = f"fee_pot:{src_inst}:main"
            if want.fee:
                expect[pot] = want.fee
            if len(posted) != 2 or any(delta.get(p, 0) != v for p, v in expect.items()) or delta.get(pot, 0) != want.fee:
                problems.append(f"postings {delta} in {len(posted)} entries")
        elif posted or any(delta.values()):
            problems.append(f"failed saga posted {delta}")
        if problems:
            verdict.fail(f"{req.ref} ({saga}): " + "; ".join(problems))

    refs = {req.ref for req in requests}
    phantom = [row["saga"] for row in saga_rows if row["client_ref"] not in refs]
    if phantom:
        verdict.bad(f"sagas with no request: {phantom[:5]}")
    nonterminal = [row["saga"] for row in saga_rows if row["state"] not in ("COMPLETED", "FAILED")]
    if nonterminal:
        verdict.bad(f"non-terminal sagas: {nonterminal[:5]}")
    if sum(a["initial"] for a in accounts) != sum(a["posted"] for a in accounts):
        verdict.bad("conservation: posted total differs from the initial total")
    if any(sum(d for _, d in e["legs"]) != 0 for e in entries):
        verdict.bad("an entry does not sum to zero")
    cmds = [e["cmd"] for e in entries]
    if len(cmds) != len(set(cmds)):
        verdict.bad("a command was posted twice")
    known = {row["saga"] for row in saga_rows}
    if any(e["saga"] not in known for e in entries):
        verdict.bad("an entry belongs to no saga")
    book = {a["party"]: (a["posted"], a["held"]) for a in accounts}
    wrong = [p for p, v in oracle.posted.items() if book.get(p) != (v, 0)]
    if wrong or len(book) != len(oracle.posted):
        verdict.bad(f"final book differs from the balance oracle at {wrong[:5]}")
    return verdict, oracle
