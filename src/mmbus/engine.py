"""Process engine: compensating-saga orchestration over a write-ahead journal.

Transfer flow: authorize -> hold (sender, amount+fee) -> credit
(receiver, amount) -> commit (sender, amount/fee split). A failed or
timed-out credit compensates by releasing the hold. Every state change
appends a journal record before the commands it emits are dispatched,
so a crashed engine can be rebuilt from the journal alone and re-emit
pending commands under their original ids.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .canonical import (
    REQUEST_TYPES,
    CanonicalMessage,
    IdGenerator,
    Money,
    PartyRef,
    compact_json,
    parse_party,
    render_party,
)

RETRY_LIMIT = 3  # timeout events per command before giving up
TIMEOUT_TICKS = 5  # initial reply window
BACKOFF_FACTOR = 2


class EngineError(Exception):
    pass


class CorruptJournal(EngineError):
    pass


class IllegalTransition(EngineError):
    pass


class SagaState(Enum):
    CREATED = "CREATED"
    AUTH_PENDING = "AUTH_PENDING"
    HOLD_PENDING = "HOLD_PENDING"
    CREDIT_PENDING = "CREDIT_PENDING"
    COMMIT_PENDING = "COMMIT_PENDING"
    COMPENSATING = "COMPENSATING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"

    # members are singletons: hash by identity, not Enum's Python-level hash of the name
    __hash__ = object.__hash__


TERMINAL_STATES = frozenset({SagaState.COMPLETED, SagaState.FAILED})

# the transition table for replies and submission; every entry changes state
_TRANSITIONS = {
    (SagaState.CREATED, "submitted"): SagaState.AUTH_PENDING,
    (SagaState.AUTH_PENDING, "auth.ok"): SagaState.HOLD_PENDING,
    (SagaState.AUTH_PENDING, "auth.denied"): SagaState.FAILED,
    (SagaState.HOLD_PENDING, "hold.ok"): SagaState.CREDIT_PENDING,
    (SagaState.HOLD_PENDING, "hold.err"): SagaState.FAILED,
    (SagaState.CREDIT_PENDING, "credit.ok"): SagaState.COMMIT_PENDING,
    (SagaState.CREDIT_PENDING, "credit.err"): SagaState.COMPENSATING,
    (SagaState.COMMIT_PENDING, "commit.ok"): SagaState.COMPLETED,
    (SagaState.COMPENSATING, "release.ok"): SagaState.FAILED,
}

# where the last allowed timeout of a capped command leads, and the reason it records
_TIMEOUT_EXHAUSTED = {
    SagaState.AUTH_PENDING: (SagaState.FAILED, "auth_timeout"),
    SagaState.HOLD_PENDING: (SagaState.FAILED, "hold_timeout"),
    SagaState.CREDIT_PENDING: (SagaState.COMPENSATING, "compensated:credit_timeout"),
}

# states whose outstanding command is retried forever rather than capped
_UNBOUNDED_RETRY = frozenset({SagaState.COMMIT_PENDING, SagaState.COMPENSATING})

# the command a saga has outstanding in each non-terminal state
_OUTSTANDING_TYPE = {
    SagaState.AUTH_PENDING: "authorize.cmd",
    SagaState.HOLD_PENDING: "hold.cmd",
    SagaState.CREDIT_PENDING: "credit.cmd",
    SagaState.COMMIT_PENDING: "commit.cmd",
    SagaState.COMPENSATING: "release.cmd",
}

# journal state names to states and back, without Enum's by-value lookup or value descriptor
_STATE_BY_NAME = {state.value: state for state in SagaState}
_NAME_OF_STATE = {state: state.value for state in SagaState}


def next_state(state: SagaState, event: dict) -> SagaState:
    """The transition table; raises IllegalTransition off the table."""
    kind = event["kind"]
    if kind == "timeout":
        if state in _UNBOUNDED_RETRY:
            return state
        exhausted = _TIMEOUT_EXHAUSTED.get(state)
        if exhausted is None:
            raise IllegalTransition(f"timeout in {state.value}")
        return state if event["n"] < RETRY_LIMIT else exhausted[0]
    if kind == "stale" or kind == "recovered":
        return state
    to_state = _TRANSITIONS.get((state, kind))
    if to_state is None:
        raise IllegalTransition(f"{kind} in {state.value}")
    return to_state


@dataclass(slots=True)
class Saga:
    saga_id: str
    kind: str
    client_ref: str
    reply_to: str
    request_corr: str
    source: PartyRef
    destination: PartyRef
    amount: Money
    state: SagaState = SagaState.CREATED
    fee: Money | None = None
    reason: str = ""
    outstanding_cmd: str | None = None
    timeouts: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


def _money_json(m: Money) -> dict:
    return {"ccy": m.currency, "minor": m.minor_units}


def _money_from(d: dict) -> Money:
    return Money(d["ccy"], d["minor"])


def apply(saga: Saga, event: dict) -> SagaState:
    """Move a saga by one event and return its new state.

    The one transition path of the live engine, recovery and replay: it
    sets state, reason, fee and the timeout count, and journals and emits
    nothing. Raises IllegalTransition off the table.
    """
    from_state = saga.state
    to_state = next_state(from_state, event)
    kind = event["kind"]
    if kind == "timeout":
        saga.timeouts = event["n"]
        if to_state is not from_state:
            saga.reason = _TIMEOUT_EXHAUSTED[from_state][1]
            if to_state is SagaState.COMPENSATING:
                saga.timeouts = 0  # the release counts its own timeouts
    elif to_state is not from_state:
        saga.timeouts = 0
        if kind == "auth.ok":
            saga.fee = _money_from(event["fee"])
        elif kind == "credit.err":
            saga.reason = f"compensated:{event['reason']}"
        elif kind == "auth.denied" or kind == "hold.err":
            saga.reason = event["reason"]
    saga.state = to_state
    return to_state


def saga_row(saga: Saga) -> dict:
    """A saga as the run report lists it, and as replay rebuilds it."""
    return {
        "saga": saga.saga_id,
        "kind": saga.kind,
        "client_ref": saga.client_ref,
        "state": _NAME_OF_STATE[saga.state],
        "reason": saga.reason,
        "from": render_party(saga.source),
        "to": render_party(saga.destination),
        "amount": _money_json(saga.amount),
        "fee": _money_json(saga.fee) if saga.fee is not None else None,
    }


def _command_body(saga: Saga, msg_type: str) -> dict:
    """A command's body; a retry or re-emission rebuilds it under the same id."""
    if msg_type == "authorize.cmd":
        return {"saga": saga.saga_id, "op": saga.kind, "party": saga.source, "amount": saga.amount}
    if msg_type == "credit.cmd":
        return {"saga": saga.saga_id, "party": saga.destination, "amount": saga.amount}
    if msg_type == "commit.cmd":
        return {"saga": saga.saga_id, "party": saga.source, "amount": saga.amount, "fee": saga.fee}
    # hold.cmd earmarks amount plus fee at the source; release.cmd frees all of it
    return {"saga": saga.saga_id, "party": saga.source, "amount": saga.amount + saga.fee}


class Journal:
    """Append-only NDJSON record log with gapless seq, flushed per record."""

    def __init__(self, path: str | None, start_seq: int = 0) -> None:
        self.path = path
        self.seq = start_seq
        # highest seq whose emissions all reached dispatch; only records
        # past this point can be torn by a crash
        self.settled_seq = start_seq
        self.records: list[dict] = []
        self._fh = open(path, "a", encoding="utf-8") if path else None

    def append(self, record: dict) -> None:
        self.seq += 1
        record["seq"] = self.seq
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(compact_json(record) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def durability(self) -> dict:
        """Where records go and when they are forced to disk."""
        if self.path is None:
            return {"backing": "memory", "fsync": "off"}
        return {"backing": "file", "fsync": "record"}

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def load_journal(path: str) -> list[dict]:
    """Read and structurally check a journal file (gapless seq from 1)."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptJournal(f"line {lineno}: bad json: {exc}") from None
            records.append(record)
    for i, record in enumerate(records, start=1):
        for key in ("seq", "tick", "saga", "from_state", "event", "to_state", "cmds"):
            if key not in record:
                raise CorruptJournal(f"seq {record.get('seq', '?')}: missing {key}")
        if record["seq"] != i:
            raise CorruptJournal(f"gap: expected seq {i}, found {record['seq']}")
    return records


def truncate_last_record(path: str) -> None:
    """Drop the final record, as a torn tail write would."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines[:-1]:
            fh.write(line + "\n")


def fold_records(records: list[dict]) -> dict[str, Saga]:
    """Rebuild saga objects by replaying records through `apply`, checking each against it."""
    sagas: dict[str, Saga] = {}
    for record in records:
        saga_id = record["saga"]
        event = record["event"]
        try:
            from_state = _STATE_BY_NAME[record["from_state"]]
            to_state = _STATE_BY_NAME[record["to_state"]]
        except (KeyError, TypeError):
            raise CorruptJournal(
                f"seq {record['seq']}: unknown state in {record['from_state']!r} -> {record['to_state']!r}"
            ) from None
        saga = sagas.get(saga_id)
        if saga is None:
            if event["kind"] != "submitted":
                raise CorruptJournal(f"seq {record['seq']}: {saga_id} begins with {event['kind']}")
            saga = sagas[saga_id] = Saga(
                saga_id=saga_id,
                kind=event["msg_type"],
                client_ref=event["client_ref"],
                reply_to=event["reply_to"],
                request_corr=event["corr"],
                source=parse_party(event["from"]),
                destination=parse_party(event["to"]),
                amount=_money_from(event["amount"]),
            )
        if saga.state is not from_state:
            raise CorruptJournal(
                f"seq {record['seq']}: {saga_id} is in {saga.state.value}, record says {record['from_state']}"
            )
        try:
            expected = apply(saga, event)
        except IllegalTransition as exc:
            raise CorruptJournal(f"seq {record['seq']}: {exc}") from None
        if expected is not to_state:
            raise CorruptJournal(
                f"seq {record['seq']}: {event['kind']} in {record['from_state']} goes to {expected.value}, record says {record['to_state']}"
            )
        if expected in TERMINAL_STATES:
            saga.outstanding_cmd = None
        elif record["cmds"]:
            saga.outstanding_cmd = record["cmds"][0]
    return sagas


class ProcessEngine:
    """Single orchestrator owning every saga transition."""

    def __init__(
        self,
        journal: Journal,
        now: Callable[[], int],
        emit: Callable[[CanonicalMessage], None],
        arm_timer: Callable[[int, str, str], None],
        msg_seq_start: int = 0,
        saga_seq_start: int = 0,
    ) -> None:
        self.journal = journal
        self.now = now
        self.emit = emit
        self.arm_timer = arm_timer
        self.ids = IdGenerator("eg", msg_seq_start)
        self.saga_ids = IdGenerator("sg", saga_seq_start)
        self.sagas: dict[str, Saga] = {}
        self.by_client_ref: dict[str, str] = {}

    # -- ingress --------------------------------------------------------

    def submit(self, msg: CanonicalMessage) -> tuple[str, bool]:
        """Start (or dedupe) a saga for a financial request; returns (saga_id, created)."""
        if msg.msg_type not in REQUEST_TYPES:
            raise EngineError(f"not a financial request: {msg.msg_type}")
        client_ref = msg.body["client_ref"]
        existing = self.by_client_ref.get(client_ref)
        if existing is not None:
            return existing, False
        saga = Saga(
            saga_id=self.saga_ids.next(),
            kind=msg.msg_type,
            client_ref=client_ref,
            reply_to=msg.source,
            request_corr=msg.correlation_id,
            source=msg.body["from"],
            destination=msg.body["to"],
            amount=msg.body["amount"],
        )
        self.sagas[saga.saga_id] = saga
        self.by_client_ref[client_ref] = saga.saga_id
        event = {
            "kind": "submitted",
            "msg_type": msg.msg_type,
            "client_ref": client_ref,
            "reply_to": saga.reply_to,
            "corr": saga.request_corr,
            "from": render_party(saga.source),
            "to": render_party(saga.destination),
            "amount": _money_json(saga.amount),
        }
        self._advance(saga, event)
        return saga.saga_id, True

    def on_reply(self, msg: CanonicalMessage) -> None:
        """Feed an auth/hold/credit/commit/release reply into its saga."""
        saga = self.sagas.get(msg.body.get("saga", ""))
        if saga is None:
            return  # reply for a saga this engine never started; drop
        cmd = msg.body.get("cmd", "")
        kind = msg.msg_type
        # a reply the saga's state has no transition for is stale
        if cmd != saga.outstanding_cmd or (saga.state, kind) not in _TRANSITIONS:
            self._stale(saga, msg.message_id)
            return
        event: dict = {"kind": kind, "cmd": cmd}
        if kind == "auth.ok":
            event["fee"] = _money_json(msg.body["fee"])
        elif kind in ("auth.denied", "hold.err", "credit.err"):
            event["reason"] = msg.body["reason"]
        self._advance(saga, event)

    def _stale(self, saga: Saga, about: str) -> None:
        self._advance(saga, {"kind": "stale", "about": about})

    def on_timeout(self, saga_id: str, cmd_id: str) -> None:
        saga = self.sagas.get(saga_id)
        if saga is None or saga.terminal or saga.outstanding_cmd != cmd_id:
            return  # stale timer, nothing outstanding under that id
        self._advance(saga, {"kind": "timeout", "cmd": cmd_id, "n": saga.timeouts + 1})

    # -- the live side of the one transition path ------------------------

    def _advance(self, saga: Saga, event: dict) -> None:
        from_state = saga.state
        to_state = apply(saga, event)
        msg = self._emission(saga, event["kind"], from_state, to_state)
        self.journal.append(
            {
                "tick": self.now(),
                "saga": saga.saga_id,
                "from_state": _NAME_OF_STATE[from_state],
                "event": event,
                "to_state": _NAME_OF_STATE[to_state],
                "cmds": [] if msg is None else [msg.message_id],
            }
        )
        if msg is not None:
            is_cmd = msg.msg_type != "saga.result"
            saga.outstanding_cmd = msg.message_id if is_cmd else None
            self.emit(msg)
            if is_cmd:
                window = TIMEOUT_TICKS * (BACKOFF_FACTOR ** saga.timeouts)
                self.arm_timer(self.now() + window, saga.saga_id, msg.message_id)
        self.journal.settled_seq = self.journal.seq

    def _emission(self, saga: Saga, kind: str, from_state: SagaState, to_state: SagaState) -> CanonicalMessage | None:
        if to_state is from_state:
            if kind == "stale":
                return None
            # a retry after a timeout, or a re-emission after recovery: the same command, same id
            assert saga.outstanding_cmd is not None
            return self._cmd(saga, _OUTSTANDING_TYPE[to_state], saga.outstanding_cmd)
        msg_type = _OUTSTANDING_TYPE.get(to_state)
        if msg_type is None:
            return self._result(saga, to_state)
        return self._cmd(saga, msg_type, self.ids.next())

    def _cmd(self, saga: Saga, msg_type: str, message_id: str) -> CanonicalMessage:
        return CanonicalMessage(
            message_id, saga.request_corr, msg_type, "bus", "bus", self.now(), _command_body(saga, msg_type)
        )

    def _result(self, saga: Saga, state: SagaState) -> CanonicalMessage:
        body = {"saga": saga.saga_id, "client_ref": saga.client_ref, "state": _NAME_OF_STATE[state], "reason": saga.reason}
        return CanonicalMessage(self.ids.next(), saga.request_corr, "saga.result", "bus", saga.reply_to, self.now(), body)

    # -- recovery ---------------------------------------------------------

    @classmethod
    def recover(
        cls,
        records: list[dict],
        journal: Journal,
        now: Callable[[], int],
        emit: Callable[[CanonicalMessage], None],
        arm_timer: Callable[[int, str, str], None],
    ) -> tuple["ProcessEngine", int]:
        """Rebuild from journal records; re-emit pending commands, original ids."""
        sagas = fold_records(records)
        max_eg = 0
        max_sg = 0
        for record in records:
            for cmd in record["cmds"]:
                node, _, seq = cmd.partition("-")
                if node == "eg":
                    max_eg = max(max_eg, int(seq))
        for saga_id in sagas:
            node, _, seq = saga_id.partition("-")
            if node == "sg":
                max_sg = max(max_sg, int(seq))
        engine = cls(journal, now, emit, arm_timer, msg_seq_start=max_eg, saga_seq_start=max_sg)
        engine.sagas = sagas
        engine.by_client_ref = {s.client_ref: s.saga_id for s in sagas.values()}
        resumed = 0
        for saga_id in sorted(sagas):
            saga = sagas[saga_id]
            if saga.terminal:
                continue
            resumed += 1
            engine._advance(saga, {"kind": "recovered"})
        return engine, resumed

    # -- introspection ---------------------------------------------------

    def pending(self) -> list[str]:
        return sorted(s.saga_id for s in self.sagas.values() if not s.terminal)

    def saga_rows(self) -> list[dict]:
        return [saga_row(self.sagas[saga_id]) for saga_id in sorted(self.sagas)]
