"""Saga orchestration: transitions, retries, journaling, recovery."""
from __future__ import annotations

import pytest

from conftest import bank, ghs, mk, wallet
from mmbus.canonical import CanonicalMessage
from mmbus.engine import (
    BACKOFF_FACTOR,
    CorruptJournal,
    IllegalTransition,
    Journal,
    ProcessEngine,
    RETRY_LIMIT,
    SagaState,
    TIMEOUT_TICKS,
    fold_records,
    load_journal,
    next_state,
    saga_row,
    truncate_last_record,
)

W1 = wallet("MTNG", "233240000011")
B1 = bank("ABBANK", "ACC200")


class Loop:
    """Engine plus captured emissions and timers, clock under test control."""

    def __init__(self, path=None):
        self.tick = 0
        self.emitted: list[CanonicalMessage] = []
        self.timers: list[tuple[int, str, str]] = []
        self.journal = Journal(path)
        self.engine = ProcessEngine(
            self.journal,
            now=lambda: self.tick,
            emit=self.emitted.append,
            arm_timer=lambda deadline, saga, cmd: self.timers.append((deadline, saga, cmd)),
        )

    def submit(self, ref="c-1", amount=5000):
        msg = mk("transfer.request", {"from": W1, "to": B1, "amount": ghs(amount), "client_ref": ref}, mid=f"in-{ref}")
        return self.engine.submit(msg)

    def last_cmd(self) -> CanonicalMessage:
        return self.emitted[-1]

    def reply(self, msg_type: str, extra: dict | None = None):
        cmd = self.last_cmd()
        body = {"saga": cmd.body["saga"], "cmd": cmd.message_id}
        body.update(extra or {})
        self.engine.on_reply(mk(msg_type, body, mid=f"r-{len(self.emitted)}", src="X", dst="ENGINE"))

    def saga(self, saga_id):
        return self.engine.sagas[saga_id]


def drive_to_completed(loop: Loop, ref="c-1"):
    saga_id, created = loop.submit(ref)
    loop.reply("auth.ok", {"fee": ghs(50)})
    loop.reply("hold.ok")
    loop.reply("credit.ok")
    loop.reply("commit.ok")
    return saga_id, created


def test_happy_path_emissions_and_journal():
    loop = Loop()
    saga_id, created = loop.submit()
    assert created
    auth = loop.emitted[0]
    assert auth.msg_type == "authorize.cmd"
    assert auth.body == {"saga": saga_id, "op": "transfer.request", "party": W1, "amount": ghs(5000)}

    loop.reply("auth.ok", {"fee": ghs(50)})
    hold = loop.last_cmd()
    assert hold.msg_type == "hold.cmd"
    assert hold.body["amount"] == ghs(5050)  # amount plus fee earmarked at the source
    assert hold.body["party"] == W1

    loop.reply("hold.ok")
    credit = loop.last_cmd()
    assert credit.msg_type == "credit.cmd"
    assert credit.body["party"] == B1 and credit.body["amount"] == ghs(5000)

    loop.reply("credit.ok")
    commit = loop.last_cmd()
    assert commit.msg_type == "commit.cmd"
    assert commit.body["amount"] == ghs(5000) and commit.body["fee"] == ghs(50)

    loop.reply("commit.ok")
    result = loop.last_cmd()
    assert result.msg_type == "saga.result"
    assert result.destination == "ch:web"
    assert result.body["state"] == "COMPLETED" and result.body["client_ref"] == "c-1"

    assert loop.saga(saga_id).state is SagaState.COMPLETED
    assert loop.journal.seq == 5
    states = [(r["from_state"], r["to_state"]) for r in loop.journal.records]
    assert states == [
        ("CREATED", "AUTH_PENDING"),
        ("AUTH_PENDING", "HOLD_PENDING"),
        ("HOLD_PENDING", "CREDIT_PENDING"),
        ("CREDIT_PENDING", "COMMIT_PENDING"),
        ("COMMIT_PENDING", "COMPLETED"),
    ]
    assert all(r["seq"] == i + 1 for i, r in enumerate(loop.journal.records))


def test_client_ref_dedupe_is_total():
    loop = Loop()
    saga_id, created = loop.submit("c-9")
    seq_before, emitted_before = loop.journal.seq, len(loop.emitted)
    again, created_again = loop.submit("c-9")
    assert again == saga_id and created and not created_again
    assert loop.journal.seq == seq_before
    assert len(loop.emitted) == emitted_before


def test_auth_denied_fails_without_ledger_touch():
    loop = Loop()
    saga_id, _ = loop.submit()
    loop.reply("auth.denied", {"reason": "per_txn_cap"})
    saga = loop.saga(saga_id)
    assert saga.state is SagaState.FAILED
    assert saga.reason == "per_txn_cap"
    assert loop.last_cmd().msg_type == "saga.result"
    assert loop.last_cmd().body["reason"] == "per_txn_cap"


def test_hold_err_fails_directly():
    loop = Loop()
    saga_id, _ = loop.submit()
    loop.reply("auth.ok", {"fee": ghs(50)})
    loop.reply("hold.err", {"reason": "insufficient"})
    assert loop.saga(saga_id).state is SagaState.FAILED
    assert loop.saga(saga_id).reason == "insufficient"
    # nothing to compensate: no release was emitted
    assert [m.msg_type for m in loop.emitted].count("release.cmd") == 0


def test_credit_err_compensates_then_fails():
    loop = Loop()
    saga_id, _ = loop.submit()
    loop.reply("auth.ok", {"fee": ghs(50)})
    loop.reply("hold.ok")
    loop.reply("credit.err", {"reason": "no_account"})
    release = loop.last_cmd()
    assert release.msg_type == "release.cmd"
    assert release.body["amount"] == ghs(5050)  # the full held total comes back
    assert loop.saga(saga_id).state is SagaState.COMPENSATING
    loop.reply("release.ok")
    saga = loop.saga(saga_id)
    assert saga.state is SagaState.FAILED
    assert saga.reason == "compensated:no_account"


def test_timeout_retries_same_command_id():
    loop = Loop()
    saga_id, _ = loop.submit()
    first = loop.last_cmd()
    assert loop.timers == [(TIMEOUT_TICKS, saga_id, first.message_id)]
    loop.engine.on_timeout(saga_id, first.message_id)
    retry = loop.last_cmd()
    assert retry.message_id == first.message_id
    assert retry.msg_type == "authorize.cmd"
    # backoff doubles the reply window
    assert loop.timers[-1] == (TIMEOUT_TICKS * BACKOFF_FACTOR, saga_id, first.message_id)
    loop.engine.on_timeout(saga_id, first.message_id)
    assert loop.timers[-1][0] == TIMEOUT_TICKS * BACKOFF_FACTOR**2


def test_timeout_exhaustion_in_auth_fails():
    loop = Loop()
    saga_id, _ = loop.submit()
    cmd = loop.last_cmd().message_id
    for _ in range(RETRY_LIMIT):
        loop.engine.on_timeout(saga_id, cmd)
    saga = loop.saga(saga_id)
    assert saga.state is SagaState.FAILED
    assert saga.reason == "auth_timeout"


def test_timeout_exhaustion_in_credit_compensates():
    loop = Loop()
    saga_id, _ = loop.submit()
    loop.reply("auth.ok", {"fee": ghs(50)})
    loop.reply("hold.ok")
    cmd = loop.last_cmd().message_id
    for _ in range(RETRY_LIMIT):
        loop.engine.on_timeout(saga_id, cmd)
    saga = loop.saga(saga_id)
    assert saga.state is SagaState.COMPENSATING
    assert saga.reason == "compensated:credit_timeout"
    assert loop.last_cmd().msg_type == "release.cmd"


def test_release_timeout_keeps_compensation_reason():
    loop = Loop()
    saga_id, _ = loop.submit()
    loop.reply("auth.ok", {"fee": ghs(50)})
    loop.reply("hold.ok")
    loop.reply("credit.err", {"reason": "no_account"})
    release_id = loop.last_cmd().message_id
    loop.engine.on_timeout(saga_id, release_id)  # a release retry, not a credit timeout
    assert loop.last_cmd().message_id == release_id
    assert loop.saga(saga_id).reason == "compensated:no_account"
    loop.reply("release.ok")
    saga = loop.saga(saga_id)
    assert saga.state is SagaState.FAILED
    assert saga.reason == "compensated:no_account"
    assert loop.last_cmd().body["reason"] == "compensated:no_account"
    replayed = fold_records(loop.journal.records)
    assert saga_row(replayed[saga_id]) == loop.engine.saga_rows()[0]


def test_commit_retries_forever():
    loop = Loop()
    saga_id, _ = loop.submit()
    loop.reply("auth.ok", {"fee": ghs(50)})
    loop.reply("hold.ok")
    loop.reply("credit.ok")
    commit_id = loop.last_cmd().message_id
    for _ in range(RETRY_LIMIT + 3):
        loop.engine.on_timeout(saga_id, commit_id)
        assert loop.last_cmd().message_id == commit_id
    assert loop.saga(saga_id).state is SagaState.COMMIT_PENDING
    loop.reply("commit.ok")
    assert loop.saga(saga_id).state is SagaState.COMPLETED


def test_duplicate_reply_is_stale_noop():
    loop = Loop()
    saga_id, _ = loop.submit()
    auth_cmd = loop.emitted[0]
    loop.reply("auth.ok", {"fee": ghs(50)})
    emitted_before = len(loop.emitted)
    # the same auth.ok lands again: no transition, no emission, no id drift
    body = {"saga": saga_id, "cmd": auth_cmd.message_id, "fee": ghs(50)}
    loop.engine.on_reply(mk("auth.ok", body, mid="dup-1", src="X", dst="ENGINE"))
    assert loop.saga(saga_id).state is SagaState.HOLD_PENDING
    assert len(loop.emitted) == emitted_before
    assert loop.journal.records[-1]["event"]["kind"] == "stale"


def test_reply_off_the_transition_table_is_stale():
    loop = Loop()
    saga_id, _ = loop.submit()
    emitted_before = len(loop.emitted)
    # names the outstanding authorize command, but AUTH_PENDING has no hold.ok edge
    loop.reply("hold.ok")
    assert loop.saga(saga_id).state is SagaState.AUTH_PENDING
    assert len(loop.emitted) == emitted_before
    assert loop.journal.records[-1]["event"] == {"kind": "stale", "about": f"r-{emitted_before}"}


def test_stale_timer_is_ignored():
    loop = Loop()
    saga_id, _ = loop.submit()
    old_cmd = loop.last_cmd().message_id
    loop.reply("auth.ok", {"fee": ghs(50)})
    seq_before = loop.journal.seq
    loop.engine.on_timeout(saga_id, old_cmd)  # timer for the superseded auth command
    assert loop.journal.seq == seq_before
    assert loop.saga(saga_id).state is SagaState.HOLD_PENDING


def test_transition_table_rejects_off_table_events():
    with pytest.raises(IllegalTransition):
        next_state(SagaState.CREATED, {"kind": "commit.ok"})
    with pytest.raises(IllegalTransition):
        next_state(SagaState.COMPLETED, {"kind": "timeout", "n": 1})
    with pytest.raises(IllegalTransition):
        next_state(SagaState.COMMIT_PENDING, {"kind": "hold.ok"})


def test_recovery_reemits_original_command_ids(tmp_path):
    path = str(tmp_path / "journal.ndjson")
    loop = Loop(path)
    saga_id, _ = loop.submit()
    loop.reply("auth.ok", {"fee": ghs(50)})
    loop.reply("hold.ok")
    credit_cmd = loop.last_cmd()
    loop.journal.close()

    records = load_journal(path)
    resumed_loop = Loop()  # fresh in-memory journal for the recovered engine
    engine, resumed = ProcessEngine.recover(
        records,
        resumed_loop.journal,
        now=lambda: 40,
        emit=resumed_loop.emitted.append,
        arm_timer=lambda d, s, c: resumed_loop.timers.append((d, s, c)),
    )
    assert resumed == 1
    reemitted = resumed_loop.emitted[-1]
    assert reemitted.msg_type == "credit.cmd"
    assert reemitted.message_id == credit_cmd.message_id
    assert engine.sagas[saga_id].state is SagaState.CREDIT_PENDING
    # id counters resume past the journal, so no collision with old commands
    fresh = engine.ids.next()
    assert fresh not in {c for r in records for c in r["cmds"]}


def test_recovery_skips_terminal_sagas(tmp_path):
    path = str(tmp_path / "journal.ndjson")
    loop = Loop(path)
    drive_to_completed(loop)
    loop.journal.close()
    records = load_journal(path)
    sink = []
    engine, resumed = ProcessEngine.recover(records, Journal(None), lambda: 0, sink.append, lambda *a: None)
    assert resumed == 0
    assert sink == []
    assert engine.pending() == []


def test_fold_records_rejects_sequence_gap(tmp_path):
    path = str(tmp_path / "journal.ndjson")
    loop = Loop(path)
    drive_to_completed(loop)
    loop.journal.close()
    records = load_journal(path)
    with pytest.raises(CorruptJournal):
        fold_records(records[:2] + records[3:])


@pytest.mark.parametrize(
    "corrupt,fragment",
    [
        (lambda rs: rs[1].__setitem__("to_state", "LIMBO"), "unknown state"),
        (lambda rs: rs[1].__setitem__("from_state", ["HOLD_PENDING"]), "unknown state"),
        (lambda rs: rs[1].__setitem__("from_state", "CREDIT_PENDING"), "is in AUTH_PENDING, record says CREDIT_PENDING"),
        (lambda rs: rs[1].__setitem__("to_state", "FAILED"), "goes to HOLD_PENDING, record says FAILED"),
        (lambda rs: rs[1]["event"].__setitem__("kind", "commit.ok"), "commit.ok in AUTH_PENDING"),
        (lambda rs: rs.pop(0), "begins with auth.ok"),
    ],
)
def test_fold_records_rejects_inconsistent_records(corrupt, fragment):
    loop = Loop()
    drive_to_completed(loop)
    records = [dict(r, event=dict(r["event"])) for r in loop.journal.records]
    corrupt(records)
    with pytest.raises(CorruptJournal, match=fragment):
        fold_records(records)


def test_truncate_recovers_torn_tail(tmp_path):
    path = str(tmp_path / "journal.ndjson")
    loop = Loop(path)
    drive_to_completed(loop)
    loop.journal.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"seq": 6, "half a record')  # simulated torn write, no newline
    with pytest.raises(CorruptJournal):
        load_journal(path)
    truncate_last_record(path)
    assert len(load_journal(path)) == 5


def test_saga_rows_shape():
    loop = Loop()
    drive_to_completed(loop, ref="c-7")
    rows = loop.engine.saga_rows()
    assert len(rows) == 1
    row = rows[0]
    assert row["state"] == "COMPLETED"
    assert row["client_ref"] == "c-7"
    assert row["from"] == "wallet:MTNG:233240000011"
    assert row["to"] == "bank:ABBANK:ACC200"
    assert row["amount"] == {"ccy": "GHS", "minor": 5000}
    assert row["fee"] == {"ccy": "GHS", "minor": 50}
