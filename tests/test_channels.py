"""Gateway NDJSON lines and USSD session menus."""
from __future__ import annotations

import json

import pytest

from conftest import bank, ghs, mk, wallet
from mmbus.channels import (
    GatewayChannel,
    MAX_INVALID,
    SESSION_EXPIRY_TICKS,
    UssdChannel,
    _MENU,
)
from mmbus.transform import encode_canonical

W1 = wallet("MTNG", "233240000011")
B1 = bank("ABBANK", "ACC200")


def transfer_line(mid="gm-000001", ref="g1", dst="bus", body_extra=None):
    body = {"from": W1, "to": B1, "amount": ghs(5000), "client_ref": ref}
    body.update(body_extra or {})
    return encode_canonical(mk("transfer.request", body, mid=mid, dst=dst))


def make_gateway(saga="sg-000042", balance=None):
    calls = []

    def submit(msg):
        calls.append(msg)
        return saga

    return GatewayChannel("ch:web", submit, lambda msg: balance), calls


# -- gateway ----------------------------------------------------------------


def test_gateway_accepts_transfer():
    gw, calls = make_gateway()
    (reply,) = gw.on_line(transfer_line(), tick=3)
    assert json.loads(reply) == {"v": 1, "accepted": "gm-000001", "saga": "sg-000042"}
    (msg,) = calls
    assert msg.source == "ch:web" and msg.timestamp == 3
    assert msg.body["client_ref"] == "g1"


def test_gateway_malformed_line_does_not_poison_connection():
    gw, calls = make_gateway()
    (err,) = gw.on_line("{not json", tick=0)
    assert json.loads(err)["error"] == "malformed"
    (ok,) = gw.on_line(transfer_line(), tick=1)
    assert json.loads(ok)["accepted"] == "gm-000001"
    assert len(calls) == 1


def test_gateway_duplicate_id_refused():
    gw, calls = make_gateway()
    gw.on_line(transfer_line(), tick=0)
    (err,) = gw.on_line(transfer_line(ref="other"), tick=1)
    assert json.loads(err) == {"v": 1, "error": "duplicate_id", "detail": "gm-000001"}
    assert len(calls) == 1


def test_gateway_validation_failure():
    gw, calls = make_gateway()
    wire = json.loads(transfer_line())
    del wire["body"]["amount"]
    (err,) = gw.on_line(json.dumps(wire), tick=0)
    parsed = json.loads(err)
    assert parsed["error"] == "invalid"
    assert "body.amount: missing" in parsed["detail"]
    assert calls == []


def test_gateway_bad_destination():
    gw, _ = make_gateway()
    (err,) = gw.on_line(transfer_line(dst="MTNG"), tick=0)
    assert json.loads(err) == {"v": 1, "error": "bad_destination", "detail": "MTNG"}


def test_gateway_unavailable_when_switch_down():
    gw = GatewayChannel("ch:web", lambda msg: None, lambda msg: None)
    (err,) = gw.on_line(transfer_line(), tick=0)
    assert json.loads(err)["error"] == "unavailable"


def test_gateway_balance_roundtrip():
    reply = mk("balance.reply", {"party": W1, "available": ghs(6500), "posted": ghs(8000)},
               mid="br-000001", src="bus", dst="ch:web")
    gw, _ = make_gateway(balance=reply)
    line = encode_canonical(mk("balance.request", {"party": W1}, mid="gm-000002"))
    (out,) = gw.on_line(line, tick=0)
    assert json.loads(out)["type"] == "balance.reply"
    assert json.loads(out)["body"]["available"] == {"ccy": "GHS", "minor": 6500}


def test_gateway_balance_no_account():
    gw, _ = make_gateway(balance=None)
    line = encode_canonical(mk("balance.request", {"party": W1}, mid="gm-000003"))
    (err,) = gw.on_line(line, tick=0)
    assert json.loads(err) == {"v": 1, "error": "no_account", "detail": "wallet:MTNG:233240000011"}


def test_gateway_unsupported_type():
    gw, _ = make_gateway()
    line = encode_canonical(mk("auth.ok", {"saga": "sg-000001", "cmd": "eg-000001", "fee": ghs(5)},
                               mid="gm-000004"))
    (err,) = gw.on_line(line, tick=0)
    assert json.loads(err)["error"] == "unsupported_type"


def test_gateway_deliver_writes_result_line():
    gw, _ = make_gateway()
    result = mk("saga.result", {"saga": "sg-000042", "client_ref": "g1", "state": "COMPLETED", "reason": ""},
                mid="eg-000009", src="bus", dst="ch:web")
    line = gw.deliver(result, tick=9)
    assert json.loads(line)["body"]["state"] == "COMPLETED"
    assert gw.transcript.lines[-1] == (9, "out", line)


# -- ussd -------------------------------------------------------------------


def make_ussd(saga="sg-000077", fee=ghs(50), balance_minor=1234, submit_ok=True):
    submitted = []

    def submit(msg):
        submitted.append(msg)
        return saga if submit_ok else None

    def query_balance(msg):
        if balance_minor is None:
            return None
        return mk("balance.reply",
                  {"party": msg.body["party"], "available": ghs(balance_minor), "posted": ghs(balance_minor)},
                  mid="br-000009", src="bus", dst="ch:ussd")

    ch = UssdChannel("ch:ussd:MTNG", "MTNG", "GHS", submit, query_balance, lambda party, amount: fee)
    return ch, submitted


def test_ussd_begin_shows_menu():
    ch, _ = make_ussd()
    assert ch.on_frame("USSD|233240000011|BEGIN|", 0) == f"USSD|us-000001|CONT|{_MENU}"
    assert ch.on_frame("USSD|233240000012|BEGIN|", 0) == f"USSD|us-000002|CONT|{_MENU}"


@pytest.mark.parametrize("frame,reply", [
    ("USSD|12AB|BEGIN|", "USSD|-|END|Bad msisdn."),
    ("USSD|233240000011|RING|", "USSD|-|END|Bad frame."),
    ("no pipes here", "USSD|-|END|Bad frame."),
    ("USSD|us-000099|INPUT|1", "USSD|us-000099|END|No session."),
])
def test_ussd_rejects_bad_frames(frame, reply):
    ch, _ = make_ussd()
    assert ch.on_frame(frame, 0) == reply


def test_ussd_send_money_happy_path():
    ch, submitted = make_ussd()
    sid = "us-000001"
    ch.on_frame("USSD|233240000011|BEGIN|", 0)
    assert ch.on_frame(f"USSD|{sid}|INPUT|1", 1) == f"USSD|{sid}|CONT|Enter recipient (kind:institution:id):"
    assert ch.on_frame(f"USSD|{sid}|INPUT|bank:ABBANK:ACC200", 2) == f"USSD|{sid}|CONT|Enter amount:"
    confirm = ch.on_frame(f"USSD|{sid}|INPUT|50.00", 3)
    assert confirm == f"USSD|{sid}|CONT|Fee: GHS 0.50. Send GHS 50.00 to bank:ABBANK:ACC200. 1=Confirm 0=Cancel"
    assert ch.on_frame(f"USSD|{sid}|INPUT|1", 4) == f"USSD|{sid}|END|Transfer accepted. Ref: sg-000077"
    (msg,) = submitted
    assert msg.msg_type == "transfer.request"
    assert msg.body["from"] == W1 and msg.body["to"] == B1
    assert msg.body["amount"] == ghs(5000)
    assert msg.body["client_ref"] == sid
    assert msg.message_id == "um-000001" and msg.source == "ch:ussd:MTNG"


def test_ussd_cashout_wording():
    ch, submitted = make_ussd(fee=None)
    sid = "us-000001"
    ch.on_frame("USSD|233240000011|BEGIN|", 0)
    assert "agent till" in ch.on_frame(f"USSD|{sid}|INPUT|3", 1)
    ch.on_frame(f"USSD|{sid}|INPUT|agent:ABBANK:TILL12", 2)
    confirm = ch.on_frame(f"USSD|{sid}|INPUT|33.33", 3)
    # no quote available: the fee sentence is omitted entirely
    assert confirm == f"USSD|{sid}|CONT|Cash out GHS 33.33 at agent:ABBANK:TILL12. 1=Confirm 0=Cancel"
    assert ch.on_frame(f"USSD|{sid}|INPUT|1", 4) == f"USSD|{sid}|END|Cash-out accepted. Ref: sg-000077"
    assert submitted[0].msg_type == "cashout.request"


def test_ussd_invalid_input_reprompts_then_ends():
    ch, _ = make_ussd()
    sid = "us-000001"
    ch.on_frame("USSD|233240000011|BEGIN|", 0)
    assert ch.on_frame(f"USSD|{sid}|INPUT|7", 1) == f"USSD|{sid}|CONT|Invalid choice. {_MENU}"
    assert ch.on_frame(f"USSD|{sid}|INPUT|9", 2) == f"USSD|{sid}|CONT|Invalid choice. {_MENU}"
    assert ch.on_frame(f"USSD|{sid}|INPUT|x", 3) == f"USSD|{sid}|END|Session ended."
    assert MAX_INVALID == 3
    # session is gone afterwards
    assert ch.on_frame(f"USSD|{sid}|INPUT|1", 4) == f"USSD|{sid}|END|No session."


def test_ussd_cancel_anywhere():
    ch, submitted = make_ussd()
    sid = "us-000001"
    ch.on_frame("USSD|233240000011|BEGIN|", 0)
    ch.on_frame(f"USSD|{sid}|INPUT|1", 1)
    ch.on_frame(f"USSD|{sid}|INPUT|bank:ABBANK:ACC200", 2)
    assert ch.on_frame(f"USSD|{sid}|INPUT|0", 3) == f"USSD|{sid}|END|Cancelled."
    assert submitted == []


def test_ussd_bad_amount_reprompts():
    ch, _ = make_ussd()
    sid = "us-000001"
    ch.on_frame("USSD|233240000011|BEGIN|", 0)
    ch.on_frame(f"USSD|{sid}|INPUT|1", 1)
    ch.on_frame(f"USSD|{sid}|INPUT|bank:ABBANK:ACC200", 2)
    assert ch.on_frame(f"USSD|{sid}|INPUT|1,000", 3) == f"USSD|{sid}|CONT|Invalid choice. Enter amount:"
    assert ch.on_frame(f"USSD|{sid}|INPUT|0.00", 4) == f"USSD|{sid}|CONT|Invalid choice. Enter amount:"


def test_ussd_balance_menu():
    ch, _ = make_ussd(balance_minor=1234)
    ch.on_frame("USSD|233240000011|BEGIN|", 0)
    assert ch.on_frame("USSD|us-000001|INPUT|2", 1) == "USSD|us-000001|END|Balance: GHS 12.34"
    ch.on_frame("USSD|233240000011|BEGIN|", 2)
    ch2, _ = make_ussd(balance_minor=None)
    ch2.on_frame("USSD|233240000011|BEGIN|", 0)
    assert ch2.on_frame("USSD|us-000001|INPUT|2", 1) == "USSD|us-000001|END|Balance unavailable."


def test_ussd_service_unavailable_on_submit():
    ch, _ = make_ussd(submit_ok=False)
    sid = "us-000001"
    ch.on_frame("USSD|233240000011|BEGIN|", 0)
    ch.on_frame(f"USSD|{sid}|INPUT|1", 1)
    ch.on_frame(f"USSD|{sid}|INPUT|bank:ABBANK:ACC200", 2)
    ch.on_frame(f"USSD|{sid}|INPUT|5.00", 3)
    assert ch.on_frame(f"USSD|{sid}|INPUT|1", 4) == f"USSD|{sid}|END|Service unavailable. Try later."


def test_ussd_session_expiry():
    ch, _ = make_ussd()
    ch.on_frame("USSD|233240000011|BEGIN|", 0)
    assert ch.expire_due(SESSION_EXPIRY_TICKS - 1) == []
    assert ch.expire_due(SESSION_EXPIRY_TICKS) == ["USSD|us-000001|END|Session expired."]
    assert ch.expire_due(SESSION_EXPIRY_TICKS + 1) == []  # already closed


@pytest.mark.parametrize(
    "inputs,last_reply",
    [
        (["0"], "END|Cancelled."),
        (["2"], "END|Balance: GHS 12.34"),
        (["1", "bank:ABBANK:ACC200", "5.00", "1"], "END|Transfer accepted. Ref: sg-000077"),
        (["9"] * MAX_INVALID, "END|Session ended."),
    ],
    ids=["cancel", "balance", "confirm", "invalid"],
)
def test_ussd_ended_session_is_freed(inputs, last_reply):
    ch, _ = make_ussd()
    ch.on_frame("USSD|233240000011|BEGIN|", 0)
    ch.on_frame("USSD|233240000012|BEGIN|", 0)
    for tick, text in enumerate(inputs, start=1):
        reply = ch.on_frame(f"USSD|us-000001|INPUT|{text}", tick)
    assert reply == f"USSD|us-000001|{last_reply}"
    assert list(ch.sessions) == ["us-000002"]
    assert ch.on_frame("USSD|us-000001|INPUT|1", 9) == "USSD|us-000001|END|No session."


def test_ussd_expired_session_is_freed():
    ch, _ = make_ussd()
    ch.on_frame("USSD|233240000011|BEGIN|", 0)
    ch.on_frame("USSD|233240000012|BEGIN|", 5)
    assert ch.expire_due(SESSION_EXPIRY_TICKS) == ["USSD|us-000001|END|Session expired."]
    assert list(ch.sessions) == ["us-000002"]
    assert ch.expire_due(SESSION_EXPIRY_TICKS + 5) == ["USSD|us-000002|END|Session expired."]
    assert ch.sessions == {}
    assert ch.on_frame("USSD|us-000001|INPUT|1", 200) == "USSD|us-000001|END|No session."


def test_ussd_result_notice():
    ch, _ = make_ussd()
    done = mk("saga.result", {"saga": "sg-000077", "client_ref": "us-000001", "state": "COMPLETED", "reason": ""},
              mid="eg-000009", src="bus", dst="ch:ussd:MTNG")
    assert ch.deliver(done, 9) == "USSD|us-000001|NOTICE|Result sg-000077: COMPLETED"
    failed = mk("saga.result", {"saga": "sg-000078", "client_ref": "us-000002", "state": "FAILED", "reason": "insufficient"},
                mid="eg-000010", src="bus", dst="ch:ussd:MTNG")
    assert ch.deliver(failed, 10) == "USSD|us-000002|NOTICE|Result sg-000078: FAILED (insufficient)"


def test_transcript_digest_tracks_interaction():
    def run_session(amount):
        ch, _ = make_ussd()
        ch.on_frame("USSD|233240000011|BEGIN|", 0)
        ch.on_frame("USSD|us-000001|INPUT|1", 1)
        ch.on_frame("USSD|us-000001|INPUT|bank:ABBANK:ACC200", 2)
        ch.on_frame(f"USSD|us-000001|INPUT|{amount}", 3)
        return ch.transcript.digest()

    assert run_session("50.00") == run_session("50.00")
    assert run_session("50.00") != run_session("49.00")
