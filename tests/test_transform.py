"""Native format codecs: canonical JSON, bank_pipe, wallet_kv."""
from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bank, ghs, mk, wallet
from mmbus.canonical import BODY_SCHEMAS, CanonicalMessage, Money
from mmbus.transform import (
    MalformedNative,
    NATIVE_FORMATS,
    UnknownFormat,
    UnmappableField,
    decode_canonical,
    encode_canonical,
    from_bank_pipe,
    from_native,
    from_wallet_kv,
    to_bank_pipe,
    to_native,
    to_wallet_kv,
)

W1 = wallet("MTNG", "233240000011")
B1 = bank("ABBANK", "ACC200")

# one representative, fully-populated message per registered type
SAMPLES: dict[str, dict] = {
    "transfer.request": {"from": W1, "to": B1, "amount": ghs(5000), "client_ref": "c-7731"},
    "cashout.request": {"from": W1, "to": B1, "amount": ghs(250), "client_ref": "c-1"},
    "cashin.request": {"from": B1, "to": W1, "amount": ghs(990), "client_ref": "c-2"},
    "balance.request": {"party": W1},
    "balance.reply": {"party": W1, "available": ghs(123)},
    "authorize.cmd": {"saga": "sg-000001", "op": "transfer.request", "party": W1, "amount": ghs(5000)},
    "auth.ok": {"saga": "sg-000001", "cmd": "eg-000001", "fee": ghs(50)},
    "auth.denied": {"saga": "sg-000001", "cmd": "eg-000001", "reason": "per_txn_cap=500.00"},
    "hold.cmd": {"saga": "sg-000001", "party": W1, "amount": ghs(5050)},
    "hold.ok": {"saga": "sg-000001", "cmd": "eg-000002"},
    "hold.err": {"saga": "sg-000001", "cmd": "eg-000002", "reason": "insufficient"},
    "credit.cmd": {"saga": "sg-000001", "party": B1, "amount": ghs(5000)},
    "credit.ok": {"saga": "sg-000001", "cmd": "eg-000003"},
    "credit.err": {"saga": "sg-000001", "cmd": "eg-000003", "reason": "no_account"},
    "commit.cmd": {"saga": "sg-000001", "party": W1, "amount": ghs(5000), "fee": ghs(50)},
    "commit.ok": {"saga": "sg-000001", "cmd": "eg-000004"},
    "release.cmd": {"saga": "sg-000001", "party": W1, "amount": ghs(5050)},
    "release.ok": {"saga": "sg-000001", "cmd": "eg-000005"},
    "saga.result": {"saga": "sg-000001", "client_ref": "c-7731", "state": "COMPLETED", "reason": ""},
    "sync.batch": {"agent": "TILL9", "count": 10},
    "sync.report": {"agent": "TILL9", "count": 2, "completed": 1, "failed": 1, "outcomes": "q1:COMPLETED,q2:FAILED"},
}


def test_samples_cover_registry():
    assert set(SAMPLES) == set(BODY_SCHEMAS)


# every sample's record after the header, as docs/native-formats.md lays it out:
# (bank_pipe cells from the opcode on, wallet_kv lines from op= on)
WIRE = {
    "transfer.request": (
        "XFER|wallet:MTNG:233240000011|bank:ABBANK:ACC200|5000|GHS|c-7731",
        "op=transfer\nfrom=wallet:MTNG:233240000011\nto=bank:ABBANK:ACC200\namount=5000\nccy=GHS\nclient_ref=c-7731\n",
    ),
    "cashout.request": (
        "CASHOUT|wallet:MTNG:233240000011|bank:ABBANK:ACC200|250|GHS|c-1",
        "op=cashout\nfrom=wallet:MTNG:233240000011\nto=bank:ABBANK:ACC200\namount=250\nccy=GHS\nclient_ref=c-1\n",
    ),
    "cashin.request": (
        "CASHIN|bank:ABBANK:ACC200|wallet:MTNG:233240000011|990|GHS|c-2",
        "op=cashin\nfrom=bank:ABBANK:ACC200\nto=wallet:MTNG:233240000011\namount=990\nccy=GHS\nclient_ref=c-2\n",
    ),
    "balance.request": (
        "BALQ|wallet:MTNG:233240000011",
        "op=bal_q\nacct=wallet:MTNG:233240000011\n",
    ),
    "balance.reply": (
        "BALR|wallet:MTNG:233240000011|123|GHS",
        "op=bal_r\nacct=wallet:MTNG:233240000011\navailable=123\navailable_ccy=GHS\n",
    ),
    "authorize.cmd": (
        "AUTH|sg-000001|transfer.request|wallet:MTNG:233240000011|5000|GHS",
        "op=auth\nsaga=sg-000001\nreq_op=transfer.request\nacct=wallet:MTNG:233240000011\namount=5000\nccy=GHS\n",
    ),
    "auth.ok": (
        "AUTHOK|sg-000001|eg-000001|50|GHS",
        "op=auth_ok\nsaga=sg-000001\ncmd=eg-000001\nfee=50\nfee_ccy=GHS\n",
    ),
    "auth.denied": (
        "AUTHNO|sg-000001|eg-000001|per_txn_cap=500.00",
        "op=auth_denied\nsaga=sg-000001\ncmd=eg-000001\nreason=per_txn_cap=500.00\n",
    ),
    "hold.cmd": (
        "HOLD|sg-000001|wallet:MTNG:233240000011|5050|GHS",
        "op=hold\nsaga=sg-000001\nacct=wallet:MTNG:233240000011\namount=5050\nccy=GHS\n",
    ),
    "hold.ok": (
        "HOLDOK|sg-000001|eg-000002",
        "op=hold_ok\nsaga=sg-000001\ncmd=eg-000002\n",
    ),
    "hold.err": (
        "HOLDERR|sg-000001|eg-000002|insufficient",
        "op=hold_err\nsaga=sg-000001\ncmd=eg-000002\nreason=insufficient\n",
    ),
    "credit.cmd": (
        "CREDIT|sg-000001|bank:ABBANK:ACC200|5000|GHS",
        "op=credit\nsaga=sg-000001\nacct=bank:ABBANK:ACC200\namount=5000\nccy=GHS\n",
    ),
    "credit.ok": (
        "CREDOK|sg-000001|eg-000003",
        "op=credit_ok\nsaga=sg-000001\ncmd=eg-000003\n",
    ),
    "credit.err": (
        "CREDERR|sg-000001|eg-000003|no_account",
        "op=credit_err\nsaga=sg-000001\ncmd=eg-000003\nreason=no_account\n",
    ),
    "commit.cmd": (
        "COMMIT|sg-000001|wallet:MTNG:233240000011|5000|GHS|50|GHS",
        "op=commit\nsaga=sg-000001\nacct=wallet:MTNG:233240000011\namount=5000\nccy=GHS\nfee=50\nfee_ccy=GHS\n",
    ),
    "commit.ok": (
        "COMMITOK|sg-000001|eg-000004",
        "op=commit_ok\nsaga=sg-000001\ncmd=eg-000004\n",
    ),
    "release.cmd": (
        "RELEASE|sg-000001|wallet:MTNG:233240000011|5050|GHS",
        "op=release\nsaga=sg-000001\nacct=wallet:MTNG:233240000011\namount=5050\nccy=GHS\n",
    ),
    "release.ok": (
        "RELOK|sg-000001|eg-000005",
        "op=release_ok\nsaga=sg-000001\ncmd=eg-000005\n",
    ),
    "saga.result": (
        "RESULT|sg-000001|c-7731|COMPLETED|",
        "op=result\nsaga=sg-000001\nclient_ref=c-7731\nstate=COMPLETED\nreason=\n",
    ),
    "sync.batch": (
        "SYNCB|TILL9|10",
        "op=sync_batch\nagent=TILL9\ncount=10\n",
    ),
    "sync.report": (
        "SYNCR|TILL9|2|1|1|q1:COMPLETED,q2:FAILED",
        "op=sync_report\nagent=TILL9\ncount=2\ncompleted=1\nfailed=1\noutcomes=q1:COMPLETED,q2:FAILED\n",
    ),
}


@pytest.mark.parametrize("msg_type", sorted(SAMPLES))
def test_wire_bytes_pinned(msg_type):
    msg = mk(msg_type, SAMPLES[msg_type], mid="x-000009", src="A", dst="B", ts=42)
    pipe, kv = WIRE[msg_type]
    pipe = f"MMB1|x-000009|x-000009|42|A|B|{pipe}\n"
    kv = f"id=x-000009\ncorr=x-000009\nts=42\nsrc=A\ndst=B\n{kv}"
    assert to_bank_pipe(msg) == pipe
    assert to_wallet_kv(msg) == kv
    assert from_bank_pipe(pipe) == msg
    assert from_wallet_kv(kv) == msg


def test_bank_pipe_hold_layout():
    """The ledger-facing hold record ends in opcode|saga|account|minor|ccy."""
    msg = mk("hold.cmd", {"saga": "sg-000007", "party": B1, "amount": ghs(3333)}, mid="eg-000003", src="ENGINE", dst="ABBANK", ts=12)
    line = to_bank_pipe(msg)
    assert line.endswith("\n")
    cells = line[:-1].split("|")
    assert cells[:6] == ["MMB1", "eg-000003", "eg-000003", "12", "ENGINE", "ABBANK"]
    assert cells[6:] == ["HOLD", "sg-000007", "bank:ABBANK:ACC200", "3333", "GHS"]


def test_wallet_kv_hold_layout():
    """Header keys first, then the op block in schema order."""
    msg = mk("hold.cmd", {"saga": "sg-000007", "party": W1, "amount": ghs(2500)}, mid="eg-000003", src="ENGINE", dst="MTNG", ts=12)
    text = to_wallet_kv(msg)
    assert text.startswith("id=eg-000003\ncorr=eg-000003\nts=12\nsrc=ENGINE\ndst=MTNG\n")
    assert text.endswith("op=hold\nsaga=sg-000007\nacct=wallet:MTNG:233240000011\namount=2500\nccy=GHS\n")


def test_canonical_wire_shape():
    msg = mk("transfer.request", SAMPLES["transfer.request"], mid="N1-000042", ts=7)
    obj = json.loads(encode_canonical(msg))
    assert obj["v"] == 1
    assert obj["id"] == "N1-000042"
    assert obj["type"] == "transfer.request"
    assert obj["body"]["amount"] == {"ccy": "GHS", "minor": 5000}
    assert obj["body"]["from"] == "wallet:MTNG:233240000011"


@pytest.mark.parametrize("msg_type", sorted(SAMPLES))
@pytest.mark.parametrize("fmt", NATIVE_FORMATS)
def test_roundtrip_identity_all_types(msg_type, fmt):
    msg = mk(msg_type, SAMPLES[msg_type], mid="x-000009", src="A", dst="B", ts=42)
    assert from_native(to_native(msg, fmt), fmt) == msg


@given(
    msisdn_from=st.integers(min_value=10**8, max_value=10**12),
    msisdn_to=st.integers(min_value=10**8, max_value=10**12),
    minor=st.integers(min_value=1, max_value=10**10),
    ref=st.from_regex(r"[A-Za-z0-9_.-]{1,20}", fullmatch=True),
    ts=st.integers(min_value=0, max_value=10**9),
    fmt=st.sampled_from(NATIVE_FORMATS),
)
def test_roundtrip_identity_fuzzed_transfer(msisdn_from, msisdn_to, minor, ref, ts, fmt):
    body = {
        "from": wallet("MTNG", str(msisdn_from)),
        "to": wallet("VODAG", str(msisdn_to)),
        "amount": ghs(minor),
        "client_ref": ref,
    }
    msg = mk("transfer.request", body, ts=ts)
    assert from_native(to_native(msg, fmt), fmt) == msg


def test_encode_rejects_invalid_message():
    msg = mk("transfer.request", dict(SAMPLES["transfer.request"], memo="extra"))
    for fmt in NATIVE_FORMATS:
        with pytest.raises(UnmappableField):
            to_native(msg, fmt)


def test_unknown_format():
    msg = mk("transfer.request", SAMPLES["transfer.request"])
    with pytest.raises(UnknownFormat):
        to_native(msg, "iso8583")


@pytest.mark.parametrize(
    "text",
    [
        "garbage\n",
        "MMB1|a|b|12|s|d|HOLD|sg|bank:AB:ACC1|33|GHS",  # no trailing newline
        "MMB1|a|b|12|s|d|NOP|x\n",  # unknown opcode
        "MMB1|a|b|twelve|s|d|HOLDOK|sg|c\n",  # bad timestamp
        "MMB1|a|b|12|s|d|HOLD|sg|bank:AB:ACC1|33|GHS|extra\n",  # trailing cells
        "MMB1|a|b|12|s|d|HOLD|sg|bank:AB:ACC1|33\n",  # missing cell
        "MMB1|a|b|12|s|d|HOLD|sg|bank:AB:ACC1|thirty|GHS\n",  # bad minor units
        "MMB1|a|b|12|s|d\n",  # truncated header
    ],
)
def test_bank_pipe_malformed(text):
    with pytest.raises(MalformedNative):
        from_bank_pipe(text)


@pytest.mark.parametrize(
    "text",
    [
        "id=a\ncorr=a\nts=1\nsrc=s\ndst=d\n",  # missing op
        "id=a\ncorr=a\nts=1\nsrc=s\ndst=d\nop=nope\n",  # unknown op
        "id=a\ncorr=a\nts=1\nsrc=s\ndst=d\nop=hold_ok\nsaga=sg\ncmd=c",  # no trailing newline
        "id=a\nid=b\ncorr=a\nts=1\nsrc=s\ndst=d\nop=hold_ok\nsaga=sg\ncmd=c\n",  # duplicate key
        "id=a\ncorr=a\nts=1\nsrc=s\ndst=d\nop=hold_ok\nsaga=sg\ncmd=c\nextra=1\n",  # unmapped key
        "id=a\ncorr=a\nts=1\nsrc=s\ndst=d\nop=hold_ok\nsaga=sg\n",  # missing field
        "corr=a\nts=1\nsrc=s\ndst=d\nop=hold_ok\nsaga=sg\ncmd=c\n",  # missing header key
        "no equals sign\n",
    ],
)
def test_wallet_kv_malformed(text):
    with pytest.raises(MalformedNative):
        from_wallet_kv(text)


_HOLD_OK_KV = "id=a\ncorr=a\nts=1\nsrc=s\ndst=d\nop=hold_ok\nsaga=sg\ncmd=c\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (_HOLD_OK_KV + "no equals sign\n", "line 9: no '='"),
        ("id=a\n" + _HOLD_OK_KV, "line 2: duplicate key 'id'"),
        (_HOLD_OK_KV + "extra=1\n", "hold.ok: unexpected keys ['extra']"),
        ("id=a\ncorr=a\nts=1\nsrc=s\ndst=d\n", "missing header key 'op'"),
    ],
)
def test_wallet_kv_malformed_text(text, message):
    with pytest.raises(MalformedNative) as exc:
        from_wallet_kv(text)
    assert str(exc.value) == message


def test_decode_canonical_malformed():
    with pytest.raises(MalformedNative):
        decode_canonical('{"v":1,"id":"x"')  # truncated JSON
    with pytest.raises(MalformedNative):
        decode_canonical("[1,2]")
