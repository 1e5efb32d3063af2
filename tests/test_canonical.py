"""Money, party references, and message validation."""
from __future__ import annotations

import json
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bank, ghs, mk, wallet
from mmbus import canonical
from mmbus.canonical import (
    BadCurrency,
    CanonicalMessage,
    CurrencyMismatch,
    IdGenerator,
    MalformedAmount,
    MalformedParty,
    Money,
    PartyKind,
    PartyRef,
    body_from_json,
    body_to_json,
    compact_json,
    fee_pot_party,
    float_party,
    make_money,
    parse_party,
    render_money,
    render_party,
    validate_message,
)


def test_make_money_examples():
    assert make_money("GHS", "0.00").minor_units == 0
    assert make_money("GHS", "50").minor_units == 5000
    assert make_money("GHS", "50.5").minor_units == 5050
    assert make_money("GHS", "50.05").minor_units == 5005
    assert make_money("GHS", "-3.25").minor_units == -325


@pytest.mark.parametrize("text", ["33.333", "1,000", "", "5.", ".5", "1e3", "GHS 5", "+5"])
def test_make_money_rejects_non_decimals(text):
    with pytest.raises(MalformedAmount):
        make_money("GHS", text)


def test_make_money_rejects_bad_currency():
    with pytest.raises(BadCurrency):
        make_money("GHs", "1.00")
    with pytest.raises(BadCurrency):
        make_money("GHSX", "1.00")


def test_render_money_examples():
    assert render_money(ghs(5000)) == "GHS 50.00"
    assert render_money(ghs(-50)) == "GHS -0.50"
    assert render_money(ghs(5)) == "GHS 0.05"


@given(st.integers(min_value=-(10**12), max_value=10**12))
def test_money_render_parse_identity(minor):
    m = Money("GHS", minor)
    text = render_money(m)
    assert text.startswith("GHS ")
    assert make_money("GHS", text[4:]) == m


def test_money_arithmetic():
    assert ghs(100) + ghs(250) == ghs(350)
    assert ghs(100) - ghs(250) == ghs(-150)
    assert ghs(100) < ghs(101)
    assert ghs(101) > ghs(100) and not ghs(100) > ghs(101)
    for op in (operator.add, operator.sub, operator.lt, operator.gt):
        with pytest.raises(CurrencyMismatch):
            op(ghs(1), Money("NGN", 1))
    with pytest.raises(TypeError):  # no tuple order: only < and > compare amounts
        ghs(1) <= ghs(2)


def test_value_types_are_immutable():
    msg = mk("hold.cmd", {"saga": "sg-1", "party": bank("RB", "A1"), "amount": ghs(10)})
    for value, attr in [
        (msg, "destination"),
        (msg, "note"),
        (ghs(1), "minor_units"),
        (ghs(1), "note"),
        (bank("RB", "A1"), "institution"),
        (bank("RB", "A1"), "note"),
    ]:
        with pytest.raises(AttributeError):
            setattr(value, attr, "x")


def test_value_types_compare_and_hash_by_value():
    assert ghs(5) == Money("GHS", 5) and hash(ghs(5)) == hash(Money("GHS", 5))
    assert ghs(5) != ghs(6) and ghs(5) != Money("NGN", 5)
    party = wallet("MTN", "233244000001")
    same = parse_party("wallet:MTN:233244000001")
    assert party == same and hash(party) == hash(same)
    assert party != bank("MTN", "233244000001")
    assert {party: "found"}[same] == "found"
    body = {"saga": "sg-1", "party": bank("RB", "A1"), "amount": ghs(10)}
    assert mk("hold.cmd", body) == mk("hold.cmd", dict(body))
    assert mk("hold.cmd", body) != mk("hold.cmd", body, dst="RB")


@pytest.mark.parametrize(
    "make,error",
    [
        (lambda: Money("GHs", 1), BadCurrency),
        (lambda: Money("GHS", True), MalformedAmount),
        (lambda: Money("GHS", 1.5), MalformedAmount),
        (lambda: PartyRef(PartyKind.WALLET, "MTN", "12"), MalformedParty),
        (lambda: PartyRef(PartyKind.BANK_ACCOUNT, "M:TN", "A1"), MalformedParty),
        (lambda: PartyRef(PartyKind.BANK_ACCOUNT, "MTN", "A|1"), MalformedParty),
    ],
)
def test_value_type_constructors_check(make, error):
    with pytest.raises(error):
        make()


def test_parse_party_examples():
    p = parse_party("wallet:MTN:233244000001")
    assert p == PartyRef(PartyKind.WALLET, "MTN", "233244000001")
    assert parse_party("bank:RB001:SAV-001").kind is PartyKind.BANK_ACCOUNT
    assert parse_party("agent:AG1:TILL-1").kind is PartyKind.AGENT_TILL
    assert parse_party("float:MTN:main").kind is PartyKind.FLOAT


@pytest.mark.parametrize(
    "text",
    [
        "wallet:MTN:12",  # msisdn too short
        "wallet:MTN:abc123456",  # msisdn must be digits
        "till:X:Y",  # unknown kind token
        "wallet:MTN",  # missing identifier
        "wallet:MTN:1:2",  # too many segments
        "bank::ACC1",  # empty institution
    ],
)
def test_parse_party_rejects(text):
    with pytest.raises(MalformedParty):
        parse_party(text)


@given(
    kind=st.sampled_from(["bank", "agent", "fee_pot", "float"]),
    institution=st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True),
    identifier=st.from_regex(r"[A-Za-z0-9_.-]{1,16}", fullmatch=True),
)
def test_party_render_parse_identity(kind, institution, identifier):
    p = parse_party(f"{kind}:{institution}:{identifier}")
    assert parse_party(render_party(p)) == p


@given(msisdn=st.integers(min_value=10**8, max_value=10**14))
def test_wallet_party_roundtrip(msisdn):
    p = PartyRef(PartyKind.WALLET, "MTN", str(msisdn))
    assert parse_party(render_party(p)) == p


def test_operator_account_helpers():
    assert render_party(float_party("MTNG")) == "float:MTNG:main"
    assert render_party(fee_pot_party("MTNG")) == "fee_pot:MTNG:main"


def _transfer_body():
    return {
        "from": wallet("MTN", "233244000001"),
        "to": wallet("VOD", "233205000002"),
        "amount": ghs(5000),
        "client_ref": "c-7731",
    }


def test_validate_ok():
    assert validate_message(mk("transfer.request", _transfer_body())) == []


def test_validate_missing_field():
    body = _transfer_body()
    del body["amount"]
    assert validate_message(mk("transfer.request", body)) == ["body.amount: missing"]


def test_validate_unknown_type():
    out = validate_message(mk("frobnicate", {}))
    assert out == ["msg_type: unknown type 'frobnicate'"]


def test_validate_unknown_field():
    body = _transfer_body()
    body["memo"] = "hi"
    assert any("memo" in v for v in validate_message(mk("transfer.request", body)))


def test_validate_rejects_transport_hostile_strings():
    body = _transfer_body()
    body["client_ref"] = "a|b"
    assert any("client_ref" in v for v in validate_message(mk("transfer.request", body)))
    body["client_ref"] = "a\nb"
    assert any("client_ref" in v for v in validate_message(mk("transfer.request", body)))


def test_validate_rejects_cross_currency_body():
    body = {"saga": "sg-1", "party": bank("RB", "A1"), "amount": ghs(100), "fee": Money("NGN", 1)}
    assert any("cross-currency" in v for v in validate_message(mk("commit.cmd", body)))


def test_validate_empty_ids():
    msg = CanonicalMessage("", "", "transfer.request", "ch", "bus", 0, _transfer_body())
    out = validate_message(msg)
    assert "message_id: empty" in out and "correlation_id: empty" in out


def test_body_json_roundtrip():
    body = _transfer_body()
    encoded = body_to_json("transfer.request", body)
    assert encoded["amount"] == {"ccy": "GHS", "minor": 5000}
    assert encoded["from"] == "wallet:MTN:233244000001"
    assert body_from_json("transfer.request", encoded) == body


def test_body_from_json_rejects_bool_minor():
    raw = body_to_json("transfer.request", _transfer_body())
    raw["amount"] = {"ccy": "GHS", "minor": True}
    with pytest.raises(MalformedAmount):
        body_from_json("transfer.request", raw)


def test_id_generator_sequence():
    ids = IdGenerator("n")
    assert ids.next() == "n-000001"
    assert ids.next() == "n-000002"
    assert IdGenerator("n", start=41).next() == "n-000042"


def test_reply_addresses_requester():
    msg = mk("hold.cmd", {"saga": "sg-1", "party": bank("RB", "A1"), "amount": ghs(10)}, src="ENGINE", dst="RB")
    reply = msg.reply("hold.ok", {"saga": "sg-1", "cmd": msg.message_id}, message_id="r-1", source="RB")
    assert reply.destination == "ENGINE"
    assert reply.correlation_id == msg.correlation_id
    assert reply.msg_type == "hold.ok"


_JSON_VALUES = [
    {"v": 1, "accepted": "c-1", "saga": "sg-000001"},
    {"v": 1, "error": "malformed", "detail": "Expecting value: line 1 column 2 (char 1)"},
    {"nested": [1, -2, 1.5, 1e300, None, True, False, [], {}], "é": "ü \"q\" \x00\x1f"},
    {1: "int key", 2.5: "float key", None: "null key", False: "bool key"},
    ghs(250),
    "just a string",
    7,
    float("nan"),
    [float("inf"), -float("inf")],
]


@pytest.mark.parametrize("value", _JSON_VALUES)
def test_compact_json_writes_the_bytes_json_dumps_writes(value):
    assert compact_json(value) == json.dumps(value, separators=(",", ":"))


def test_compact_json_falls_back_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(canonical._json_encoder, "c_make_encoder", None)
    fallback = canonical._compact_json()
    for value in _JSON_VALUES:
        assert fallback(value) == json.dumps(value, separators=(",", ":"))


def test_compact_json_recovers_from_a_failed_encode():
    body = {"party": object()}
    with pytest.raises(TypeError, match="not JSON serializable"):
        compact_json({"v": 1, "body": body})
    # the same objects again: a circular-reference check left dirty by the failure would trip here
    body["party"] = "wallet:MTNG:233240000001"
    assert compact_json({"v": 1, "body": body}) == '{"v":1,"body":{"party":"wallet:MTNG:233240000001"}}'
