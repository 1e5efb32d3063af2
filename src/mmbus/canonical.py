"""Canonical message vocabulary: money, parties, message envelopes, validation.

Every component speaks this model; channel and endpoint formats are
derived from it by the transform layer and must round-trip losslessly.
"""
from __future__ import annotations

import json
import re
from collections import namedtuple
from enum import Enum
from json import encoder as _json_encoder
from typing import NamedTuple


class CanonicalError(Exception):
    """Base for message-model errors."""


class MalformedAmount(CanonicalError):
    pass


class BadCurrency(CanonicalError):
    pass


class MalformedParty(CanonicalError):
    pass


class CurrencyMismatch(CanonicalError):
    pass


_CCY_RE = re.compile(r"^[A-Z]{3}$")
_MSISDN_RE = re.compile(r"^[0-9]{9,15}$")
# identifiers ride inside pipe- and colon-delimited wire records
_IDENT_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
_INSTITUTION_RE = re.compile(r"^[A-Za-z0-9_-]+$")


def _compact_json():
    """The same bytes as json.dumps(obj, separators=(",", ":")), from one encoder built at import.

    `JSONEncoder.encode` builds a C encoder on every call. This one is
    built once, without a markers dict: a failed encode cannot leave one
    dirty for the next call, and no input is circular (each is a tree
    built for the call), so nothing is lost by not checking.
    """
    base = json.JSONEncoder(separators=(",", ":"))
    if _json_encoder.c_make_encoder is None:
        return base.encode
    encode = _json_encoder.c_make_encoder(
        None, base.default, _json_encoder.encode_basestring_ascii, None, ":", ",", False, False, True
    )
    join = "".join

    def compact_json(obj) -> str:
        return join(encode(obj, 0))

    return compact_json


compact_json = _compact_json()


class Money(namedtuple("Money", "currency minor_units")):
    """An amount in integer minor units of a single currency; an immutable tuple."""

    __slots__ = ()

    def __new__(cls, currency: str, minor_units: int) -> "Money":
        if not _CCY_RE.match(currency):
            raise BadCurrency(f"bad currency code: {currency!r}")
        if not isinstance(minor_units, int) or isinstance(minor_units, bool):
            raise MalformedAmount(f"minor_units must be int, got {minor_units!r}")
        return tuple.__new__(cls, (currency, minor_units))

    def _check(self, other: "Money") -> None:
        if self.currency != other.currency:
            raise CurrencyMismatch(f"{self.currency} vs {other.currency}")

    # the sum or difference of two checked amounts of one currency needs no new checks
    def __add__(self, other: "Money") -> "Money":
        self._check(other)
        return tuple.__new__(Money, (self.currency, self.minor_units + other.minor_units))

    def __sub__(self, other: "Money") -> "Money":
        self._check(other)
        return tuple.__new__(Money, (self.currency, self.minor_units - other.minor_units))

    def __lt__(self, other: "Money") -> bool:
        self._check(other)
        return self.minor_units < other.minor_units

    # not tuple order, which would compare currency codes first: > reflects to __lt__, <= and >= raise TypeError
    __gt__, __le__, __ge__ = object.__gt__, object.__le__, object.__ge__


def make_money(currency: str, text: str) -> Money:
    """Parse a decimal string ("50", "50.5", "50.05") into minor units.

    Two minor digits per major unit; more than two decimals is an error,
    as is anything that is not a plain decimal number.
    """
    if not _CCY_RE.match(currency):
        raise BadCurrency(f"bad currency code: {currency!r}")
    m = re.match(r"^(-?)([0-9]+)(?:\.([0-9]{1,2}))?$", text)
    if not m:
        raise MalformedAmount(f"bad amount: {text!r}")
    sign, whole, frac = m.groups()
    minor = int(whole) * 100 + int((frac or "0").ljust(2, "0"))
    return Money(currency, -minor if sign else minor)


def render_money(money: Money) -> str:
    """Format as "GHS 50.00" (sign ahead of the digits for negatives)."""
    units = money.minor_units
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{money.currency} {sign}{units // 100}.{units % 100:02d}"


class PartyKind(Enum):
    WALLET = "wallet"
    BANK_ACCOUNT = "bank_account"
    AGENT_TILL = "agent_till"
    FEE_POT = "fee_pot"
    FLOAT = "float"

    # members are singletons: hash by identity, not Enum's Python-level hash of the name
    __hash__ = object.__hash__


# wire token <-> kind; wallet/bank/agent are customer-facing kinds
_KIND_TOKENS = {
    "wallet": PartyKind.WALLET,
    "bank": PartyKind.BANK_ACCOUNT,
    "agent": PartyKind.AGENT_TILL,
    "fee_pot": PartyKind.FEE_POT,
    "float": PartyKind.FLOAT,
}
_TOKEN_FOR_KIND = {v: k for k, v in _KIND_TOKENS.items()}

CUSTOMER_KINDS = frozenset(
    {PartyKind.WALLET, PartyKind.BANK_ACCOUNT, PartyKind.AGENT_TILL}
)


class PartyRef(namedtuple("PartyRef", "kind institution identifier")):
    """A ledger-addressable party: kind, owning institution, identifier; an immutable tuple."""

    __slots__ = ()

    def __new__(cls, kind: PartyKind, institution: str, identifier: str) -> "PartyRef":
        if not _INSTITUTION_RE.match(institution):
            raise MalformedParty(f"bad institution: {institution!r}")
        if kind is PartyKind.WALLET:
            if not _MSISDN_RE.match(identifier):
                raise MalformedParty(f"wallet identifier must be a 9-15 digit msisdn: {identifier!r}")
        elif not _IDENT_RE.match(identifier):
            raise MalformedParty(f"bad identifier: {identifier!r}")
        return tuple.__new__(cls, (kind, institution, identifier))


def parse_party(text: str) -> PartyRef:
    """Parse "wallet:MTN:233244000001" / "bank:RB001:SAV-001" / "agent:AG1:TILL-1"."""
    parts = text.split(":")
    if len(parts) != 3:
        raise MalformedParty(f"party must be kind:institution:identifier, got {text!r}")
    token, institution, identifier = parts
    kind = _KIND_TOKENS.get(token)
    if kind is None:
        raise MalformedParty(f"unknown party kind: {token!r}")
    return PartyRef(kind, institution, identifier)


def render_party(party: PartyRef) -> str:
    return f"{_TOKEN_FOR_KIND[party.kind]}:{party.institution}:{party.identifier}"


def float_party(endpoint_id: str) -> PartyRef:
    return PartyRef(PartyKind.FLOAT, endpoint_id, "main")


def fee_pot_party(endpoint_id: str) -> PartyRef:
    return PartyRef(PartyKind.FEE_POT, endpoint_id, "main")


class IdGenerator:
    """Per-node monotonically increasing message ids, unique within a run."""

    def __init__(self, node: str, start: int = 0) -> None:
        self.node = node
        self.seq = start

    def next(self) -> str:
        self.seq += 1
        return f"{self.node}-{self.seq:06d}"


# --- message registry -------------------------------------------------------
#
# Closed set of message types. Each body is a flat map of named fields;
# field kinds: party, money, str, int. Transforms and validation are
# driven off this table, so adding a type here is the single change
# needed to teach every codec about it.

BODY_SCHEMAS: dict[str, tuple[tuple[str, str], ...]] = {
    "transfer.request": (("from", "party"), ("to", "party"), ("amount", "money"), ("client_ref", "str")),
    "cashout.request": (("from", "party"), ("to", "party"), ("amount", "money"), ("client_ref", "str")),
    "cashin.request": (("from", "party"), ("to", "party"), ("amount", "money"), ("client_ref", "str")),
    "balance.request": (("party", "party"),),
    "balance.reply": (("party", "party"), ("available", "money")),
    "authorize.cmd": (("saga", "str"), ("op", "str"), ("party", "party"), ("amount", "money")),
    "auth.ok": (("saga", "str"), ("cmd", "str"), ("fee", "money")),
    "auth.denied": (("saga", "str"), ("cmd", "str"), ("reason", "str")),
    "hold.cmd": (("saga", "str"), ("party", "party"), ("amount", "money")),
    "hold.ok": (("saga", "str"), ("cmd", "str")),
    "hold.err": (("saga", "str"), ("cmd", "str"), ("reason", "str")),
    "credit.cmd": (("saga", "str"), ("party", "party"), ("amount", "money")),
    "credit.ok": (("saga", "str"), ("cmd", "str")),
    "credit.err": (("saga", "str"), ("cmd", "str"), ("reason", "str")),
    "commit.cmd": (("saga", "str"), ("party", "party"), ("amount", "money"), ("fee", "money")),
    "commit.ok": (("saga", "str"), ("cmd", "str")),
    "release.cmd": (("saga", "str"), ("party", "party"), ("amount", "money")),
    "release.ok": (("saga", "str"), ("cmd", "str")),
    "saga.result": (("saga", "str"), ("client_ref", "str"), ("state", "str"), ("reason", "str")),
    "sync.batch": (("agent", "str"), ("count", "int")),
    "sync.report": (("agent", "str"), ("count", "int"), ("completed", "int"), ("failed", "int"), ("outcomes", "str")),
}

MSG_TYPES = frozenset(BODY_SCHEMAS)
REQUEST_TYPES = frozenset({"transfer.request", "cashout.request", "cashin.request"})
COMMAND_TYPES = frozenset({"authorize.cmd", "hold.cmd", "credit.cmd", "commit.cmd", "release.cmd"})
REPLY_TYPES = frozenset(
    {"auth.ok", "auth.denied", "hold.ok", "hold.err", "credit.ok", "credit.err", "commit.ok", "release.ok"}
)


class CanonicalMessage(NamedTuple):
    """The bus-internal message envelope; an immutable tuple.

    destination is an endpoint/channel id or "bus" (route me);
    correlation_id ties every derived message back to the originating
    request's message_id.
    """

    message_id: str
    correlation_id: str
    msg_type: str
    source: str
    destination: str
    timestamp: int
    body: dict

    def reply(self, msg_type: str, body: dict, message_id: str, source: str) -> "CanonicalMessage":
        """Build a reply addressed back to this message's source, same correlation."""
        return CanonicalMessage(message_id, self.correlation_id, msg_type, source, self.source, self.timestamp, body)


# transport-hostile characters are rejected up front so every native
# format can carry any validated message
_UNSAFE_STR = re.compile(r"[|\n\r\x00-\x08\x0b-\x1f]")


# the type a party, money or str field holds (an int field also refuses bool)
_EXPECTED = {"party": PartyRef, "money": Money, "str": str}


def validate_message(msg: CanonicalMessage) -> list[str]:
    """Return all violations; an empty list means the message is valid."""
    schema = BODY_SCHEMAS.get(msg.msg_type)
    if schema is None:
        return [f"msg_type: unknown type {msg.msg_type!r}"]
    body = msg.body
    out: list[str] = []
    present = 0
    currency = None
    mixed = False
    for name, kind in schema:
        if name not in body:
            out.append(f"body.{name}: missing")
            continue
        present += 1
        value = body[name]
        if kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                out.append(f"body.{name}: expected int, got {type(value).__name__}")
        elif not isinstance(value, _EXPECTED[kind]):
            out.append(f"body.{name}: expected {kind}, got {type(value).__name__}")
        elif kind == "money":
            if currency is None:
                currency = value.currency
            elif value.currency != currency:
                mixed = True
        elif kind == "str" and _UNSAFE_STR.search(value):
            out.append(f"body.{name}: unsafe characters")
    if present != len(body):
        names = {name for name, _ in schema}
        out.extend(f"body.{name}: unknown field" for name in body if name not in names)
    if mixed or out:
        # a clean body holds money only in its money fields; any other body is checked whole
        currencies = {v.currency for v in body.values() if isinstance(v, Money)}
        if len(currencies) > 1:
            out.append(f"body: cross-currency amounts {sorted(currencies)}")
    if not msg.message_id:
        out.append("message_id: empty")
    if not msg.correlation_id:
        out.append("correlation_id: empty")
    return out


def body_to_json(msg_type: str, body: dict) -> dict:
    """Encode a validated body as plain JSON types (parties as strings)."""
    out: dict = {}
    for name, kind in BODY_SCHEMAS[msg_type]:
        value = body[name]
        if kind == "party":
            out[name] = render_party(value)
        elif kind == "money":
            out[name] = {"ccy": value.currency, "minor": value.minor_units}
        else:
            out[name] = value
    return out


def body_from_json(msg_type: str, raw: dict) -> dict:
    """Decode a JSON body per the schema; raises CanonicalError subclasses."""
    schema = BODY_SCHEMAS.get(msg_type)
    if schema is None:
        raise CanonicalError(f"unknown msg_type: {msg_type!r}")
    out: dict = {}
    for name, kind in schema:
        if name not in raw:
            continue
        value = raw[name]
        if kind == "party":
            if not isinstance(value, str):
                raise MalformedParty(f"{name}: party must be a string")
            out[name] = parse_party(value)
        elif kind == "money":
            if not isinstance(value, dict) or set(value) != {"ccy", "minor"}:
                raise MalformedAmount(f"{name}: money must be {{ccy, minor}}")
            if not isinstance(value["minor"], int) or isinstance(value["minor"], bool):
                raise MalformedAmount(f"{name}: minor must be int")
            out[name] = Money(value["ccy"], value["minor"])
        else:
            out[name] = value
    for name in raw:
        if name not in out:  # not a schema field: surfaces as a validation violation
            out[name] = raw[name]
    return out
