"""Boundary codecs: canonical NDJSON, bank_pipe records, wallet_kv records.

from_native(to_native(msg, fmt), fmt) == msg for every validated message;
amounts are carried verbatim in minor units, never rescaled.
"""
from __future__ import annotations

import json

from .canonical import (
    BODY_SCHEMAS,
    CanonicalError,
    CanonicalMessage,
    Money,
    body_from_json,
    body_to_json,
    compact_json,
    parse_party,
    render_party,
    validate_message,
)


class TransformError(Exception):
    pass


class UnknownFormat(TransformError):
    pass


class UnmappableField(TransformError):
    pass


class MalformedNative(TransformError):
    pass


_PIPE_MAGIC = "MMB1"

# canonical type -> (bank_pipe opcode, wallet_kv op)
_WIRE_NAMES = {
    "transfer.request": ("XFER", "transfer"),
    "cashout.request": ("CASHOUT", "cashout"),
    "cashin.request": ("CASHIN", "cashin"),
    "balance.request": ("BALQ", "bal_q"),
    "balance.reply": ("BALR", "bal_r"),
    "authorize.cmd": ("AUTH", "auth"),
    "auth.ok": ("AUTHOK", "auth_ok"),
    "auth.denied": ("AUTHNO", "auth_denied"),
    "hold.cmd": ("HOLD", "hold"),
    "hold.ok": ("HOLDOK", "hold_ok"),
    "hold.err": ("HOLDERR", "hold_err"),
    "credit.cmd": ("CREDIT", "credit"),
    "credit.ok": ("CREDOK", "credit_ok"),
    "credit.err": ("CREDERR", "credit_err"),
    "commit.cmd": ("COMMIT", "commit"),
    "commit.ok": ("COMMITOK", "commit_ok"),
    "release.cmd": ("RELEASE", "release"),
    "release.ok": ("RELOK", "release_ok"),
    "saga.result": ("RESULT", "result"),
    "sync.batch": ("SYNCB", "sync_batch"),
    "sync.report": ("SYNCR", "sync_report"),
}
_TYPE_FOR_OPCODE = {pipe: msg_type for msg_type, (pipe, _) in _WIRE_NAMES.items()}
_TYPE_FOR_KV_OP = {kv: msg_type for msg_type, (_, kv) in _WIRE_NAMES.items()}

# schema field names that collide with (or are aliased by) the wallet_kv header keys
_RENAMED = {"party": "acct", "op": "req_op"}


def _cell_keys(name: str, kind: str) -> tuple[str, ...]:
    if kind == "money":
        # minor then ccy; the amount field keeps the legacy bare ccy key
        return (name, "ccy" if name == "amount" else f"{name}_ccy")
    return (_RENAMED.get(name, name),)


# Per type, its body as (field, kind, cell keys) in schema order. Both native
# formats write the same cells in the same order: bank_pipe by position,
# wallet_kv under these keys.
_LAYOUTS = {
    msg_type: tuple((name, kind, _cell_keys(name, kind)) for name, kind in schema)
    for msg_type, schema in BODY_SCHEMAS.items()
}
_HEAD_KEYS = ("id", "corr", "ts", "src", "dst", "op")
# every key of a record, header first
_RECORD_KEYS = {
    msg_type: _HEAD_KEYS + tuple(key for _, _, keys in layout for key in keys)
    for msg_type, layout in _LAYOUTS.items()
}
# wallet_kv writes a record's cells as one key=value line each
_KV_TEMPLATES = {msg_type: "".join(f"{key}={{}}\n" for key in keys) for msg_type, keys in _RECORD_KEYS.items()}


def encode_canonical(msg: CanonicalMessage) -> str:
    """One JSON line: {"v":1,"id",...,"type","src","dst","body"}."""
    obj = {
        "v": 1,
        "id": msg.message_id,
        "corr": msg.correlation_id,
        "ts": msg.timestamp,
        "type": msg.msg_type,
        "src": msg.source,
        "dst": msg.destination,
        "body": body_to_json(msg.msg_type, msg.body),
    }
    return compact_json(obj)


def decode_canonical(line: str) -> CanonicalMessage:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedNative(f"bad json: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedNative("line is not an object")
    if obj.get("v") != 1:
        raise MalformedNative(f"unsupported version: {obj.get('v')!r}")
    for key in ("id", "corr", "type", "src", "dst"):
        if not isinstance(obj.get(key), str) or not obj[key]:
            raise MalformedNative(f"{key}: missing or not a string")
    body_raw = obj.get("body")
    if not isinstance(body_raw, dict):
        raise MalformedNative("body: missing or not an object")
    ts = obj.get("ts", 0)
    if not isinstance(ts, int) or isinstance(ts, bool):
        raise MalformedNative("ts: not an integer")
    msg_type = obj["type"]
    if msg_type not in BODY_SCHEMAS:
        # keep the raw body; validation reports the unknown type
        body = dict(body_raw)
    else:
        try:
            body = body_from_json(msg_type, body_raw)
        except CanonicalError as exc:
            raise MalformedNative(str(exc)) from None
    return CanonicalMessage(obj["id"], obj["corr"], msg_type, obj["src"], obj["dst"], ts, body)


def _require_valid(msg: CanonicalMessage) -> None:
    problems = validate_message(msg)
    if problems:
        raise UnmappableField("; ".join(problems))


def _cells(msg: CanonicalMessage, wire_name: str) -> list[str]:
    """A validated message's record cells: the header, then the body per its layout."""
    cells = [msg.message_id, msg.correlation_id, str(msg.timestamp), msg.source, msg.destination, wire_name]
    body = msg.body
    for name, kind, _ in _LAYOUTS[msg.msg_type]:
        value = body[name]
        if kind == "party":
            cells.append(render_party(value))
        elif kind == "money":
            cells.append(str(value.minor_units))
            cells.append(value.currency)
        else:
            cells.append(str(value))
    return cells


def _message(msg_type: str, cells: dict[str, str]) -> CanonicalMessage:
    """Parse a record's cells, keyed as _RECORD_KEYS names them, into a message."""
    body: dict = {}
    try:
        for name, kind, keys in _LAYOUTS[msg_type]:
            if kind == "money":
                body[name] = Money(cells[keys[1]], int(cells[keys[0]]))
            elif kind == "party":
                body[name] = parse_party(cells[keys[0]])
            elif kind == "int":
                body[name] = int(cells[keys[0]])
            else:
                body[name] = cells[keys[0]]
        return CanonicalMessage(cells["id"], cells["corr"], msg_type, cells["src"], cells["dst"], int(cells["ts"]), body)
    except KeyError as exc:
        raise MalformedNative(f"{msg_type}: missing key {exc}") from None
    except (ValueError, CanonicalError) as exc:
        raise MalformedNative(f"{msg_type}: {exc}") from None


def to_bank_pipe(msg: CanonicalMessage) -> str:
    _require_valid(msg)
    return "|".join([_PIPE_MAGIC, *_cells(msg, _WIRE_NAMES[msg.msg_type][0])]) + "\n"


def from_bank_pipe(text: str) -> CanonicalMessage:
    if not text.endswith("\n"):
        raise MalformedNative("record not newline-terminated")
    cells = text[:-1].split("|")
    if len(cells) < 7 or cells[0] != _PIPE_MAGIC:
        raise MalformedNative("bad record header")
    msg_type = _TYPE_FOR_OPCODE.get(cells[6])
    if msg_type is None:
        raise MalformedNative(f"unknown opcode: {cells[6]!r}")
    keys = _RECORD_KEYS[msg_type]
    if len(cells) != 1 + len(keys):
        raise MalformedNative(f"{msg_type}: {len(cells) - 7} body cells, expected {len(keys) - 6}")
    return _message(msg_type, dict(zip(keys, cells[1:])))


def to_wallet_kv(msg: CanonicalMessage) -> str:
    _require_valid(msg)
    return _KV_TEMPLATES[msg.msg_type].format(*_cells(msg, _WIRE_NAMES[msg.msg_type][1]))


def _kv_line_error(lines: list[str]) -> MalformedNative:
    """The error for the first line that has no '=' or repeats a key."""
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if "=" not in line:
            return MalformedNative(f"line {lineno}: no '='")
        key = line.split("=", 1)[0]
        if key in seen:
            return MalformedNative(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)


def from_wallet_kv(text: str) -> CanonicalMessage:
    if not text.endswith("\n"):
        raise MalformedNative("record not newline-terminated")
    lines = text[:-1].split("\n")
    try:
        pairs = dict([line.split("=", 1) for line in lines])
    except ValueError:
        raise _kv_line_error(lines) from None
    if len(pairs) != len(lines):
        raise _kv_line_error(lines)
    op = pairs.get("op")
    if op is None:
        raise MalformedNative("missing header key 'op'")
    msg_type = _TYPE_FOR_KV_OP.get(op)
    if msg_type is None:
        raise MalformedNative(f"unknown op: {op!r}")
    msg = _message(msg_type, pairs)
    keys = _RECORD_KEYS[msg_type]
    if len(pairs) != len(keys):
        # _message found every key of the type, so the rest are extra
        raise MalformedNative(f"{msg_type}: unexpected keys {sorted(set(pairs).difference(keys))}")
    return msg


def _to_canonical(msg: CanonicalMessage) -> str:
    _require_valid(msg)
    return encode_canonical(msg) + "\n"


def _from_canonical(text: str) -> CanonicalMessage:
    if not text.endswith("\n"):
        raise MalformedNative("record not newline-terminated")
    return decode_canonical(text[:-1])


# native format -> (encode, decode)
_CODECS = {
    "canonical": (_to_canonical, _from_canonical),
    "bank_pipe": (to_bank_pipe, from_bank_pipe),
    "wallet_kv": (to_wallet_kv, from_wallet_kv),
}
NATIVE_FORMATS = tuple(_CODECS)


def _codec(fmt: str) -> tuple:
    try:
        return _CODECS[fmt]
    except KeyError:
        raise UnknownFormat(fmt) from None


def to_native(msg: CanonicalMessage, fmt: str) -> str:
    return _codec(fmt)[0](msg)


def from_native(text: str, fmt: str) -> CanonicalMessage:
    return _codec(fmt)[1](text)
