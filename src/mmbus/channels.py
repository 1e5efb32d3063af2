"""Customer channels: NDJSON gateway connections and USSD session menus.

Both channels produce the same canonical requests; a transfer keyed in
over USSD and one submitted as a gateway line are indistinguishable
past the channel boundary.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .canonical import (
    REQUEST_TYPES,
    CanonicalError,
    CanonicalMessage,
    IdGenerator,
    Money,
    PartyKind,
    PartyRef,
    make_money,
    render_money,
    render_party,
    parse_party,
    validate_message,
)
from .transform import MalformedNative, decode_canonical, encode_canonical
import dataclasses
import json


class ChannelError(Exception):
    pass


class Transcript:
    """Ordered record of everything a channel saw and said."""

    def __init__(self) -> None:
        self.lines: list[tuple[int, str, str]] = []

    def add(self, tick: int, direction: str, text: str) -> None:
        self.lines.append((tick, direction, text.rstrip("\n")))

    def digest(self) -> str:
        h = hashlib.sha256()
        for tick, direction, text in self.lines:
            h.update(f"{tick}|{direction}|{text}\n".encode())
        return h.hexdigest()


def _error_line(code: str, detail: str) -> str:
    return json.dumps({"v": 1, "error": code, "detail": detail}, separators=(",", ":"))


class GatewayChannel:
    """One NDJSON gateway connection: requests in, acks/results/errors out."""

    def __init__(
        self,
        channel_id: str,
        submit: Callable[[CanonicalMessage], str | None],
        query_balance: Callable[[CanonicalMessage], CanonicalMessage | None],
    ) -> None:
        self.channel_id = channel_id
        self.submit = submit
        self.query_balance = query_balance
        self.transcript = Transcript()
        self.seen_ids: set[str] = set()

    def on_line(self, line: str, tick: int) -> list[str]:
        """Handle one inbound line; returns reply lines in order."""
        self.transcript.add(tick, "in", line)
        replies = self._handle(line, tick)
        for reply in replies:
            self.transcript.add(tick, "out", reply)
        return replies

    def _handle(self, line: str, tick: int) -> list[str]:
        try:
            msg = decode_canonical(line)
        except MalformedNative as exc:
            return [_error_line("malformed", str(exc))]
        if msg.message_id in self.seen_ids:
            return [_error_line("duplicate_id", msg.message_id)]
        self.seen_ids.add(msg.message_id)
        msg = dataclasses.replace(msg, source=self.channel_id, timestamp=tick)
        violations = validate_message(msg)
        if violations:
            return [_error_line("invalid", "; ".join(violations))]
        if msg.destination != "bus":
            return [_error_line("bad_destination", msg.destination)]
        if msg.msg_type in REQUEST_TYPES:
            saga_id = self.submit(msg)
            if saga_id is None:
                return [_error_line("unavailable", "switch not reachable, retry later")]
            return [json.dumps({"v": 1, "accepted": msg.message_id, "saga": saga_id}, separators=(",", ":"))]
        if msg.msg_type == "balance.request":
            reply = self.query_balance(msg)
            if reply is None:
                return [_error_line("no_account", render_party(msg.body["party"]))]
            return [encode_canonical(reply)]
        return [_error_line("unsupported_type", msg.msg_type)]

    def deliver(self, msg: CanonicalMessage, tick: int) -> str:
        """An async message for this connection (saga.result); returns the line written."""
        line = encode_canonical(msg)
        self.transcript.add(tick, "out", line)
        return line


class UssdState(Enum):
    MENU = "MENU"
    AWAIT_RECIPIENT = "AWAIT_RECIPIENT"
    AWAIT_AMOUNT = "AWAIT_AMOUNT"
    AWAIT_CONFIRM = "AWAIT_CONFIRM"
    DONE = "DONE"


_MENU = "Mobile Money: 1. Send Money 2. Balance 3. Cash Out 0. Exit"
MAX_INVALID = 3
SESSION_EXPIRY_TICKS = 120


@dataclass
class UssdSession:
    session_id: str
    msisdn: str
    state: UssdState = UssdState.MENU
    mode: str = "send"
    recipient: PartyRef | None = None
    amount: Money | None = None
    fee: Money | None = None
    invalids: int = 0
    last_activity: int = 0


class UssdChannel:
    """Menu-driven sessions over `USSD|...` frames for one institution's subscribers."""

    def __init__(
        self,
        channel_id: str,
        institution: str,
        currency: str,
        submit: Callable[[CanonicalMessage], str | None],
        query_balance: Callable[[CanonicalMessage], CanonicalMessage | None],
        quote_fee: Callable[[PartyRef, Money], Money | None],
        expiry_ticks: int = SESSION_EXPIRY_TICKS,
    ) -> None:
        self.channel_id = channel_id
        self.institution = institution
        self.currency = currency
        self.submit = submit
        self.query_balance = query_balance
        self.quote_fee = quote_fee
        self.expiry_ticks = expiry_ticks
        self.sessions: dict[str, UssdSession] = {}
        self.session_ids = IdGenerator("us")
        self.msg_ids = IdGenerator("um")
        self.transcript = Transcript()

    def on_frame(self, frame: str, tick: int) -> str:
        self.transcript.add(tick, "in", frame)
        reply = self._handle(frame, tick)
        self.transcript.add(tick, "out", reply)
        return reply

    def _handle(self, frame: str, tick: int) -> str:
        parts = frame.split("|", 3)
        if len(parts) != 4 or parts[0] != "USSD":
            return "USSD|-|END|Bad frame."
        _, ref, verb, text = parts
        if verb == "BEGIN":
            try:
                PartyRef(PartyKind.WALLET, self.institution, ref)
            except CanonicalError:
                return "USSD|-|END|Bad msisdn."
            session = UssdSession(session_id=self.session_ids.next(), msisdn=ref, last_activity=tick)
            self.sessions[session.session_id] = session
            return f"USSD|{session.session_id}|CONT|{_MENU}"
        if verb != "INPUT":
            return "USSD|-|END|Bad frame."
        session = self.sessions.get(ref)
        if session is None:
            return f"USSD|{ref}|END|No session."
        session.last_activity = tick
        prefix, text_out = self._step(session, text, tick)
        if session.state is UssdState.DONE:
            del self.sessions[ref]
        return f"USSD|{session.session_id}|{prefix}|{text_out}"

    def _prompt(self, session: UssdSession) -> str:
        if session.state is UssdState.MENU:
            return _MENU
        if session.state is UssdState.AWAIT_RECIPIENT:
            if session.mode == "cashout":
                return "Enter agent till (kind:institution:id):"
            return "Enter recipient (kind:institution:id):"
        if session.state is UssdState.AWAIT_AMOUNT:
            return "Enter amount:"
        return self._confirm_text(session)

    def _confirm_text(self, session: UssdSession) -> str:
        verb = "Cash out" if session.mode == "cashout" else "Send"
        joiner = "at" if session.mode == "cashout" else "to"
        fee_part = f"Fee: {render_money(session.fee)}. " if session.fee is not None else ""
        return (
            f"{fee_part}{verb} {render_money(session.amount)} {joiner} "
            f"{render_party(session.recipient)}. 1=Confirm 0=Cancel"
        )

    def _invalid(self, session: UssdSession) -> tuple[str, str]:
        session.invalids += 1
        if session.invalids >= MAX_INVALID:
            session.state = UssdState.DONE
            return "END", "Session ended."
        return "CONT", f"Invalid choice. {self._prompt(session)}"

    def _step(self, session: UssdSession, text: str, tick: int) -> tuple[str, str]:
        if text == "0":
            session.state = UssdState.DONE
            return "END", "Cancelled."
        if session.state is UssdState.MENU:
            if text == "1" or text == "3":
                session.mode = "cashout" if text == "3" else "send"
                session.state = UssdState.AWAIT_RECIPIENT
                return "CONT", self._prompt(session)
            if text == "2":
                return "END", self._balance_text(session, tick)
            return self._invalid(session)
        if session.state is UssdState.AWAIT_RECIPIENT:
            try:
                session.recipient = parse_party(text)
            except CanonicalError:
                return self._invalid(session)
            session.state = UssdState.AWAIT_AMOUNT
            return "CONT", self._prompt(session)
        if session.state is UssdState.AWAIT_AMOUNT:
            try:
                amount = make_money(self.currency, text)
            except CanonicalError:
                return self._invalid(session)
            if amount.minor_units <= 0:
                return self._invalid(session)
            session.amount = amount
            session.fee = self.quote_fee(self._sender(session), amount)
            session.state = UssdState.AWAIT_CONFIRM
            return "CONT", self._prompt(session)
        if session.state is UssdState.AWAIT_CONFIRM:
            if text == "1":
                session.state = UssdState.DONE
                saga_id = self.submit(self._request(session, tick))
                if saga_id is None:
                    return "END", "Service unavailable. Try later."
                noun = "Cash-out" if session.mode == "cashout" else "Transfer"
                return "END", f"{noun} accepted. Ref: {saga_id}"
            return self._invalid(session)
        return "END", "Session ended."

    def _sender(self, session: UssdSession) -> PartyRef:
        return PartyRef(PartyKind.WALLET, self.institution, session.msisdn)

    def _request(self, session: UssdSession, tick: int) -> CanonicalMessage:
        msg_id = self.msg_ids.next()
        msg_type = "cashout.request" if session.mode == "cashout" else "transfer.request"
        return CanonicalMessage(
            message_id=msg_id,
            correlation_id=msg_id,
            msg_type=msg_type,
            source=self.channel_id,
            destination="bus",
            timestamp=tick,
            body={
                "from": self._sender(session),
                "to": session.recipient,
                "amount": session.amount,
                "client_ref": session.session_id,
            },
        )

    def _balance_text(self, session: UssdSession, tick: int) -> str:
        session.state = UssdState.DONE
        msg_id = self.msg_ids.next()
        request = CanonicalMessage(
            message_id=msg_id,
            correlation_id=msg_id,
            msg_type="balance.request",
            source=self.channel_id,
            destination="bus",
            timestamp=tick,
            body={"party": self._sender(session)},
        )
        reply = self.query_balance(request)
        if reply is None:
            return "Balance unavailable."
        return f"Balance: {render_money(reply.body['available'])}"

    def deliver(self, msg: CanonicalMessage, tick: int) -> str:
        """saga.result for a submitted session: pushed as a notice frame."""
        ref = msg.body.get("client_ref", "-")
        state = msg.body.get("state", "")
        reason = msg.body.get("reason", "")
        text = f"Result {msg.body.get('saga', '')}: {state}" + (f" ({reason})" if reason else "")
        frame = f"USSD|{ref}|NOTICE|{text}"
        self.transcript.add(tick, "out", frame)
        return frame

    def expire_due(self, tick: int) -> list[str]:
        """Close sessions idle past the expiry window; returns the END frames."""
        expired = [s for s in self.sessions.values() if tick - s.last_activity >= self.expiry_ticks]
        frames = []
        for session in expired:
            del self.sessions[session.session_id]
            frame = f"USSD|{session.session_id}|END|Session expired."
            self.transcript.add(tick, "out", frame)
            frames.append(frame)
        return frames
