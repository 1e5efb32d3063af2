"""Institution ledgers: double-entry postings, holds, idempotent commands.

One ledger per endpoint. Customer balances, the institution's float and
its fee pot all live in the same book, so every posting balances to zero
inside one ledger and the global sum of posted balances is constant.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .canonical import (
    CUSTOMER_KINDS,
    CanonicalMessage,
    IdGenerator,
    Money,
    PartyRef,
    fee_pot_party,
    float_party,
    render_party,
)


class LedgerError(Exception):
    pass


class UnbalancedPosting(LedgerError):
    pass


class InsufficientAvailable(LedgerError):
    pass


class ProtocolError(LedgerError):
    """A command the engine can never legally produce reached a ledger."""


@dataclass
class Account:
    party: PartyRef
    currency: str
    initial: int
    posted: int
    held: int = 0

    @property
    def available(self) -> int:
        return self.posted - self.held


@dataclass(frozen=True)
class Entry:
    seq: int
    tick: int
    saga: str
    cmd: str
    legs: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class LedgerResult:
    status: str  # "ok" | "err"
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


_OK = LedgerResult("ok")


class Ledger:
    """Accounts, entries and active holds for one endpoint."""

    def __init__(self, endpoint_id: str, currency: str, float_minor: int = 0) -> None:
        self.endpoint_id = endpoint_id
        self.currency = currency
        self.accounts: dict[str, Account] = {}
        self.entries: list[Entry] = []
        self.holds: dict[str, tuple[str, int]] = {}  # saga -> (party, minor)
        self.replies: dict[str, LedgerResult] = {}  # command id -> effect result
        self.open_account(float_party(endpoint_id), float_minor)
        self.open_account(fee_pot_party(endpoint_id), 0)

    def open_account(self, party: PartyRef, initial_minor: int) -> Account:
        key = render_party(party)
        if key in self.accounts:
            raise LedgerError(f"account exists: {key}")
        account = Account(party=party, currency=self.currency, initial=initial_minor, posted=initial_minor)
        self.accounts[key] = account
        return account

    def _account(self, party: PartyRef) -> Account | None:
        if party.institution != self.endpoint_id:
            return None
        return self.accounts.get(render_party(party))

    def post(self, tick: int, saga: str, cmd: str, legs: list[tuple[str, int]]) -> Entry:
        """Apply a balanced set of legs atomically; guards are hard errors."""
        if sum(delta for _, delta in legs) != 0:
            raise UnbalancedPosting(f"{saga}: legs sum to {sum(d for _, d in legs)}")
        for key, delta in legs:
            account = self.accounts.get(key)
            if account is None:
                raise LedgerError(f"no account: {key}")
            if delta < 0 and account.party.kind in CUSTOMER_KINDS:
                if account.posted + delta - account.held < 0:
                    raise InsufficientAvailable(key)
        for key, delta in legs:
            self.accounts[key].posted += delta
        entry = Entry(
            seq=len(self.entries) + 1,
            tick=tick,
            saga=saga,
            cmd=cmd,
            legs=tuple((key, delta) for key, delta in legs),
        )
        self.entries.append(entry)
        return entry

    # -- idempotent command handlers -----------------------------------

    def _dedupe(self, cmd: str) -> LedgerResult | None:
        return self.replies.get(cmd)

    def _finish(self, cmd: str, result: LedgerResult) -> LedgerResult:
        self.replies[cmd] = result
        return result

    def hold(self, cmd: str, saga: str, party: PartyRef, amount: Money, tick: int) -> LedgerResult:
        """Earmark amount on the party's account; no posting."""
        cached = self._dedupe(cmd)
        if cached is not None:
            return cached
        if amount.currency != self.currency:
            return self._finish(cmd, LedgerResult("err", "currency"))
        account = self._account(party)
        if account is None:
            return self._finish(cmd, LedgerResult("err", "no_account"))
        if saga in self.holds:
            return self._finish(cmd, LedgerResult("err", "hold_exists"))
        if account.available < amount.minor_units:
            return self._finish(cmd, LedgerResult("err", "insufficient"))
        account.held += amount.minor_units
        self.holds[saga] = (render_party(party), amount.minor_units)
        return self._finish(cmd, _OK)

    def credit(self, cmd: str, saga: str, party: PartyRef, amount: Money, tick: int) -> LedgerResult:
        """Post funds from this institution's float into the party's account."""
        cached = self._dedupe(cmd)
        if cached is not None:
            return cached
        if amount.currency != self.currency:
            return self._finish(cmd, LedgerResult("err", "currency"))
        account = self._account(party)
        if account is None:
            return self._finish(cmd, LedgerResult("err", "no_account"))
        self.post(
            tick,
            saga,
            cmd,
            [(render_party(float_party(self.endpoint_id)), -amount.minor_units), (render_party(party), amount.minor_units)],
        )
        return self._finish(cmd, _OK)

    def commit(self, cmd: str, saga: str, party: PartyRef, amount: Money, fee: Money, tick: int) -> LedgerResult:
        """Consume the saga's hold: debit customer, credit float and fee pot."""
        cached = self._dedupe(cmd)
        if cached is not None:
            return cached
        held = self.holds.get(saga)
        total = amount.minor_units + fee.minor_units
        if held is None:
            return self._finish(cmd, LedgerResult("err", "no_hold"))
        held_party, held_minor = held
        if held_party != render_party(party) or held_minor != total:
            return self._finish(cmd, LedgerResult("err", "hold_mismatch"))
        account = self.accounts[held_party]
        account.held -= held_minor
        del self.holds[saga]
        legs = [(held_party, -total), (render_party(float_party(self.endpoint_id)), amount.minor_units)]
        if fee.minor_units:
            legs.append((render_party(fee_pot_party(self.endpoint_id)), fee.minor_units))
        self.post(tick, saga, cmd, legs)
        return self._finish(cmd, _OK)

    def release(self, cmd: str, saga: str, party: PartyRef, amount: Money, tick: int) -> LedgerResult:
        """Drop the saga's hold without posting anything."""
        cached = self._dedupe(cmd)
        if cached is not None:
            return cached
        held = self.holds.get(saga)
        if held is None:
            return self._finish(cmd, LedgerResult("err", "no_hold"))
        held_party, held_minor = held
        if held_party != render_party(party) or held_minor != amount.minor_units:
            return self._finish(cmd, LedgerResult("err", "hold_mismatch"))
        self.accounts[held_party].held -= held_minor
        del self.holds[saga]
        return self._finish(cmd, _OK)

    def balance(self, party: PartyRef) -> tuple[Money, Money] | None:
        """(available, posted) or None when the account is not here."""
        account = self._account(party)
        if account is None:
            return None
        return (Money(self.currency, account.available), Money(self.currency, account.posted))

    def outstanding_holds(self) -> int:
        return len(self.holds)

    def dump_rows(self) -> list[dict]:
        """Deterministic NDJSON-ready rows: accounts sorted, then entries in order."""
        rows: list[dict] = []
        for key in sorted(self.accounts):
            account = self.accounts[key]
            rows.append(
                {
                    "kind": "account",
                    "endpoint": self.endpoint_id,
                    "party": key,
                    "currency": account.currency,
                    "initial": account.initial,
                    "posted": account.posted,
                    "held": account.held,
                }
            )
        for entry in self.entries:
            rows.append(
                {
                    "kind": "entry",
                    "endpoint": self.endpoint_id,
                    "seq": entry.seq,
                    "tick": entry.tick,
                    "saga": entry.saga,
                    "cmd": entry.cmd,
                    "legs": [[key, delta] for key, delta in entry.legs],
                }
            )
        return rows


def conservation(ledgers: list[Ledger]) -> dict:
    """Sum of posted across every account must equal the seeded sum."""
    initial = sum(a.initial for lg in ledgers for a in lg.accounts.values())
    posted = sum(a.posted for lg in ledgers for a in lg.accounts.values())
    return {"initial_total": initial, "posted_total": posted, "ok": initial == posted}


@dataclass
class LedgerEndpoint:
    """Endpoint adapter: native payloads in, native replies out.

    Caches reply messages by command id so a duplicated command gets the
    byte-identical reply; effect dedupe lives in the ledger itself.
    """

    ledger: Ledger
    native_format: str
    ids: IdGenerator = field(init=False)
    reply_cache: dict[str, CanonicalMessage] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ids = IdGenerator("ep" + self.ledger.endpoint_id.lower())

    @property
    def endpoint_id(self) -> str:
        return self.ledger.endpoint_id

    def handle(self, msg: CanonicalMessage, tick: int) -> CanonicalMessage:
        cached = self.reply_cache.get(msg.message_id)
        if cached is not None:
            return cached
        body = msg.body
        msg_type = msg.msg_type
        if msg_type == "balance.request":
            found = self.ledger.balance(body["party"])
            if found is None:
                raise ProtocolError(f"{self.endpoint_id}: balance for foreign party")
            available, _ = found
            return msg.reply(
                "balance.reply",
                {"party": body["party"], "available": available},
                message_id=self.ids.next(),
                source=self.endpoint_id,
            )
        if msg_type == "hold.cmd":
            result = self.ledger.hold(msg.message_id, body["saga"], body["party"], body["amount"], tick)
            reply = self._ok_err(msg, result, "hold.ok", "hold.err")
        elif msg_type == "credit.cmd":
            result = self.ledger.credit(msg.message_id, body["saga"], body["party"], body["amount"], tick)
            reply = self._ok_err(msg, result, "credit.ok", "credit.err")
        elif msg_type == "commit.cmd":
            result = self.ledger.commit(msg.message_id, body["saga"], body["party"], body["amount"], body["fee"], tick)
            if not result.ok:
                raise ProtocolError(f"{self.endpoint_id}: commit {result.reason} for {body['saga']}")
            reply = self._ok_err(msg, result, "commit.ok", "commit.ok")
        elif msg_type == "release.cmd":
            result = self.ledger.release(msg.message_id, body["saga"], body["party"], body["amount"], tick)
            if not result.ok:
                raise ProtocolError(f"{self.endpoint_id}: release {result.reason} for {body['saga']}")
            reply = self._ok_err(msg, result, "release.ok", "release.ok")
        else:
            raise ProtocolError(f"{self.endpoint_id}: unexpected {msg_type}")
        self.reply_cache[msg.message_id] = reply
        return reply

    def _ok_err(self, msg: CanonicalMessage, result: LedgerResult, ok_type: str, err_type: str) -> CanonicalMessage:
        saga = msg.body["saga"]
        if result.ok:
            return msg.reply(ok_type, {"saga": saga, "cmd": msg.message_id}, message_id=self.ids.next(), source=self.endpoint_id)
        return msg.reply(
            err_type,
            {"saga": saga, "cmd": msg.message_id, "reason": result.reason},
            message_id=self.ids.next(),
            source=self.endpoint_id,
        )
