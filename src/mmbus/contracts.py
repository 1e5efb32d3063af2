"""Service contracts: what each endpoint may do, at what caps, for what fee.

Authorization is the single financial gate; everything the bus admits
has passed a contract lookup here first.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .canonical import (
    CanonicalMessage,
    CurrencyMismatch,
    IdGenerator,
    Money,
    PartyRef,
)


class ContractError(Exception):
    pass


class DuplicateEndpoint(ContractError):
    pass


class UnknownEndpoint(ContractError):
    pass


@dataclass(frozen=True)
class FeeSchedule:
    """flat + basis points on the amount, capped; all in one currency."""

    flat: Money
    basis_points: int
    fee_cap: Money

    def __post_init__(self) -> None:
        if self.flat.currency != self.fee_cap.currency:
            raise CurrencyMismatch(f"{self.flat.currency} vs {self.fee_cap.currency}")
        if self.basis_points < 0:
            raise ContractError("basis_points must be >= 0")
        if self.flat.minor_units < 0 or self.fee_cap.minor_units < 0:
            raise ContractError("fee components must be >= 0")


def compute_fee(amount: Money, schedule: FeeSchedule) -> Money:
    """min(flat + half-up(amount * bps / 10000), fee_cap), pure integer arithmetic."""
    if amount.currency != schedule.flat.currency:
        raise CurrencyMismatch(f"{amount.currency} vs {schedule.flat.currency}")
    if amount.minor_units < 0:
        raise ContractError("fee on negative amount")
    variable = (amount.minor_units * schedule.basis_points + 5000) // 10000
    fee = schedule.flat.minor_units + variable
    return Money(amount.currency, min(fee, schedule.fee_cap.minor_units))


@dataclass(frozen=True)
class ServiceContract:
    endpoint_id: str
    kind: str
    native_format: str
    operations: frozenset[str]
    per_txn_cap: Money
    daily_cap: Money
    fee: FeeSchedule

    def __post_init__(self) -> None:
        if self.daily_cap < self.per_txn_cap:
            raise ContractError(f"{self.endpoint_id}: per_txn_cap exceeds daily_cap")
        if self.per_txn_cap.currency != self.fee.flat.currency:
            raise CurrencyMismatch("caps and fee schedule must share a currency")


@dataclass
class DailyUsage:
    day_index: int = 0
    accumulated: int = 0


@dataclass(frozen=True)
class AuthOk:
    fee: Money


@dataclass(frozen=True)
class AuthDenied:
    reason: str


def evaluate(contract: ServiceContract, used_today: int, op: str, amount: Money) -> AuthOk | AuthDenied:
    """Pure authorization decision; caller owns the usage window."""
    if op not in contract.operations:
        return AuthDenied("op_not_permitted")
    if amount.currency != contract.per_txn_cap.currency:
        return AuthDenied("currency")
    if amount.minor_units <= 0:
        return AuthDenied("non_positive_amount")
    if contract.per_txn_cap < amount:
        return AuthDenied("per_txn_cap")
    if used_today + amount.minor_units > contract.daily_cap.minor_units:
        return AuthDenied("daily_cap")
    return AuthOk(fee=compute_fee(amount, contract.fee))


class ContractRegistry:
    """Registered endpoints plus their rolling daily usage.

    Not thread-safe: callers serialize (the TCP server holds one lock
    around all switch work).
    """

    def __init__(self, ticks_per_day: int = 86400) -> None:
        self.ticks_per_day = ticks_per_day
        self._contracts: dict[str, ServiceContract] = {}
        self._usage: dict[str, DailyUsage] = {}

    def register(self, contract: ServiceContract) -> None:
        if contract.endpoint_id in self._contracts:
            raise DuplicateEndpoint(contract.endpoint_id)
        self._contracts[contract.endpoint_id] = contract
        self._usage[contract.endpoint_id] = DailyUsage()

    def lookup(self, endpoint_id: str) -> ServiceContract | None:
        return self._contracts.get(endpoint_id)

    def _window(self, endpoint_id: str, tick: int) -> DailyUsage:
        usage = self._usage[endpoint_id]
        day = tick // self.ticks_per_day
        if usage.day_index != day:
            usage.day_index = day
            usage.accumulated = 0
        return usage

    def authorize(self, op: str, party: PartyRef, amount: Money, tick: int) -> AuthOk | AuthDenied:
        """Decide against the paying party's institution contract; accumulate on ok."""
        contract = self._contracts.get(party.institution)
        if contract is None:
            raise UnknownEndpoint(party.institution)
        usage = self._window(party.institution, tick)
        decision = evaluate(contract, usage.accumulated, op, amount)
        if isinstance(decision, AuthOk):
            usage.accumulated += amount.minor_units
        return decision

    def quote_fee(self, institution: str, amount: Money) -> Money:
        contract = self._contracts.get(institution)
        if contract is None:
            raise UnknownEndpoint(institution)
        return compute_fee(amount, contract.fee)

    def used_today(self, endpoint_id: str, tick: int) -> int:
        if endpoint_id not in self._usage:
            raise UnknownEndpoint(endpoint_id)
        return self._window(endpoint_id, tick).accumulated


@dataclass
class AuthorizerService:
    """Bus-side consumer of authorize.cmd; replies auth.ok/auth.denied.

    Deduplicates by command id so re-emitted or duplicated commands
    accumulate usage exactly once; cached replies are re-sent verbatim.
    """

    registry: ContractRegistry
    ids: IdGenerator = field(default_factory=lambda: IdGenerator("au"))
    seen: dict[str, CanonicalMessage] = field(default_factory=dict)

    node_id = "AUTH"

    def handle(self, msg: CanonicalMessage, tick: int) -> CanonicalMessage:
        cached = self.seen.get(msg.message_id)
        if cached is not None:
            return cached
        body = msg.body
        try:
            decision = self.registry.authorize(body["op"], body["party"], body["amount"], tick)
        except UnknownEndpoint:
            decision = AuthDenied("unknown_endpoint")
        if isinstance(decision, AuthOk):
            reply = msg.reply(
                "auth.ok",
                {"saga": body["saga"], "cmd": msg.message_id, "fee": decision.fee},
                message_id=self.ids.next(),
                source=self.node_id,
            )
        else:
            reply = msg.reply(
                "auth.denied",
                {"saga": body["saga"], "cmd": msg.message_id, "reason": decision.reason},
                message_id=self.ids.next(),
                source=self.node_id,
            )
        self.seen[msg.message_id] = reply
        return reply
