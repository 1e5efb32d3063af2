"""Service bus core: routing rules, dispatch decisions, delivery receipts.

The bus decides *what* happens to each dispatched message (where it
goes, how the fault layer treats it); the simulation harness owns the
clock and executes the resulting deliveries.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

from .canonical import (
    COMMAND_TYPES,
    REPLY_TYPES,
    CanonicalMessage,
    PartyRef,
    render_party,
)
from .faults import FaultAction, FaultInjector

BASE_LATENCY = 1  # ticks per hop

ENGINE_NODE = "ENGINE"  # reserved in-process targets, never routed by rules
AUTH_NODE = "AUTH"


class BusError(Exception):
    pass


class NoRoute(BusError):
    pass


class BusCrash(BusError):
    """Raised mid-dispatch when a fault directive kills the bus process."""


@dataclass(frozen=True)
class RoutingRule:
    """Declarative matcher -> target endpoint; lower priority wins, then insertion order."""

    rule_id: str
    priority: int
    target: str
    msg_type: str | tuple[str, ...] | None = None
    party_kind: str | None = None
    party_institution: str | None = None
    amount_min: int | None = None
    amount_max: int | None = None

    def matches(self, msg: CanonicalMessage) -> bool:
        if self.msg_type is not None:
            allowed = (self.msg_type,) if isinstance(self.msg_type, str) else self.msg_type
            if msg.msg_type not in allowed:
                return False
        party = msg.body.get("party")
        if self.party_kind is not None:
            if not isinstance(party, PartyRef):
                return False
            if render_party(party).split(":", 1)[0] != self.party_kind:
                return False
        if self.party_institution is not None:
            if not isinstance(party, PartyRef) or party.institution != self.party_institution:
                return False
        amount = msg.body.get("amount")
        if self.amount_min is not None:
            if amount is None or amount.minor_units < self.amount_min:
                return False
        if self.amount_max is not None:
            if amount is None or amount.minor_units > self.amount_max:
                return False
        return True


class RoutingTable:
    """Rules indexed by msg_type: each type's candidates, any-type rules merged in, by (priority, insertion)."""

    def __init__(self) -> None:
        self._ids: set[str] = set()
        self._any_type: list[RoutingRule] = []  # the candidates of a type no rule names
        self._by_type: dict[str, list[RoutingRule]] = {}

    def add(self, rule: RoutingRule) -> None:
        if rule.rule_id in self._ids:
            raise BusError(f"duplicate rule id: {rule.rule_id}")
        self._ids.add(rule.rule_id)
        if rule.msg_type is None:
            lists = [self._any_type, *self._by_type.values()]
        else:
            types = {rule.msg_type} if isinstance(rule.msg_type, str) else set(rule.msg_type)
            lists = [self._by_type.setdefault(t, list(self._any_type)) for t in types]
        for candidates in lists:
            # after every rule of equal priority: insertion order breaks ties
            insort(candidates, rule, key=attrgetter("priority"))

    def route(self, msg: CanonicalMessage) -> str:
        for rule in self._by_type.get(msg.msg_type, self._any_type):
            if rule.matches(msg):
                return rule.target
        raise NoRoute(f"{msg.msg_type} {msg.message_id}: no rule matched")


@dataclass(slots=True)
class DeliveryReceipt:
    msg_id: str
    msg_type: str
    target: str
    outcome: str  # delivered | dropped | duplicated | delayed | refused
    attempt: int
    tick: int
    deliver_tick: int | None = None

    def row(self) -> dict:
        return {
            "msg_id": self.msg_id,
            "msg_type": self.msg_type,
            "target": self.target,
            "outcome": self.outcome,
            "attempt": self.attempt,
            "tick": self.tick,
            "deliver_tick": self.deliver_tick,
        }


@dataclass(slots=True)
class Delivery:
    target: str
    msg: CanonicalMessage
    delay: int
    receipt: DeliveryReceipt


@dataclass(slots=True)
class DispatchDecision:
    deliveries: list[Delivery] = field(default_factory=list)
    receipts: list[DeliveryReceipt] = field(default_factory=list)
    crash_endpoint: tuple[str, int] | None = None  # (target, restart_after)
    crash_bus: bool = False


_ROUTED_FROM_BUS = COMMAND_TYPES | {"balance.request"}

# what a dispatch does: a (receipt outcome, delivery delay) per receipt; no delay, no delivery
_REFUSED = (("refused", None),)
_DELIVERED = (("delivered", BASE_LATENCY),)
_DROPPED = (("dropped", None),)
_DUPLICATED = (("delivered", BASE_LATENCY), ("duplicated", BASE_LATENCY))


class ServiceBus:
    """Stateless-per-message dispatch: resolve target, gate, apply faults."""

    def __init__(
        self,
        routes: RoutingTable,
        injector: FaultInjector,
        permits: Callable[[str, str], bool | None],
    ) -> None:
        # permits(target, msg_type): True/False for ledger endpoints,
        # None for in-process nodes and channels (no contract gate)
        self.routes = routes
        self.injector = injector
        self.permits = permits
        self.attempts: dict[str, int] = {}

    def resolve(self, msg: CanonicalMessage) -> tuple[str, CanonicalMessage]:
        if msg.destination != "bus":
            return msg.destination, msg
        if msg.msg_type in REPLY_TYPES:
            return ENGINE_NODE, msg
        if msg.msg_type in _ROUTED_FROM_BUS:
            target = self.routes.route(msg)
            mid, corr, msg_type, source, _, timestamp, body = msg
            return target, CanonicalMessage(mid, corr, msg_type, source, target, timestamp, body)
        raise BusError(f"{msg.msg_type}: undeliverable destination 'bus'")

    def dispatch(self, msg: CanonicalMessage, tick: int) -> DispatchDecision:
        target, routed = self.resolve(msg)
        message_id, msg_type = msg.message_id, msg.msg_type
        attempt = self.attempts.get(message_id, 0) + 1
        self.attempts[message_id] = attempt
        decision = DispatchDecision()
        if self.permits(target, msg_type) is False:
            # contract gate: the target never sees a message it does not expose
            plan = _REFUSED
        else:
            directive = self.injector.decide(msg_type)
            if directive is None:
                plan = _DELIVERED
            elif directive.action is FaultAction.DUPLICATE:
                plan = _DUPLICATED
            elif directive.action is FaultAction.DELAY:
                plan = (("delayed", directive.delay_ticks),)
            else:
                plan = _DROPPED
                if directive.action is FaultAction.CRASH_ENDPOINT:
                    decision.crash_endpoint = (target, directive.restart_after)
                elif directive.action is FaultAction.CRASH_BUS:
                    decision.crash_bus = True
        for outcome, delay in plan:
            receipt = DeliveryReceipt(
                message_id, msg_type, target, outcome, attempt, tick, None if delay is None else tick + delay
            )
            decision.receipts.append(receipt)
            if delay is not None:
                decision.deliveries.append(Delivery(target, routed, delay, receipt))
        return decision
