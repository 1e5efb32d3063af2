"""Deterministic simulation harness: scenarios in, verifiable artifacts out.

The clock is a logical tick counter; every event (channel traffic,
delivery, timer, restart) sits in one priority queue keyed by
(tick, enqueue order). Randomness is confined to scenario generation,
so a (scenario, seed) pair always produces byte-identical reports,
journals and ledger dumps.
"""
from __future__ import annotations

import heapq
import json
import os
import random
import time
from dataclasses import dataclass, field

from .bus import (
    AUTH_NODE,
    BusCrash,
    BusError,
    ENGINE_NODE,
    RoutingRule,
    RoutingTable,
    ServiceBus,
)
from .canonical import (
    REQUEST_TYPES,
    REPLY_TYPES,
    CanonicalError,
    CanonicalMessage,
    IdGenerator,
    Money,
    PartyRef,
    compact_json,
    make_money,
    parse_party,
    render_party,
)
from .channels import GatewayChannel, UssdChannel
from .contracts import AuthorizerService, ContractError, ContractRegistry, FeeSchedule, ServiceContract, UnknownEndpoint
from .engine import Journal, ProcessEngine, load_journal, fold_records, saga_row, truncate_last_record
from .faults import FaultDirective, parse_directive
from .ledgers import Ledger, LedgerEndpoint, conservation
from .offline import QueueItem, SyncAgent
from .transform import NATIVE_FORMATS, from_native, to_native


class RunError(Exception):
    pass


class InvalidScenario(Exception):
    pass


# --- scenario model ---------------------------------------------------------


@dataclass
class EndpointSpec:
    contract: ServiceContract
    float_minor: int
    accounts: list[tuple[PartyRef, int]]


@dataclass
class ChannelSpec:
    channel_id: str
    protocol: str  # gateway | ussd
    institution: str = ""


@dataclass
class GeneratorSpec:
    """A validated `generate` block; expand_generator turns it into traffic for a seed."""

    index: int
    channel: str
    count: int
    start_tick: int
    spacing: int
    ref_prefix: str
    parties: list[PartyRef]
    pairs: list[tuple[PartyRef, PartyRef]]
    amount_min: int
    amount_max: int


@dataclass
class TrafficItem:
    tick: int
    channel: str
    text: str


@dataclass
class AgentSpec:
    agent_id: str
    channel_id: str
    reconnect_tick: int
    items: list[QueueItem]


@dataclass
class Scenario:
    name: str
    seed: int
    currency: str
    ticks_per_day: int = 86400
    max_ticks: int = 100_000
    bus_restart_ticks: int = 5
    torn_tail: bool = False
    endpoints: list[EndpointSpec] = field(default_factory=list)
    rules: list[RoutingRule] = field(default_factory=list)
    channels: list[ChannelSpec] = field(default_factory=list)
    traffic: list[TrafficItem] = field(default_factory=list)
    generators: list[GeneratorSpec] = field(default_factory=list)
    faults: list[FaultDirective] = field(default_factory=list)
    agents: list[AgentSpec] = field(default_factory=list)
    expected: dict = field(default_factory=dict)


def _fail(path: str, why: str) -> "InvalidScenario":
    return InvalidScenario(f"{path}: {why}")


def _req(obj: dict, key: str, path: str):
    if key not in obj:
        raise _fail(f"{path}.{key}", "missing")
    return obj[key]


def _name(obj: dict, key: str, path: str, default: str | None = None) -> str:
    """An id or name field, kept in sets and maps, so it must be a string."""
    value = _req(obj, key, path) if default is None else obj.get(key, default)
    if not isinstance(value, str):
        raise _fail(f"{path}.{key}", f"must be a string, got {value!r}")
    return value


def _list(obj: dict, key: str, path: str, kind: type = object, noun: str = "") -> list:
    """A list field, its items all of `kind` if given; anything else is an error at its path."""
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise _fail(f"{path}.{key}", "must be a list")
    for i, item in enumerate(items):
        if not isinstance(item, kind):
            raise _fail(f"{path}.{key}[{i}]", f"must be {noun}")
    return items


def _objects(obj: dict, key: str, path: str) -> list[dict]:
    return _list(obj, key, path, dict, "an object")


def _strings(obj: dict, key: str, path: str) -> list[str]:
    return _list(obj, key, path, str, "a string")


def _object(obj: dict, key: str, path: str, default: dict) -> dict:
    value = obj.get(key, default)
    if not isinstance(value, dict):
        raise _fail(f"{path}.{key}", "must be an object")
    return value


def _int(obj: dict, key: str, path: str, default: int | None = None) -> int:
    """An integer field; a missing one takes the default, or is an error without one."""
    value = _req(obj, key, path) if default is None else obj.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise _fail(f"{path}.{key}", f"must be an integer, got {value!r}") from None


def _money(obj, currency: str, path: str) -> Money:
    if not isinstance(obj, str):
        raise _fail(path, f"amount must be a decimal string, got {obj!r}")
    try:
        return make_money(currency, obj)
    except CanonicalError as exc:
        raise _fail(path, str(exc)) from None


def _party(text, path: str) -> PartyRef:
    if not isinstance(text, str):
        raise _fail(path, "party must be a string")
    try:
        return parse_party(text)
    except CanonicalError as exc:
        raise _fail(path, str(exc)) from None


def scenario_from_obj(obj: dict, name: str) -> Scenario:
    """Validate a scenario JSON object; diagnostics carry the field path."""
    if not isinstance(obj, dict):
        raise _fail(name, "scenario must be an object")
    currency = _req(obj, "currency", name)
    scenario = Scenario(
        name=obj.get("name", name),
        seed=_int(obj, "seed", name, 0),
        currency=currency,
        ticks_per_day=_int(obj, "ticks_per_day", name, 86400),
        max_ticks=_int(obj, "max_ticks", name, 100_000),
        bus_restart_ticks=_int(obj, "bus_restart_ticks", name, 5),
        torn_tail=bool(obj.get("torn_tail", False)),
        expected=_object(obj, "expected", name, {}),
    )
    if scenario.ticks_per_day < 1:
        raise _fail(f"{name}.ticks_per_day", "must be >= 1")

    seen_endpoints: set[str] = set()
    for i, ep in enumerate(_objects(obj, "endpoints", name)):
        path = f"{name}.endpoints[{i}]"
        endpoint_id = _name(ep, "id", path)
        if endpoint_id in seen_endpoints:
            raise _fail(path, f"duplicate endpoint id {endpoint_id!r}")
        seen_endpoints.add(endpoint_id)
        fmt = ep.get("native_format", "canonical")
        if fmt not in NATIVE_FORMATS:
            raise _fail(f"{path}.native_format", f"unknown format {fmt!r}")
        fee = _object(ep, "fee", path, {"flat": "0", "basis_points": 0, "fee_cap": "0"})
        accounts = []
        for j, acct in enumerate(_objects(ep, "accounts", path)):
            apath = f"{path}.accounts[{j}]"
            party = _party(_req(acct, "party", apath), apath)
            if party.institution != endpoint_id:
                raise _fail(apath, f"party institution {party.institution!r} is not {endpoint_id!r}")
            balance = _money(_req(acct, "balance", apath), currency, f"{apath}.balance")
            if balance.minor_units < 0:
                raise _fail(f"{apath}.balance", "must be >= 0")
            accounts.append((party, balance.minor_units))
        operations = _strings(ep, "operations", path)
        try:
            contract = ServiceContract(
                endpoint_id=endpoint_id,
                kind=ep.get("kind", "institution"),
                native_format=fmt,
                operations=frozenset(operations),
                per_txn_cap=_money(_req(ep, "per_txn_cap", path), currency, f"{path}.per_txn_cap"),
                daily_cap=_money(_req(ep, "daily_cap", path), currency, f"{path}.daily_cap"),
                fee=FeeSchedule(
                    _money(fee.get("flat", "0"), currency, f"{path}.fee.flat"),
                    _int(fee, "basis_points", f"{path}.fee", 0),
                    _money(fee.get("fee_cap", "0"), currency, f"{path}.fee.fee_cap"),
                ),
            )
        except ContractError as exc:
            raise _fail(path, str(exc)) from None
        float_minor = _money(ep.get("float", "0"), currency, f"{path}.float").minor_units
        scenario.endpoints.append(EndpointSpec(contract, float_minor, accounts))

    seen_rules: set[str] = set()
    for i, rule in enumerate(_objects(obj, "rules", name)):
        path = f"{name}.rules[{i}]"
        rule_id = _name(rule, "id", path)
        if rule_id in seen_rules:
            raise _fail(path, f"duplicate rule id {rule_id!r}")
        seen_rules.add(rule_id)
        priority = _int(rule, "priority", path)
        if priority < 0:
            raise _fail(f"{path}.priority", "must be >= 0 (negative priorities are reserved)")
        target = _name(rule, "target", path)
        if target not in seen_endpoints:
            raise _fail(f"{path}.target", f"unknown endpoint {target!r}")
        match = _object(rule, "match", path, {})
        unknown = set(match) - {"msg_type", "party_kind", "party_institution", "amount_min", "amount_max"}
        if unknown:
            raise _fail(f"{path}.match", f"unknown matchers {sorted(unknown)}")
        msg_type = match.get("msg_type")
        if isinstance(msg_type, list):
            msg_type = tuple(_strings(match, "msg_type", f"{path}.match"))
        elif msg_type is not None and not isinstance(msg_type, str):
            raise _fail(f"{path}.match.msg_type", "must be a string or a list of strings")
        amount_min = match.get("amount_min")
        amount_max = match.get("amount_max")
        scenario.rules.append(
            RoutingRule(
                rule_id=rule_id,
                priority=priority,
                target=target,
                msg_type=msg_type,
                party_kind=match.get("party_kind"),
                party_institution=match.get("party_institution"),
                amount_min=_money(amount_min, currency, f"{path}.match.amount_min").minor_units if amount_min is not None else None,
                amount_max=_money(amount_max, currency, f"{path}.match.amount_max").minor_units if amount_max is not None else None,
            )
        )

    seen_channels: set[str] = set()
    for i, ch in enumerate(_objects(obj, "channels", name)):
        path = f"{name}.channels[{i}]"
        channel_id = _name(ch, "id", path)
        protocol = _req(ch, "protocol", path)
        if protocol not in ("gateway", "ussd"):
            raise _fail(f"{path}.protocol", f"unknown protocol {protocol!r}")
        if protocol == "ussd" and not ch.get("institution"):
            raise _fail(f"{path}.institution", "ussd channels need an institution")
        if channel_id in seen_channels:
            raise _fail(path, f"duplicate channel id {channel_id!r}")
        seen_channels.add(channel_id)
        scenario.channels.append(ChannelSpec(channel_id, protocol, ch.get("institution", "")))

    for i, item in enumerate(_objects(obj, "traffic", name)):
        path = f"{name}.traffic[{i}]"
        if "generate" in item:
            gen = _generator(item["generate"], len(scenario.generators), seen_channels, currency, f"{path}.generate")
            scenario.generators.append(gen)
            continue
        channel = _name(item, "channel", path)
        if channel not in seen_channels:
            raise _fail(f"{path}.channel", f"unknown channel {channel!r}")
        text = item.get("line", item.get("frame"))
        if text is None:
            raise _fail(path, "needs line or frame")
        scenario.traffic.append(TrafficItem(_int(item, "tick", path), channel, text))

    for i, f in enumerate(_objects(obj, "faults", name)):
        path = f"{name}.faults[{i}]"
        try:
            scenario.faults.append(parse_directive(f))
        except Exception as exc:
            raise _fail(path, str(exc)) from None

    for i, agent in enumerate(_objects(obj, "agents", name)):
        path = f"{name}.agents[{i}]"
        agent_id = _name(agent, "endpoint", path)
        channel_id = _name(agent, "channel", path, f"agent:{agent_id}")
        if channel_id in seen_channels:
            raise _fail(f"{path}.channel", f"collides with channel {channel_id!r}")
        items = []
        for j, q in enumerate(_objects(agent, "queue", path)):
            qpath = f"{path}.queue[{j}]"
            items.append(
                QueueItem(
                    kind=_req(q, "kind", qpath),
                    source=_party(_req(q, "from", qpath), f"{qpath}.from"),
                    destination=_party(_req(q, "to", qpath), f"{qpath}.to"),
                    amount=_money(_req(q, "amount", qpath), currency, f"{qpath}.amount"),
                    client_ref=_req(q, "client_ref", qpath),
                    local_tick=_int(q, "local_tick", qpath, 0),
                )
            )
        scenario.agents.append(AgentSpec(agent_id, channel_id, _int(agent, "reconnect_tick", path), items))

    return scenario


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidScenario(f"{path}: bad json: {exc}") from None
    return scenario_from_obj(obj, os.path.splitext(os.path.basename(path))[0])


# --- traffic generation -----------------------------------------------------


def _generator(gen, index: int, channels: set[str], currency: str, path: str) -> GeneratorSpec:
    """Validate a generate block at load; the seed it expands under is known only at run time."""
    if not isinstance(gen, dict):
        raise _fail(path, "must be an object")
    if gen.get("kind") != "transfers":
        raise _fail(f"{path}.kind", f"unknown kind {gen.get('kind')!r}")
    channel = _name(gen, "channel", path)
    if channel not in channels:
        raise _fail(f"{path}.channel", f"unknown channel {channel!r}")
    parties = [_party(p, f"{path}.parties[{j}]") for j, p in enumerate(_list(gen, "parties", path))]
    pairs = []
    for j, pair in enumerate(_list(gen, "pairs", path)):
        ppath = f"{path}.pairs[{j}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise _fail(ppath, "must be a [from, to] pair")
        pairs.append((_party(pair[0], ppath), _party(pair[1], ppath)))
    if not pairs and len(parties) < 2:
        raise _fail(path, "needs pairs or >=2 parties")
    lo = _money(gen.get("amount_min", "1.00"), currency, f"{path}.amount_min").minor_units
    hi = _money(gen.get("amount_max", "20.00"), currency, f"{path}.amount_max").minor_units
    if lo > hi:
        raise _fail(path, "amount_min exceeds amount_max")
    return GeneratorSpec(
        index=index,
        channel=channel,
        count=_int(gen, "count", path),
        start_tick=_int(gen, "start_tick", path, 1),
        spacing=_int(gen, "spacing", path, 1),
        ref_prefix=gen.get("ref_prefix", f"gen{index}"),
        parties=parties,
        pairs=pairs,
        amount_min=lo,
        amount_max=hi,
    )


def expand_generator(gen: GeneratorSpec, seed: int, currency: str) -> list[TrafficItem]:
    """Deterministically expand a generate block into gateway lines."""
    rng = random.Random(seed * 1_000_003 + gen.index)
    channel = gen.channel
    items = []
    for i in range(gen.count):
        if gen.pairs:
            src, dst = rng.choice(gen.pairs)
        else:
            src, dst = rng.sample(gen.parties, 2)
        amount = rng.randint(gen.amount_min, gen.amount_max)
        ref = f"{gen.ref_prefix}-{i + 1:06d}"
        line = compact_json(
            {
                "v": 1,
                "id": ref,
                "corr": ref,
                "type": "transfer.request",
                "src": channel,
                "dst": "bus",
                "body": {
                    "from": render_party(src),
                    "to": render_party(dst),
                    "amount": {"ccy": currency, "minor": amount},
                    "client_ref": ref,
                },
            }
        )
        items.append(TrafficItem(gen.start_tick + i * gen.spacing, channel, line))
    return items


# --- the simulator ----------------------------------------------------------


class Simulator:
    def __init__(self, scenario: Scenario, out_dir: str | None = None, seed: int | None = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.out_dir = out_dir
        self.now_tick = 0
        self._eseq = 0
        self._heap: list = []
        self.epoch = 0
        self.receipts = []
        self.crashes: list[dict] = []
        self.sync_messages: list[dict] = []
        self.outboxes: dict[str, list[str]] = {}
        self._preserved_records: list[dict] = []
        self.bus_resume_tick: int | None = None

        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            os.makedirs(os.path.join(out_dir, "ledgers"), exist_ok=True)
            os.makedirs(os.path.join(out_dir, "transcripts"), exist_ok=True)
        self.journal_path = os.path.join(out_dir, "journal.ndjson") if out_dir else None
        if self.journal_path and os.path.exists(self.journal_path):
            os.remove(self.journal_path)

        self.registry = ContractRegistry(scenario.ticks_per_day)
        self.endpoint_hosts: dict[str, LedgerEndpoint] = {}
        for spec in scenario.endpoints:
            self._install_endpoint(spec)

        self.routes = RoutingTable()
        self.routes.add(RoutingRule("__authorize__", 0, AUTH_NODE, msg_type="authorize.cmd"))
        for rule in scenario.rules:
            self.routes.add(rule)

        from .faults import FaultInjector

        self.injector = FaultInjector(scenario.faults)
        self.bus = ServiceBus(self.routes, self.injector, self._permits)
        self.authorizer = AuthorizerService(self.registry)
        # node (AUTH_NODE or an endpoint id) -> tick it restarts at
        self.down_until: dict[str, int] = {}

        # A USSD session id is its transfer's client_ref, and the engine dedupes
        # client_refs switch-wide, so one counter numbers every USSD channel's
        # sessions. A gateway client_ref is the client's own idempotency key and
        # stays switch-wide: a request resent on a new connection is deduped.
        self.ussd_session_ids = IdGenerator("us")
        self.channels: dict[str, object] = {}
        for ch in scenario.channels:
            self.add_channel(ch)
        self.agents: list[SyncAgent] = [
            SyncAgent(a.agent_id, a.channel_id, a.items, a.reconnect_tick) for a in scenario.agents
        ]
        self.agent_by_channel = {a.channel_id: a for a in self.agents}

        # the journal the bus writes to now; a recovery replaces it
        self.journal = Journal(self.journal_path)
        self.engine: ProcessEngine | None = ProcessEngine(
            self.journal,
            now=lambda: self.now_tick,
            emit=self._dispatch,
            arm_timer=self._arm_timer,
        )

    def _install_endpoint(self, spec: EndpointSpec) -> None:
        contract = spec.contract
        self.registry.register(contract)
        ledger = Ledger(contract.endpoint_id, self.scenario.currency, spec.float_minor)
        for party, minor in spec.accounts:
            ledger.open_account(party, minor)
        self.endpoint_hosts[contract.endpoint_id] = LedgerEndpoint(ledger, contract.native_format)

    def add_channel(self, spec: ChannelSpec) -> None:
        if spec.protocol == "gateway":
            channel = GatewayChannel(spec.channel_id, self._submit, self._query_balance)
        else:
            channel = UssdChannel(
                spec.channel_id, spec.institution, self.scenario.currency, self._submit, self._query_balance, self._quote_fee,
                session_ids=self.ussd_session_ids,
            )
        self.channels[spec.channel_id] = channel

    # -- scheduling -----------------------------------------------------

    def _push(self, tick: int, kind: str, payload: tuple = (), lazy: bool = False) -> None:
        self._eseq += 1
        heapq.heappush(self._heap, (tick, self._eseq, lazy, kind, payload))

    def _arm_timer(self, due: int, saga_id: str, cmd_id: str) -> None:
        self._push(due, "timeout", (self.epoch, saga_id, cmd_id))

    # -- bus plumbing ----------------------------------------------------

    def _permits(self, target: str, msg_type: str) -> bool | None:
        host = self.endpoint_hosts.get(target)
        if host is None:
            return None
        contract = self.registry.lookup(target)
        return contract is not None and msg_type in contract.operations

    def _dispatch(self, msg: CanonicalMessage) -> None:
        decision = self.bus.dispatch(msg, self.now_tick)
        self.receipts.extend(decision.receipts)
        if decision.crash_endpoint is not None:
            target, restart_after = decision.crash_endpoint
            self.down_until[target] = self.now_tick + restart_after
        for d in decision.deliveries:
            self._push(self.now_tick + d.delay, "deliver", (self.epoch, d.target, d.msg, d.receipt))
        if decision.crash_bus:
            raise BusCrash(f"bus crashed dispatching {msg.msg_type} {msg.message_id}")

    def _is_down(self, node: str) -> bool:
        return self.now_tick < self.down_until.get(node, 0)

    # -- channel callbacks -------------------------------------------------

    def _submit(self, msg: CanonicalMessage) -> str | None:
        if self.engine is None:
            return None
        try:
            saga_id, _ = self.engine.submit(msg)
            return saga_id
        except BusCrash:
            self._crash_bus()
            return None

    def _query_balance(self, msg: CanonicalMessage) -> CanonicalMessage | None:
        """Synchronous in-tick query: route, gate, transform, answer."""
        if self.engine is None:
            return None
        try:
            target, routed = self.bus.resolve(msg)
        except BusError:
            return None
        if self._permits(target, msg.msg_type) is False:
            return None
        host = self.endpoint_hosts.get(target)
        if host is None or self._is_down(target):
            return None
        inbound = self._through_native(routed, host.native_format)
        if host.ledger.balance(inbound.body["party"]) is None:
            return None
        reply = host.handle(inbound, self.now_tick)
        return self._through_native(reply, host.native_format)

    def _quote_fee(self, party: PartyRef, amount: Money) -> Money | None:
        try:
            return self.registry.quote_fee(party.institution, amount)
        except UnknownEndpoint:
            return None

    @staticmethod
    def _through_native(msg: CanonicalMessage, fmt: str) -> CanonicalMessage:
        if fmt == "canonical":
            return msg
        return from_native(to_native(msg, fmt), fmt)

    # -- crash and recovery ------------------------------------------------

    def _crash_bus(self) -> None:
        """Lose the bus process: keep what reached the journal, restart later.

        A crash while the bus is already down is no crash: only a running
        bus, or one re-emitting during recovery, has anything to lose.
        """
        if self.bus_resume_tick is not None:
            return
        journal = self.journal
        torn = self.scenario.torn_tail and journal.seq > journal.settled_seq
        records = journal.records[:-1] if torn else journal.records
        self._preserved_records.extend(records)
        journal.close()
        if torn and journal.path:
            truncate_last_record(journal.path)
        self.engine = None
        self.epoch += 1
        resume = self.now_tick + self.scenario.bus_restart_ticks
        self.bus_resume_tick = resume
        self.crashes.append({"crash_tick": self.now_tick, "resume_tick": resume, "torn": torn, "resumed": None})
        self._push(resume, "bus_up")

    def _bus_up(self) -> None:
        """Recover from the journal records; a crash while re-emitting goes through `_crash_bus`."""
        last_seq = self._preserved_records[-1]["seq"] if self._preserved_records else 0
        self.journal = Journal(self.journal_path, start_seq=last_seq)
        self.bus_resume_tick = None
        self.engine, resumed = ProcessEngine.recover(
            self._preserved_records,
            self.journal,
            now=lambda: self.now_tick,
            emit=self._dispatch,
            arm_timer=self._arm_timer,
        )
        self.crashes[-1]["resumed"] = resumed

    # -- event handling ------------------------------------------------------

    def _handle_deliver(self, ev_epoch: int, target: str, msg: CanonicalMessage, receipt) -> None:
        tick = self.now_tick
        if target == ENGINE_NODE:
            if ev_epoch != self.epoch or self.engine is None:
                receipt.outcome = "dropped"
                receipt.deliver_tick = None
                return
            if msg.msg_type in REPLY_TYPES:
                self.engine.on_reply(msg)
            elif msg.msg_type in ("sync.batch", "sync.report"):
                self.sync_messages.append({"tick": tick, "type": msg.msg_type, "body": dict(msg.body)})
            elif msg.msg_type in REQUEST_TYPES:
                self._submit(msg)
            return
        if target == AUTH_NODE or target in self.endpoint_hosts:
            if self._is_down(target):
                receipt.outcome = "dropped"
                receipt.deliver_tick = None
            elif target == AUTH_NODE:
                self._dispatch(self.authorizer.handle(msg, tick))
            else:
                host = self.endpoint_hosts[target]
                reply = host.handle(self._through_native(msg, host.native_format), tick)
                self._dispatch(self._through_native(reply, host.native_format))
            return
        channel = self.channels.get(target)
        if channel is not None:
            line = channel.deliver(msg, tick)
            self.outboxes.setdefault(target, []).append(line)
            return
        agent = self.agent_by_channel.get(target)
        if agent is not None:
            if msg.msg_type == "saga.result":
                nxt = agent.on_result(msg, tick)
                if nxt is not None:
                    self._agent_send(agent, nxt)
            return
        raise RunError(f"delivery to unknown node {target!r}")

    def _agent_send(self, agent: SyncAgent, msg: CanonicalMessage) -> None:
        if msg.msg_type in REQUEST_TYPES:
            if self.engine is None:
                assert self.bus_resume_tick is not None
                self._push(self.bus_resume_tick, "agent_submit", (agent.channel_id, msg))
                return
            self._submit(msg)
        else:
            self.sync_messages.append({"tick": self.now_tick, "type": msg.msg_type, "body": dict(msg.body)})

    def _handle_traffic(self, channel_id: str, text: str) -> list[str]:
        """One inbound line or frame on a channel; returns the channel's replies."""
        channel = self.channels[channel_id]
        if isinstance(channel, UssdChannel):
            replies = [channel.on_frame(text, self.now_tick)]
            self._push(self.now_tick + channel.expiry_ticks, "ussd_expire", (channel_id,), lazy=True)
            return replies
        return channel.on_line(text, self.now_tick)

    # -- main loop ------------------------------------------------------------

    def _handle_event(self, kind: str, payload: tuple) -> None:
        if self.engine is None and kind in ("traffic", "agent_start", "agent_submit"):
            # the switch is down; the sender retries once it is back
            assert self.bus_resume_tick is not None
            self._push(self.bus_resume_tick, kind, payload)
            return
        try:
            if kind == "traffic":
                self._handle_traffic(*payload)
            elif kind == "deliver":
                self._handle_deliver(*payload)
            elif kind == "timeout":
                ev_epoch, saga_id, cmd_id = payload
                if ev_epoch == self.epoch and self.engine is not None:
                    self.engine.on_timeout(saga_id, cmd_id)
            elif kind == "bus_up":
                self._bus_up()
            elif kind == "ussd_expire":
                self.channels[payload[0]].expire_due(self.now_tick)
            elif kind == "agent_start":
                agent = self.agents[payload[0]]
                for msg in agent.start(self.now_tick):
                    self._agent_send(agent, msg)
            elif kind == "agent_submit":
                channel_id, msg = payload
                self._agent_send(self.agent_by_channel[channel_id], msg)
            else:
                raise RunError(f"unknown event kind {kind!r}")
        except BusCrash:
            self._crash_bus()

    def feed(self, channel_id: str, text: str) -> list[str]:
        """Live ingress: one line or frame at the next tick; returns the channel's immediate replies.

        A request's `submitted` record is journaled before this returns, so
        its ack can leave at once; the saga runs in `deliveries()`.
        """
        self.now_tick += 1
        return self._handle_traffic(channel_id, text)

    def deliveries(self, channel_id: str) -> list[str]:
        """Drain the queue, then take the lines delivered to one channel since its last call."""
        self.drain()
        return self.outboxes.pop(channel_id, [])

    def drain(self) -> None:
        """Live mode: work through queued events; idle expiries wait for their tick.

        An expiry not yet due is set aside, not stopped at, so the events
        queued behind it still run; it goes back on the queue afterwards.
        """
        waiting = []
        while self._heap:
            entry = heapq.heappop(self._heap)
            tick, _, lazy, kind, payload = entry
            if lazy and tick > self.now_tick:
                waiting.append(entry)
                continue
            self.now_tick = max(self.now_tick, tick)
            self._handle_event(kind, payload)
        for entry in waiting:
            heapq.heappush(self._heap, entry)

    def run(self) -> dict:
        scenario = self.scenario
        for gen in scenario.generators:
            for item in expand_generator(gen, self.seed, scenario.currency):
                self._push(item.tick, "traffic", (item.channel, item.text))
        for item in scenario.traffic:
            self._push(item.tick, "traffic", (item.channel, item.text))
        for i, _ in enumerate(self.agents):
            self._push(self.agents[i].reconnect_tick, "agent_start", (i,))

        started = time.perf_counter()
        try:
            while self._heap:
                tick, _, _, kind, payload = heapq.heappop(self._heap)
                if tick > scenario.max_ticks:
                    raise RunError(f"watchdog: event at tick {tick} exceeds max_ticks {scenario.max_ticks}")
                self.now_tick = max(self.now_tick, tick)
                self._handle_event(kind, payload)
            wall = time.perf_counter() - started
        finally:
            self.journal.close()

        if self.engine is None:
            raise RunError("queue drained with the bus still down")
        pending = self.engine.pending()
        if pending:
            raise RunError(f"queue drained with non-terminal sagas: {pending}")
        report = self._report()
        if self.out_dir:
            self._write_outputs(report, wall)
        report["_wall_seconds"] = wall  # not serialized; stripped before writing
        return report

    # -- outputs ---------------------------------------------------------------

    def journal_records(self) -> list[dict]:
        """Every journal record of the run; those of engines lost to bus crashes come first."""
        current = self.engine.journal.records if self.engine is not None else []
        return self._preserved_records + current

    def ledgers(self) -> list[Ledger]:
        return [self.endpoint_hosts[k].ledger for k in sorted(self.endpoint_hosts)]

    def _report(self) -> dict:
        assert self.engine is not None
        ledgers = self.ledgers()
        saga_rows = self.engine.saga_rows()
        states: dict[str, int] = {}
        for row in saga_rows:
            states[row["state"]] = states.get(row["state"], 0) + 1
        report = {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "final_tick": self.now_tick,
            "sagas": saga_rows,
            "saga_states": states,
            "conservation": conservation(ledgers),
            "holds_outstanding": sum(lg.outstanding_holds() for lg in ledgers),
            "postings": sum(len(lg.entries) for lg in ledgers),
            "receipts": len(self.receipts),
            "recovery": self.crashes,
            "journal_records": self.journal.seq,
            "channels": {cid: ch.transcript.digest() for cid, ch in sorted(self.channels.items())},
            "sync": [
                {"agent": a.agent_id, "outcomes": a.outcomes, "done": a.done}
                for a in self.agents
            ],
        }
        return report

    def _write_outputs(self, report: dict, wall: float) -> None:
        assert self.out_dir is not None
        clean = {k: v for k, v in report.items() if not k.startswith("_")}
        with open(os.path.join(self.out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(clean, fh, indent=2, sort_keys=True)
            fh.write("\n")
        sagas = len(report["sagas"])
        perf = {
            "wall_seconds": wall,
            "sagas": sagas,
            "sagas_per_second": (sagas / wall) if wall > 0 else 0.0,
            "journal": self.journal.durability(),
        }
        with open(os.path.join(self.out_dir, "perf.json"), "w", encoding="utf-8") as fh:
            json.dump(perf, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for lg in self.ledgers():
            path = os.path.join(self.out_dir, "ledgers", f"{lg.endpoint_id}.ndjson")
            with open(path, "w", encoding="utf-8") as fh:
                for row in lg.dump_rows():
                    fh.write(json.dumps(row, separators=(",", ":"), sort_keys=True) + "\n")
        with open(os.path.join(self.out_dir, "receipts.ndjson"), "w", encoding="utf-8") as fh:
            for receipt in self.receipts:
                fh.write(json.dumps(receipt.row(), separators=(",", ":"), sort_keys=True) + "\n")
        for cid, ch in sorted(self.channels.items()):
            fname = cid.replace(":", "_").replace("/", "_") + ".txt"
            with open(os.path.join(self.out_dir, "transcripts", fname), "w", encoding="utf-8") as fh:
                for tick, direction, text in ch.transcript.lines:
                    fh.write(f"{tick}|{direction}|{text}\n")


def run_scenario(scenario: Scenario, seed: int | None = None, out_dir: str | None = None) -> tuple[dict, Simulator]:
    sim = Simulator(scenario, out_dir=out_dir, seed=seed)
    report = sim.run()
    return report, sim


# --- verify -----------------------------------------------------------------


_CUSTOMER_TOKENS = ("wallet", "bank", "agent")


def verify_run(report_path: str, ledgers_dir: str) -> list[tuple[str, bool, str]]:
    """Independent checks over the written artifacts, not live objects."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    accounts: list[dict] = []
    entries: list[dict] = []
    for fname in sorted(os.listdir(ledgers_dir)):
        if not fname.endswith(".ndjson"):
            continue
        with open(os.path.join(ledgers_dir, fname), encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                (accounts if row["kind"] == "account" else entries).append(row)

    checks: list[tuple[str, bool, str]] = []

    initial = sum(a["initial"] for a in accounts)
    posted = sum(a["posted"] for a in accounts)
    checks.append(("conservation", initial == posted, f"initial={initial} posted={posted} delta={posted - initial}"))
    checks.append(
        (
            "conservation_matches_report",
            report["conservation"]["ok"] and report["conservation"]["posted_total"] == posted,
            f"report={report['conservation']}",
        )
    )

    unbalanced = [e for e in entries if sum(d for _, d in e["legs"]) != 0]
    checks.append(("entries_zero_sum", not unbalanced, f"{len(unbalanced)} unbalanced entries"))

    recomputed: dict[tuple[str, str], int] = {}
    for e in entries:
        for party, delta in e["legs"]:
            key = (e["endpoint"], party)
            recomputed[key] = recomputed.get(key, 0) + delta
    bad_accounts = []
    for a in accounts:
        expect = a["initial"] + recomputed.get((a["endpoint"], a["party"]), 0)
        if expect != a["posted"]:
            bad_accounts.append(a["party"])
    checks.append(("accounts_match_entries", not bad_accounts, f"mismatched: {bad_accounts[:5]}"))

    negative = [
        a["party"]
        for a in accounts
        if a["party"].split(":", 1)[0] in _CUSTOMER_TOKENS and a["posted"] - a["held"] < 0
    ]
    checks.append(("no_negative_available", not negative, f"negative available: {negative[:5]}"))

    seen_cmds: set[str] = set()
    dup_cmds: set[str] = set()
    for e in entries:
        if e["cmd"] in seen_cmds:
            dup_cmds.add(e["cmd"])
        seen_cmds.add(e["cmd"])
    checks.append(("exactly_once_postings", not dup_cmds, f"commands posted twice: {sorted(dup_cmds)[:5]}"))

    held_total = sum(a["held"] for a in accounts)
    holds_agree = (held_total == 0) == (report["holds_outstanding"] == 0)
    checks.append(
        ("holds_match_report", holds_agree, f"dump_held_minor={held_total} report_count={report['holds_outstanding']}")
    )

    nonterminal = [s["saga"] for s in report["sagas"] if s["state"] not in ("COMPLETED", "FAILED")]
    checks.append(("sagas_terminal", not nonterminal, f"non-terminal: {nonterminal[:5]}"))

    delta_by_saga_party: dict[tuple[str, str], int] = {}
    for e in entries:
        for party, delta in e["legs"]:
            key = (e["saga"], party)
            delta_by_saga_party[key] = delta_by_saga_party.get(key, 0) + delta
    bad_deltas: list[str] = []
    for s in report["sagas"]:
        amount = s["amount"]["minor"]
        fee = s["fee"]["minor"] if s["fee"] else 0
        src = delta_by_saga_party.get((s["saga"], s["from"]), 0)
        dst = delta_by_saga_party.get((s["saga"], s["to"]), 0)
        src_inst = s["from"].split(":")[1]
        pot = delta_by_saga_party.get((s["saga"], f"fee_pot:{src_inst}:main"), 0)
        if s["state"] == "COMPLETED":
            if src != -(amount + fee) or dst != amount or pot != fee:
                bad_deltas.append(f"{s['saga']}: src={src} dst={dst} pot={pot}")
        else:
            if src != 0 or dst != 0 or pot != 0:
                bad_deltas.append(f"{s['saga']}: src={src} dst={dst} pot={pot}")
    checks.append(("saga_deltas_exact", not bad_deltas, "; ".join(bad_deltas[:3]) or "all exact"))

    return checks


# --- replay -----------------------------------------------------------------


def replay_journal(journal_path: str, report_path: str | None = None) -> dict:
    """Rebuild engine state from the journal; diff every saga row against the run report if present."""
    records = load_journal(journal_path)
    sagas = fold_records(records)
    states = {saga_id: saga.state.value for saga_id, saga in sorted(sagas.items())}
    result: dict = {
        "records": len(records),
        "sagas": states,
        "pending": sorted(s for s, saga in sagas.items() if not saga.terminal),
    }
    if report_path is None:
        candidate = os.path.join(os.path.dirname(journal_path), "report.json")
        report_path = candidate if os.path.exists(candidate) else None
    divergence = []
    if report_path:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        reported = {row["saga"]: row for row in report["sagas"]}
        for saga_id in states:
            row = saga_row(sagas[saga_id])
            other = reported.get(saga_id)
            if other is None:
                divergence.append(f"{saga_id}: missing from report")
                continue
            for name, value in row.items():
                if other.get(name) != value:
                    divergence.append(f"{saga_id}: {name} journal={value!r} report={other.get(name)!r}")
        for saga_id in reported:
            if saga_id not in states:
                divergence.append(f"{saga_id}: missing from journal")
        result["compared_with"] = report_path
    result["divergence"] = divergence
    result["ok"] = not divergence
    return result


# --- fault matrix -----------------------------------------------------------


def matrix_cells(obj: dict, name: str) -> list[tuple[str, Scenario]]:
    """The cells of a fault-matrix file, each the base scenario plus the cell's faults."""
    base = obj.get("base")
    cells = obj.get("cells")
    if not isinstance(base, dict) or not isinstance(cells, list):
        raise InvalidScenario(f"{name}: matrix file needs base and cells")
    base_faults = _objects(base, "faults", f"{name}.base")
    scenarios = []
    for i, cell in enumerate(_objects(obj, "cells", name)):
        cell_name = cell.get("name", f"cell{i}")
        merged = dict(base)
        merged["faults"] = base_faults + _objects(cell, "faults", f"{name}.cells[{i}]")
        merged["name"] = f"{name}:{cell_name}"
        scenarios.append((cell_name, scenario_from_obj(merged, merged["name"])))
    return scenarios


def run_matrix(obj: dict, name: str, seed: int | None = None, out_dir: str | None = None) -> dict:
    """Run every cell of a fault-matrix file: base scenario x fault sets."""
    results = []
    started = time.perf_counter()
    for cell_name, scenario in matrix_cells(obj, name):
        cell_out = os.path.join(out_dir, cell_name.replace(" ", "_")) if out_dir else None
        report, _ = run_scenario(scenario, seed=seed, out_dir=cell_out)
        results.append(
            {
                "cell": cell_name,
                "conservation_ok": report["conservation"]["ok"],
                "holds_outstanding": report["holds_outstanding"],
                "saga_states": report["saga_states"],
                "crashes": len(report["recovery"]),
            }
        )
    wall = time.perf_counter() - started
    ok = all(r["conservation_ok"] and r["holds_outstanding"] == 0 for r in results)
    return {"matrix": name, "cells": results, "ok": ok, "wall_seconds": wall}
