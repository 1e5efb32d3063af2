"""Spans around the calls the benchmark makes into each layer of mmbus.

`install()` wraps public functions and methods of the modules under
src/mmbus/ (plus `Simulator._handle_event`, the one private boundary, to
count the harness's events). Each wrapped call records a span: name,
start, end, parent span and the saga or correlation id it serves. Spans
are kept in memory and written out when the run ends; per-name totals
and self times (a span's time minus its children's) are aggregated as
calls return. Tracing is only installed for `--trace 1` runs.
"""
from __future__ import annotations

import itertools
import json
import os
import threading
import time

SPAN_CAP = 300_000  # spans kept for the span file; the aggregates cover every call


class Tracer:
    def __init__(self, ident) -> None:
        self.ident = ident  # the saga or correlation id a call serves, from its arguments
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.agg: dict[str, list[float]] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}  # names whose every duration is kept
        self.by_ident: dict[str, dict[str, float]] = {}  # name -> ident -> duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, ident=None, keep=False, by_ident=False):
        """A callable that runs fn inside a span; name may be a function of the arguments."""
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(tracer.local, "stack", None)
            if stack is None:
                stack = tracer.local.stack = []
            span_name = name(args) if callable(name) else name
            frame = [0.0, next(tracer.ids)]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                agg = tracer.agg.get(span_name)
                if agg is None:
                    agg = tracer.agg[span_name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += took
                agg[2] += took - frame[0]
                ref = (ident or tracer.ident)(args)
                if keep:
                    tracer.durations.setdefault(span_name, []).append(took)
                if by_ident and ref:
                    tracer.by_ident.setdefault(span_name, {})[ref] = took
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[1], span_name, start, end, parent, ref))

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, ref in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_us": round(start * 1e6, 1),
                                     "end_us": round(end * 1e6, 1), "parent": parent, "ref": ref},
                                    separators=(",", ":")) + "\n")

    def summary(self) -> dict:
        return {"agg": self.agg, "counts": self.counts, "durations": self.durations, "by_ident": self.by_ident}


def _message_ident(message_type):
    def ident(args) -> str:
        for a in args:
            if isinstance(a, message_type):
                return a.body.get("saga") or a.correlation_id
            if isinstance(a, str) and a.startswith("sg-"):
                return a
        return ""

    return ident


def _line_id(args) -> str:
    line = args[-1]
    at = line.find('"id":"')
    return line[at + 6:line.index('"', at + 6)] if at >= 0 else ""


def install() -> Tracer:
    """Wrap each layer's public entry points; returns the tracer that records them."""
    from mmbus import bus, canonical, channels, contracts, engine, faults, harness, ledgers, server, transform

    tr = Tracer(_message_ident(canonical.CanonicalMessage))

    def patch(owner, attr, name, **kw):
        wrapped = tr.wrap(name, getattr(owner, attr), **kw)
        setattr(owner, attr, wrapped)
        return wrapped

    # canonical: validation is imported by name into channels and transform
    validate = tr.wrap("canonical.validate", canonical.validate_message)
    channels.validate_message = transform.validate_message = validate

    # transform: the harness passes every endpoint message through to/from_native
    harness.to_native = tr.wrap(lambda a: f"transform.{a[1]}.encode", transform.to_native)
    harness.from_native = tr.wrap(lambda a: f"transform.{a[1]}.decode", transform.from_native)
    decode = tr.wrap("transform.canonical.decode", transform.decode_canonical)
    channels.decode_canonical = transform.decode_canonical = decode

    # bus
    patch(bus.RoutingTable, "route", "bus.route")
    patch(bus.ServiceBus, "dispatch", "bus.dispatch")
    matches = bus.RoutingRule.matches

    def counted_matches(rule, msg):
        tr.count("bus.rule_matches")
        return matches(rule, msg)

    bus.RoutingRule.matches = counted_matches

    # faults, contracts
    patch(faults.FaultInjector, "decide", "faults.decide")
    patch(contracts.AuthorizerService, "handle", "contracts.authorize")

    # ledgers: a command id seen before is answered from a dedupe cache
    handle = tr.wrap("ledgers.handle", ledgers.LedgerEndpoint.handle)

    def ledger_handle(endpoint, msg, tick):
        if msg.message_id in endpoint.reply_cache or msg.message_id in endpoint.ledger.replies:
            tr.count("ledgers.dedupe_hits")
        return handle(endpoint, msg, tick)

    ledgers.LedgerEndpoint.handle = ledger_handle

    # engine: transitions, journal appends and fsyncs, recovery, folds
    for attr in ("submit", "on_reply", "on_timeout"):
        patch(engine.ProcessEngine, attr, "engine.transition")
    patch(engine.Journal, "append", "engine.journal_append")
    fsync = engine.os.fsync

    def counted_fsync(fd):
        tr.count("engine.journal_fsyncs")
        return fsync(fd)

    engine.os = _OsWithCountedFsync(counted_fsync)
    recover = tr.wrap("engine.recover", engine.ProcessEngine.recover.__func__, keep=True)

    def traced_recover(cls, records, *args, **kwargs):
        tr.count("engine.recover_records_folded", len(records))
        return recover(cls, records, *args, **kwargs)

    engine.ProcessEngine.recover = classmethod(traced_recover)
    fold = tr.wrap("engine.fold", engine.fold_records)

    def traced_fold(records):
        tr.count("engine.fold_records", len(records))
        return fold(records)

    engine.fold_records = harness.fold_records = traced_fold

    # harness: the event loop and each event it handles
    patch(harness.Simulator, "run", "harness.run")
    patch(harness.Simulator, "_handle_event", "harness.event")
    patch(harness.Simulator, "drain", "harness.drain")

    # channels
    patch(channels.GatewayChannel, "on_line", "channels.gateway_line")
    patch(channels.UssdChannel, "on_frame", "channels.ussd_frame")
    expire = tr.wrap("channels.ussd_expire", channels.UssdChannel.expire_due)

    def traced_expire(channel, tick):
        tr.count("channels.ussd_sessions_scanned", len(channel.sessions))
        return expire(channel, tick)

    channels.UssdChannel.expire_due = traced_expire

    # server
    patch(server.SwitchHost, "handle_line", "server.handle_line", ident=_line_id, by_ident=True)
    return tr


class _OsWithCountedFsync:
    """The os module as the engine sees it, with fsync counted."""

    def __init__(self, fsync) -> None:
        import os as real

        self._real = real
        self.fsync = fsync

    def __getattr__(self, name):
        return getattr(self._real, name)


def held_state(sim) -> dict[str, int]:
    """Sizes of the structures a switch holds on to, read at run end."""
    from mmbus.channels import GatewayChannel, UssdChannel

    hosts = sim.endpoint_hosts.values()
    chans = list(sim.channels.values())
    return {
        # bus recoveries leave the records they folded with the simulator
        "harness.records_held": len(sim._preserved_records) + (len(sim.engine.journal.records) if sim.engine else 0),
        "bus.attempts_held": len(sim.bus.attempts),
        "ledgers.replies_held": sum(len(h.ledger.replies) + len(h.reply_cache) for h in hosts),
        "channels.seen_ids_held": sum(len(c.seen_ids) for c in chans if isinstance(c, GatewayChannel)),
        "channels.ussd_sessions_held": sum(len(c.sessions) for c in chans if isinstance(c, UssdChannel)),
    }


PER_LAYER = {
    "canonical.validate_us": "us",
    "transform.wallet_kv.encode_us": "us",
    "transform.wallet_kv.decode_us": "us",
    "transform.bank_pipe.encode_us": "us",
    "transform.bank_pipe.decode_us": "us",
    "transform.canonical.decode_us": "us",
    "transform.calls": "count",
    "bus.route_us": "us",
    "bus.rule_matches_per_route": "count",
    "bus.dispatch_self_us": "us",
    "faults.decide_us": "us",
    "contracts.authorize_us": "us",
    "ledgers.handle_us": "us",
    "ledgers.dedupe_hits": "count",
    "engine.transition_self_us": "us",
    "engine.journal_append_us": "us",
    "engine.journal_fsyncs": "count",
    "engine.journal_bytes_per_saga": "B",
    "engine.recover_ms": "ms",
    "engine.recover_records_folded": "count",
    "engine.fold_us_per_record": "us",
    "harness.loop_self_us_per_event": "us",
    "harness.events": "count",
    "harness.artifacts_s": "s",
    "harness.verify_s": "s",
    "harness.replay_s": "s",
    "harness.records_held": "count",
    "bus.attempts_held": "count",
    "ledgers.replies_held": "count",
    "channels.seen_ids_held": "count",
    "channels.ussd_sessions_held": "count",
    "channels.gateway_line_us": "us",
    "channels.ussd_frame_us": "us",
    "channels.ussd_expire_us": "us",
    "channels.ussd_sessions_scanned": "count",
    "server.handle_line_us": "us",
    "server.wait_outside_handler_ms": "ms",
}


def per_layer(s: dict, sagas: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from a tracer summary; counts of work are per terminal saga.

    `extra` carries what the workload measured itself (artifact, verify and
    replay times, journal bytes, held state, waits outside the handler).
    """
    agg, counts = s["agg"], s["counts"]

    def mean_us(name, self_time=False):
        a = agg.get(name)
        return (a[2 if self_time else 1] / a[0]) * 1e6 if a else 0.0

    def calls(name):
        return int(agg[name][0]) if name in agg else 0

    def per(n, d):
        return n / d if d else 0.0

    recover = sorted(s["durations"].get("engine.recover", []))
    events = calls("harness.event")
    harness_self = sum(agg[n][2] for n in ("harness.run", "harness.event", "harness.drain") if n in agg)
    out = {
        "canonical.validate_us": mean_us("canonical.validate"),
        "transform.wallet_kv.encode_us": mean_us("transform.wallet_kv.encode"),
        "transform.wallet_kv.decode_us": mean_us("transform.wallet_kv.decode"),
        "transform.bank_pipe.encode_us": mean_us("transform.bank_pipe.encode"),
        "transform.bank_pipe.decode_us": mean_us("transform.bank_pipe.decode"),
        "transform.canonical.decode_us": mean_us("transform.canonical.decode"),
        "transform.calls": per(sum(int(a[0]) for n, a in agg.items() if n.startswith("transform.")), sagas),
        "bus.route_us": mean_us("bus.route"),
        "bus.rule_matches_per_route": per(counts.get("bus.rule_matches", 0), calls("bus.route")),
        "bus.dispatch_self_us": mean_us("bus.dispatch", self_time=True),
        "faults.decide_us": mean_us("faults.decide"),
        "contracts.authorize_us": mean_us("contracts.authorize"),
        "ledgers.handle_us": mean_us("ledgers.handle"),
        "ledgers.dedupe_hits": per(counts.get("ledgers.dedupe_hits", 0), sagas),
        "engine.transition_self_us": mean_us("engine.transition", self_time=True),
        "engine.journal_append_us": mean_us("engine.journal_append"),
        "engine.journal_fsyncs": per(counts.get("engine.journal_fsyncs", 0), sagas),
        "engine.recover_ms": recover[len(recover) // 2] * 1e3 if recover else 0.0,
        "engine.recover_records_folded": per(counts.get("engine.recover_records_folded", 0), len(recover)),
        "engine.fold_us_per_record": per(agg["engine.fold"][1] * 1e6, counts.get("engine.fold_records", 0)) if "engine.fold" in agg else 0.0,
        "harness.loop_self_us_per_event": per(harness_self * 1e6, events),
        "harness.events": per(events, sagas),
        "channels.gateway_line_us": mean_us("channels.gateway_line"),
        "channels.ussd_frame_us": mean_us("channels.ussd_frame"),
        "channels.ussd_expire_us": mean_us("channels.ussd_expire"),
        "channels.ussd_sessions_scanned": per(counts.get("channels.ussd_sessions_scanned", 0), calls("channels.ussd_expire")),
        "server.handle_line_us": mean_us("server.handle_line"),
        "harness.artifacts_s": 0.0, "harness.verify_s": 0.0, "harness.replay_s": 0.0,
        "engine.journal_bytes_per_saga": 0.0, "server.wait_outside_handler_ms": 0.0,
        "harness.records_held": 0, "bus.attempts_held": 0, "ledgers.replies_held": 0,
        "channels.seen_ids_held": 0, "channels.ussd_sessions_held": 0,
    }
    out.update(extra)
    return out
