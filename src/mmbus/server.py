"""TCP front door: newline-delimited gateway JSON and USSD frames on one port.

Every connection gets its own channel pair against a shared switch.
One lock serializes all switch work; the logical clock advances one
tick per inbound line, so a quiet server stays deterministic. A line is
answered in two writes: its ack, error line or USSD menu as soon as the
line is taken (a request's `submitted` record is journaled by then), and
the results delivered to the connection once the switch has drained.
Nothing is written while the lock is held.
"""
from __future__ import annotations

import os
import socketserver
import threading
from typing import Callable

from .harness import ChannelSpec, Scenario, Simulator

# Unix only; elsewhere a waiting connection keeps the interpreter's own handoff
_yield_cpu = getattr(os, "sched_yield", lambda: None)


class SwitchHost:
    def __init__(self, scenario: Scenario) -> None:
        self.sim = Simulator(scenario)
        self.lock = threading.Lock()
        self._conn_seq = 0
        # every connection's USSD menu serves the first USSD channel's institution
        self._ussd_institution = next(
            (ch.institution for ch in scenario.channels if ch.protocol == "ussd" and ch.institution),
            scenario.endpoints[0].contract.endpoint_id if scenario.endpoints else "",
        )

    def attach(self) -> tuple[str, str]:
        """Register a gateway and a ussd channel for a new connection."""
        with self.lock:
            self._conn_seq += 1
            gw_id = f"tcp:{self._conn_seq}:gw"
            us_id = f"tcp:{self._conn_seq}:ussd"
            self.sim.add_channel(ChannelSpec(gw_id, "gateway"))
            self.sim.add_channel(ChannelSpec(us_id, "ussd", self._ussd_institution))
            return gw_id, us_id

    def handle_line(self, send: Callable[[list[str]], None], gw_id: str, us_id: str, line: str) -> None:
        """One inbound line: send its immediate replies, then the lines the saga delivered.

        `send` is called outside the lock, at most twice, each time with a
        non-empty list of lines in the order the connection must see them.
        """
        channel_id = us_id if line.startswith("USSD|") else gw_id
        with self.lock:
            replies = self.sim.feed(channel_id, line)
        if replies:
            send(replies)
        # A connection thread woken by its own line waits for the interpreter
        # lock, which this thread would keep through the whole drain; yield so
        # that its line is fed, and acked, before this saga runs.
        _yield_cpu()
        with self.lock:
            delivered = self.sim.deliveries(channel_id)
        if delivered:
            send(delivered)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        host: SwitchHost = self.server.switch_host  # type: ignore[attr-defined]
        gw_id, us_id = host.attach()
        while True:
            raw = self.rfile.readline()
            if not raw:
                return
            line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
            if line:
                host.handle_line(self._send, gw_id, us_id, line)

    def _send(self, lines: list[str]) -> None:
        # wfile is unbuffered: one write is one sendall
        self.wfile.write("".join(f"{line}\n" for line in lines).encode("utf-8"))


class SwitchServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, scenario: Scenario, host: str, port: int) -> None:
        super().__init__((host, port), _Handler)
        self.switch_host = SwitchHost(scenario)
