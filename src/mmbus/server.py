"""TCP front door: newline-delimited gateway JSON and USSD frames on one port.

Every connection gets its own channel pair against a shared switch.
One lock serializes all switch work; the logical clock advances one
tick per inbound line, so a quiet server stays deterministic.
"""
from __future__ import annotations

import socketserver
import threading

from .harness import ChannelSpec, Scenario, Simulator


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

    def handle_line(self, gw_id: str, us_id: str, line: str) -> list[str]:
        with self.lock:
            return self.sim.feed(us_id if line.startswith("USSD|") else gw_id, line)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        host: SwitchHost = self.server.switch_host  # type: ignore[attr-defined]
        gw_id, us_id = host.attach()
        while True:
            raw = self.rfile.readline()
            if not raw:
                return
            line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
            if not line:
                continue
            for reply in host.handle_line(gw_id, us_id, line):
                self.wfile.write(reply.encode("utf-8") + b"\n")
            self.wfile.flush()


class SwitchServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, scenario: Scenario, host: str, port: int) -> None:
        super().__init__((host, port), _Handler)
        self.switch_host = SwitchHost(scenario)
