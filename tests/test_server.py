"""TCP front door: gateway lines and USSD frames over real sockets."""
from __future__ import annotations

import json
import socket
import threading

import pytest

from conftest import scenario_path
from mmbus.channels import _MENU
from mmbus.harness import load_scenario
from mmbus.server import SwitchHost, SwitchServer


@pytest.fixture()
def server():
    scenario = load_scenario(scenario_path("happy_path"))
    srv = SwitchServer(scenario, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


class Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.fh = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def send(self, line):
        self.fh.write(line + "\n")
        self.fh.flush()

    def recv(self):
        return self.fh.readline().rstrip("\n")

    def close(self):
        self.fh.close()
        self.sock.close()


def transfer_wire(mid, ref, amount_minor=2500):
    return json.dumps({
        "v": 1, "id": mid, "corr": mid, "type": "transfer.request",
        "src": "x", "dst": "bus",
        "body": {"from": "wallet:MTNG:233240000001", "to": "bank:ABBANK:ACC100",
                 "amount": {"ccy": "GHS", "minor": amount_minor}, "client_ref": ref},
    }, separators=(",", ":"))


def test_gateway_transfer_acks_then_pushes_result(server):
    client = Client(server.server_address[1])
    try:
        client.send(transfer_wire("c-100", "net1"))
        ack = json.loads(client.recv())
        assert ack["accepted"] == "c-100"
        saga_id = ack["saga"]
        result = json.loads(client.recv())
        assert result["type"] == "saga.result"
        assert result["body"]["saga"] == saga_id
        assert result["body"]["state"] == "COMPLETED"
        assert result["body"]["client_ref"] == "net1"
    finally:
        client.close()


def test_ussd_and_gateway_share_a_connection(server):
    client = Client(server.server_address[1])
    try:
        client.send("USSD|233240000001|BEGIN|")
        assert client.recv() == f"USSD|us-000001|CONT|{_MENU}"
        client.send("USSD|us-000001|INPUT|2")
        assert client.recv().startswith("USSD|us-000001|END|Balance: GHS ")
        client.send(transfer_wire("c-101", "net2"))
        assert json.loads(client.recv())["accepted"] == "c-101"
        assert json.loads(client.recv())["body"]["state"] == "COMPLETED"
    finally:
        client.close()


def test_connections_get_isolated_channels(server):
    first = Client(server.server_address[1])
    second = Client(server.server_address[1])
    try:
        first.send(transfer_wire("c-200", "net3"))
        json.loads(first.recv())
        json.loads(first.recv())
        # the same message id on another connection is a fresh gateway, so it
        # dedupes at the saga layer by client_ref instead of erroring
        second.send(transfer_wire("c-200", "net3"))
        ack = json.loads(second.recv())
        assert ack["accepted"] == "c-200"
    finally:
        first.close()
        second.close()


def test_malformed_line_gets_error_not_disconnect(server):
    client = Client(server.server_address[1])
    try:
        client.send("{broken")
        assert json.loads(client.recv())["error"] == "malformed"
        client.send(transfer_wire("c-300", "net4"))
        assert json.loads(client.recv())["accepted"] == "c-300"
    finally:
        client.close()


def test_pending_ussd_expiry_does_not_stall_later_results():
    host = SwitchHost(load_scenario(scenario_path("happy_path")))
    gw_id, us_id = host.attach()
    assert host.handle_line(gw_id, us_id, "USSD|233240000001|BEGIN|") == [f"USSD|us-000001|CONT|{_MENU}"]
    for i in range(40):
        replies = [json.loads(r) for r in host.handle_line(gw_id, us_id, transfer_wire(f"c-4{i:02d}", f"stall{i}", 100))]
        assert replies[0]["accepted"] == f"c-4{i:02d}"
        results = [r["body"] for r in replies if r.get("type") == "saga.result"]
        assert [(r["client_ref"], r["state"]) for r in results] == [(f"stall{i}", "COMPLETED")], f"transfer {i}"
