"""TCP front door: gateway lines and USSD frames over real sockets."""
from __future__ import annotations

import ast
import json
import socket
import sys
import threading

import pytest

from conftest import scenario_path
from mmbus import harness, server as server_module
from mmbus.channels import _MENU
from mmbus.harness import load_scenario, scenario_from_obj
from mmbus.ledgers import conservation
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


def handle(host, conn, line):
    """Every line one connection is sent for one inbound line, in order."""
    sent = []
    host.handle_line(sent.extend, *conn, line)
    return sent


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
    conn = host.attach()
    assert handle(host, conn, "USSD|233240000001|BEGIN|") == [f"USSD|us-000001|CONT|{_MENU}"]
    for i in range(40):
        replies = [json.loads(r) for r in handle(host, conn, transfer_wire(f"c-4{i:02d}", f"stall{i}", 100))]
        assert replies[0]["accepted"] == f"c-4{i:02d}"
        results = [r["body"] for r in replies if r.get("type") == "saga.result"]
        assert [(r["client_ref"], r["state"]) for r in results] == [(f"stall{i}", "COMPLETED")], f"transfer {i}"


def test_every_delivery_reaches_the_connection_that_sent_the_line():
    with open(scenario_path("happy_path"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["faults"] = [
        {"msg_type": "credit.cmd", "occurrence": 2, "action": "delay", "ticks": 150},
        {"msg_type": "hold.cmd", "occurrence": 4, "action": "crash_bus"},
    ]
    host = SwitchHost(scenario_from_obj(obj, "two_connections"))
    conns = [host.attach(), host.attach()]

    def send(conn, line):
        replies = handle(host, conns[conn], line)
        assert not any(host.sim.outboxes.values()), line
        return replies

    # the connections take turns: one keys in a USSD session while the other
    # sends gateway transfers; connection 0 confirms transfers, connection 1
    # asks for balances, so only connection 0's sessions end in a NOTICE
    notices = 0
    for i in range(4):
        ussd, gw = i % 2, 1 - i % 2
        sid = send(ussd, "USSD|233240000001|BEGIN|")[0].split("|")[1]
        inputs = ["1", "bank:ABBANK:ACC100", "1.00", "1"] if ussd == 0 else ["9", "2"]
        for j, text in enumerate(inputs):
            replies = send(gw, transfer_wire(f"c-5{i}{j}", f"two{i}{j}", 100))
            assert [json.loads(r)["body"]["client_ref"] for r in replies[1:]] == [f"two{i}{j}"]
            replies = send(ussd, f"USSD|{sid}|INPUT|{text}")
            notices += sum(r.startswith(f"USSD|{sid}|NOTICE|") for r in replies)
    assert notices == 2
    assert len(host.sim.crashes) == 1


def test_ack_leaves_while_the_saga_is_in_flight(server):
    sim = server.switch_host.sim
    bank = sim.endpoint_hosts["ABBANK"]
    reached, release = threading.Event(), threading.Event()
    bank_handle = bank.handle

    def held_at_the_bank(msg, tick):
        reached.set()
        release.wait(10)
        return bank_handle(msg, tick)

    bank.handle = held_at_the_bank
    client = Client(server.server_address[1])
    try:
        client.send(transfer_wire("c-600", "inflight"))
        ack = json.loads(client.recv())
        assert ack["accepted"] == "c-600"
        assert reached.wait(5)
        assert not sim.engine.sagas[ack["saga"]].terminal
        release.set()
        result = json.loads(client.recv())
        assert (result["body"]["saga"], result["body"]["state"]) == (ack["saga"], "COMPLETED")
    finally:
        release.set()
        client.close()


def test_back_to_back_lines_are_answered_in_order(server):
    client = Client(server.server_address[1])
    try:
        client.send(transfer_wire("c-700", "pipe1") + "\n" + transfer_wire("c-701", "pipe2"))
        replies = [json.loads(client.recv()) for _ in range(4)]
        seen = [r.get("accepted") or r["body"]["client_ref"] for r in replies]
        assert seen == ["c-700", "pipe1", "c-701", "pipe2"]
        assert [r["body"]["state"] for r in replies[1::2]] == ["COMPLETED", "COMPLETED"]
    finally:
        client.close()


def test_concurrent_connections_each_get_their_own_ack_then_result(server):
    clients, transfers = 4, 50
    problems = []

    def loop(k):
        client = Client(server.server_address[1])
        try:
            for i in range(transfers):
                mid, ref = f"c-8{k}{i:02d}", f"many{k}-{i}"
                client.send(transfer_wire(mid, ref, 1))
                ack = json.loads(client.recv())
                result = json.loads(client.recv())
                body = result.get("body", {})
                if ack.get("accepted") != mid or (body.get("client_ref"), body.get("saga")) != (ref, ack.get("saga")):
                    problems.append((ref, ack, result))
        except Exception as exc:  # reported by the main thread
            problems.append((k, repr(exc)))
        finally:
            client.close()

    threads = [threading.Thread(target=loop, args=(k,)) for k in range(clients)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the lock and out
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert problems == []
    host = server.switch_host
    with host.lock:
        sim = host.sim
        assert len(sim.engine.sagas) == clients * transfers
        assert sim.engine.pending() == []
        assert {s.state.value for s in sim.engine.sagas.values()} == {"COMPLETED"}
        assert conservation(sim.ledgers())["ok"]
        assert not any(sim.outboxes.values())


def test_ussd_sessions_on_two_connections_run_two_sagas():
    host = SwitchHost(load_scenario(scenario_path("happy_path")))
    wallets = ["wallet:MTNG:233240000001", "wallet:MTNG:233240000002"]
    notices = []
    for wallet in wallets:
        conn = host.attach()
        sid = handle(host, conn, f"USSD|{wallet.rsplit(':', 1)[1]}|BEGIN|")[0].split("|")[1]
        for text in ["1", "bank:ABBANK:ACC100", "1.00", "1"]:
            replies = handle(host, conn, f"USSD|{sid}|INPUT|{text}")
        notices += [r for r in replies if r.startswith(f"USSD|{sid}|NOTICE|") and r.endswith(": COMPLETED")]
    assert len(host.sim.engine.sagas) == 2
    assert len(notices) == 2
    rows = host.sim.endpoint_hosts["MTNG"].ledger.dump_rows()
    assert set(wallets) <= {party for row in rows if row["kind"] == "entry" for party, _ in row["legs"]}


def _simulator_private_names():
    """Every `_`-prefixed method and instance attribute that harness.py gives the Simulator."""
    with open(harness.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Simulator")
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def private_simulator_reads(source):
    """(line, attribute) for each private Simulator attribute, or private attribute of a `sim`, the source reads."""
    private = _simulator_private_names()
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_") or node.attr.endswith("__"):
            continue
        base = node.value
        on_sim = (isinstance(base, ast.Attribute) and base.attr == "sim") or (isinstance(base, ast.Name) and base.id == "sim")
        if node.attr in private or on_sim:
            reads.add((node.lineno, node.attr))
    return sorted(reads)


def test_server_uses_only_the_public_simulator_api():
    assert {"_handle_traffic", "_heap", "_submit", "_preserved_records"} <= _simulator_private_names()
    leaky = "def f(self):\n    sim = self.sim\n    return self.sim._handle_traffic(1, 2), sim._heap, self.sim._later, self._own\n"
    assert private_simulator_reads(leaky) == [(3, "_handle_traffic"), (3, "_heap"), (3, "_later")]
    with open(server_module.__file__, encoding="utf-8") as fh:
        assert private_simulator_reads(fh.read()) == []
