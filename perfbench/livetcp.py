"""The live_tcp workload: a switch served over loopback TCP, driven by a closed loop.

The switch runs in a child process (switch_child.py). This process is the
load: two connections, each in its own thread, each waiting for every
reply before it sends the next line. Each connection owns half of the
accounts, so the balances it queries can be predicted from its own
transfers alone.
"""
from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import inputs
from common import ROOT, median, p95
from oracles import BalanceOracle, ClientView, Request, Verdict, balance_line, check_run, gateway_line
from simrun import Round, audit, load_artifacts
from tracing import per_layer

perf = time.perf_counter
SETUPS = 15  # spawn-to-connected samples per run; the last server carries the load
AUDITS = 40  # verify + replay passes over the switch's final state
WINDOW = 200  # transfers per latency window; each percentile is the median over windows
CONNECTIONS = 2
WAIT_S = 60


def _spawn(scenario_path: str, out_dir: str, spans: str | None) -> tuple[subprocess.Popen, int]:
    cmd = [sys.executable, "-u", os.path.join(ROOT, "perfbench", "switch_child.py"),
           "--scenario", scenario_path, "--out", out_dir] + (["--spans", spans] if spans else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], WAIT_S)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith("listening on "):
        _stop(proc)
        raise RuntimeError(f"switch did not start: {line!r}")
    return proc, int(line.split()[2].rsplit(":", 1)[1])


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=WAIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"switch exited with {proc.returncode}")


class Conn:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=WAIT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, line: str) -> None:
        self.sock.sendall(line.encode() + b"\n")

    def recv(self) -> dict:
        raw = self.reader.readline()
        if not raw:
            raise RuntimeError("switch closed the connection")
        return json.loads(raw)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Load:
    """One connection's closed loop and everything it saw."""

    def __init__(self, idx: int, conn: Conn, scenario: dict, parties: list[str], lo: int, hi: int, seed: int) -> None:
        self.idx, self.conn, self.parties, self.lo, self.hi = idx, conn, parties, lo, hi
        self.rng = random.Random(f"live_tcp:{seed}:{idx}")
        self.book = BalanceOracle(scenario)
        self.view = ClientView()
        self.requests: list[Request] = []
        self.timings: list[tuple[float, str, float, float]] = []  # (sent, ref, ack s, result s)
        self.verdict = Verdict()
        self.first = self.last = 0.0
        self.error: BaseException | None = None

    def transfer(self, i: int) -> None:
        ref = f"c{self.idx}-{i:06d}"
        src, dst = self.rng.sample(self.parties, 2)
        req = Request(ref, src, dst, self.rng.randint(self.lo, self.hi))
        self.requests.append(req)
        t0 = perf()
        self.conn.send(gateway_line(ref, src, dst, req.amount, inputs.CCY))
        ack = self.conn.recv()
        t1 = perf()
        result = self.conn.recv()
        t2 = perf()
        self.first = self.first or t0
        self.last = t2
        self.timings.append((t0, ref, t1 - t0, t2 - t0))
        self.book.transfer(src, dst, req.amount)  # keeps the balances this connection predicts
        body = result.get("body", {})
        if ack.get("accepted") == ref:
            self.view.accepted[ref] = ack["saga"]
        if result.get("type") == "saga.result" and body.get("client_ref") == ref:
            self.view.results[ref] = (body["state"], body["reason"])
        if ack.get("accepted") != ref or body.get("saga") != ack.get("saga"):
            self.view.problems[ref] = f"ack {ack} then {result}"

    def balance(self, party: str, i: int, book: BalanceOracle) -> None:
        self.conn.send(balance_line(f"c{self.idx}-b{i:06d}", party))
        reply = self.conn.recv()
        self.verdict.attempted += 1
        if reply.get("type") != "balance.reply" or reply["body"]["available"]["minor"] != book.posted[party]:
            self.verdict.fail(f"balance of {party}: {reply}, oracle {book.posted[party]}")

    def loop(self, deadline: float) -> None:
        try:
            i = 0
            while perf() < deadline:
                self.transfer(i)
                self.balance(self.rng.choice(self.parties), i, self.book)
                i += 1
        except BaseException as exc:  # re-raised by the main thread after join
            self.error = exc


def run(seed: int, seconds: float, work_dir: str, trace: int, spans: str) -> dict:
    scenario, parties, lo, hi = inputs.live_scenario()
    scenario_path = os.path.join(work_dir, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    by_conn = [parties[c::CONNECTIONS] for c in range(CONNECTIONS)]
    setups, proc, conns = [], None, []
    out_dir = os.path.join(work_dir, "switch")
    try:
        for k in range(SETUPS):
            shutil.rmtree(out_dir, ignore_errors=True)
            t0 = perf()
            proc, port = _spawn(scenario_path, out_dir, spans if trace else None)
            conns = [Conn(port) for _ in range(CONNECTIONS)]
            setups.append(perf() - t0)
            if k < SETUPS - 1:
                for c in conns:
                    c.close()
                _stop(proc)
                proc, conns = None, []
        loads = [Load(c, conns[c], scenario, by_conn[c], lo, hi, seed) for c in range(CONNECTIONS)]
        deadline = perf() + seconds
        threads = [threading.Thread(target=ld.loop, args=(deadline,)) for ld in loads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for ld in loads:
            if ld.error is not None:
                raise ld.error
        # the end-of-run audit over the socket: every balance against the oracle
        requests = [r for ld in loads for r in ld.requests]
        book = BalanceOracle(scenario)
        for r in requests:
            book.transfer(r.src, r.dst, r.amount)
        for i, party in enumerate(parties):
            loads[0].balance(party, 10**6 + i, book)
    finally:
        for c in conns:
            c.close()
        if proc is not None:
            _stop(proc)

    with open(os.path.join(out_dir, "switch.json"), encoding="utf-8") as fh:
        switch = json.load(fh)
    audits = []
    for _ in range(AUDITS):
        rnd = Round()
        audit(out_dir, rnd)
        audits.append(rnd)
    view = ClientView()
    for ld in loads:
        view.accepted.update(ld.view.accepted)
        view.results.update(ld.view.results)
        view.problems.update(ld.view.problems)
    report, ledger_rows, replay_rows = load_artifacts(out_dir)
    verdict, _ = check_run(scenario, requests, view, report["sagas"], replay_rows, ledger_rows)
    for part in [ld.verdict for ld in loads] + [r.verdict for r in audits]:
        verdict.merge(part)

    timings = sorted(t for ld in loads for t in ld.timings)
    windows = [timings[i:i + WINDOW] for i in range(0, len(timings) - WINDOW + 1, WINDOW)] or [timings]

    def windowed(stat, col: int) -> float:
        return median([stat([t[col] for t in w]) for w in windows]) * 1e3

    out = {
        "verdict": verdict,
        "sagas_per_s": len(timings) / (max(ld.last for ld in loads) - min(ld.first for ld in loads)),
        "setup_s": median(setups),
        "audit_s": median([r.audit_verify_s + r.audit_replay_s for r in audits]),
        "ack_p50_ms": windowed(median, 2),
        "result_p50_ms": windowed(median, 3),
        "result_p95_ms": windowed(p95, 3),
        "peak_rss_mb": switch["peak_rss_mb"],
    }
    if trace:
        handler = switch["trace"]["by_ident"].get("server.handle_line", {})
        waits = [result - handler[ref] for _, ref, _, result in timings if ref in handler]
        extra = dict(switch["held"])
        extra["server.wait_outside_handler_ms"] = median(waits) * 1e3 if waits else 0.0
        extra["harness.verify_s"] = median([r.audit_verify_s for r in audits])
        extra["harness.replay_s"] = median([r.audit_replay_s for r in audits])
        out["layers"] = per_layer(switch["trace"], len(timings), extra)
    return out
