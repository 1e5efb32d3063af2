"""Serve a scenario's switch over TCP, as `mmbus serve` does, for the live_tcp workload.

Run as `python3 perfbench/switch_child.py --scenario FILE --out DIR [--spans FILE]`.
It prints `listening on HOST:PORT` once it accepts connections. On SIGTERM
it stops serving, then writes the switch's final state in the layout of
`mmbus run --out` (so `verify` and `replay` can audit it), its peak RSS
and held-state counts under DIR. With --spans it traces each layer and
writes its spans to FILE.
"""
from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

from common import peak_rss_mb, use_checkout_program, write_json


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    use_checkout_program()

    import tracing
    from mmbus.harness import load_scenario
    from mmbus.ledgers import conservation
    from mmbus.server import SwitchServer
    from simrun import export_artifacts

    tracer = tracing.install() if args.spans else None
    with SwitchServer(load_scenario(args.scenario), "127.0.0.1", 0) as server:
        # shutdown() waits for serve_forever() to return, so it runs on its own thread
        signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
        host, port = server.server_address[:2]
        print(f"listening on {host}:{port}", flush=True)
        server.serve_forever()
    rss = peak_rss_mb()
    switch = server.switch_host
    with switch.lock:
        sim = switch.sim
        ledgers = sim.ledgers()
        report = {
            "sagas": sim.engine.saga_rows(),
            "conservation": conservation(ledgers),
            "holds_outstanding": sum(lg.outstanding_holds() for lg in ledgers),
        }
        export_artifacts(report, ledgers, sim.engine.journal.records, {}, args.out)
        summary = {"peak_rss_mb": rss, "held": tracing.held_state(sim)}
    if tracer is not None:
        summary["trace"] = tracer.summary()
        tracer.write(args.spans)
    write_json(os.path.join(args.out, "switch.json"), summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
