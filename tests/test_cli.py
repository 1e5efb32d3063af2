"""Command line entry points end to end."""
from __future__ import annotations

import json

from conftest import scenario_path
from mmbus.cli import main
from mmbus.server import SwitchServer


def test_run_then_verify_then_replay(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["run", "--scenario", scenario_path("happy_path"), "--out", out]) == 0
    text = capsys.readouterr().out
    assert "scenario happy_path seed=7" in text
    assert "'COMPLETED': 3" in text

    assert main(["verify", "--report", f"{out}/report.json"]) == 0
    text = capsys.readouterr().out
    assert "9/9 checks passed" in text

    assert main(["replay", "--journal", f"{out}/journal.ndjson"]) == 0
    text = capsys.readouterr().out
    assert "match" in text


def test_run_matrix_file(tmp_path, capsys):
    out = str(tmp_path / "mx")
    assert main(["run", "--scenario", scenario_path("fault_matrix"), "--out", out]) == 0
    text = capsys.readouterr().out
    assert "ok=True" in text
    with open(f"{out}/matrix.json", encoding="utf-8") as fh:
        assert json.load(fh)["ok"]


def test_run_unmet_expectation_fails(tmp_path, capsys):
    with open(scenario_path("happy_path"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["expected"]["sagas"]["t1"] = "FAILED"
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    assert main(["run", "--scenario", str(path)]) == 1
    assert "expected t1 -> FAILED, got COMPLETED" in capsys.readouterr().out


def test_bad_scenario_reports_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"currency": "GHS", "channels": [{"id": "ch:u", "protocol": "smpp"}]}')
    assert main(["run", "--scenario", str(path)]) == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_missing_file_reports_error(capsys):
    assert main(["run", "--scenario", "/nonexistent/nope.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_scenario_input_error_exits_2(tmp_path, capsys):
    with open(scenario_path("happy_path"), encoding="utf-8") as fh:
        obj = json.load(fh)
    parties = ["wallet:MTNG:233240000001", "bank:ABBANK:ACC100"]
    obj["traffic"].append({"generate": {"kind": "transfers", "channel": "ch:web", "parties": parties}})
    path = tmp_path / "no_count.json"
    path.write_text(json.dumps(obj))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "generate.count: missing" in capsys.readouterr().err


def test_matrix_input_error_exits_2(tmp_path, capsys):
    with open(scenario_path("fault_matrix"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["cells"].append(5)
    path = tmp_path / "bad_cell.json"
    path.write_text(json.dumps(obj))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "bad_cell.cells[25]: must be an object" in capsys.readouterr().err


def test_serve_prints_address_and_stops_on_interrupt(monkeypatch, capsys):
    def interrupted(self, poll_interval=0.5):
        raise KeyboardInterrupt

    monkeypatch.setattr(SwitchServer, "serve_forever", interrupted)
    assert main(["serve", "--scenario", scenario_path("happy_path"), "--listen", "127.0.0.1:0"]) == 0
    assert "listening on 127.0.0.1:" in capsys.readouterr().out


def test_serve_bad_port_exits_2(capsys):
    assert main(["serve", "--scenario", scenario_path("happy_path"), "--listen", "127.0.0.1:x"]) == 2
    assert capsys.readouterr().err.startswith("error: --listen '127.0.0.1:x': port must be an integer")
