"""Command line entry points end to end."""
from __future__ import annotations

import json

from conftest import scenario_path
from mmbus.cli import main


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
