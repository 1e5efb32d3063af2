"""Shared builders and independent oracles used across the test modules."""
from __future__ import annotations

import json
import os
from fractions import Fraction

from mmbus.canonical import CanonicalMessage, Money, PartyKind, PartyRef
from mmbus.harness import Scenario, scenario_from_obj

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, f"{name}.json")


CRASH_TWICE_CMDS = ["authorize", "hold", "credit", "commit", "release"]


def crash_twice_cell(cmd_type: str, torn_tail: bool) -> Scenario:
    """The fault-matrix base with the bus crashing on the first two dispatches of one command type."""
    with open(scenario_path("fault_matrix"), encoding="utf-8") as fh:
        obj = json.load(fh)["base"]
    obj["torn_tail"] = torn_tail
    obj["faults"] = [
        {"msg_type": f"{cmd_type}.cmd", "occurrence": n, "action": "crash_bus"} for n in (1, 2)
    ]
    return scenario_from_obj(obj, f"{cmd_type}_crash_bus_twice")


def mk(
    msg_type: str,
    body: dict,
    mid: str = "m-000001",
    src: str = "ch:web",
    dst: str = "bus",
    ts: int = 0,
    corr: str | None = None,
) -> CanonicalMessage:
    return CanonicalMessage(mid, corr or mid, msg_type, src, dst, ts, body)


def wallet(institution: str, msisdn: str) -> PartyRef:
    return PartyRef(PartyKind.WALLET, institution, msisdn)


def bank(institution: str, account: str) -> PartyRef:
    return PartyRef(PartyKind.BANK_ACCOUNT, institution, account)


def ghs(minor: int) -> Money:
    return Money("GHS", minor)


def rational_fee(amount_minor: int, flat_minor: int, basis_points: int, cap_minor: int) -> int:
    """Independent fee oracle: exact rational arithmetic, half-up rounding.

    Deliberately avoids the integer shortcut the implementation uses.
    """
    variable = Fraction(amount_minor) * Fraction(basis_points, 10000)
    rounded = int(variable + Fraction(1, 2))  # floor(x + 1/2) == half-up for x >= 0
    return min(flat_minor + rounded, cap_minor)
