"""Folding cells into a tracked payload keeps every cell compare tracks.

``merge_payloads`` and ``compare_payloads`` share one cell identity, so
a ``--quick`` serve or fleet cell lands beside the full-size baseline
cell instead of replacing it.  Neither ``jsonschema`` nor ``numpy`` is
needed here.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.bench import compare_payloads, merge_payloads

ROOT = Path(__file__).resolve().parents[2]
PINS = json.loads(
    (Path(__file__).parent / "data" / "compare_pins.json").read_text(encoding="utf-8")
)


def committed_baseline() -> dict:
    return json.loads((ROOT / "BENCH_2026-08-08.json").read_text(encoding="utf-8"))


def single_cell_payload(cell: dict, grid: str) -> dict:
    return {**committed_baseline(), "grid": grid, "cells": [cell]}


def test_quick_serve_cell_lands_beside_the_full_size_cell():
    base = committed_baseline()
    (full,) = [
        cell for cell in base["cells"]
        if cell.get("mode") == "serve-cold" and cell["concurrency"] == 8
    ]
    quick = {**full, "concurrency": 4, "requests": 20, "p99_ms": 999.0}
    merged = merge_payloads(base, single_cell_payload(quick, "serve"))
    assert merged["cells"] == base["cells"] + [quick]


@pytest.mark.parametrize("change", [{"jobs": 20_000}, {"arrival": "bursty"}])
def test_fleet_cell_of_another_size_lands_beside_the_baseline_cell(change):
    fleet_cell = PINS["pairs"]["synthetic"]["old"]["cells"][7]
    assert fleet_cell["mode"] == "fleet" and fleet_cell["jobs"] == 2000
    base = committed_baseline()
    base["cells"].append(fleet_cell)
    other = {**fleet_cell, **change, "p99_wait_ms": 1.0}
    merged = merge_payloads(base, single_cell_payload(other, "fleet"))
    assert merged["cells"] == base["cells"] + [other]


PAYLOADS = {
    f"{pair}-{side}": payload
    for pair, sides in PINS["pairs"].items()
    for side, payload in sides.items()
}
PAYLOADS["committed-baseline"] = committed_baseline()


@pytest.mark.parametrize(
    "base_name, new_name", list(itertools.product(PAYLOADS, repeat=2))
)
def test_folding_never_loses_a_compared_cell(base_name, new_name):
    base, new = PAYLOADS[base_name], PAYLOADS[new_name]
    rows = compare_payloads(base, merge_payloads(base, new))
    assert [row["key"] for row in rows if row["status"] == "gone"] == []
