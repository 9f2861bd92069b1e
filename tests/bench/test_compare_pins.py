"""Byte pins of the BENCH payload schema and of ``repro bench compare``.

``data/bench_schema.json`` is a copy of :data:`repro.bench.BENCH_SCHEMA`,
key order included: the stdlib validator walks ``required`` and
``properties`` in order, so the order fixes which error text a bad
payload gets.

``data/compare_pins.json`` holds two payload pairs and the exact
``run_compare`` text and exit code for each of four option sets (no
``--fail-over``, a passing and a failing ``--fail-over``, and
``--min-seconds 0``).  The ``committed`` pair is a frozen copy of
``BENCH_2026-07-29.json`` -> ``BENCH_2026-08-08.json``, so folding new
cells into the committed baseline does not move these pins.  The
``synthetic`` pair holds every cell family: compile-execute, reprice,
the three serve phases (one side of ``serve-warm`` without
``rejected``), fleet cells above the 50 ms floor, and faults cells with
a 0.0 baseline ``_pct``.

Neither test needs ``jsonschema`` or ``numpy``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import BENCH_SCHEMA, run_compare

DATA = Path(__file__).parent / "data"
PINS = json.loads((DATA / "compare_pins.json").read_text(encoding="utf-8"))


def test_bench_schema_matches_the_pinned_copy():
    pinned = json.loads((DATA / "bench_schema.json").read_text(encoding="utf-8"))
    assert BENCH_SCHEMA == pinned
    assert json.dumps(BENCH_SCHEMA) == json.dumps(pinned)


@pytest.mark.parametrize(
    "run",
    PINS["runs"],
    ids=[
        "-".join([run["pair"], *(f"{k}={v}" for k, v in run["options"].items())])
        for run in PINS["runs"]
    ],
)
def test_compare_text_and_exit_code_are_pinned(run, tmp_path, monkeypatch):
    pair = PINS["pairs"][run["pair"]]
    (tmp_path / "old.json").write_text(json.dumps(pair["old"]), encoding="utf-8")
    (tmp_path / "new.json").write_text(json.dumps(pair["new"]), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    text, code = run_compare("old.json", "new.json", **run["options"])
    assert text == run["text"]
    assert code == run["code"]
