"""The stored scale-cell data is what the frozen reference compiles.

Tier-1 checks the array core's QFT_n512 x 256-module cell against
``data/scale_cell.json``; this re-derives that data from the live
reference (about two minutes).  The file name keeps it out of the default
collection, so it runs only when named::

    pytest tests/differential/live_reference.py
    pytest tests/differential/live_reference.py --update-goldens  # rewrite the data
"""

from __future__ import annotations

import json

from repro.core import MussTiConfig
from repro.hardware import resolve_machine
from repro.workloads import get_benchmark

from .reference import reference_compile, reference_execute
from .test_differential import SCALE_CELL, SCALE_DATA, scale_cell_record, stored_scale_cell


def test_scale_cell_data_matches_live_reference(update_goldens: bool) -> None:
    circuit = get_benchmark(SCALE_CELL[0])
    machine = resolve_machine(SCALE_CELL[1], circuit.num_qubits)
    reference = reference_compile(circuit, machine, MussTiConfig())
    actual = scale_cell_record(reference, reference_execute(reference))
    if update_goldens:
        SCALE_DATA.write_text(json.dumps(actual, indent=1) + "\n", encoding="utf-8")
        return
    assert actual == stored_scale_cell()
