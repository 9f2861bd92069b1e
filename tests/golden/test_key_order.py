"""Key order of MUSS-TI's placements and metadata, pinned literally.

``tests/program_bytes.py`` sorts ``initial_placement``,
``final_placement`` and ``metadata`` before hashing, so neither the
differential oracle nor the emitter corpus sees a key reorder.  A reorder
would still reach ``repro compile --json`` and serve responses, so this
pins ``list(...)`` of all three on the headline cell, a grid cell and a
faulted EML cell.

Regenerate after an *intentional* change with::

    pytest tests/golden/test_key_order.py --update-goldens
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from faulted import machine_for

from repro.pipeline import resolve_compiler
from repro.workloads import get_benchmark

KEY_ORDERS = Path(__file__).parent / "data" / "key_orders.json"

#: ``(app, machine)``: the headline cell, Table 2's 2x2 grid, and an EML
#: machine with two dead storage zones (``spec|fault profile``).
CELLS = (
    ("QFT_n128", "eml?capacity=4&modules=64"),
    ("QFT_n32", "small:2x2"),
    ("QFT_n32", "eml?capacity=4&modules=4|dead-zones-2"),
)


def key_orders(app: str, machine_label: str) -> dict[str, list]:
    circuit = get_benchmark(app)
    program = resolve_compiler("muss-ti").compile(
        circuit, machine_for(machine_label, circuit)
    )
    return {
        "initial_placement": list(program.initial_placement),
        "final_placement": list(program.final_placement),
        "metadata": list(program.metadata),
    }


@pytest.mark.parametrize(("app", "machine_label"), CELLS)
def test_muss_ti_key_orders_are_pinned(
    app: str, machine_label: str, update_goldens: bool
) -> None:
    cell = f"{app} {machine_label}"
    actual = key_orders(app, machine_label)
    pinned = json.loads(KEY_ORDERS.read_text()) if KEY_ORDERS.exists() else {}
    if update_goldens:
        pinned[cell] = actual
        KEY_ORDERS.write_text(json.dumps(pinned, indent=1) + "\n")
        return
    assert cell in pinned, f"{cell} not pinned - run with --update-goldens"
    assert actual == pinned[cell]
