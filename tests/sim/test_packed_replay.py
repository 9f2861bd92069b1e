"""The packed replay's legality checks, one illegal stream per check.

The packed replay (:func:`repro.sim.oparray.replay_packed`) verifies every
program on a pristine machine: MUSS-TI's array core and the grid baselines
both emit packed records.  Each stream below is legal except for one op,
and — where the op's effect lets the replay carry on — the stream
completes legally after it, so a weakened check shows up as a ledger
instead of an error.  Rejection must surface from :func:`repro.sim.replay`
as the object replay's :class:`ExecutionError`, text included.
"""

from __future__ import annotations

import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.dag import dag_arrays
from repro.sim import ExecutionError, Program, replay
from repro.sim.oparray import (
    K_CHAIN_SWAP,
    K_FIBER,
    K_GATE,
    K_MERGE,
    K_MOVE,
    K_SPLIT,
    K_SWAP,
    PackedOps,
    replay_packed,
)
from repro.sim.program import ArrayProgram

# Zones: tiny_grid is a 2x2 grid (0-1, 0-2, 1-3, 2-3 adjacent, capacity 4);
# two_modules has optical 0/4, operation 1/5 and storage 2,3/6,7 (storage
# hosts no gates); dual_optical_module has optical zones 0 and 1 in
# module 0.  Circuit nodes: 0 is h(0), 1 is cx(0, 1).
CASES = {
    "gate_operand_a_elsewhere": ("tiny_grid", {0: (0, 1)}, [(K_GATE, 0, 1)]),
    "gate_operand_b_elsewhere": ("tiny_grid", {0: (0,), 1: (1,)}, [(K_GATE, 1, 0)]),
    "gate_in_gateless_zone": ("two_modules", {2: (0, 1)}, [(K_GATE, 1, 2)]),
    "move_while_docked": ("tiny_grid", {0: (0, 1)}, [(K_MOVE, 0, 0, 1)]),
    "move_to_non_neighbour": (
        "tiny_grid",
        {0: (0, 1)},
        [(K_SPLIT, 0, 0), (K_MOVE, 0, 0, 3), (K_MERGE, 0, 3)],
    ),
    "split_from_wrong_zone": ("tiny_grid", {0: (0, 1)}, [(K_SPLIT, 0, 1)]),
    "split_interior": (
        "tiny_grid",
        {0: (2, 0, 1)},
        [(K_SPLIT, 0, 0), (K_MOVE, 0, 0, 1), (K_MERGE, 0, 1)],
    ),
    "merge_into_wrong_zone": (
        "tiny_grid",
        {0: (0, 1)},
        [(K_SPLIT, 0, 0), (K_MOVE, 0, 0, 1), (K_MERGE, 0, 3)],
    ),
    "merge_into_full_zone": (
        "tiny_grid",
        {0: (0,), 1: (1, 2, 3, 4)},
        [(K_SPLIT, 0, 0), (K_MOVE, 0, 0, 1), (K_MERGE, 0, 1)],
    ),
    "chain_swap_out_of_range": ("tiny_grid", {0: (0, 1)}, [(K_CHAIN_SWAP, 0, -1)]),
    "fiber_needs_optical": ("two_modules", {1: (0,), 5: (1,)}, [(K_FIBER, 1, 1, 5)]),
    "fiber_within_module": ("dual_optical_module", {0: (0,), 1: (1,)}, [(K_FIBER, 1, 0, 1)]),
    "fiber_operands_elsewhere": ("two_modules", {0: (0,), 4: (1,)}, [(K_FIBER, 1, 4, 0)]),
    "swap_operands_elsewhere": ("two_modules", {0: (0,), 4: (1,)}, [(K_SWAP, 1, 0, 0, 4)]),
    "swap_remote_needs_optical": (
        "two_modules",
        {1: (0,), 5: (1,)},
        [(K_SWAP, 0, 1, 1, 5)],
    ),
    "swap_remote_within_module": (
        "dual_optical_module",
        {0: (0,), 1: (1,)},
        [(K_SWAP, 0, 1, 0, 1)],
    ),
    "swap_local_gateless": ("two_modules", {2: (0, 1)}, [(K_SWAP, 0, 1, 2, 2)]),
    "left_detached": ("tiny_grid", {0: (0, 1)}, [(K_SPLIT, 0, 0)]),
}


def _programs(machine, placement, records):
    """The stream as an :class:`ArrayProgram` and as a plain object program."""
    num_qubits = sum(len(chain) for chain in placement.values())
    circuit = QuantumCircuit(num_qubits, name="illegal")
    circuit.h(0)
    circuit.cx(0, 1)
    dag = dag_arrays(circuit)
    packed = PackedOps(records, dag.qubit_a, dag.qubit_b)
    array_program = ArrayProgram(machine, circuit, placement, packed)
    object_program = Program(
        machine=machine,
        circuit=circuit,
        initial_placement=placement,
        operations=packed.materialize(circuit),
    )
    return array_program, object_program


@pytest.mark.parametrize("case", sorted(CASES))
def test_packed_replay_rejects(case: str, request: pytest.FixtureRequest) -> None:
    fixture, placement, records = CASES[case]
    machine = request.getfixturevalue(fixture)
    array_program, object_program = _programs(machine, placement, records)
    with pytest.raises(ExecutionError) as expected:
        replay(object_program)

    assert replay_packed(array_program, array_program.packed_view) is None
    with pytest.raises(ExecutionError) as raised:
        replay(array_program)
    assert str(raised.value) == str(expected.value)
    assert raised.value.op_index == expected.value.op_index


def test_legal_stream_replays_packed(tiny_grid) -> None:
    """The fixtures are legal apart from the op under test."""
    array_program, _ = _programs(
        tiny_grid,
        {0: (0, 1), 1: (2,)},
        [(K_GATE, 0, 0), (K_SPLIT, 1, 0), (K_MOVE, 1, 0, 1), (K_MERGE, 1, 1),
         (K_SPLIT, 0, 0), (K_MOVE, 0, 0, 1), (K_MERGE, 0, 1), (K_GATE, 1, 1)],
    )
    assert replay_packed(array_program, array_program.packed_view) is not None
    ledger = replay(array_program)
    assert len(ledger) == 8
