"""The replay's legality checks, one illegal packed stream per check.

:func:`repro.sim.replay` checks every program on packed records:
MUSS-TI's array core and the grid baselines emit them, and op dataclass
lists are encoded into them.  Each stream below is legal except for one
op, and — where the op's effect lets the replay carry on — the stream
completes legally after it, so a weakened check shows up as a ledger
instead of an error.  Rejection must raise :class:`ExecutionError` with
the pinned text and op index, from the records themselves (the program
keeps its packed view) and from the same stream as op dataclasses.
"""

from __future__ import annotations

import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.dag import dag_arrays
from repro.sim import ExecutionError, MergeOp, MoveOp, Program, SplitOp, replay
from repro.sim.oparray import (
    K_CHAIN_SWAP,
    K_FIBER,
    K_GATE,
    K_MERGE,
    K_MOVE,
    K_SPLIT,
    K_SWAP,
    PackedOps,
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


#: case -> (op index, error text).
EXPECTED = {
    "chain_swap_out_of_range": (
        0, "op #0: chain swap position -1 out of range for zone 0 (chain length 2)"
    ),
    "fiber_needs_optical": (
        0, "op #0: fiber gate needs optical zones, got operation and operation"
    ),
    "fiber_operands_elsewhere": (0, "op #0: fiber gate expects qubit 0 in zone 4, found 0"),
    "fiber_within_module": (0, "op #0: fiber gate endpoints must be in different modules"),
    "gate_in_gateless_zone": (0, "op #0: zone 2 (storage) cannot execute two-qubit gates"),
    "gate_operand_a_elsewhere": (0, "op #0: gate h [0] expects qubit 0 in zone 1, found 0"),
    "gate_operand_b_elsewhere": (
        0, "op #0: gate cx [0, 1] expects qubit 1 in zone 0, found 1"
    ),
    "left_detached": (None, "qubits left detached at end of program: [0]"),
    "merge_into_full_zone": (2, "op #2: zone 1 is full (capacity 4)"),
    "merge_into_wrong_zone": (2, "op #2: qubit 0 is over zone 1, not 3"),
    "move_to_non_neighbour": (1, "op #1: zones 0 and 3 are not shuttle-adjacent"),
    "move_while_docked": (0, "op #0: qubit 0 is not detached"),
    "split_from_wrong_zone": (0, "op #0: qubit 0 is in zone 0, not 1"),
    "split_interior": (
        0,
        "op #0: qubit 0 is at interior position 1 of zone 0 (chain swaps "
        "required before split)",
    ),
    "swap_local_gateless": (0, "op #0: zone 2 cannot execute gates"),
    "swap_operands_elsewhere": (0, "op #0: swap expects qubit 1 in zone 0, found 4"),
    "swap_remote_needs_optical": (0, "op #0: remote swap endpoints must be optical zones"),
    "swap_remote_within_module": (
        0, "op #0: remote swap endpoints must be in different modules"
    ),
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
    for program in (array_program, object_program):
        with pytest.raises(ExecutionError) as raised:
            replay(program)
        assert (raised.value.op_index, str(raised.value)) == EXPECTED[case]
    assert array_program.packed_view is not None  # no op objects were built


def test_legal_stream_replays_packed(tiny_grid) -> None:
    """The fixtures are legal apart from the op under test."""
    array_program, _ = _programs(
        tiny_grid,
        {0: (0, 1), 1: (2,)},
        [(K_GATE, 0, 0), (K_SPLIT, 1, 0), (K_MOVE, 1, 0, 1), (K_MERGE, 1, 1),
         (K_SPLIT, 0, 0), (K_MOVE, 0, 0, 1), (K_MERGE, 0, 1), (K_GATE, 1, 1)],
    )
    ledger = replay(array_program)
    assert ledger.packed is array_program.packed_view
    assert len(ledger) == 8


class _Teleport:
    """Not an op type the replay knows."""


@pytest.mark.parametrize(
    ("ops", "expected"),
    [
        (
            [SplitOp(0, 0), MoveOp(0, 0, 1), MergeOp(0, 1, side="middle")],
            (2, "op #2: bad merge side 'middle'"),
        ),
        # A head merge puts the ion before qubit 1, which is then interior.
        (
            [SplitOp(0, 0), MoveOp(0, 0, 1), MergeOp(0, 1, side="head"), SplitOp(1, 1)],
            (
                3,
                "op #3: qubit 1 is at interior position 1 of zone 1 (chain swaps "
                "required before split)",
            ),
        ),
        ([_Teleport()], (0, "op #0: unknown operation type _Teleport")),
    ],
)
def test_op_list_forms_rejected(tiny_grid, ops, expected) -> None:
    """Ops only the dataclass form can express are encoded and checked too."""
    circuit = QuantumCircuit(3, name="ops")
    program = Program(tiny_grid, circuit, {0: (0,), 1: (1, 2)}, ops)
    with pytest.raises(ExecutionError) as raised:
        replay(program)
    assert (raised.value.op_index, str(raised.value)) == expected
