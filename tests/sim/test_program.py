"""Program container tests."""

from __future__ import annotations

import pytest

from repro.circuits import QuantumCircuit
from repro.sim import MoveOp, Program, SplitOp
from repro.sim.oparray import PackedOps
from repro.sim.program import ArrayProgram


def make_program(machine, placement, ops=()):
    circuit = QuantumCircuit(4, name="t")
    circuit.h(0)
    return Program(
        machine=machine,
        circuit=circuit,
        initial_placement=placement,
        operations=list(ops),
    )


class TestPlacementValidation:
    def test_valid_placement(self, tiny_grid):
        program = make_program(tiny_grid, {0: (0, 1), 1: (2, 3)})
        program.validate_placement()

    def test_capacity_violation(self, tiny_grid):
        program = make_program(tiny_grid, {0: (0, 1, 2, 3, 4)})
        program.circuit.num_qubits = 5
        with pytest.raises(ValueError, match="capacity"):
            program.validate_placement()

    def test_duplicate_qubit(self, tiny_grid):
        program = make_program(tiny_grid, {0: (0, 1), 1: (1, 2, 3)})
        with pytest.raises(ValueError, match="placed twice"):
            program.validate_placement()

    def test_missing_qubit(self, tiny_grid):
        program = make_program(tiny_grid, {0: (0, 1)})
        with pytest.raises(ValueError, match="never placed"):
            program.validate_placement()


class TestQueries:
    def test_shuttle_count_counts_moves(self, tiny_grid):
        ops = [
            SplitOp(0, 0),
            MoveOp(0, 0, 1),
            MoveOp(0, 1, 3),
        ]
        program = make_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, ops)
        assert program.shuttle_count == 2
        assert program.num_operations == 3

    def test_initial_zone_of(self, tiny_grid):
        program = make_program(tiny_grid, {0: (0, 1), 2: (2, 3)})
        assert program.initial_zone_of(3) == 2
        with pytest.raises(KeyError):
            program.initial_zone_of(9)


class TestOneOpStream:
    def test_array_program_is_program(self):
        assert ArrayProgram is Program

    def test_op_list_is_encoded_once(self, tiny_grid):
        ops = [SplitOp(0, 0), MoveOp(0, 0, 1)]
        program = make_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, ops)
        assert isinstance(program.packed_view, PackedOps)
        assert program.packed_view.records == [(0, 0, 0), (1, 0, 0, 1)]
        assert program.operations == tuple(ops)

    def test_operations_is_read_only(self, tiny_grid):
        program = make_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, [SplitOp(0, 0)])
        with pytest.raises(AttributeError):
            program.operations = []
        assert program.operations == (SplitOp(0, 0),)
