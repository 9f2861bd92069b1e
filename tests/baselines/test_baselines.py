"""Baseline compiler tests: correctness and policy shape."""

from __future__ import annotations

import pytest

from repro.baselines import (
    DaiCompiler,
    MqtLikeCompiler,
    MuraliCompiler,
    block_placement,
)
from repro.circuits import GateError, QuantumCircuit
from repro.core.state import RoutingError
from repro.hardware import QCCDGridMachine
from repro.sim import FiberGateOp, MoveOp, execute, replay, verify_program
from repro.workloads import get_benchmark

ALL_BASELINES = [MuraliCompiler, DaiCompiler, MqtLikeCompiler]


class TestBlockPlacement:
    def test_fills_traps_in_order(self, tiny_grid):
        circuit = QuantumCircuit(6)
        placement = block_placement(circuit, tiny_grid)
        assert placement[0] == (0, 1, 2, 3)
        assert placement[1] == (4, 5)

    def test_too_many_qubits(self, tiny_grid):
        circuit = QuantumCircuit(20)
        with pytest.raises(RoutingError, match="too small"):
            block_placement(circuit, tiny_grid)


class TestCorrectness:
    @pytest.mark.parametrize("compiler_cls", ALL_BASELINES)
    def test_bell_pair_verifies(self, compiler_cls, tiny_grid, bell_pair):
        program = compiler_cls().compile(bell_pair, tiny_grid)
        verify_program(program)

    @pytest.mark.parametrize("compiler_cls", ALL_BASELINES)
    def test_chain_verifies(self, compiler_cls, tiny_grid, linear_chain_8):
        program = compiler_cls().compile(linear_chain_8, tiny_grid)
        verify_program(program)

    @pytest.mark.parametrize("compiler_cls", ALL_BASELINES)
    def test_table2_apps_verify(self, compiler_cls, small_grid_2x2):
        for app in ("GHZ_n32", "QAOA_n32"):
            circuit = get_benchmark(app)
            program = compiler_cls().compile(circuit, small_grid_2x2)
            verify_program(program)

    @pytest.mark.parametrize("compiler_cls", ALL_BASELINES)
    def test_never_emits_fiber_ops(self, compiler_cls, small_grid_2x2):
        circuit = get_benchmark("BV_n32")
        program = compiler_cls().compile(circuit, small_grid_2x2)
        assert not any(isinstance(op, FiberGateOp) for op in program.operations)

    @pytest.mark.parametrize("compiler_cls", ALL_BASELINES)
    def test_replays_packed(self, compiler_cls, small_grid_2x2):
        """The program carries packed records and replays without op objects."""
        program = compiler_cls().compile(get_benchmark("QFT_n32"), small_grid_2x2)
        packed = program.packed_view
        assert packed is not None
        assert replay(program).packed is packed
        assert program.packed_view is packed

    @pytest.mark.parametrize("compiler_cls", ALL_BASELINES)
    def test_wide_gate_rejected(self, compiler_cls, tiny_grid):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.ccx(0, 1, 2)
        with pytest.raises(GateError, match="gate #1"):
            compiler_cls().compile(circuit, tiny_grid)

    @pytest.mark.parametrize("compiler_cls", ALL_BASELINES)
    def test_deterministic(self, compiler_cls, small_grid_2x2):
        circuit = get_benchmark("QAOA_n32")
        a = compiler_cls().compile(circuit, small_grid_2x2)
        b = compiler_cls().compile(circuit, small_grid_2x2)
        assert a.operations == b.operations


class TestMuraliPolicy:
    def test_moves_into_partner_trap(self, tiny_grid):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 4)
        program = MuraliCompiler().compile(circuit, tiny_grid)
        moves = [op for op in program.operations if isinstance(op, MoveOp)]
        assert len(moves) == 1
        # One operand travelled to the other's trap (0 or 1).
        assert moves[0].destination_zone in (0, 1)

    def test_prefers_emptier_destination(self, tiny_grid):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        # Trap 0 holds 4 ions (full), trap 1 holds one: q0 moves to trap 1.
        program = MuraliCompiler().compile(circuit, tiny_grid)
        moves = [op for op in program.operations if isinstance(op, MoveOp)]
        assert moves[0].qubit == 0
        assert moves[0].destination_zone == 1


class TestDaiPolicy:
    def test_lookahead_validation(self):
        with pytest.raises(ValueError):
            DaiCompiler(lookahead=-1)

    def test_meets_in_the_middle_when_cheaper(self):
        machine = QCCDGridMachine(1, 3, 2)
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3)  # traps 0 and 2 are both full; trap 1 is empty
        placement = {0: (0, 1), 2: (2, 3)}
        program = DaiCompiler().compile(circuit, machine, placement)
        verify_program(program)
        moves = [op for op in program.operations if isinstance(op, MoveOp)]
        # Meeting in trap 1 needs 2 moves and no eviction; pushing into
        # either full endpoint would need 2 moves as well but evictions too.
        assert {m.destination_zone for m in moves} == {1}

    def test_beats_murali_on_walking_pattern(self, small_grid_2x2):
        circuit = get_benchmark("SQRT_n30")
        murali = execute(MuraliCompiler().compile(circuit, small_grid_2x2))
        dai = execute(DaiCompiler().compile(circuit, small_grid_2x2))
        assert dai.shuttle_count < murali.shuttle_count


class TestMqtPolicy:
    def test_all_two_qubit_gates_in_processing_zone(self, small_grid_2x2):
        circuit = get_benchmark("GHZ_n32")
        compiler = MqtLikeCompiler()
        program = compiler.compile(circuit, small_grid_2x2)
        from repro.sim import GateOp

        for op in program.operations:
            if isinstance(op, GateOp) and op.gate.is_two_qubit:
                assert op.zone == compiler.processing_zone

    def test_processing_zone_starts_empty(self, small_grid_2x2):
        circuit = QuantumCircuit(30)
        circuit.h(0)
        compiler = MqtLikeCompiler()
        program = compiler.compile(circuit, small_grid_2x2)
        assert 0 not in program.initial_placement

    def test_custom_processing_zone(self, small_grid_2x2):
        circuit = get_benchmark("GHZ_n32")
        compiler = MqtLikeCompiler(processing_zone=2)
        program = compiler.compile(circuit, small_grid_2x2)
        verify_program(program)

    def test_invalid_processing_zone(self, tiny_grid, bell_pair):
        with pytest.raises(RoutingError, match="does not exist"):
            MqtLikeCompiler(processing_zone=99).compile(bell_pair, tiny_grid)

    def test_is_shuttle_worst(self, small_grid_2x2):
        circuit = get_benchmark("QAOA_n32")
        mqt = execute(MqtLikeCompiler().compile(circuit, small_grid_2x2))
        murali = execute(MuraliCompiler().compile(circuit, small_grid_2x2))
        assert mqt.shuttle_count > murali.shuttle_count
