"""Executor tests against hand-built op streams.

These tests pin the physics bookkeeping: durations, heat deposits,
background-fidelity charging and every legality check.
"""

from __future__ import annotations

import math

import pytest

from repro.circuits import Gate, QuantumCircuit
from repro.physics import DEFAULT_PARAMS, PhysicalParams
from repro.sim import (
    ChainSwapOp,
    ExecutionError,
    FiberGateOp,
    GateOp,
    MergeOp,
    MoveOp,
    Program,
    SplitOp,
    SwapGateOp,
    execute,
)

LOG10E = math.log10(math.e)


def grid_program(machine, placement, ops, num_qubits=4):
    circuit = QuantumCircuit(num_qubits, name="hand")
    return Program(machine, circuit, placement, list(ops))


def shuttle_ops(qubit, src, dst):
    return [SplitOp(qubit, src), MoveOp(qubit, src, dst), MergeOp(qubit, dst)]


class TestShuttleAccounting:
    def test_single_shuttle_time(self, tiny_grid):
        program = grid_program(
            tiny_grid, {0: (0,), 1: (1, 2, 3)}, shuttle_ops(0, 0, 1)
        )
        report = execute(program)
        # split 80 + move 100 + merge 80
        assert report.execution_time_us == pytest.approx(260.0)
        assert report.shuttle_count == 1
        assert report.split_count == 1
        assert report.merge_count == 1

    def test_shuttle_heat_deposits(self, tiny_grid):
        program = grid_program(
            tiny_grid, {0: (0,), 1: (1, 2, 3)}, shuttle_ops(0, 0, 1)
        )
        report = execute(program)
        # split heats source (1.0); move (0.1) and merge (1.0) heat dest.
        assert report.zone_heat[0] == pytest.approx(1.0)
        assert report.zone_heat[1] == pytest.approx(1.1)
        assert report.total_heat == pytest.approx(2.1)

    def test_shuttle_fidelity_is_eq1(self, tiny_grid):
        program = grid_program(
            tiny_grid, {0: (0,), 1: (1, 2, 3)}, shuttle_ops(0, 0, 1)
        )
        report = execute(program)
        p = DEFAULT_PARAMS
        expected_log = (
            (-(80 / p.qubit_lifetime_us) - p.heating_rate * 1.0)
            + (-(100 / p.qubit_lifetime_us) - p.heating_rate * 0.1)
            + (-(80 / p.qubit_lifetime_us) - p.heating_rate * 1.0)
        )
        assert report.log10_fidelity == pytest.approx(expected_log * LOG10E)

    def test_multi_hop_counts_each_move(self, tiny_grid):
        ops = [
            SplitOp(0, 0),
            MoveOp(0, 0, 1),
            MoveOp(0, 1, 3),
            MergeOp(0, 3),
        ]
        program = grid_program(tiny_grid, {0: (0,), 1: (1, 2, 3)}, ops)
        report = execute(program)
        assert report.shuttle_count == 2

    def test_chain_swap_accounting(self, tiny_grid):
        program = grid_program(
            tiny_grid, {0: (0, 1, 2)}, [ChainSwapOp(0, 0)], num_qubits=3
        )
        report = execute(program)
        assert report.chain_swap_count == 1
        assert report.execution_time_us == pytest.approx(40.0)
        assert report.zone_heat[0] == pytest.approx(0.3)


class TestShuttleLegality:
    def test_split_requires_edge_position(self, tiny_grid):
        program = grid_program(
            tiny_grid, {0: (0, 1, 2)}, [SplitOp(1, 0)], num_qubits=3
        )
        with pytest.raises(ExecutionError, match="interior"):
            execute(program)

    def test_split_from_wrong_zone(self, tiny_grid):
        program = grid_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, [SplitOp(0, 1)])
        with pytest.raises(ExecutionError, match="is in zone 0"):
            execute(program)

    def test_move_requires_detached_ion(self, tiny_grid):
        program = grid_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, [MoveOp(0, 0, 1)])
        with pytest.raises(ExecutionError, match="not detached"):
            execute(program)

    def test_move_requires_adjacency(self, tiny_grid):
        # zones 0 and 3 are diagonal in the 2x2 grid.
        ops = [SplitOp(0, 0), MoveOp(0, 0, 3), MergeOp(0, 3)]
        program = grid_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, ops)
        with pytest.raises(ExecutionError, match="not.*adjacent"):
            execute(program)

    def test_merge_respects_capacity(self, tiny_grid):
        placement = {0: (0,), 1: (1, 2, 3, 4)}  # zone 1 full (cap 4)
        ops = shuttle_ops(0, 0, 1)
        program = grid_program(tiny_grid, placement, ops, num_qubits=5)
        with pytest.raises(ExecutionError, match="full"):
            execute(program)

    def test_merge_at_head(self, tiny_grid):
        ops = [SplitOp(0, 0), MoveOp(0, 0, 1), MergeOp(0, 1, side="head")]
        program = grid_program(tiny_grid, {0: (0,), 1: (1, 2)}, ops, num_qubits=3)
        report = execute(program)
        assert report.merge_count == 1

    def test_dangling_detached_ion_rejected(self, tiny_grid):
        ops = [SplitOp(0, 0), MoveOp(0, 0, 1)]
        program = grid_program(tiny_grid, {0: (0,), 1: (1, 2, 3)}, ops)
        with pytest.raises(ExecutionError, match="left detached"):
            execute(program)

    def test_double_split_rejected(self, tiny_grid):
        ops = [SplitOp(0, 0), SplitOp(0, 0)]
        program = grid_program(tiny_grid, {0: (0,), 1: (1, 2, 3)}, ops)
        with pytest.raises(ExecutionError, match="already detached"):
            execute(program)

    def test_chain_swap_position_bounds(self, tiny_grid):
        program = grid_program(
            tiny_grid, {0: (0, 1), 1: (2, 3)}, [ChainSwapOp(0, 1)]
        )
        with pytest.raises(ExecutionError, match="out of range"):
            execute(program)


class TestGateAccounting:
    def test_one_qubit_gate(self, tiny_grid):
        ops = [GateOp(Gate("h", (0,)), 0)]
        program = grid_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, ops)
        report = execute(program)
        assert report.one_qubit_gate_count == 1
        assert report.execution_time_us == pytest.approx(5.0)
        assert report.log10_fidelity == pytest.approx(
            math.log10(0.9999), abs=1e-12
        )

    def test_two_qubit_gate_fidelity_uses_chain_size(self, tiny_grid):
        ops = [GateOp(Gate("cx", (0, 1)), 0)]
        program = grid_program(tiny_grid, {0: (0, 1, 2), 1: (3,)}, ops)
        report = execute(program)
        expected = math.log10(DEFAULT_PARAMS.two_qubit_gate_fidelity(3))
        assert report.log10_fidelity == pytest.approx(expected)

    def test_gate_requires_colocated_operands(self, tiny_grid):
        ops = [GateOp(Gate("cx", (0, 2)), 0)]
        program = grid_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, ops)
        with pytest.raises(ExecutionError, match="expects qubit 2 in zone 0"):
            execute(program)

    def test_storage_zone_rejects_two_qubit_gates(self, one_module):
        storage = one_module.storage_zones(0)[0]
        ops = [GateOp(Gate("cx", (0, 1)), storage.zone_id)]
        circuit = QuantumCircuit(2)
        program = Program(one_module, circuit, {storage.zone_id: (0, 1)}, ops)
        with pytest.raises(ExecutionError, match="cannot execute two-qubit"):
            execute(program)

    def test_background_heat_degrades_gates(self, tiny_grid):
        # Same gate, after heating the zone: strictly lower fidelity.
        cold_ops = [GateOp(Gate("cx", (0, 1)), 0)]
        hot_ops = [ChainSwapOp(0, 0)] * 50 + cold_ops
        cold = execute(
            grid_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, cold_ops)
        )
        hot = execute(grid_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, hot_ops))
        hot_gate_only = hot.log10_fidelity - (
            50
            * (
                -(40 / DEFAULT_PARAMS.qubit_lifetime_us)
                - DEFAULT_PARAMS.heating_rate * 0.3
            )
            * LOG10E
        )
        assert hot_gate_only < cold.log10_fidelity


class TestFiberGates:
    def optical_pair(self, machine):
        return (
            machine.optical_zones(0)[0].zone_id,
            machine.optical_zones(1)[0].zone_id,
        )

    def fiber_program(self, machine, gate_ops, placement=None):
        optical_a, optical_b = self.optical_pair(machine)
        if placement is None:
            placement = {optical_a: (0,), optical_b: (1,)}
        return Program(machine, QuantumCircuit(2), placement, gate_ops)

    def test_fiber_gate_accounting(self, two_modules):
        za, zb = self.optical_pair(two_modules)
        program = self.fiber_program(
            two_modules, [FiberGateOp(Gate("cx", (0, 1)), za, zb)]
        )
        report = execute(program)
        assert report.fiber_gate_count == 1
        assert report.execution_time_us == pytest.approx(200.0)
        assert report.log10_fidelity == pytest.approx(math.log10(0.99))

    def test_fiber_gate_needs_optical_zones(self, two_modules):
        _, zb = self.optical_pair(two_modules)
        operation_zone = two_modules.operation_zones(0)[0].zone_id
        program = self.fiber_program(
            two_modules,
            [FiberGateOp(Gate("cx", (0, 1)), operation_zone, zb)],
            placement={operation_zone: (0,), zb: (1,)},
        )
        with pytest.raises(ExecutionError, match="optical"):
            execute(program)

    def test_fiber_gate_needs_distinct_modules(self, two_modules):
        za = two_modules.optical_zones(0)[0].zone_id
        circuit = QuantumCircuit(2)
        program = Program(
            two_modules,
            circuit,
            {za: (0, 1)},
            [FiberGateOp(Gate("cx", (0, 1)), za, za)],
        )
        with pytest.raises(ExecutionError, match="different modules"):
            execute(program)

    def test_remote_swap_relabels_and_charges_three_gates(self, two_modules):
        za, zb = self.optical_pair(two_modules)
        # After the swap, qubit 0 lives in zone zb: a local gate there works.
        program = self.fiber_program(
            two_modules, [SwapGateOp(0, 1, za, zb), GateOp(Gate("h", (0,)), zb)]
        )
        report = execute(program)
        assert report.inserted_swap_count == 1
        assert report.remote_swap_count == 1
        assert report.execution_time_us == pytest.approx(3 * 200.0 + 5.0)

    def test_local_swap_charges_three_local_gates(self, tiny_grid):
        circuit = QuantumCircuit(2)
        program = Program(
            tiny_grid,
            circuit,
            {0: (0, 1)},
            [SwapGateOp(0, 1, 0, 0), GateOp(Gate("cx", (0, 1)), 0)],
        )
        report = execute(program)
        assert report.inserted_swap_count == 1
        assert report.remote_swap_count == 0
        assert report.execution_time_us == pytest.approx(3 * 40.0 + 40.0)


class TestIdealisedPhysics:
    def test_perfect_shuttle_removes_heat_cost(self, tiny_grid):
        ops = shuttle_ops(0, 0, 1) + [GateOp(Gate("cx", (0, 2)), 1)]
        program = grid_program(tiny_grid, {0: (0,), 1: (1, 2, 3)}, ops)
        real = execute(program, DEFAULT_PARAMS)
        ideal = execute(program, DEFAULT_PARAMS.perfect_shuttle())
        assert ideal.log10_fidelity > real.log10_fidelity
        assert ideal.total_heat == 0.0

    def test_perfect_gate_raises_gate_fidelity(self, tiny_grid):
        ops = [GateOp(Gate("cx", (0, 1)), 0)]
        program = grid_program(tiny_grid, {0: (0, 1, 2, 3)}, ops)
        real = execute(program, DEFAULT_PARAMS)
        ideal = execute(program, DEFAULT_PARAMS.perfect_gate())
        assert ideal.log10_fidelity > real.log10_fidelity

    def test_reexecution_is_deterministic(self, tiny_grid):
        ops = shuttle_ops(0, 0, 1)
        program = grid_program(tiny_grid, {0: (0,), 1: (1, 2, 3)}, ops)
        first = execute(program)
        second = execute(program)
        assert first == second


class TestMakespan:
    def test_parallel_gates_overlap(self, tiny_grid):
        ops = [
            GateOp(Gate("cx", (0, 1)), 0),
            GateOp(Gate("cx", (2, 3)), 1),
        ]
        program = grid_program(tiny_grid, {0: (0, 1), 1: (2, 3)}, ops)
        report = execute(program)
        assert report.execution_time_us == pytest.approx(80.0)
        assert report.makespan_us == pytest.approx(40.0)

    def test_serial_gates_do_not_overlap(self, tiny_grid):
        ops = [
            GateOp(Gate("cx", (0, 1)), 0),
            GateOp(Gate("cx", (1, 2)), 0),
        ]
        program = grid_program(
            tiny_grid, {0: (0, 1, 2), 1: (3,)}, ops
        )
        report = execute(program)
        assert report.makespan_us == pytest.approx(80.0)
