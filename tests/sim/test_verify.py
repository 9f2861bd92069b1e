"""Verifier tests: the checker must catch every class of bad program."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.circuits import Gate, QuantumCircuit
from repro.core import MussTiCompiler
from repro.hardware import resolve_machine
from repro.sim import (
    ChainSwapOp,
    FiberGateOp,
    GateOp,
    MergeOp,
    MoveOp,
    Program,
    SplitOp,
    SwapGateOp,
    VerificationError,
    is_valid,
    verify_program,
)


def compiled_bell(machine):
    circuit = QuantumCircuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    return MussTiCompiler().compile(circuit, machine)


def rebuilt(program, ops):
    """``program`` with its op stream replaced by ``ops``."""
    return Program(program.machine, program.circuit, program.initial_placement, ops)


class TestAcceptsGoodPrograms:
    def test_compiled_program_verifies(self, tiny_grid):
        program = compiled_bell(tiny_grid)
        verify_program(program)
        assert is_valid(program)

    def test_eml_program_verifies(self, two_modules, linear_chain_8):
        program = MussTiCompiler().compile(linear_chain_8, two_modules)
        verify_program(program)


class TestCatchesBadPrograms:
    def test_missing_gate(self, tiny_grid):
        program = compiled_bell(tiny_grid)
        # Drop the CX.
        program = rebuilt(
            program,
            [
                op
                for op in program.operations
                if not (isinstance(op, GateOp) and op.gate.name == "cx")
            ],
        )
        with pytest.raises(VerificationError, match="never executed"):
            verify_program(program)
        assert not is_valid(program)

    def test_duplicated_gate(self, tiny_grid):
        program = compiled_bell(tiny_grid)
        gate_ops = [op for op in program.operations if isinstance(op, GateOp)]
        program = rebuilt(program, [*program.operations, gate_ops[-1]])
        with pytest.raises(VerificationError, match="twice"):
            verify_program(program)

    def test_wrong_gate_substituted(self, tiny_grid):
        program = compiled_bell(tiny_grid)
        swapped = []
        for op in program.operations:
            if isinstance(op, GateOp) and op.gate.name == "cx":
                swapped.append(
                    GateOp(Gate("cz", op.gate.qubits), op.zone, op.circuit_index)
                )
            else:
                swapped.append(op)
        program = rebuilt(program, swapped)
        with pytest.raises(VerificationError, match="mismatch"):
            verify_program(program)

    def test_dependency_violation(self, tiny_grid):
        circuit = QuantumCircuit(2, name="ordered")
        circuit.x(0)        # gate 0
        circuit.cx(0, 1)    # gate 1, depends on 0
        program = MussTiCompiler().compile(circuit, tiny_grid)
        gate_ops = [op for op in program.operations if isinstance(op, GateOp)]
        others = [op for op in program.operations if not isinstance(op, GateOp)]
        program = rebuilt(program, others + list(reversed(gate_ops)))
        with pytest.raises(VerificationError, match="before its"):
            verify_program(program)

    def test_physical_illegality_reported(self, tiny_grid):
        program = compiled_bell(tiny_grid)
        # Teleport the gate to a zone where the qubits are not.
        program = rebuilt(
            program,
            [
                GateOp(op.gate, zone=3, circuit_index=op.circuit_index)
                if isinstance(op, GateOp) and op.gate.is_two_qubit
                else op
                for op in program.operations
            ],
        )
        with pytest.raises(VerificationError, match="physical legality"):
            verify_program(program)

    def test_compiler_inserted_gates_are_transparent(self, two_modules_cap8):
        """A program with inserted SWAPs (circuit_index == -1) verifies."""
        circuit = QuantumCircuit(10, name="cross")
        # Force cross-module traffic (modules hold 8+2 at cap 8).
        for q in range(9):
            circuit.cx(q, 9)
        program = MussTiCompiler().compile(circuit, two_modules_cap8)
        verify_program(program)


class TestCircuitIndexClaims:
    """A gate op's ``circuit_index`` names the circuit slot it runs; a
    wrong or stale one is a verification failure with a literal text."""

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (
                {"circuit_index": 7},
                "circuit gate #7 does not exist (the circuit has 2 gates)",
            ),
            ({"circuit_index": 0}, "circuit gate #0 executed twice"),
            (
                {"gate": Gate("cz", (0, 1))},
                "circuit gate #1 mismatch: program has cz [0, 1], circuit has cx [0, 1]",
            ),
            ({"circuit_index": -1}, "1 circuit gates never executed (next ready: [1])"),
        ],
        ids=["past-the-circuit", "another-gate", "substituted-gate", "inserted"],
    )
    def test_claim_rejected(self, edit, message):
        program = compiled_bell(resolve_machine("grid:2x2:4", 2))
        program = rebuilt(
            program,
            [
                replace(op, **edit)
                if isinstance(op, GateOp) and op.gate.name == "cx"
                else op
                for op in program.operations
            ],
        )
        with pytest.raises(VerificationError) as raised:
            verify_program(program)
        assert str(raised.value) == message
        assert not is_valid(program)


ZONE_99 = "zone 99 does not exist (the machine has 4 zones)"
QUBIT_99 = "qubit 99 does not exist (the circuit has 4 qubits)"


class TestRejectsIdsTheMachineLacks:
    """Every op kind naming a zone or qubit id out of range is a
    verification failure with its op index, not a lookup crash."""

    @pytest.mark.parametrize(
        ("op", "message"),
        [
            (GateOp(Gate("h", (0,)), 99), ZONE_99),
            (GateOp(Gate("h", (99,)), 0), QUBIT_99),
            (FiberGateOp(Gate("cx", (0, 1)), 0, 99), ZONE_99),
            (SplitOp(0, 99), ZONE_99),
            (SplitOp(99, 0), QUBIT_99),
            (MoveOp(0, 0, 99), ZONE_99),
            (MergeOp(0, 99), ZONE_99),
            (MergeOp(0, -1), "zone -1 does not exist (the machine has 4 zones)"),
            (ChainSwapOp(99, 0), ZONE_99),
            (ChainSwapOp(-1, 0), "zone -1 does not exist (the machine has 4 zones)"),
            (SwapGateOp(0, 2, 0, 99), ZONE_99),
            (SwapGateOp(0, 99, 0, 1), QUBIT_99),
            (GateOp(Gate("ccx", (0, 1, 2)), 0), "gate ccx [0, 1, 2] acts on 3 qubits"),
        ],
        ids=[
            "gate-zone",
            "gate-qubit",
            "fiber-zone",
            "split-zone",
            "split-qubit",
            "move-zone",
            "merge-zone",
            "merge-negative-zone",
            "chain-swap-zone",
            "chain-swap-negative-zone",
            "swap-zone",
            "swap-qubit",
            "wide-gate",
        ],
    )
    def test_op_rejected(self, tiny_grid, op, message):
        circuit = QuantumCircuit(4, name="ids")
        program = Program(tiny_grid, circuit, {0: (0, 1), 1: (2, 3)}, [op])
        with pytest.raises(VerificationError) as raised:
            verify_program(program)
        assert str(raised.value) == f"physical legality: op #0: {message}"
        assert not is_valid(program)

    def test_earlier_illegal_op_reports_first(self, tiny_grid):
        circuit = QuantumCircuit(4, name="ids")
        ops = [MoveOp(0, 0, 1), ChainSwapOp(99, 0)]
        program = Program(tiny_grid, circuit, {0: (0, 1), 1: (2, 3)}, ops)
        with pytest.raises(VerificationError, match="op #0: qubit 0 is not detached"):
            verify_program(program)

    def test_placement_zone_rejected(self, tiny_grid):
        circuit = QuantumCircuit(2, name="ids")
        program = Program(tiny_grid, circuit, {0: (0,), 99: (1,)}, [])
        with pytest.raises(VerificationError, match="names zone 99, which does not"):
            verify_program(program)
        assert not is_valid(program)

    def test_placement_qubit_rejected(self, tiny_grid):
        circuit = QuantumCircuit(2, name="ids")
        program = Program(tiny_grid, circuit, {0: (0, 1, 5)}, [])
        with pytest.raises(VerificationError, match="names qubit 5, which does not"):
            verify_program(program)
