"""Helpers for compile-level scheduling scenarios.

Each scenario compiles a small circuit through ``MussTiCompiler`` from an
explicit placement, checks the program with ``verify_program`` and pins it
byte-for-byte against the frozen seed scheduler.

Zone ids of the EML machines below: module 0 holds optical 0 (level 2),
operation 1 (level 1) and storage 2, 3 (level 0); module 1 holds optical 4,
operation 5 and storage 6, 7.  The dual-optical layout puts module 0's
optical zones at 0 and 1, its storage at 3 and 4, and module 1's first
optical zone at 5.
"""

from __future__ import annotations

from dataclasses import replace

from differential.reference import reference_compile

from repro.circuits import QuantumCircuit
from repro.core import MussTiCompiler, MussTiConfig
from repro.hardware import EMLQCCDMachine, ModuleLayout
from repro.sim import FiberGateOp, GateOp, MergeOp, SplitOp, SwapGateOp, verify_program


def one_module():
    return EMLQCCDMachine(num_modules=1, trap_capacity=4)


def two_modules():
    return EMLQCCDMachine(num_modules=2, trap_capacity=4)


def two_modules_cap8():
    return EMLQCCDMachine(num_modules=2, trap_capacity=8)


def dual_optical():
    return EMLQCCDMachine(
        num_modules=2, trap_capacity=4, layout=ModuleLayout(num_optical=2)
    )


def cx_circuit(num_qubits, *pairs):
    circuit = QuantumCircuit(num_qubits)
    for qubit_a, qubit_b in pairs:
        circuit.cx(qubit_a, qubit_b)
    return circuit


def star(num_qubits, partners):
    """Qubit 0 interacts with each partner in turn (Fig 5's hub)."""
    return cx_circuit(num_qubits, *((0, partner) for partner in partners))


def compile_pinned(machine, circuit, placement, config):
    """Compile on a fresh ``machine()`` and pin the result to the reference."""
    program = MussTiCompiler(config).compile(
        circuit, machine(), initial_placement=placement
    )
    verify_program(program)
    reference = reference_compile(
        circuit, machine(), config, initial_placement=placement
    )
    assert program.operations == reference.operations
    assert program.final_placement == reference.final_placement
    assert program.metadata == reference.metadata
    return program


def gate_zone(program, index):
    """Zone (or fiber zone pair) where circuit gate ``index`` fired."""
    for op in program.operations:
        if isinstance(op, GateOp) and op.circuit_index == index:
            return op.zone
        if isinstance(op, FiberGateOp) and op.circuit_index == index:
            return (op.zone_a, op.zone_b)
    raise AssertionError(f"gate {index} never fired")


def merges(program):
    return [(op.qubit, op.zone) for op in program.operations if isinstance(op, MergeOp)]


def splits(program, qubit):
    return [op for op in program.operations if isinstance(op, SplitOp) and op.qubit == qubit]


def evicted_before(program, index):
    """Qubits shuttled out of the way before gate ``index`` fired."""
    operands = set(program.circuit[index].qubits)
    evicted = []
    for op in program.operations:
        if isinstance(op, (GateOp, FiberGateOp)) and op.circuit_index == index:
            return evicted
        if isinstance(op, MergeOp) and op.qubit not in operands:
            evicted.append(op.qubit)
    raise AssertionError(f"gate {index} never fired")


def swaps(program):
    return [op for op in program.operations if isinstance(op, SwapGateOp)]


def swap_pairs(program):
    return [(op.qubit_a, op.qubit_b) for op in swaps(program)]


TRIVIAL = MussTiConfig.trivial()
NO_SLACK = replace(TRIVIAL, optical_slack=0)
SWAP_INSERT = MussTiConfig.swap_insert_only()
SPLIT_8 = {0: tuple(range(8)), 4: tuple(range(8, 16))}

# Shared inputs of scenarios checked from more than one angle.
STORAGE_PAIR = (one_module, cx_circuit(2, (0, 1)), {2: (0, 1)}, TRIVIAL)
OPERAND_WITH_ROOM = (one_module, cx_circuit(2, (0, 1)), {0: (0,), 2: (1,)}, TRIVIAL)
FULL_GATE_ZONES = (
    one_module, cx_circuit(9, (0, 1)), {0: (0, 2, 3, 4), 1: (5, 6, 7, 8), 2: (1,)},
    TRIVIAL,
)
FIBER_FROM_STORAGE = (two_modules, cx_circuit(2, (0, 1)), {2: (0,), 6: (1,)}, TRIVIAL)
WINDOW_QUBIT_IN_FULL_ZONE = (
    two_modules, cx_circuit(6, (0, 1), (4, 5), (2, 5)),
    {0: (0, 1, 2, 3), 2: (4,), 4: (5,)}, NO_SLACK,
)
STAR_HUB = (two_modules_cap8, star(16, range(8, 14)), SPLIT_8, SWAP_INSERT)
