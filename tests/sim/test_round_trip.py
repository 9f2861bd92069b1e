"""A program's op dataclasses are an exact decode of its packed records.

``Program(..., ops).operations == tuple(ops)`` holds for every op list,
legal or not, and a program built from packed records holds exactly
those records as its one op stream.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.circuits import Gate, QuantumCircuit
from repro.faults import build_fault_profile
from repro.hardware import default_machine_registry, resolve_machine
from repro.multiprog import BatchJob, pack_batch
from repro.pipeline import compile as compile_circuit
from repro.sim import FiberGateOp, GateOp, MergeOp, Program, SplitOp, SwapGateOp
from repro.workloads import get_benchmark


def compiled(
    workload: str, machine_spec: str, compiler: str = "muss-ti", fault_profile=None
) -> Program:
    circuit = get_benchmark(workload)
    machine = resolve_machine(machine_spec, circuit.num_qubits)
    if fault_profile is not None:
        faults = build_fault_profile(fault_profile, machine)
        architecture = replace(machine.architecture(), faults=faults)
        machine = default_machine_registry().from_architecture(architecture)
    return compile_circuit(circuit, machine, compiler=compiler).program


COMPILED = {
    "muss-ti": lambda: compiled("QFT_n16", "eml?capacity=4&modules=4"),
    "murali": lambda: compiled("QFT_n16", "grid:2x2:8", "murali"),
    "dai": lambda: compiled("QFT_n16", "grid:2x2:8", "dai"),
    "mqt": lambda: compiled("QFT_n16", "grid:2x2:8", "mqt"),
    "pack-batch": lambda: pack_batch(
        [BatchJob("g", "GHZ_n16"), BatchJob("q", "QFT_n16")], "eml:16:2"
    ).program,
    "faulted-eml": lambda: compiled(
        "QFT_n32", "eml?capacity=4&modules=4", fault_profile="mixed-1"
    ),
}


def rebuilt(program: Program, operations) -> Program:
    return Program(
        program.machine, program.circuit, program.initial_placement, operations
    )


@pytest.mark.parametrize("name", sorted(COMPILED))
def test_compiled_program_round_trips(name: str) -> None:
    program = COMPILED[name]()
    packed = program.packed_view
    assert rebuilt(program, packed).packed_view is packed
    ops = program.operations
    again = rebuilt(program, ops)
    assert again.operations == ops
    # Encoding is the inverse of decoding: the same records come back.
    assert again.packed_view.records == packed.records
    assert again.shuttle_count == program.shuttle_count


class _Teleport:
    """Not an op type the records know."""


def _on_cx(edit):
    """A corruption that rewrites the bell circuit's CX op with ``edit``."""

    def corrupt(ops):
        return [
            edit(op) if isinstance(op, GateOp) and op.gate.name == "cx" else op
            for op in ops
        ]

    return corrupt


CORRUPT = {
    "bad-zone": lambda ops: [*ops, GateOp(Gate("h", (0,)), 99)],
    "bad-qubit": lambda ops: [*ops, SplitOp(99, 0)],
    "negative-zone": lambda ops: [*ops, MergeOp(0, -1)],
    "unknown-op-type": lambda ops: [*ops, _Teleport()],
    "three-qubit-gate": lambda ops: [*ops, GateOp(Gate("ccx", (0, 1, 2)), 0)],
    "one-qubit-fiber-gate": lambda ops: [*ops, FiberGateOp(Gate("h", (0,)), 0, 1)],
    "wrong-gate": _on_cx(lambda op: replace(op, gate=Gate("cz", op.gate.qubits))),
    "claims-other-slot": _on_cx(lambda op: replace(op, circuit_index=0)),
    "index-past-circuit": _on_cx(lambda op: replace(op, circuit_index=7)),
    "negative-index": _on_cx(lambda op: replace(op, circuit_index=-5)),
    "duplicated-gate": lambda ops: [*ops, ops[-1]],
    "head-merge": lambda ops: [
        *ops, SplitOp(0, 0), MergeOp(0, 0, side="head"),
    ],
    "bad-merge-side": lambda ops: [*ops, SplitOp(0, 0), MergeOp(0, 0, side="middle")],
    "inserted-gate": lambda ops: [GateOp(Gate("h", (1,)), 0), *ops],
    "inserted-swap": lambda ops: [SwapGateOp(0, 1, 0, 0), *ops],
}


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_corrupt_op_list_round_trips(name: str, tiny_grid) -> None:
    circuit = QuantumCircuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    ops = CORRUPT[name](
        [GateOp(circuit[0], 0, 0), GateOp(circuit[1], 0, 1)]
    )
    program = Program(tiny_grid, circuit, {0: (0, 1)}, ops)
    assert program.operations == tuple(ops)
    packed = program.packed_view
    assert rebuilt(program, packed).operations == tuple(ops)
