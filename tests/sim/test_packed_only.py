"""After compile, no path builds op objects: everything reads the records.

:meth:`PackedOps.materialize` is patched to raise, then verification,
execution, the CLI, the analysis runner and fault recovery's commit scan
run on compiled programs.
"""

from __future__ import annotations

import pytest

from repro.analysis.runs import run_case
from repro.circuits import Gate
from repro.cli import main
from repro.core import MussTiCompiler
from repro.faults.dynamic import committed_gate_indices
from repro.hardware import resolve_machine
from repro.physics import PhysicalParams
from repro.pipeline import compile as compile_circuit
from repro.sim import FiberGateOp, GateOp, Program, execute, replay, verify_program
from repro.sim.oparray import PackedOps
from repro.workloads import get_benchmark

EML4 = "eml?capacity=4&modules=4"


@pytest.fixture
def program():
    circuit = get_benchmark("QFT_n16")
    machine = resolve_machine(EML4, circuit.num_qubits)
    return compile_circuit(circuit, machine, verify=False).program


def _refuse(monkeypatch) -> None:
    def materialize(self, circuit):
        raise AssertionError("op objects were decoded")

    monkeypatch.setattr(PackedOps, "materialize", materialize)


def test_verify_then_execute_reads_records(program, monkeypatch) -> None:
    packed = program.packed_view
    _refuse(monkeypatch)
    verify_program(program)
    execute(program)
    assert program.packed_view is packed


def test_cli_compile_verifies_from_records(monkeypatch, capsys) -> None:
    _refuse(monkeypatch)
    assert main(["compile", "QFT_n16", "--machine", EML4]) == 0
    assert "QFT_n16 via MUSS-TI" in capsys.readouterr().out


def test_analysis_run_verifies_from_records(monkeypatch) -> None:
    circuit = get_benchmark("QFT_n16")
    machine = resolve_machine(EML4, circuit.num_qubits)
    _refuse(monkeypatch)
    result = run_case(MussTiCompiler(), circuit, machine, verify=True)
    assert result.shuttle_count > 0


@pytest.mark.parametrize("inserted", [False, True], ids=["compiled", "inserted-gate"])
def test_committed_gate_indices_reads_records(program, inserted, monkeypatch) -> None:
    if inserted:  # a compiler-inserted gate (circuit_index -1) commits nothing
        lead = GateOp(Gate("h", (0,)), program.initial_zone_of(0))
        program = Program(
            program.machine,
            program.circuit,
            program.initial_placement,
            [lead, *program.operations],
        )
    params = PhysicalParams()
    ledger = replay(program)
    at_us = 0.5 * ledger.reprice(params).makespan_us
    ops = program.operations
    expected = {
        ops[event.index].circuit_index
        for event in ledger.events(params)
        if event.start_us + event.duration_us <= at_us
        and isinstance(ops[event.index], (GateOp, FiberGateOp))
        and ops[event.index].circuit_index >= 0
    }
    packed = program.packed_view
    _refuse(monkeypatch)
    assert committed_gate_indices(ledger, params, at_us) == expected
    assert 0 < len(expected) < len(program.circuit)
    assert program.packed_view is packed
