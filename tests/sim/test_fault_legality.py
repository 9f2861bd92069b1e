"""The replay's fault-model legality checks, one hand-built stream per site.

A machine's fault model (:mod:`repro.faults`) kills zones, severs shuttle
edges and fails optical links; the replay must reject any op that uses a
faulted resource, with the same text and op index whichever form the
program arrives in (op dataclasses or packed records).

Three sites are guarded by the replay's invariants rather than by a check
of their own: no qubit can ever sit in, or hover over, a dead zone (the
initial placement and every move are checked), so a merge, gate or swap
naming a dead zone fails on its operands' whereabouts first.  Those
streams are pinned here too.
"""

from __future__ import annotations

import math

import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.dag import dag_arrays
from repro.faults import FaultModel
from repro.hardware import EMLQCCDMachine, QCCDGridMachine
from repro.sim import ExecutionError, Program, execute, fidelity_breakdown, replay
from repro.sim.oparray import (
    K_FIBER,
    K_GATE,
    K_MERGE,
    K_MOVE,
    K_SPLIT,
    K_SWAP,
    PackedOps,
)
from repro.sim.program import ArrayProgram


def _grid(**faults) -> QCCDGridMachine:
    """2x2 grid, capacity 4: zones 0-1, 0-2, 1-3 and 2-3 are adjacent."""
    machine = QCCDGridMachine(2, 2, 4)
    machine.attach_fault_model(FaultModel(**faults))
    return machine


def _eml(**faults) -> EMLQCCDMachine:
    """Two EML modules: optical 0/4, operation 1/5, storage 2,3/6,7."""
    machine = EMLQCCDMachine(num_modules=2, trap_capacity=4)
    machine.attach_fault_model(FaultModel(**faults))
    return machine


def _shuttle(*zones: int) -> list[tuple[int, ...]]:
    """Qubit 0 split from ``zones[0]``, moved along ``zones``, merged."""
    records = [(K_SPLIT, 0, zones[0])]
    records += [(K_MOVE, 0, a, b) for a, b in zip(zones, zones[1:])]
    records.append((K_MERGE, 0, zones[-1]))
    return records


# name -> (machine factory, placement, records, op index, error text).
# Circuit nodes: 0 is h(0), 1 is cx(0, 1).
CASES = {
    "dead_initial_placement": (
        lambda: _grid(dead_zones=(1, 3)),
        {3: (1,), 1: (2,), 0: (0,)},
        [],
        None,
        "initial placement puts qubit(s) [2] in zone 1, which the fault "
        "model declares dead",
    ),
    "move_into_dead_zone": (
        lambda: _grid(dead_zones=(1,)),
        {0: (0, 1)},
        _shuttle(0, 1),
        1,
        "op #1: zone 1 is dead (fault model); qubit 0 cannot shuttle into it",
    ),
    "move_across_severed_edge": (
        lambda: _grid(severed_edges=((0, 1),)),
        {0: (0, 1)},
        _shuttle(0, 1),
        1,
        "op #1: shuttle edge 0-1 is severed (fault model)",
    ),
    "move_dead_before_severed": (
        lambda: _grid(dead_zones=(1,), severed_edges=((0, 1),)),
        {0: (0, 1)},
        _shuttle(0, 1),
        1,
        "op #1: zone 1 is dead (fault model); qubit 0 cannot shuttle into it",
    ),
    "move_adjacency_before_dead": (
        lambda: _grid(dead_zones=(3,)),
        {0: (0, 1)},
        _shuttle(0, 3),
        1,
        "op #1: zones 0 and 3 are not shuttle-adjacent",
    ),
    "merge_into_dead_zone": (
        lambda: _grid(dead_zones=(1,)),
        {0: (0, 1)},
        [(K_SPLIT, 0, 0), (K_MOVE, 0, 0, 2), (K_MERGE, 0, 1)],
        2,
        "op #2: qubit 0 is over zone 2, not 1",
    ),
    "gate_in_dead_zone": (
        lambda: _grid(dead_zones=(1,)),
        {0: (0, 1)},
        [(K_GATE, 1, 1)],
        0,
        "op #0: gate cx [0, 1] expects qubit 0 in zone 1, found 0",
    ),
    "fiber_dead_optical_zone_b": (
        lambda: _eml(dead_zones=(4,)),
        {0: (0,), 5: (1,)},
        [(K_FIBER, 1, 0, 4)],
        0,
        "op #0: optical zone 4 is dead (fault model)",
    ),
    "fiber_dead_optical_zone_a": (
        lambda: _eml(dead_zones=(0,)),
        {1: (0,), 4: (1,)},
        [(K_FIBER, 1, 0, 4)],
        0,
        "op #0: optical zone 0 is dead (fault model)",
    ),
    "fiber_failed_link": (
        lambda: _eml(failed_links=((0, 1),)),
        {0: (0,), 4: (1,)},
        [(K_FIBER, 1, 0, 4)],
        0,
        "op #0: optical link 0-1 is failed (fault model)",
    ),
    "remote_swap_failed_link": (
        lambda: _eml(failed_links=((0, 1),)),
        {0: (0,), 4: (1,)},
        [(K_SWAP, 0, 1, 0, 4)],
        0,
        "op #0: optical link 0-1 is failed (fault model)",
    ),
    "remote_swap_dead_zone": (
        lambda: _eml(dead_zones=(4,)),
        {0: (0,), 5: (1,)},
        [(K_SWAP, 0, 1, 0, 4)],
        0,
        "op #0: swap expects qubit 1 in zone 4, found 5",
    ),
}


def _circuit(placement) -> QuantumCircuit:
    num_qubits = sum(len(chain) for chain in placement.values())
    circuit = QuantumCircuit(num_qubits, name="faulted")
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


def _program(machine, placement, records, form: str):
    """The stream as packed records or as op dataclasses."""
    circuit = _circuit(placement)
    dag = dag_arrays(circuit)
    packed = PackedOps(records, dag.qubit_a, dag.qubit_b)
    if form == "packed":
        return ArrayProgram(machine, circuit, placement, packed)
    return Program(
        machine=machine,
        circuit=circuit,
        initial_placement=placement,
        operations=packed.materialize(circuit),
    )


@pytest.mark.parametrize("form", ["packed", "objects"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_site_rejects(case: str, form: str) -> None:
    factory, placement, records, op_index, text = CASES[case]
    program = _program(factory(), placement, records, form)
    with pytest.raises(ExecutionError) as raised:
        replay(program)
    assert str(raised.value) == text
    assert raised.value.op_index == op_index


@pytest.mark.parametrize("form", ["packed", "objects"])
def test_detour_around_faults_is_legal(form: str) -> None:
    """The checks reject only the faulted resources: a route around a
    severed edge replays."""
    machine = _grid(severed_edges=((0, 1),))
    records = _shuttle(0, 2, 3, 1) + [(K_GATE, 1, 1)]
    program = _program(machine, {0: (0,), 1: (1,)}, records, form)
    ledger = replay(program)
    assert ledger.move_count == 3
    assert ledger.two_qubit_gate_count == 1


@pytest.mark.parametrize("form", ["packed", "objects"])
def test_degraded_entangler_charges_fiber_ops(form: str) -> None:
    """A fiber gate and a remote SWAP touching a degraded module pay
    ``log(1 - eps)`` on top of the fiber gate's charge, bit for bit."""
    machine = _eml(entangler_eps=((1, 0.02),))
    records = [(K_FIBER, 1, 0, 4), (K_SWAP, 0, 1, 0, 4)]
    program = _program(machine, {0: (0,), 4: (1,)}, records, form)
    report = execute(program)
    charge = math.log(0.99) + (0.0 + math.log1p(-0.02))
    log_total = 0.0
    for _ in range(4):  # the fiber gate, then the SWAP's three fiber MS
        log_total += charge
    assert report.log10_fidelity == log_total * math.log10(math.e)
    breakdown = fidelity_breakdown(program)
    assert breakdown["fiber_gates"] == log_total * math.log10(math.e)
