"""Shared scaffolding for the baseline QCCD-grid compilers.

All three baselines (Murali et al. [55], Dai et al. [13], the MQT-like
policy [70]) process the dependency DAG strictly first-come-first-served —
they do *not* reorder the frontier to prioritise already-executable gates,
which is one of MUSS-TI's contributions — and they differ only in how they
resolve a gate whose operands are in different traps
(:meth:`GridCompilerBase.resolve`).  Every DAG edge runs from a lower gate
index to a higher one, so the lowest ready gate is always the next one in
program order: the FCFS loop is a plain walk over the circuit.

They reuse :class:`~repro.core.state.MachineState` for chain bookkeeping and
packed op emission, and return a :class:`~repro.sim.program.Program`,
so their schedules replay and price on the same packed path as MUSS-TI's:
the comparison differs only in policy, exactly as in the paper.
"""

from __future__ import annotations

import time

from ..circuits import Gate, QuantumCircuit, validate_native
from ..core.state import MachineState, RoutingError
from ..hardware import Machine
from ..sim.oparray import PackedOps
from ..sim.program import Program


def block_placement(circuit: QuantumCircuit, machine: Machine) -> dict[int, tuple[int, ...]]:
    """Sequential trap-filling placement used by the grid baselines."""
    placement: dict[int, list[int]] = {}
    next_qubit = 0
    total = circuit.num_qubits
    for zone in machine.zones:
        if next_qubit >= total:
            break
        take = min(zone.capacity, total - next_qubit)
        placement[zone.zone_id] = list(range(next_qubit, next_qubit + take))
        next_qubit += take
    if next_qubit < total:
        raise RoutingError(
            f"machine too small for {total} qubits "
            f"(capacity {machine.total_capacity})"
        )
    return {zone_id: tuple(chain) for zone_id, chain in placement.items()}


class GridCompilerBase:
    """FCFS scheduling loop shared by the grid baselines."""

    name = "grid-baseline"

    def compile(
        self,
        circuit: QuantumCircuit,
        machine: Machine,
        initial_placement: dict[int, tuple[int, ...]] | None = None,
    ) -> Program:
        started = time.perf_counter()
        validate_native(circuit)
        if initial_placement is None:
            initial_placement = self.placement(circuit, machine)
        state = MachineState(machine, initial_placement)
        for node, gate in enumerate(circuit.gates):
            if gate.is_one_qubit:
                state.emit_one_qubit_gate(gate, node)
            else:
                if self.needs_resolution(state, gate):
                    self.resolve(state, gate)
                state.emit_local_gate(gate, node)
        elapsed = time.perf_counter() - started
        return Program(
            machine=machine,
            circuit=circuit,
            initial_placement=dict(initial_placement),
            operations=PackedOps.for_circuit(state.records, circuit),
            compiler_name=self.name,
            compile_time_s=elapsed,
            metadata={key: float(value) for key, value in state.stats.items()},
            final_placement=state.final_placement(),
        )

    # -- extension points -------------------------------------------------

    def placement(
        self, circuit: QuantumCircuit, machine: Machine
    ) -> dict[int, tuple[int, ...]]:
        return block_placement(circuit, machine)

    def needs_resolution(self, state: MachineState, gate: Gate) -> bool:
        """Whether routing work is required before ``gate`` can fire."""
        return not state.co_located(*gate.qubits)

    def resolve(self, state: MachineState, gate: Gate) -> None:
        """Bring the two operands of ``gate`` into one trap."""
        raise NotImplementedError


def make_room_simple(
    state: MachineState, zone_id: int, needed: int, protected: frozenset[int]
) -> None:
    """Baseline conflict handling: push the chain-head resident to the
    nearest trap with space (no LRU, no level awareness)."""
    machine = state.machine
    guard = 0
    while state.free_space(zone_id) < needed:
        guard += 1
        if guard > machine.zone(zone_id).capacity + 1:
            raise RoutingError(f"eviction from zone {zone_id} does not converge")
        victim = state.fifo_victim(zone_id, protected)
        targets = [
            zone
            for zone in machine.zones
            if zone.zone_id != zone_id and state.free_space(zone.zone_id) > 0
        ]
        if not targets:
            raise RoutingError(f"no free trap to absorb eviction from {zone_id}")
        target = min(
            targets,
            key=lambda zone: (
                state.hops(zone_id, zone.zone_id),
                -state.free_space(zone.zone_id),
            ),
        )
        state.shuttle(victim, target.zone_id)
        state.stats["evictions"] += 1
