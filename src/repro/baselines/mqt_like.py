"""Baseline [70]: MQT-style shuttling compiler (Schoenberger et al., TCAD
2024, 'Shuttling for scalable trapped-ion quantum computers').

The MQT flow targets architectures with a *dedicated processing region*:
every two-qubit gate executes in the processing zone, so operands shuttle in
from their home traps, and ions are rotated back out as the zone fills.  On
a uniform grid we designate trap 0 as the processing zone and keep each
ion's home trap fixed (their model keeps a static home assignment for
deterministic schedules).

This policy is dramatically shuttle-hungrier than occupancy-aware greedy
compilation — matching its role in the paper's Table 2, where it posts the
highest shuttle counts on every application (e.g. 187 vs 73 on Adder_32).
"""

from __future__ import annotations

from ..circuits import Gate, QuantumCircuit
from ..core.state import MachineState, RoutingError
from ..hardware import Machine
from ..sim import Program
from .common import GridCompilerBase


class MqtLikeCompiler(GridCompilerBase):
    """Dedicated-processing-zone compiler (shuttle-heavy reference point)."""

    name = "QCCD-MQT"

    def __init__(self, processing_zone: int = 0) -> None:
        self.processing_zone = processing_zone
        self._home: dict[int, int] = {}

    def compile(
        self,
        circuit: QuantumCircuit,
        machine: Machine,
        initial_placement: dict[int, tuple[int, ...]] | None = None,
    ) -> Program:
        if self.processing_zone >= machine.num_zones:
            raise RoutingError(
                f"processing zone {self.processing_zone} does not exist on "
                f"{machine.num_zones}-zone machine"
            )
        self._home = {}
        return super().compile(circuit, machine, initial_placement)

    def placement(
        self, circuit: QuantumCircuit, machine: Machine
    ) -> dict[int, tuple[int, ...]]:
        """Home traps exclude the processing zone, which starts empty."""
        placement: dict[int, list[int]] = {}
        next_qubit = 0
        total = circuit.num_qubits
        for zone in machine.zones:
            if zone.zone_id == self.processing_zone or next_qubit >= total:
                continue
            take = min(zone.capacity, total - next_qubit)
            placement[zone.zone_id] = list(range(next_qubit, next_qubit + take))
            next_qubit += take
        if next_qubit < total:
            raise RoutingError(
                f"machine too small for {total} qubits outside the "
                "processing zone"
            )
        for zone_id, chain in placement.items():
            for qubit in chain:
                self._home[qubit] = zone_id
        return {zone_id: tuple(chain) for zone_id, chain in placement.items()}

    def _drain_for(self, state: MachineState, needed: int, protected: frozenset[int]) -> None:
        """Send idle ions home until the processing zone has ``needed`` room."""
        zone_id = self.processing_zone
        guard = 0
        while state.free_space(zone_id) < needed:
            guard += 1
            if guard > state.machine.zone(zone_id).capacity + 1:
                raise RoutingError("processing zone drain does not converge")
            victim = state.fifo_victim(zone_id, protected)
            home = self._home[victim]
            if state.free_space(home) < 1:
                # Home filled up meanwhile; park at the nearest open trap.
                open_traps = [
                    zone
                    for zone in state.machine.zones
                    if zone.zone_id != zone_id
                    and state.free_space(zone.zone_id) > 0
                ]
                if not open_traps:
                    raise RoutingError("no trap can absorb a drained ion")
                home = min(
                    open_traps,
                    key=lambda z: state.hops(zone_id, z.zone_id),
                ).zone_id
                self._home[victim] = home
            state.shuttle(victim, home)
            state.stats["evictions"] += 1

    def needs_resolution(self, state: MachineState, gate: Gate) -> bool:
        """Every two-qubit gate must run in the processing zone, even when
        its operands already share a home trap — the inflating constraint of
        the dedicated-zone model."""
        zone_id = self.processing_zone
        return any(state.zone_of(q) != zone_id for q in gate.qubits)

    def resolve(self, state: MachineState, gate: Gate) -> None:
        protected = frozenset(gate.qubits)
        zone_id = self.processing_zone
        movers = [q for q in gate.qubits if state.zone_of(q) != zone_id]
        self._drain_for(state, len(movers), protected)
        for qubit in movers:
            state.shuttle(qubit, zone_id)
