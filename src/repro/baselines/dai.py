"""Baseline [13]: Dai et al., 'Advanced Shuttle Strategies for Parallel QCCD
Architectures' (IEEE TQE 2024).

An improved grid compiler whose defining idea is *cost-driven shuttle
selection with a short look-ahead*: instead of always moving one operand into
the other's trap, every target trap — either operand's, or an intermediate
one where both meet — is scored by

    hops(movers -> target) + eviction pressure at the target

and the cheapest target wins.  Ties break on affinity (the movers' upcoming
partners already resident in the target), then on fewer hops, then on zone
order, so the look-ahead never pays extra hops for speculative placement.

The look-ahead window that actually runs is not "the next ``lookahead``
gates": ``now`` counts the calls to :meth:`DaiCompiler.resolve`, not the
circuit's gate index.  One-qubit gates and co-located pairs never call
``resolve``, so ``now`` lags the gate index and the window — the first
``max(1, lookahead)`` of a mover's two-qubit gates with index above ``now``
— mostly holds gates that have already run.  The paper's rule keys the
window on the gate index; fixing it changes Dai's schedules (ROADMAP item
1), so it is kept as is here.
"""

from __future__ import annotations

from ..circuits import Gate, QuantumCircuit
from ..core.state import MachineState
from ..hardware import Machine
from ..sim import Program
from .common import GridCompilerBase, make_room_simple


class DaiCompiler(GridCompilerBase):
    """Cost-and-look-ahead shuttle strategy on a QCCD grid."""

    name = "QCCD-Dai"

    def __init__(self, lookahead: int = 12) -> None:
        if lookahead < 0:
            raise ValueError(f"lookahead must be >= 0, got {lookahead}")
        self.lookahead = lookahead
        self._upcoming: dict[int, list[tuple[int, int]]] = {}
        self._next: dict[int, int] = {}
        self._cursor = 0

    # The look-ahead needs the gate sequence, so compile() records it before
    # delegating to the shared FCFS loop.
    def compile(
        self,
        circuit: QuantumCircuit,
        machine: Machine,
        initial_placement: dict[int, tuple[int, ...]] | None = None,
    ) -> Program:
        self._upcoming = {}
        for index, gate in enumerate(circuit):
            if gate.is_two_qubit:
                qubit_a, qubit_b = gate.qubits
                self._upcoming.setdefault(qubit_a, []).append((index, qubit_b))
                self._upcoming.setdefault(qubit_b, []).append((index, qubit_a))
        self._next = {}
        self._cursor = 0
        return super().compile(circuit, machine, initial_placement)

    def _affinity(self, state: MachineState, qubit: int, zone_id: int, now: int) -> int:
        """Upcoming partners of ``qubit`` already resident in ``zone_id``.

        The window is the first ``max(1, lookahead)`` entries of the
        qubit's gate list with index above ``now``.  ``now`` never
        decreases, so a per-qubit cursor skips the past in amortised O(1).
        """
        upcoming = self._upcoming.get(qubit, ())
        start = self._next.get(qubit, 0)
        while start < len(upcoming) and upcoming[start][0] <= now:
            start += 1
        self._next[qubit] = start
        location = state.location
        return sum(
            1
            for _, partner in upcoming[start : start + max(1, self.lookahead)]
            if location[partner] == zone_id
        )

    def resolve(self, state: MachineState, gate: Gate) -> None:
        qubit_a, qubit_b = gate.qubits
        zone_a = state.zone_of(qubit_a)
        zone_b = state.zone_of(qubit_b)
        now = self._cursor
        self._cursor += 1

        # Shuttle work decides; collect every target that ties on it.  A
        # distinct reachable zone is at least one hop away, so a missing
        # table entry falls through to ``state.hops``, which raises the
        # machine's error for the unreachable pair.
        distances = state.maps.distances
        capacity = state.maps.zone_capacity
        chains = state.chains
        best_work = None
        tied: list[tuple[int, int]] = []
        for zone_id in range(len(capacity)):
            hops = moving = 0
            if zone_a != zone_id:
                hops += distances.get((zone_a, zone_id)) or state.hops(zone_a, zone_id)
                moving += 1
            if zone_b != zone_id:
                hops += distances.get((zone_b, zone_id)) or state.hops(zone_b, zone_id)
                moving += 1
            work = hops + max(0, moving - capacity[zone_id] + len(chains[zone_id]))
            if best_work is None or work < best_work:
                best_work = work
                tied = [(zone_id, hops)]
            elif work == best_work:
                tied.append((zone_id, hops))

        # Affinity breaks the tie, then fewer hops, then zone order (min
        # keeps the first of equal keys).
        operands = ((qubit_a, zone_a), (qubit_b, zone_b))

        def tie_break(entry: tuple[int, int]) -> tuple[int, int]:
            zone_id, hops = entry
            affinity = sum(
                self._affinity(state, q, zone_id, now)
                for q, current in operands
                if current != zone_id
            )
            return -affinity, hops

        target_zone = tied[0][0] if len(tied) == 1 else min(tied, key=tie_break)[0]
        movers = [q for q, current in operands if current != target_zone]
        make_room_simple(state, target_zone, len(movers), frozenset(gate.qubits))
        for qubit in movers:
            state.shuttle(qubit, target_zone)
