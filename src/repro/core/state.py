"""The grid baselines' compile-time machine state and op emission.

:class:`MachineState` is the mutable scheduling state the grid baselines
(:mod:`repro.baselines`) thread through their loops: it mirrors what the
executor will later replay (per-zone ion chains, logical-qubit
locations).  MUSS-TI does not use it: the array core
(:mod:`repro.core.arraycore`) keeps its own flat state and hands back a
:class:`~repro.core.arraycore.ScheduleResult`.

The state works over any :class:`~repro.hardware.Machine` — typically one
resolved from a registry spec string (``"eml:16:2"``, ``"grid:2x2:12"``,
``"ring:8:16"``...) or lowered from a declarative
:class:`~repro.hardware.ArchitectureSpec`.  On construction it grabs the
machine's precomputed :class:`~repro.hardware.TopologyMaps` (cached per
canonical machine spec), so capacity and path queries are array lookups,
not scans or searches.

All physical-op emission funnels through :meth:`shuttle`, which handles the
chain-edge discipline: an interior ion is first bubbled to the nearest chain
edge with physical chain swaps (Fig 4's "SWAP insert" of the qubit chain),
then split, moved hop by hop, and merged at the destination tail.  Ops are
emitted as packed :mod:`repro.sim.oparray` records (kinds 0-4) into
:attr:`MachineState.records`; op objects exist only through
:meth:`~repro.sim.oparray.PackedOps.materialize`.
"""

from __future__ import annotations

from ..circuits import Gate
from ..hardware import Machine, MachineError
from ..sim.oparray import K_CHAIN_SWAP, K_GATE, K_MERGE, K_MOVE, K_SPLIT


class RoutingError(RuntimeError):
    """Raised when no legal routing decision exists (machine overfull)."""


class MachineState:
    """Mutable scheduling state of a grid baseline over a machine."""

    def __init__(
        self, machine: Machine, initial_placement: dict[int, tuple[int, ...]]
    ) -> None:
        self.machine = machine
        #: Precomputed topology lookups shared by every hot-path query.
        self.maps = machine.topology_maps()
        self._zone_capacity = self.maps.zone_capacity
        self._distances = self.maps.distances
        self._paths = self.maps.paths
        self.chains: dict[int, list[int]] = {
            zone.zone_id: [] for zone in machine.zones
        }
        self.location: dict[int, int] = {}
        for zone_id, chain in initial_placement.items():
            self.chains[zone_id] = list(chain)
            for qubit in chain:
                if qubit in self.location:
                    raise RoutingError(f"qubit {qubit} placed twice")
                self.location[qubit] = zone_id
        #: Packed op records emitted so far (see :mod:`repro.sim.oparray`).
        self.records: list[tuple[int, ...]] = []
        self.stats = {
            "shuttles": 0,
            "chain_swaps": 0,
            "evictions": 0,
            "inserted_swaps": 0,
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def zone_of(self, qubit: int) -> int:
        return self.location[qubit]

    def free_space(self, zone_id: int) -> int:
        return self._zone_capacity[zone_id] - len(self.chains[zone_id])

    def co_located(self, qubit_a: int, qubit_b: int) -> bool:
        return self.location[qubit_a] == self.location[qubit_b]

    def hops(self, source: int, destination: int) -> int:
        """Shuttle hops between two zones; :class:`MachineError` if unreachable."""
        distance = self._distances.get((source, destination))
        if distance is None:
            raise MachineError(
                f"no shuttle path from zone {source} to zone {destination}"
            )
        return distance

    def fifo_victim(self, zone_id: int, protected: frozenset[int]) -> int:
        """Chain-head eviction (the grid baselines' FIFO policy)."""
        for qubit in self.chains[zone_id]:
            if qubit not in protected:
                return qubit
        raise RoutingError(f"zone {zone_id} has no evictable qubit (all protected)")

    # ------------------------------------------------------------------
    # Physical op emission
    # ------------------------------------------------------------------

    def _bubble_to_edge(self, qubit: int) -> None:
        """Emit chain swaps moving ``qubit`` to the nearest edge of its chain."""
        zone_id = self.location[qubit]
        chain = self.chains[zone_id]
        position = chain.index(qubit)
        to_head = position
        to_tail = len(chain) - 1 - position
        if to_head == 0 or to_tail == 0:
            return
        if to_head <= to_tail:
            while position > 0:
                self.records.append((K_CHAIN_SWAP, zone_id, position - 1))
                chain[position - 1], chain[position] = (
                    chain[position],
                    chain[position - 1],
                )
                position -= 1
                self.stats["chain_swaps"] += 1
        else:
            while position < len(chain) - 1:
                self.records.append((K_CHAIN_SWAP, zone_id, position))
                chain[position], chain[position + 1] = (
                    chain[position + 1],
                    chain[position],
                )
                position += 1
                self.stats["chain_swaps"] += 1

    def shuttle(self, qubit: int, destination_zone: int) -> None:
        """Move a qubit to another zone: chain swaps + split + moves + merge.

        The caller must have secured capacity in the destination.
        """
        source_zone = self.location[qubit]
        if source_zone == destination_zone:
            return
        chains = self.chains
        destination_chain = chains[destination_zone]
        if self._zone_capacity[destination_zone] - len(destination_chain) < 1:
            raise RoutingError(
                f"shuttle of qubit {qubit} into full zone {destination_zone}"
            )
        path = self._paths.get((source_zone, destination_zone))
        if path is None:
            # Unreachable pair: surface the machine's own error (same
            # MachineError the seed raised from its per-query BFS).
            path = self.machine.shuttle_path(source_zone, destination_zone)
        self._bubble_to_edge(qubit)
        records = self.records
        records.append((K_SPLIT, qubit, source_zone))
        chains[source_zone].remove(qubit)
        here = path[0]
        for there in path[1:]:
            records.append((K_MOVE, qubit, here, there))
            here = there
        self.stats["shuttles"] += len(path) - 1
        records.append((K_MERGE, qubit, destination_zone))
        destination_chain.append(qubit)
        self.location[qubit] = destination_zone

    # ------------------------------------------------------------------
    # Gate emission
    # ------------------------------------------------------------------

    def emit_one_qubit_gate(self, gate: Gate, circuit_index: int) -> None:
        """1q gates execute wherever the ion sits (§3.1 simplification)."""
        zone_id = self.location[gate.qubits[0]]
        self.records.append((K_GATE, circuit_index, zone_id))

    def emit_local_gate(self, gate: Gate, circuit_index: int) -> None:
        zone_id = self.location[gate.qubits[0]]
        if self.location[gate.qubits[1]] != zone_id:
            raise RoutingError(
                f"local gate {gate} operands not co-located: "
                f"{self.location[gate.qubits[0]]} vs {self.location[gate.qubits[1]]}"
            )
        self.records.append((K_GATE, circuit_index, zone_id))

    def final_placement(self) -> dict[int, tuple[int, ...]]:
        """Chains at the end of scheduling."""
        return {
            zone_id: tuple(chain)
            for zone_id, chain in self.chains.items()
            if chain
        }
