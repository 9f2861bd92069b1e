"""Packed op streams: the schedule representation the compilers emit.

The array-core scheduler (:mod:`repro.core.arraycore`) and the grid
baselines (through :class:`~repro.core.state.MachineState`) emit their
schedules as flat integer records instead of :mod:`repro.sim.ops`
dataclass instances — creating ~50k frozen dataclasses per compile costs
more than the scheduling decisions themselves.  A :class:`PackedOps`
holds that stream: one small tuple of ints per op, tagged by a kind code,
plus the per-gate operand arrays needed to price gates without touching
:class:`~repro.circuits.Gate` objects.

Three consumers read the packed form directly, skipping materialisation:

* :func:`replay_packed` — the legality-checked replay over int state,
  producing the same :class:`~repro.sim.events.EventLedger` the object
  replay builds (identical trap sizes and counts; any detected
  illegality re-runs the object replay so error messages stay
  byte-identical);
* :func:`timing_fold_packed` / :func:`fidelity_fold_packed` — the ledger
  folds over packed records, performing the *same float operations in
  the same order* as the object folds (the differential suite pins
  ``log10_fidelity``/``makespan`` to the last bit).

Everything else — traces, breakdowns, verification, tests that poke the
op list — goes through :attr:`ArrayProgram.operations`, which
materialises real op dataclasses on first access.

Kind codes (first element of every record)::

    0 SplitOp(qubit, zone)                 -> (0, qubit, zone)
    1 MoveOp(qubit, source, destination)   -> (1, qubit, source, destination)
    2 MergeOp(qubit, zone)  [tail]         -> (2, qubit, zone)
    3 ChainSwapOp(zone, position)          -> (3, zone, position)
    4 GateOp(gate, zone, node)             -> (4, node, zone)
    5 FiberGateOp(gate, zone_a, zone_b, node) -> (5, node, zone_a, zone_b)
    6 SwapGateOp(qubit_a, qubit_b, zone_a, zone_b)
                                           -> (6, qubit_a, qubit_b, zone_a, zone_b)
"""

from __future__ import annotations

import math

from .ops import (
    ChainSwapOp,
    FiberGateOp,
    GateOp,
    MergeOp,
    MoveOp,
    Operation,
    SplitOp,
    SwapGateOp,
)

K_SPLIT, K_MOVE, K_MERGE, K_CHAIN_SWAP, K_GATE, K_FIBER, K_SWAP = range(7)


class PackedOps:
    """An op stream as flat int records (see module docstring).

    ``qubits_a``/``qubits_b`` map a circuit gate index (the ``node`` field
    of kind-4/5 records) to its operands, with ``qubits_b[node] == -1``
    for one-qubit gates — enough to price every gate record without the
    :class:`~repro.circuits.Gate` object.
    """

    __slots__ = ("records", "qubits_a", "qubits_b", "_shuttle_count")

    def __init__(self, records, qubits_a, qubits_b) -> None:
        self.records: list[tuple[int, ...]] = records
        self.qubits_a = qubits_a
        self.qubits_b = qubits_b
        self._shuttle_count: int | None = None

    @classmethod
    def for_circuit(cls, records, circuit) -> "PackedOps":
        """Wrap ``records`` with the operand arrays of a native circuit."""
        operands = [gate.qubits for gate in circuit.gates]
        return cls(
            records,
            tuple(qubits[0] for qubits in operands),
            tuple(qubits[1] if len(qubits) == 2 else -1 for qubits in operands),
        )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def shuttle_count(self) -> int:
        count = self._shuttle_count
        if count is None:
            count = self._shuttle_count = sum(
                1 for record in self.records if record[0] == K_MOVE
            )
        return count

    def materialize(self, circuit) -> list[Operation]:
        """Build the equivalent :mod:`repro.sim.ops` object stream."""
        gates = circuit.gates
        out: list[Operation] = []
        append = out.append
        for record in self.records:
            kind = record[0]
            if kind == K_GATE:
                node = record[1]
                append(GateOp(gates[node], record[2], node))
            elif kind == K_MOVE:
                append(MoveOp(record[1], record[2], record[3]))
            elif kind == K_CHAIN_SWAP:
                append(ChainSwapOp(record[1], record[2]))
            elif kind == K_SPLIT:
                append(SplitOp(record[1], record[2]))
            elif kind == K_MERGE:
                append(MergeOp(record[1], record[2]))
            elif kind == K_FIBER:
                node = record[1]
                append(FiberGateOp(gates[node], record[2], record[3], node))
            else:
                append(SwapGateOp(record[1], record[2], record[3], record[4]))
        return out


class _PackedIllegal(Exception):
    """Internal: the packed replay detected an illegal op; the caller
    re-runs the object replay so the raised error is byte-identical."""


def replay_packed(program, packed: PackedOps):
    """Legality-checked replay over packed records.

    Returns ``(trap_sizes, counts)`` for the ledger, or ``None`` when the
    stream is illegal or uses machinery the packed checks do not model
    (fault models) — the caller then falls back to the object replay.
    """
    machine = program.machine
    if machine.fault_model is not None:
        return None
    maps = machine.topology_maps()
    zone_capacity = maps.zone_capacity
    zone_allows_gates = maps.zone_allows_gates
    zone_allows_fiber = maps.zone_allows_fiber
    zone_module = maps.zone_module
    num_zones = len(zone_capacity)
    num_qubits = program.circuit.num_qubits
    adjacent = _adjacency(machine, num_zones)

    chains: list[list[int]] = [[] for _ in range(num_zones)]
    location = [-1] * num_qubits
    transit = [-1] * num_qubits
    detached = 0
    try:
        for zone_id, chain in program.initial_placement.items():
            chains[zone_id].extend(chain)
            for qubit in chain:
                location[qubit] = zone_id

        records = packed.records
        qubits_a = packed.qubits_a
        qubits_b = packed.qubits_b
        trap_sizes = [0] * len(records)
        splits = moves = merges = chain_swaps = 0
        one_qubit_gates = two_qubit_gates = fiber_gates = 0
        inserted_swaps = remote_swaps = 0

        for index, record in enumerate(records):
            kind = record[0]
            if kind == K_GATE:
                node = record[1]
                zone_id = record[2]
                if location[qubits_a[node]] != zone_id:
                    raise _PackedIllegal
                qubit_b = qubits_b[node]
                if qubit_b < 0:
                    one_qubit_gates += 1
                else:
                    if location[qubit_b] != zone_id:
                        raise _PackedIllegal
                    if not zone_allows_gates[zone_id]:
                        raise _PackedIllegal
                    two_qubit_gates += 1
                    trap_sizes[index] = len(chains[zone_id])
            elif kind == K_MOVE:
                qubit = record[1]
                source = record[2]
                destination = record[3]
                if transit[qubit] != source:
                    raise _PackedIllegal
                if destination not in adjacent[source]:
                    raise _PackedIllegal
                transit[qubit] = destination
                moves += 1
            elif kind == K_SPLIT:
                qubit = record[1]
                zone_id = record[2]
                if transit[qubit] != -1 or location[qubit] != zone_id:
                    raise _PackedIllegal
                chain = chains[zone_id]
                position = chain.index(qubit)
                if position not in (0, len(chain) - 1):
                    raise _PackedIllegal
                del chain[position]
                location[qubit] = -1
                transit[qubit] = zone_id
                detached += 1
                splits += 1
            elif kind == K_MERGE:
                qubit = record[1]
                zone_id = record[2]
                if transit[qubit] != zone_id:
                    raise _PackedIllegal
                chain = chains[zone_id]
                if len(chain) >= zone_capacity[zone_id]:
                    raise _PackedIllegal
                chain.append(qubit)
                transit[qubit] = -1
                location[qubit] = zone_id
                detached -= 1
                merges += 1
            elif kind == K_CHAIN_SWAP:
                chain = chains[record[1]]
                position = record[2]
                if not 0 <= position < len(chain) - 1:
                    raise _PackedIllegal
                chain[position], chain[position + 1] = (
                    chain[position + 1],
                    chain[position],
                )
                chain_swaps += 1
            elif kind == K_FIBER:
                node = record[1]
                zone_a = record[2]
                zone_b = record[3]
                if not (zone_allows_fiber[zone_a] and zone_allows_fiber[zone_b]):
                    raise _PackedIllegal
                if zone_module[zone_a] == zone_module[zone_b]:
                    raise _PackedIllegal
                if (
                    location[qubits_a[node]] != zone_a
                    or location[qubits_b[node]] != zone_b
                ):
                    raise _PackedIllegal
                fiber_gates += 1
            else:  # K_SWAP
                qubit_a, qubit_b, zone_a, zone_b = record[1:]
                if location[qubit_a] != zone_a or location[qubit_b] != zone_b:
                    raise _PackedIllegal
                inserted_swaps += 1
                if zone_a != zone_b:
                    if not (
                        zone_allows_fiber[zone_a] and zone_allows_fiber[zone_b]
                    ):
                        raise _PackedIllegal
                    if zone_module[zone_a] == zone_module[zone_b]:
                        raise _PackedIllegal
                    remote_swaps += 1
                else:
                    if not zone_allows_gates[zone_a]:
                        raise _PackedIllegal
                    trap_sizes[index] = len(chains[zone_a])
                chain_a = chains[zone_a]
                chain_b = chains[zone_b]
                chain_a[chain_a.index(qubit_a)] = qubit_b
                chain_b[chain_b.index(qubit_b)] = qubit_a
                location[qubit_a] = zone_b
                location[qubit_b] = zone_a
        if detached:
            raise _PackedIllegal
    except (_PackedIllegal, IndexError, ValueError):
        return None
    return trap_sizes, (
        splits,
        moves,
        merges,
        chain_swaps,
        one_qubit_gates,
        two_qubit_gates,
        fiber_gates,
        inserted_swaps,
        remote_swaps,
    )


def _adjacency(machine, num_zones: int) -> list[frozenset[int]]:
    """Per-zone shuttle neighbour sets (cached on the topology maps)."""
    maps = machine.topology_maps()
    cached = getattr(maps, "_adjacency_cache", None)
    if cached is not None:
        return cached
    adjacent = [machine.neighbours(zone_id) for zone_id in range(num_zones)]
    object.__setattr__(maps, "_adjacency_cache", adjacent)
    return adjacent


def timing_fold_packed(ledger, packed: PackedOps, durations):
    """The ledger's resource-model timing fold over packed records.

    ``durations`` is the ledger's cache signature ``(split, move, merge,
    chain_swap, one_qubit, two_qubit, fiber)``.  Float-for-float the same
    accumulation as the object fold in ``EventLedger._timing``.
    """
    (
        split_time,
        move_time,
        merge_time,
        chain_swap_time,
        one_qubit_time,
        two_qubit_time,
        fiber_time,
    ) = durations
    qubits_a = packed.qubits_a
    qubits_b = packed.qubits_b
    qubit_ready: dict[int, float] = {}
    zone_ready: dict[int, float] = {}
    qubit_busy: dict[int, float] = {}
    qubit_ready_get = qubit_ready.get
    zone_ready_get = zone_ready.get
    qubit_busy_get = qubit_busy.get
    serial_time = 0.0
    spans: list[tuple[float, float, float]] = []
    append_span = spans.append

    for record in packed.records:
        kind = record[0]
        if kind == K_GATE:
            node = record[1]
            qubit_b = qubits_b[node]
            if qubit_b < 0:
                serial_time += one_qubit_time
                qubit = qubits_a[node]
                start = qubit_ready_get(qubit, 0.0)
                end = start + one_qubit_time
                qubit_ready[qubit] = end
                qubit_busy[qubit] = qubit_busy_get(qubit, 0.0) + one_qubit_time
                append_span((start, one_qubit_time, end))
            else:
                serial_time += two_qubit_time
                zone_id = record[2]
                qubit_a = qubits_a[node]
                start = qubit_ready_get(qubit_a, 0.0)
                when = qubit_ready_get(qubit_b, 0.0)
                if when > start:
                    start = when
                when = zone_ready_get(zone_id, 0.0)
                if when > start:
                    start = when
                end = start + two_qubit_time
                qubit_ready[qubit_a] = end
                qubit_busy[qubit_a] = qubit_busy_get(qubit_a, 0.0) + two_qubit_time
                qubit_ready[qubit_b] = end
                qubit_busy[qubit_b] = qubit_busy_get(qubit_b, 0.0) + two_qubit_time
                zone_ready[zone_id] = end
                append_span((start, two_qubit_time, end))
        elif kind == K_MOVE:
            serial_time += move_time
            qubit = record[1]
            source_zone = record[2]
            destination_zone = record[3]
            start = qubit_ready_get(qubit, 0.0)
            when = zone_ready_get(source_zone, 0.0)
            if when > start:
                start = when
            when = zone_ready_get(destination_zone, 0.0)
            if when > start:
                start = when
            end = start + move_time
            qubit_ready[qubit] = end
            qubit_busy[qubit] = qubit_busy_get(qubit, 0.0) + move_time
            zone_ready[source_zone] = end
            zone_ready[destination_zone] = end
            append_span((start, move_time, end))
        elif kind == K_SPLIT or kind == K_MERGE:
            duration = split_time if kind == K_SPLIT else merge_time
            serial_time += duration
            qubit = record[1]
            zone_id = record[2]
            start = qubit_ready_get(qubit, 0.0)
            when = zone_ready_get(zone_id, 0.0)
            if when > start:
                start = when
            end = start + duration
            qubit_ready[qubit] = end
            qubit_busy[qubit] = qubit_busy_get(qubit, 0.0) + duration
            zone_ready[zone_id] = end
            append_span((start, duration, end))
        elif kind == K_CHAIN_SWAP:
            serial_time += chain_swap_time
            zone_id = record[1]
            start = zone_ready_get(zone_id, 0.0)
            end = start + chain_swap_time
            zone_ready[zone_id] = end
            append_span((start, chain_swap_time, end))
        elif kind == K_FIBER:
            serial_time += fiber_time
            node = record[1]
            zone_a = record[2]
            zone_b = record[3]
            qubit_a = qubits_a[node]
            qubit_b = qubits_b[node]
            start = qubit_ready_get(qubit_a, 0.0)
            when = qubit_ready_get(qubit_b, 0.0)
            if when > start:
                start = when
            when = zone_ready_get(zone_a, 0.0)
            if when > start:
                start = when
            when = zone_ready_get(zone_b, 0.0)
            if when > start:
                start = when
            end = start + fiber_time
            qubit_ready[qubit_a] = end
            qubit_busy[qubit_a] = qubit_busy_get(qubit_a, 0.0) + fiber_time
            qubit_ready[qubit_b] = end
            qubit_busy[qubit_b] = qubit_busy_get(qubit_b, 0.0) + fiber_time
            zone_ready[zone_a] = end
            zone_ready[zone_b] = end
            append_span((start, fiber_time, end))
        else:  # K_SWAP
            qubit_a, qubit_b, zone_a, zone_b = record[1:]
            if zone_a != zone_b:
                duration = 3 * fiber_time
                zones = (zone_a, zone_b)
            else:
                duration = 3 * two_qubit_time
                zones = (zone_a,)
            serial_time += duration
            start = qubit_ready_get(qubit_a, 0.0)
            when = qubit_ready_get(qubit_b, 0.0)
            if when > start:
                start = when
            for zone_id in zones:
                when = zone_ready_get(zone_id, 0.0)
                if when > start:
                    start = when
            end = start + duration
            qubit_ready[qubit_a] = end
            qubit_busy[qubit_a] = qubit_busy_get(qubit_a, 0.0) + duration
            qubit_ready[qubit_b] = end
            qubit_busy[qubit_b] = qubit_busy_get(qubit_b, 0.0) + duration
            for zone_id in zones:
                zone_ready[zone_id] = end
            append_span((start, duration, end))

    makespan = max(
        max(qubit_ready.values(), default=0.0),
        max(zone_ready.values(), default=0.0),
    )
    return spans, serial_time, makespan, qubit_busy


def fidelity_fold_packed(ledger, packed: PackedOps, params, charges):
    """The §4 fidelity fold over packed records (sink-less path only).

    ``charges`` carries the precomputed per-kind natural-log charges and
    nbar deposits, in the exact layout ``EventLedger._fold_fidelity``
    computes them.  Returns ``(log_total, heat)`` with every add in the
    object fold's order.
    """
    (
        split_log,
        move_log,
        merge_log,
        chain_swap_log,
        one_qubit_log,
        fiber_log,
        split_nbar,
        move_nbar,
        merge_nbar,
        chain_swap_nbar,
        heating_rate,
    ) = charges
    two_qubit_gate_fidelity = params.two_qubit_gate_fidelity
    machine = ledger.program.machine
    heat: dict[int, float] = {zone.zone_id: 0.0 for zone in machine.zones}
    trap_sizes = ledger.trap_sizes
    two_qubit_cache: dict[int, tuple[float, float]] = {}
    log_total = 0.0
    qubits_b = packed.qubits_b

    from .events import ExecutionError

    for index, record in enumerate(packed.records):
        kind = record[0]
        if kind == K_GATE:
            zone_id = record[2]
            background = -heating_rate * heat[zone_id]
            if qubits_b[record[1]] < 0:
                log_total += one_qubit_log
                log_total += background
            else:
                ions = trap_sizes[index]
                entry = two_qubit_cache.get(ions)
                if entry is None:
                    fidelity = two_qubit_gate_fidelity(ions)
                    entry = (
                        fidelity,
                        math.log(fidelity) if fidelity > 0.0 else 0.0,
                    )
                    two_qubit_cache[ions] = entry
                fidelity, gate_log = entry
                if fidelity <= 0.0:
                    raise ExecutionError(
                        f"two-qubit gate fidelity collapsed to zero with "
                        f"{ions} ions in zone {zone_id}",
                        index,
                    )
                log_total += gate_log
                log_total += background
        elif kind == K_MOVE:
            log_total += move_log
            heat[record[3]] += move_nbar
        elif kind == K_SPLIT:
            log_total += split_log
            heat[record[2]] += split_nbar
        elif kind == K_MERGE:
            log_total += merge_log
            heat[record[2]] += merge_nbar
        elif kind == K_CHAIN_SWAP:
            log_total += chain_swap_log
            heat[record[1]] += chain_swap_nbar
        elif kind == K_FIBER:
            background_a = -heating_rate * heat[record[2]]
            background_b = -heating_rate * heat[record[3]]
            log_total += fiber_log
            log_total += background_a
            log_total += background_b
        else:  # K_SWAP
            zone_a = record[3]
            zone_b = record[4]
            if zone_a != zone_b:
                background_a = -heating_rate * heat[zone_a]
                background_b = -heating_rate * heat[zone_b]
                for _ in range(3):
                    log_total += fiber_log
                    log_total += background_a
                    log_total += background_b
            else:
                ions = trap_sizes[index]
                entry = two_qubit_cache.get(ions)
                if entry is None:
                    fidelity = two_qubit_gate_fidelity(ions)
                    entry = (
                        fidelity,
                        math.log(fidelity) if fidelity > 0.0 else 0.0,
                    )
                    two_qubit_cache[ions] = entry
                fidelity, gate_log = entry
                if fidelity <= 0.0:
                    raise ExecutionError(
                        f"swap fidelity collapsed to zero with {ions} ions",
                        index,
                    )
                background = -heating_rate * heat[zone_a]
                for _ in range(3):
                    log_total += gate_log
                    log_total += background
    return log_total, heat
