"""Array-core scheduler: the MUSS-TI event loop over flat int arrays.

This is the one MUSS-TI scheduler, behind
:class:`~repro.pipeline.passes.SchedulingPass` (for the final schedule
and for both of SABRE's warm-up compiles): the Fig 3 loop of
executable-first gate selection, §3.2 multi-level routing with LRU
eviction, and the §3.3 weight-table SWAP insertion, all over flat,
int-indexed state:

* qubits and zones are plain ints indexing python lists (``loc``,
  ``last_used``, ``zone_usage``, per-zone chain lists) over the
  precomputed :class:`~repro.hardware.TopologyMaps` arrays;
* the dependency DAG is the cached :class:`~repro.circuits.dag.DagArrays`
  view (in-degree / adjacency / operand arrays);
* the §3.3 weight table and the routing census read one incrementally
  maintained look-ahead window (``wlayer`` array + per-qubit partner
  dicts) instead of rebuilding per query;
* ops are emitted as packed int records (:mod:`repro.sim.oparray`), so a
  compile never constructs an op dataclass.

:func:`schedule` always returns a :class:`ScheduleResult` (the packed
records, the final chains and four stats) or raises: a gate beyond the
native 1q/2q set raises :class:`~repro.circuits.GateError`, and a
malformed initial placement raises :class:`RoutingError` before the loop
starts.  The emitted schedule is **byte-identical** to the frozen seed
scheduler that ``tests/differential/`` keeps as its oracle.

Two deliberate representation choices, measured on the QFT × EML grid:

* The event loop stays on python ints and lists — per-element numpy
  access is slower than list indexing for this branchy, data-dependent
  control flow, so the package needs no numpy to compile.
* The FCFS stall pick (the minimum over the whole parked frontier)
  is a lazy min-heap of parked gates with stale-entry skipping: every
  parked gate is pushed once per parking, and entries whose status
  changed since are discarded when popped.  At a stall every live entry
  is parked, so the surviving heap top is exactly the frontier minimum.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush

from ..circuits import validate_native
from ..circuits.dag import dag_arrays
from ..sim.oparray import (
    K_CHAIN_SWAP,
    K_FIBER,
    K_GATE,
    K_MERGE,
    K_MOVE,
    K_SPLIT,
    K_SWAP,
    PackedOps,
)
from .config import MussTiConfig
from .state import RoutingError


@dataclass(frozen=True)
class ScheduleResult:
    """One array-core run: the op records, the final chains, four stats.

    ``chains`` holds every zone's chain at the end of scheduling,
    indexed by zone id.
    """

    packed: PackedOps
    chains: tuple[tuple[int, ...], ...]
    shuttles: int
    chain_swaps: int
    evictions: int
    inserted_swaps: int

    def final_placement(self) -> dict[int, tuple[int, ...]]:
        """The non-empty final chains by ascending zone id."""
        return {zone_id: chain for zone_id, chain in enumerate(self.chains) if chain}

    def metadata(self) -> dict[str, float]:
        """The four stats as a program's ``metadata``."""
        return {
            "shuttles": float(self.shuttles),
            "chain_swaps": float(self.chain_swaps),
            "evictions": float(self.evictions),
            "inserted_swaps": float(self.inserted_swaps),
        }


def schedule(circuit, machine, placement, config: MussTiConfig) -> ScheduleResult:
    """Schedule ``circuit`` onto ``machine`` from ``placement``.

    Raises :class:`~repro.circuits.GateError` for a gate beyond the
    native 1q/2q set, :class:`RoutingError` for a malformed placement or
    when no legal routing decision exists, and the machine's own errors
    for unreachable zones.
    """
    dag = dag_arrays(circuit)
    if not dag.native_arity:
        validate_native(circuit)  # raises, naming the first wide gate
    maps = machine.topology_maps()
    loc = _locations(placement, circuit.num_qubits, maps.zone_capacity)

    engine = _Engine(machine, maps, dag, placement, loc, config)
    engine.run()
    return ScheduleResult(
        packed=PackedOps(engine.records, dag.qubit_a, dag.qubit_b),
        chains=tuple(map(tuple, engine.chains)),
        shuttles=engine.shuttles,
        chain_swaps=engine.chain_swaps,
        evictions=engine.evictions,
        inserted_swaps=engine.inserted_swaps,
    )


def _locations(placement, num_qubits: int, zone_capacity) -> list[int]:
    """Qubit -> zone array of a caller placement, or :class:`RoutingError`.

    A valid placement maps zone ids of the machine to chains that fit the
    zone, and places each of the circuit's qubits exactly once.
    """
    num_zones = len(zone_capacity)
    loc = [-1] * num_qubits
    for zone_id, chain in placement.items():
        if type(zone_id) is not int or not 0 <= zone_id < num_zones:
            raise RoutingError(
                f"initial_placement: zone {zone_id!r} is not a zone id of "
                f"this machine (0..{num_zones - 1})"
            )
        if len(chain) > zone_capacity[zone_id]:
            raise RoutingError(
                f"initial_placement: zone {zone_id} holds {len(chain)} "
                f"qubits but has capacity {zone_capacity[zone_id]}"
            )
        for qubit in chain:
            if type(qubit) is not int or not 0 <= qubit < num_qubits:
                raise RoutingError(
                    f"initial_placement: zone {zone_id} holds qubit "
                    f"{qubit!r}, but the circuit's qubits are "
                    f"0..{num_qubits - 1}"
                )
            if loc[qubit] != -1:
                raise RoutingError(f"qubit {qubit} placed twice")
            loc[qubit] = zone_id
    missing = [qubit for qubit, zone_id in enumerate(loc) if zone_id == -1]
    if missing:
        shown = ", ".join(map(str, missing[:10]))
        raise RoutingError(
            f"initial_placement: {len(missing)} of the circuit's qubits "
            f"never placed ({shown}{', ...' if len(missing) > 10 else ''})"
        )
    return loc


def _module_zone_id_tables(maps):
    """Per-module zone ids as plain int tuples: (all, gate-capable, optical).

    The engine iterates candidate zones millions of times per compile;
    reading ``zone_id`` off :class:`~repro.hardware.Zone` dataclasses in
    that loop costs an attribute lookup per visit.  This flattens the
    maps' per-module zone groups to int tuples once per topology (cached
    on the maps object, which is itself cached per canonical machine spec).
    """
    cached = getattr(maps, "_zone_id_tables", None)
    if cached is not None:
        return cached
    tables = (
        tuple(
            tuple(zone.zone_id for zone in group) for group in maps.module_zones
        ),
        tuple(
            tuple(zone.zone_id for zone in group)
            for group in maps.module_gate_zones
        ),
        tuple(
            tuple(zone.zone_id for zone in group)
            for group in maps.module_optical_zones
        ),
    )
    object.__setattr__(maps, "_zone_id_tables", tables)
    return tables


class _Engine:
    """The fused event loop (see module docstring).

    Status codes per DAG node: -1 not tracked, 0 parked watcher (blocked
    until an operand moves), 1 in the current pass, 2 queued for the next
    pass.
    """

    __slots__ = (
        # emission + machine state
        "machine", "records", "chains", "loc", "last_used", "zone_usage",
        "clock", "shuttles", "chain_swaps", "evictions", "inserted_swaps",
        # DAG
        "qa", "qb", "succs", "preds", "in_deg", "completed", "remaining",
        # look-ahead window
        "k", "wlayer", "wparts", "dirty",
        # event loop
        "status", "current", "cptr", "pending", "parked", "wsets", "ops_seen",
        # config + topology
        "use_lru", "slack", "insert", "threshold",
        "zone_capacity", "zone_allows_gates", "zone_allows_fiber",
        "zone_module", "zone_level", "blocked_links", "paths", "distances",
        "module_zone_ids", "module_all_ids", "module_gate_ids",
        "module_optical_ids", "eviction_preference",
    )

    def __init__(self, machine, maps, dag, placement, loc, config) -> None:
        self.machine = machine
        self.records: list[tuple[int, ...]] = []
        num_zones = len(maps.zone_capacity)
        chains: list[list[int]] = [[] for _ in range(num_zones)]
        for zone_id, chain in placement.items():
            chains[zone_id].extend(chain)
        self.chains = chains
        self.loc = loc
        num_qubits = len(loc)
        self.last_used = [0] * num_qubits
        self.zone_usage = [0.0] * num_zones
        self.clock = 0
        self.shuttles = 0
        self.chain_swaps = 0
        self.evictions = 0
        self.inserted_swaps = 0

        n = dag.num_gates
        self.qa = dag.qubit_a
        self.qb = dag.qubit_b
        self.succs = dag.successors
        self.preds = dag.predecessors
        self.in_deg = in_deg = list(dag.in_degree)
        current = [i for i in range(n) if not in_deg[i]]
        self.completed = bytearray(n)
        self.remaining = n

        self.k = config.lookahead_k
        self.wlayer = [-1] * n
        self.wparts: list[dict[int, int]] = [{} for _ in range(num_qubits)]
        self.dirty: list[int] = []
        self._build_window(current)

        status = [-1] * n
        for node in current:
            status[node] = 1
        self.status = status
        self.current = current  # ascending; consumed via ``cptr``
        self.cptr = 0
        self.pending: list[int] = []
        self.parked: list[int] = []
        self.wsets: list[set[int]] = [set() for _ in range(num_qubits)]
        self.ops_seen = 0

        self.use_lru = config.use_lru
        self.slack = config.optical_slack
        self.insert = config.use_swap_insertion
        self.threshold = config.swap_threshold

        self.zone_capacity = maps.zone_capacity
        self.zone_allows_gates = maps.zone_allows_gates
        self.zone_allows_fiber = maps.zone_allows_fiber
        self.zone_module = maps.zone_module
        self.zone_level = maps.zone_level
        self.blocked_links = maps.blocked_links
        self.paths = maps.paths
        self.distances = maps.distances
        self.module_zone_ids = maps.module_zone_ids
        all_ids, gate_ids, optical_ids = _module_zone_id_tables(maps)
        self.module_all_ids = all_ids
        self.module_gate_ids = gate_ids
        self.module_optical_ids = optical_ids
        self.eviction_preference = maps.eviction_preference

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        while True:
            self._drain()
            if self.remaining == 0:
                return
            self._route_oldest()

    def _drain(self) -> None:
        status = self.status
        loc = self.loc
        qa = self.qa
        qb = self.qb
        allows_gates = self.zone_allows_gates
        allows_fiber = self.zone_allows_fiber
        zone_module = self.zone_module
        blocked_links = self.blocked_links
        records = self.records
        zone_usage = self.zone_usage
        last_used = self.last_used
        in_deg = self.in_deg
        succs = self.succs
        completed = self.completed
        dirty = self.dirty
        wsets = self.wsets
        parked = self.parked
        insert = self.insert
        pending = self.pending
        remaining = self.remaining
        while True:
            current = self.current
            cptr = self.cptr
            clen = len(current)
            if cptr >= clen:
                if not pending:
                    self.remaining = remaining
                    return
                # Pass boundary: next pass examines last pass's events.
                pending.sort()
                current = self.current = pending
                cptr = self.cptr = 0
                clen = len(current)
                pending = self.pending = []
                for node in current:
                    status[node] = 1
            # ``current`` is consumed in ascending order via the cursor;
            # watchers woken mid-pass insort past it, so the pass still
            # examines gates in ascending (FCFS) order.
            while cptr < clen:
                node = current[cptr]
                cptr += 1
                qubit_b = qb[node]
                if qubit_b < 0:
                    # 1q gates execute wherever the ion sits; no touch.
                    records.append((K_GATE, node, loc[qa[node]]))
                    status[node] = -1
                    completed[node] = 1
                    remaining -= 1
                    dirty.append(node)
                    for succ in succs[node]:
                        left = in_deg[succ] - 1
                        in_deg[succ] = left
                        if left == 0:
                            status[succ] = 2
                            pending.append(succ)
                    continue
                qubit_a = qa[node]
                zone_a = loc[qubit_a]
                zone_b = loc[qubit_b]
                if zone_a == zone_b:
                    if allows_gates[zone_a]:
                        records.append((K_GATE, node, zone_a))
                        zone_usage[zone_a] += 0.25
                        clock = self.clock + 1
                        self.clock = clock
                        last_used[qubit_a] = clock
                        last_used[qubit_b] = clock
                        status[node] = -1
                        completed[node] = 1
                        remaining -= 1
                        dirty.append(node)
                        for succ in succs[node]:
                            left = in_deg[succ] - 1
                            in_deg[succ] = left
                            if left == 0:
                                status[succ] = 2
                                pending.append(succ)
                        continue
                elif (
                    allows_fiber[zone_a]
                    and allows_fiber[zone_b]
                    and zone_module[zone_a] != zone_module[zone_b]
                ):
                    if blocked_links:
                        module_a = zone_module[zone_a]
                        module_b = zone_module[zone_b]
                        key = (
                            (module_a, module_b)
                            if module_a < module_b
                            else (module_b, module_a)
                        )
                        blocked = key in blocked_links
                    else:
                        blocked = False
                    if not blocked:
                        records.append((K_FIBER, node, zone_a, zone_b))
                        zone_usage[zone_a] += 0.5
                        zone_usage[zone_b] += 0.5
                        clock = self.clock + 1
                        self.clock = clock
                        last_used[qubit_a] = clock
                        last_used[qubit_b] = clock
                        completed[node] = 1
                        remaining -= 1
                        dirty.append(node)
                        newly = []
                        for succ in succs[node]:
                            left = in_deg[succ] - 1
                            in_deg[succ] = left
                            if left == 0:
                                newly.append(succ)
                        self.cptr = cptr
                        self.remaining = remaining
                        if insert:
                            self._insert_swaps(qubit_a, qubit_b)
                        status[node] = -1
                        for ready in newly:
                            status[ready] = 2
                            pending.append(ready)
                        self._note_moves(node)
                        clen = len(current)  # woken watchers may insort
                        continue
                # Blocked: park as a watcher until an operand moves.
                status[node] = 0
                heappush(parked, node)
                wsets[qubit_a].add(node)
                wsets[qubit_b].add(node)
            self.cptr = cptr

    def _route_oldest(self) -> None:
        """FCFS fallback: route and fire the oldest frontier 2q gate."""
        self._catch_up()  # routing reads the look-ahead window
        parked = self.parked
        status = self.status
        while status[parked[0]] != 0:
            heappop(parked)  # stale: completed or re-queued since parking
        node = parked[0]
        qa_ = self.qa[node]
        qb_ = self.qb[node]
        loc = self.loc
        zone_module = self.zone_module
        records = self.records
        zone_usage = self.zone_usage
        last_used = self.last_used
        if zone_module[loc[qa_]] == zone_module[loc[qb_]]:
            # Local gates route without slack: batch demotion only pays
            # for itself on the fiber path.
            self._route_local(qa_, qb_)
            zone_id = loc[qa_]
            records.append((K_GATE, node, zone_id))
            zone_usage[zone_id] += 0.25
            clock = self.clock + 1
            self.clock = clock
            last_used[qa_] = clock
            last_used[qb_] = clock
            newly = self._complete(node)
        else:
            self._route_fiber(qa_, qb_)
            zone_a = loc[qa_]
            zone_b = loc[qb_]
            records.append((K_FIBER, node, zone_a, zone_b))
            zone_usage[zone_a] += 0.5
            zone_usage[zone_b] += 0.5
            clock = self.clock + 1
            self.clock = clock
            last_used[qa_] = clock
            last_used[qb_] = clock
            newly = self._complete(node)
            if self.insert:
                self._insert_swaps(qa_, qb_)
        wsets = self.wsets
        wsets[qa_].discard(node)
        wsets[qb_].discard(node)
        status[node] = -1
        pending = self.pending
        for ready in newly:
            status[ready] = 2
            pending.append(ready)
        self._note_moves(-1)

    # ------------------------------------------------------------------
    # Event bookkeeping
    # ------------------------------------------------------------------

    def _complete(self, node: int) -> list[int]:
        self.completed[node] = 1
        self.remaining -= 1
        newly: list[int] = []
        in_deg = self.in_deg
        for succ in self.succs[node]:
            left = in_deg[succ] - 1
            in_deg[succ] = left
            if left == 0:
                newly.append(succ)
        self.dirty.append(node)
        return newly

    def _note_moves(self, cursor: int) -> None:
        """Wake the watchers of every qubit that moved since the last scan.

        A qubit changes zones exactly on a merge (shuttle completion) or
        a logical SWAP.  With ``cursor >= 0`` (mid-pass) watchers past
        the cursor re-enter the current pass, earlier ones wait for the
        next; ``cursor == -1`` queues everything for the next pass.
        """
        records = self.records
        seen = self.ops_seen
        total = len(records)
        if seen == total:
            return
        self.ops_seen = total
        wsets = self.wsets
        status = self.status
        current = self.current
        pending = self.pending
        qa = self.qa
        qb = self.qb
        for index in range(seen, total):
            record = records[index]
            kind = record[0]
            if kind == K_MERGE:
                moved = (record[1],)
            elif kind == K_SWAP:
                moved = (record[1], record[2])
            else:
                continue
            for qubit in moved:
                bucket = wsets[qubit]
                if not bucket:
                    continue
                for node in tuple(bucket):
                    wsets[qa[node]].discard(node)
                    wsets[qb[node]].discard(node)
                    if node > cursor >= 0:
                        status[node] = 1
                        # Consumed entries all precede the cursor, so the
                        # sorted insert past ``cptr`` reproduces the heap
                        # ordering.
                        insort(current, node, self.cptr)
                    else:
                        status[node] = 2
                        pending.append(node)

    # ------------------------------------------------------------------
    # Look-ahead window (incremental first-k-layers, decrease-only)
    # ------------------------------------------------------------------

    def _build_window(self, frontier: list[int]) -> None:
        """Batch layer decomposition seeding the window at version 0."""
        k = self.k
        in_deg = self.in_deg
        succs = self.succs
        wlayer = self.wlayer
        outstanding: dict[int, int] = {}
        current = frontier
        for depth in range(k):
            if not current:
                break
            for node in current:
                wlayer[node] = depth
                self._add_pairs(node)
            next_layer: list[int] = []
            for node in current:
                for succ in succs[node]:
                    left = outstanding.get(succ)
                    if left is None:
                        left = in_deg[succ]
                    elif left == 0:
                        continue
                    left -= 1
                    outstanding[succ] = left
                    if left == 0:
                        next_layer.append(succ)
            next_layer.sort()
            current = next_layer

    def _add_pairs(self, node: int) -> None:
        qubit_b = self.qb[node]
        if qubit_b < 0:
            return
        qubit_a = self.qa[node]
        wparts = self.wparts
        for mine, partner in ((qubit_a, qubit_b), (qubit_b, qubit_a)):
            bucket = wparts[mine]
            bucket[partner] = bucket.get(partner, 0) + 1

    def _remove_pairs(self, node: int) -> None:
        qubit_b = self.qb[node]
        if qubit_b < 0:
            return
        qubit_a = self.qa[node]
        wparts = self.wparts
        for mine, partner in ((qubit_a, qubit_b), (qubit_b, qubit_a)):
            bucket = wparts[mine]
            count = bucket[partner]
            if count > 1:
                bucket[partner] = count - 1
            else:
                del bucket[partner]

    def _catch_up(self) -> None:
        """Propagate the layer decreases of completions since the last
        query (multi-source, order-independent fixpoint).

        Duplicate worklist entries are processed idempotently (each
        visit recomputes from *all* predecessors), so the fixpoint — the
        only thing queries observe — does not depend on the order or
        multiplicity of entries.
        """
        dirty = self.dirty
        if not dirty:
            return
        completed = self.completed
        preds = self.preds
        succs = self.succs
        wlayer = self.wlayer
        wparts = self.wparts
        qa = self.qa
        qb = self.qb
        k = self.k
        boundary = k - 1
        queue: list[int] = []
        for node in dirty:
            if wlayer[node] >= 0:
                wlayer[node] = -1
                qubit_b = qb[node]
                if qubit_b >= 0:
                    qubit_a = qa[node]
                    bucket = wparts[qubit_a]
                    count = bucket[qubit_b]
                    if count > 1:
                        bucket[qubit_b] = count - 1
                    else:
                        del bucket[qubit_b]
                    bucket = wparts[qubit_b]
                    count = bucket[qubit_a]
                    if count > 1:
                        bucket[qubit_a] = count - 1
                    else:
                        del bucket[qubit_a]
            queue.extend(succs[node])
        dirty.clear()
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            if completed[node]:
                continue
            new_layer = 0
            outside = False
            for pred in preds[node]:
                if completed[pred]:
                    continue
                pred_layer = wlayer[pred]
                if pred_layer < 0:
                    # An unfinished predecessor beyond the window keeps
                    # this node beyond it too.
                    outside = True
                    break
                if pred_layer >= new_layer:
                    new_layer = pred_layer + 1
            if outside or new_layer >= k:
                continue
            old_layer = wlayer[node]
            if old_layer < 0:
                wlayer[node] = new_layer
                qubit_b = qb[node]
                if qubit_b >= 0:
                    qubit_a = qa[node]
                    bucket = wparts[qubit_a]
                    bucket[qubit_b] = bucket.get(qubit_b, 0) + 1
                    bucket = wparts[qubit_b]
                    bucket[qubit_a] = bucket.get(qubit_a, 0) + 1
            elif new_layer >= old_layer:
                # No change: nothing to propagate.
                continue
            else:
                wlayer[node] = new_layer
            if new_layer < boundary:
                queue.extend(succs[node])
            # A node at the boundary layer k-1 cannot pull a successor
            # into the window (their layers are >= k), and layers only
            # decrease — so its successors were outside and stay outside.

    # ------------------------------------------------------------------
    # Routing (§3.2: multi-level zone choice, LRU eviction)
    # ------------------------------------------------------------------

    def _route_local(self, qubit_a: int, qubit_b: int) -> None:
        loc = self.loc
        wparts = self.wparts
        census: dict[int, int] = {}
        for mine, other in ((qubit_a, qubit_b), (qubit_b, qubit_a)):
            for partner, count in wparts[mine].items():
                if partner == other or partner == mine:
                    continue
                zone_id = loc[partner]
                census[zone_id] = census.get(zone_id, 0) + count
        target = self._choose_local(qubit_a, qubit_b, census)
        movers = [q for q in (qubit_a, qubit_b) if loc[q] != target]
        if movers:
            # Local routes evict without slack (see _route_oldest).
            needed = len(movers)
            if self.zone_capacity[target] - len(self.chains[target]) < needed:
                self._clear_room(target, needed, (qubit_a, qubit_b), 0)
            for qubit in movers:
                self._shuttle(qubit, target)

    def _route_fiber(self, qubit_a: int, qubit_b: int) -> None:
        blocked = self.blocked_links
        if blocked:
            loc = self.loc
            zone_module = self.zone_module
            module_a = zone_module[loc[qubit_a]]
            module_b = zone_module[loc[qubit_b]]
            key = (min(module_a, module_b), max(module_a, module_b))
            if key in blocked:
                raise RoutingError(
                    f"optical link {key[0]}-{key[1]} is failed; qubits "
                    f"{qubit_a} and {qubit_b} cannot share a fiber gate"
                )
        slack = self.slack
        self._route_to_optical(qubit_a, slack)
        self._route_to_optical(qubit_b, slack)

    def _route_to_optical(self, qubit: int, slack: int) -> None:
        target = self._choose_optical(qubit)
        if self.loc[qubit] != target:
            if self.zone_capacity[target] - len(self.chains[target]) < 1:
                self._clear_room(target, 1, (qubit,), slack)
            self._shuttle(qubit, target)

    def _choose_local(
        self, qubit_a: int, qubit_b: int, census: dict[int, int]
    ) -> int:
        loc = self.loc
        zone_a = loc[qubit_a]
        zone_b = loc[qubit_b]
        zone_module = self.zone_module
        module_id = zone_module[zone_a]
        if zone_module[zone_b] != module_id:
            raise RoutingError(
                f"qubits {qubit_a} and {qubit_b} are on different modules"
            )
        candidates = self.module_gate_ids[module_id]
        if not candidates:
            raise RoutingError(f"module {module_id} has no gate-capable zone")

        module_zone_ids = self.module_zone_ids[module_id]
        remote_partner_count = 0
        for zone_id, count in census.items():
            if zone_id not in module_zone_ids:
                remote_partner_count += count
        has_remote = remote_partner_count > 0

        distances = self.distances
        zone_level = self.zone_level
        allows_fiber = self.zone_allows_fiber
        capacity = self.zone_capacity
        chains = self.chains
        zone_usage = self.zone_usage
        census_get = census.get
        level_a = zone_level[zone_a]
        level_b = zone_level[zone_b]

        best_key: tuple | None = None
        best_zone = -1
        for zone_id in candidates:
            level = zone_level[zone_id]
            hops = 0
            level_distance = 0
            movers = 0
            if zone_a != zone_id:
                movers = 1
                hops = distances[(zone_a, zone_id)]
                level_distance = abs(level_a - level)
            if zone_b != zone_id:
                movers += 1
                hops += distances[(zone_b, zone_id)]
                level_distance += abs(level_b - level)
            overflow = movers - (capacity[zone_id] - len(chains[zone_id]))
            if overflow < 0:
                overflow = 0
            fiber_pull = 1 if has_remote and allows_fiber[zone_id] else 0
            key = (
                hops + overflow - fiber_pull,
                level_distance,
                -census_get(zone_id, 0),
                -level,
                zone_usage[zone_id],
            )
            if best_key is None or key < best_key:
                best_key, best_zone = key, zone_id
        return best_zone

    def _choose_optical(self, qubit: int) -> int:
        current = self.loc[qubit]
        module_id = self.zone_module[current]
        candidates = self.module_optical_ids[module_id]
        if not candidates:
            raise RoutingError(f"module {module_id} has no optical zone")
        if len(candidates) == 1:
            return candidates[0]
        for zone_id in candidates:
            if zone_id == current:
                return current
        capacity = self.zone_capacity
        chains = self.chains
        zone_usage = self.zone_usage
        best_key: tuple | None = None
        best_zone = -1
        for zone_id in candidates:
            free = capacity[zone_id] - len(chains[zone_id])
            overflow = 1 - free
            if overflow < 0:
                overflow = 0
            key = (overflow, zone_usage[zone_id], -free)
            if best_key is None or key < best_key:
                best_key, best_zone = key, zone_id
        return best_zone

    def _evict_target(self, from_zone: int) -> int:
        chains = self.chains
        capacity = self.zone_capacity
        best_key: tuple | None = None
        best_zone = -1
        for static_key, zone_id in self.eviction_preference[from_zone]:
            free = capacity[zone_id] - len(chains[zone_id])
            if free <= 0:
                continue
            key = (static_key, -free)
            if best_key is None or key < best_key:
                best_key, best_zone = key, zone_id
        if best_key is None:
            module_id = self.zone_module[from_zone]
            raise RoutingError(
                f"module {module_id} has no free space to evict "
                f"from zone {from_zone}"
            )
        return best_zone

    def _clear_room(
        self, zone_id: int, needed: int, protected: tuple, slack: int
    ) -> None:
        capacity = self.zone_capacity[zone_id]
        chain = self.chains[zone_id]
        if capacity - len(chain) >= needed:
            return
        goal = needed + slack
        if goal > capacity:
            goal = capacity
        guard = 0
        wparts = self.wparts
        last_used = self.last_used
        use_lru = self.use_lru
        while capacity - len(chain) < goal:
            guard += 1
            if guard > capacity + 1:
                raise RoutingError(
                    f"eviction from zone {zone_id} does not converge"
                )
            past_need = capacity - len(chain) >= needed
            try:
                if use_lru:
                    if past_need:
                        # Window qubits are never demoted for slack.
                        candidates = [
                            q
                            for q in chain
                            if q not in protected and not wparts[q]
                        ]
                    else:
                        candidates = [q for q in chain if q not in protected]
                    if not candidates:
                        raise RoutingError(
                            f"zone {zone_id} has no evictable qubit "
                            f"(all protected)"
                        )
                    victim = candidates[0]
                    best_key = (1 if wparts[victim] else 0, last_used[victim])
                    for q in candidates[1:]:
                        key = (1 if wparts[q] else 0, last_used[q])
                        if key < best_key:
                            victim, best_key = q, key
                else:
                    victim = -1
                    if past_need:
                        for q in chain:
                            if q not in protected and not wparts[q]:
                                victim = q
                                break
                    else:
                        for q in chain:
                            if q not in protected:
                                victim = q
                                break
                    if victim < 0:
                        raise RoutingError(
                            f"zone {zone_id} has no evictable qubit "
                            f"(all protected)"
                        )
                target = self._evict_target(zone_id)
            except RoutingError:
                if past_need:
                    return  # slack is best-effort; the hard need is met
                raise
            self._shuttle(victim, target)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Op emission
    # ------------------------------------------------------------------

    def _shuttle(self, qubit: int, destination: int) -> None:
        loc = self.loc
        source = loc[qubit]
        if source == destination:
            return
        chains = self.chains
        destination_chain = chains[destination]
        if self.zone_capacity[destination] - len(destination_chain) < 1:
            raise RoutingError(
                f"shuttle of qubit {qubit} into full zone {destination}"
            )
        path = self.paths.get((source, destination))
        if path is None:
            # Unreachable pair: surface the machine's own error.
            path = self.machine.shuttle_path(source, destination)
        records = self.records
        chain = chains[source]
        position = chain.index(qubit)
        to_tail = len(chain) - 1 - position
        if position and to_tail:
            # Bubble to the nearest chain edge with physical chain swaps.
            if position <= to_tail:
                while position > 0:
                    records.append((K_CHAIN_SWAP, source, position - 1))
                    chain[position - 1], chain[position] = (
                        chain[position],
                        chain[position - 1],
                    )
                    position -= 1
                    self.chain_swaps += 1
            else:
                last = len(chain) - 1
                while position < last:
                    records.append((K_CHAIN_SWAP, source, position))
                    chain[position], chain[position + 1] = (
                        chain[position + 1],
                        chain[position],
                    )
                    position += 1
                    self.chain_swaps += 1
        records.append((K_SPLIT, qubit, source))
        del chain[position]
        zone_usage = self.zone_usage
        here = path[0]
        for there in path[1:]:
            records.append((K_MOVE, qubit, here, there))
            zone_usage[there] += 1.0
            here = there
        self.shuttles += len(path) - 1
        zone_usage[source] += 1.0
        records.append((K_MERGE, qubit, destination))
        destination_chain.append(qubit)
        loc[qubit] = destination
        self.clock += 1  # a shuttle ticks the LRU clock but touches no qubit

    # ------------------------------------------------------------------
    # SWAP insertion (§3.3 weight-table rule)
    # ------------------------------------------------------------------

    def _insert_swaps(self, qubit_a: int, qubit_b: int) -> None:
        self._catch_up()  # the weight table reads the look-ahead window
        busy = (qubit_a, qubit_b)
        self._consider_swap(qubit_a, busy)
        self._consider_swap(qubit_b, busy)

    def _consider_swap(self, qubit: int, busy: tuple) -> bool:
        loc = self.loc
        zone_module = self.zone_module
        wparts = self.wparts
        home = zone_module[loc[qubit]]
        row: dict[int, int] = {}
        for partner, count in wparts[qubit].items():
            module_id = zone_module[loc[partner]]
            if module_id == home:
                return False  # W(q, home) != 0
            row[module_id] = row.get(module_id, 0) + count
        if not row:
            return False
        best_weight = -1
        best_module = -1
        for module_id, weight in row.items():
            if weight > best_weight or (
                weight == best_weight and module_id > best_module
            ):
                best_weight, best_module = weight, module_id
        if best_weight <= self.threshold:
            return False

        chains = self.chains
        last_used = self.last_used
        candidates: list[int] = []
        for zone_id in self.module_all_ids[best_module]:
            for partner in chains[zone_id]:
                if partner in busy:
                    continue
                parts = wparts[partner]
                if parts:
                    if parts.get(qubit, 0) != 0:
                        continue  # upcoming gates with q itself
                    resident = False
                    for peer in parts:
                        if zone_module[loc[peer]] == best_module:
                            resident = True
                            break
                    if resident:
                        continue  # W(partner, best_module) != 0
                candidates.append(partner)
        if not candidates:
            return False
        # Prefer a truly idle partner; break ties toward the most
        # recently used (freshest residency information).
        partner = candidates[0]
        best_key = (sum(wparts[partner].values()), -last_used[partner])
        for candidate in candidates[1:]:
            key = (sum(wparts[candidate].values()), -last_used[candidate])
            if key < best_key:
                partner, best_key = candidate, key

        self._route_to_optical(qubit, 0)
        self._route_to_optical(partner, 0)
        # Emit the logical SWAP and relabel the chain slots.
        zone_a = loc[qubit]
        zone_b = loc[partner]
        self.records.append((K_SWAP, qubit, partner, zone_a, zone_b))
        chain_a = chains[zone_a]
        chain_b = chains[zone_b]
        chain_a[chain_a.index(qubit)] = partner
        chain_b[chain_b.index(partner)] = qubit
        loc[qubit] = zone_b
        loc[partner] = zone_a
        self.inserted_swaps += 1
        zone_usage = self.zone_usage
        zone_usage[zone_a] += 0.75
        zone_usage[zone_b] += 0.75
        clock = self.clock + 1
        self.clock = clock
        last_used[qubit] = clock
        last_used[partner] = clock
        return True
