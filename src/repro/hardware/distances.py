"""Precomputed per-machine topology maps for the scheduling hot path.

The schedulers (``core/arraycore.py``, the grid baselines) and the executor
ask the same static questions millions of times per compile: *which zones
belong to this module?  how far apart are these two zones?  what is the
shuttle path between them?*  The seed implementation answered each query
with a fresh linear scan or BFS; :func:`topology_maps` answers them all
from one immutable :class:`TopologyMaps` built once per machine.

Caching is two-level:

* an **instance memo** (``machine.__dict__``) for repeat lookups on the
  same object, and
* a process-wide table keyed by :func:`topology_cache_key` — the
  machine's *canonical registry spec* (``"eml?modules=4"``,
  ``"ring:8:16"``...) when it has one, else a content hash of its full
  declarative architecture.  Two machines with the same canonical spec
  are the same hardware, so sweeps that rebuild a machine per cell pay
  for the maps once per topology, not once per instance.  Ring vs chain
  (or any two topologies that merely share a zone count) canonicalise to
  different specs and therefore never share a cache entry;
  ``tests/bench/test_cache.py`` asserts this for every registered
  builder.

The BFS used here reproduces the seed ``Machine.shuttle_path`` exactly —
same neighbour iteration order, same first-visit parent rule — so the
precomputed paths are byte-identical to what the seed computed per query
(the differential suite proves it end to end).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .machine import Machine
    from .zones import Zone

#: Process-wide map cache.  Bounded: pathological test suites that build
#: thousands of distinct machines must not grow it without limit.
_MAPS_BY_KEY: dict[str, "TopologyMaps"] = {}
_MAX_CACHED_TOPOLOGIES = 256


@dataclass(frozen=True)
class TopologyMaps:
    """Immutable precomputed lookup tables for one machine topology.

    Zone attributes are dense tuples indexed by zone id; module groupings
    are tuples indexed by module id; distances and shortest paths cover
    every *reachable* ordered zone pair (EML modules are fiber-linked
    only, so cross-module pairs are absent by design).
    """

    cache_key: str
    #: zone id -> owning module id.
    zone_module: tuple[int, ...]
    #: zone id -> memory-hierarchy level (storage 0 / operation 1 / optical 2).
    zone_level: tuple[int, ...]
    #: zone id -> trap capacity.
    zone_capacity: tuple[int, ...]
    #: zone id -> may host local two-qubit gates.
    zone_allows_gates: tuple[bool, ...]
    #: zone id -> has an ion-photon interface.
    zone_allows_fiber: tuple[bool, ...]
    #: module id -> its zones in zone-id order.
    module_zones: tuple[tuple["Zone", ...], ...]
    #: module id -> gate-capable zones in zone-id order.
    module_gate_zones: tuple[tuple["Zone", ...], ...]
    #: module id -> optical zones in zone-id order.
    module_optical_zones: tuple[tuple["Zone", ...], ...]
    #: module id -> the set of its zone ids.
    module_zone_ids: tuple[frozenset[int], ...]
    #: (source, destination) -> shuttle hop count, reachable pairs only.
    distances: dict[tuple[int, int], int] = field(repr=False)
    #: (source, destination) -> inclusive shortest path, reachable pairs only.
    paths: dict[tuple[int, int], tuple[int, ...]] = field(repr=False)
    #: zone id -> same-module peers as ((static preference key), zone id),
    #: pre-sorted by the §3.2 eviction preference (lower level first, then
    #: level proximity to one-below, then hop distance), ties in zone-id
    #: order.  The dynamic part of the policy (free space) is applied by
    #: the caller at eviction time.
    eviction_preference: tuple[
        tuple[tuple[tuple[int, int, int], int], ...], ...
    ] = field(repr=False)
    #: zone ids the machine's fault model declares dead (empty = pristine).
    dead_zones: frozenset[int] = frozenset()
    #: failed optical links as normalised ``(module_a, module_b)`` pairs.
    blocked_links: frozenset[tuple[int, int]] = frozenset()


def topology_cache_key(machine: "Machine") -> str:
    """Stable cache key naming a machine's topology.

    Registry-built machines key on their lossless canonical spec string;
    hand-built architectures fall back to a content hash of the full
    declarative zone table + edge list, so structurally different
    machines can never collide on superficial similarity (equal zone
    counts, say).
    """
    spec = machine.spec
    if spec is not None:
        return f"spec:{spec}"
    arch = machine.architecture()
    payload = json.dumps(arch.to_dict(), sort_keys=True, default=str)
    return "arch:" + hashlib.sha256(payload.encode()).hexdigest()


def _bfs_paths(
    adjacency: dict[int, frozenset[int]], source: int
) -> dict[int, tuple[int, ...]]:
    """Full BFS from ``source``; reproduces the seed per-query BFS.

    The seed explored ``machine._adjacency[current]`` (a frozenset) in
    iteration order with first-visit parents and stopped at the queried
    destination; stopping early never changes the parents of nodes
    already reached, so one full traversal yields the exact path the
    seed would have returned for every destination.  Faulted machines
    pass their live adjacency instead, so severed edges and dead zones
    simply do not exist for routing.
    """
    parents: dict[int, int] = {source: source}
    queue = [source]
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        for neighbour in adjacency[current]:
            if neighbour not in parents:
                parents[neighbour] = current
                queue.append(neighbour)
    paths: dict[int, tuple[int, ...]] = {}
    for destination in parents:
        walk = [destination]
        while walk[-1] != source:
            walk.append(parents[walk[-1]])
        paths[destination] = tuple(reversed(walk))
    return paths


def _build_maps(machine: "Machine", cache_key: str) -> TopologyMaps:
    zones = machine.zones
    num_modules = 1 + max(zone.module_id for zone in zones)

    # A pristine machine uses ``_adjacency`` directly so the BFS below is
    # byte-identical to the seed; a faulted one routes over the live
    # adjacency, where dead zones and severed edges do not exist.
    model = machine.fault_model
    dead = frozenset(model.dead_zones) if model is not None else frozenset()
    blocked = (
        frozenset(model.failed_links) if model is not None else frozenset()
    )
    adjacency = machine._adjacency if model is None else machine.live_adjacency()

    module_zones: list[list] = [[] for _ in range(num_modules)]
    for zone in zones:
        module_zones[zone.module_id].append(zone)

    distances: dict[tuple[int, int], int] = {}
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for zone in zones:
        source = zone.zone_id
        if source in dead:
            continue  # no route starts (or ends) at a dead zone
        for destination, path in _bfs_paths(adjacency, source).items():
            paths[(source, destination)] = path
            distances[(source, destination)] = len(path) - 1

    eviction_preference: list[tuple] = []
    for zone in zones:
        from_zone = zone.zone_id
        from_level = zone.level
        ranked = []
        for peer in module_zones[zone.module_id]:
            if peer.zone_id == from_zone or peer.zone_id in dead:
                continue
            distance = distances.get((from_zone, peer.zone_id))
            if distance is None:
                continue  # unreachable peer can never absorb an eviction
            static_key = (
                0 if peer.level < from_level else 1,
                abs(peer.level - (from_level - 1)),
                distance,
            )
            ranked.append((static_key, peer.zone_id))
        ranked.sort(key=lambda entry: entry[0])  # stable: zone order on ties
        eviction_preference.append(tuple(ranked))

    return TopologyMaps(
        cache_key=cache_key,
        zone_module=tuple(zone.module_id for zone in zones),
        zone_level=tuple(zone.level for zone in zones),
        zone_capacity=tuple(
            0 if zone.zone_id in dead else zone.capacity for zone in zones
        ),
        zone_allows_gates=tuple(
            zone.allows_gates and zone.zone_id not in dead for zone in zones
        ),
        zone_allows_fiber=tuple(
            zone.allows_fiber and zone.zone_id not in dead for zone in zones
        ),
        module_zones=tuple(tuple(group) for group in module_zones),
        module_gate_zones=tuple(
            tuple(
                zone
                for zone in group
                if zone.allows_gates and zone.zone_id not in dead
            )
            for group in module_zones
        ),
        module_optical_zones=tuple(
            tuple(
                zone
                for zone in group
                if zone.allows_fiber and zone.zone_id not in dead
            )
            for group in module_zones
        ),
        module_zone_ids=tuple(
            frozenset(zone.zone_id for zone in group) for group in module_zones
        ),
        distances=distances,
        paths=paths,
        eviction_preference=tuple(eviction_preference),
        dead_zones=dead,
        blocked_links=blocked,
    )


def topology_maps(machine: "Machine") -> TopologyMaps:
    """The precomputed :class:`TopologyMaps` for *machine* (cached)."""
    memo = machine.__dict__.get("_topology_maps")
    if memo is not None:
        return memo
    key = topology_cache_key(machine)
    maps = _MAPS_BY_KEY.get(key)
    if maps is None:
        maps = _build_maps(machine, key)
        if len(_MAPS_BY_KEY) >= _MAX_CACHED_TOPOLOGIES:
            _MAPS_BY_KEY.pop(next(iter(_MAPS_BY_KEY)))
        _MAPS_BY_KEY[key] = maps
    machine.__dict__["_topology_maps"] = maps
    return maps
