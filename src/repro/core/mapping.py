"""Initial qubit placement (paper §3.4).

*Trivial mapping* places qubits in index order into zones sorted from the
highest level down — optical first, then operation, then storage — module by
module, respecting the per-module qubit limit.

*SABRE mapping* is the two-fold search: compile the circuit from the trivial
mapping, take the final placement, compile the *reversed* circuit from it,
and use that pass's final placement as the real initial mapping.  It acts as
a pre-loading mechanism: qubits that the circuit touches early finish the
reverse pass sitting in high-level zones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from ..circuits import QuantumCircuit
from ..hardware import Machine
from .config import MussTiConfig
from .state import RoutingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compiler import MussTiCompiler

Placement = dict[int, tuple[int, ...]]


def _modules_by_id(machine: Machine) -> list[int]:
    return sorted({zone.module_id for zone in machine.zones})


def _dead_zone_ids(machine: Machine) -> frozenset[int]:
    model = machine.fault_model
    return frozenset(model.dead_zones) if model is not None else frozenset()


def _usable_zones(machine: Machine, module_id: int) -> list:
    """A module's zones minus any the fault model declares dead."""
    dead = _dead_zone_ids(machine)
    return [
        zone
        for zone in machine.zones_in_module(module_id)
        if zone.zone_id not in dead
    ]


def _placement_modules(machine: Machine) -> list[int]:
    """Modules placement may populate, restricted to a live fiber clique.

    When the fault model fails optical links, placement keeps only a
    greedy clique (lowest ids first) of modules that are all mutually
    linked.  Because swap insertion only pairs resident qubits, eviction
    stays intra-module and fiber gates only run between resident modules,
    populating only a clique guarantees no scheduled operation ever needs
    a failed link.
    """
    modules = _modules_by_id(machine)
    model = machine.fault_model
    if model is None:
        return modules
    maps = machine.topology_maps()
    live = [
        module_id
        for module_id in modules
        if maps.module_gate_zones[module_id]
        and maps.module_optical_zones[module_id]
    ]
    if not live:
        # No module can both gate and fiber: keep the first module that
        # can at least gate — a single-module workload needs no fiber.
        live = [m for m in modules if maps.module_gate_zones[m]][:1]
    if not model.failed_links:
        return live
    clique: list[int] = []
    for module_id in live:
        if all(not model.blocks_link(module_id, member) for member in clique):
            clique.append(module_id)
    return clique


def _module_zone_order(machine: Machine, module_id: int) -> list[int]:
    """Usable zones of a module ordered by level descending (optical first)."""
    zones = _usable_zones(machine, module_id)
    zones.sort(key=lambda zone: (-zone.level, zone.zone_id))
    return [zone.zone_id for zone in zones]


def _module_limit(machine: Machine, module_id: int) -> int:
    capacity = sum(zone.capacity for zone in _usable_zones(machine, module_id))
    limit = getattr(machine, "module_qubit_limit", None)
    if limit is not None:
        capacity = min(capacity, limit)
    return capacity


#: Trap slots deliberately left free per module so routing always has an
#: eviction destination (a completely full module cannot shuttle at all).
_ROUTING_SLACK = 2


def trivial_placement(circuit: QuantumCircuit, machine: Machine) -> Placement:
    """Sequential highest-level-first placement (§3.4 'Trivial Mapping').

    Each module is budgeted to leave two trap slots free when total capacity
    allows; a second pass fills that slack only if the machine would
    otherwise be too small.
    """
    placement: dict[int, list[int]] = {}
    total = circuit.num_qubits
    modules = _placement_modules(machine)

    def fill(next_qubit: int, reserve: int) -> int:
        for module_id in modules:
            if next_qubit >= total:
                break
            used = sum(
                len(placement.get(zone.zone_id, ()))
                for zone in _usable_zones(machine, module_id)
            )
            trap_space = sum(
                zone.capacity for zone in _usable_zones(machine, module_id)
            )
            budget = min(
                _module_limit(machine, module_id), trap_space - reserve
            ) - used
            for zone_id in _module_zone_order(machine, module_id):
                if budget <= 0 or next_qubit >= total:
                    break
                room = machine.zone(zone_id).capacity - len(
                    placement.get(zone_id, ())
                )
                take = min(room, budget, total - next_qubit)
                if take <= 0:
                    continue
                placement.setdefault(zone_id, []).extend(
                    range(next_qubit, next_qubit + take)
                )
                next_qubit += take
                budget -= take
        return next_qubit

    next_qubit = fill(0, _ROUTING_SLACK)
    if next_qubit < total:
        next_qubit = fill(next_qubit, 0)  # tight machine: use the slack
    if next_qubit < total:
        detail = (
            f"machine too small: placed {next_qubit} of {total} qubits "
            f"(total usable capacity "
            f"{sum(_module_limit(machine, m) for m in modules)}"
        )
        if machine.fault_model is not None:
            detail += (
                f"; capacity reduced by faults: "
                f"{machine.fault_model.describe()}"
            )
        raise RoutingError(detail + ")")
    return {zone_id: tuple(chain) for zone_id, chain in placement.items()}


def sabre_placement(
    circuit: QuantumCircuit,
    machine: Machine,
    compiler: Union["MussTiCompiler", MussTiConfig],
) -> Placement:
    """Two-fold search placement (§3.4 'SABRE').

    ``compiler`` may be a :class:`MussTiCompiler` or its bare
    :class:`MussTiConfig` (what the scheduling dynamics actually depend
    on).  Both warm-up passes run with SABRE disabled (to terminate the
    recursion) but otherwise the caller's configuration, so the final
    placements reflect the real scheduling dynamics.  Each warm-up is a
    public :meth:`MussTiCompiler.compile`, the call perfbench times as
    the SABRE layer; two bare :func:`~repro.core.arraycore.schedule`
    calls give the same placement, key order included.
    """
    from dataclasses import replace

    from .compiler import MussTiCompiler

    config = getattr(compiler, "config", compiler)
    warmup = MussTiCompiler(replace(config, use_sabre_mapping=False))
    start = trivial_placement(circuit, machine)
    forward = warmup.compile(circuit, machine, initial_placement=start)
    backward = warmup.compile(
        circuit.reversed(), machine, initial_placement=forward.final_placement
    )
    return dict(backward.final_placement)
