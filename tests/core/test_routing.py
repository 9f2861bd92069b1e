"""Routing policy tests (§3.2): zone choice, conflict handling, fiber routing.

Each case compiles end to end from an explicit placement and is pinned
byte-for-byte against the frozen seed scheduler; zone ids are listed in
``scheduling_scenarios``.
"""

from __future__ import annotations

from scheduling_scenarios import (
    FIBER_FROM_STORAGE,
    FULL_GATE_ZONES,
    OPERAND_WITH_ROOM,
    STORAGE_PAIR,
    compile_pinned,
    evicted_before,
    gate_zone,
    merges,
    one_module,
    two_modules,
)


class TestChooseLocalZone:
    def test_never_chooses_storage(self):
        program = compile_pinned(*STORAGE_PAIR)
        machine = one_module()
        assert not machine.zone(2).allows_gates
        assert machine.zone(gate_zone(program, 0)).allows_gates


class TestMakeRoom:
    def test_noop_when_space_exists(self):
        program = compile_pinned(*OPERAND_WITH_ROOM)
        assert evicted_before(program, 0) == []
        assert program.metadata["evictions"] == 0


class TestRouteLocalGate:
    def test_colocates_operands(self):
        """Operand 1 joins operand 0 in the optical zone, which has room."""
        program = compile_pinned(*OPERAND_WITH_ROOM)
        assert merges(program) == [(1, 0)]
        assert gate_zone(program, 0) == 0
        assert program.final_placement == {0: (0, 1)}

    def test_storage_pair_moves_to_gate_zone(self):
        """Both operands leave storage for the operation zone (level 1)."""
        program = compile_pinned(*STORAGE_PAIR)
        assert merges(program) == [(0, 1), (1, 1)]
        assert gate_zone(program, 0) == 1

    def test_eviction_on_full_module(self):
        """Both gate zones are full: a bystander is evicted to admit qubit 1."""
        program = compile_pinned(*FULL_GATE_ZONES)
        assert evicted_before(program, 0) == [2]
        assert gate_zone(program, 0) == 0
        assert program.metadata["evictions"] == 1


class TestOpticalRouting:
    def test_moves_from_storage(self):
        program = compile_pinned(*FIBER_FROM_STORAGE)
        machine = two_modules()
        first_qubit, first_zone = merges(program)[0]
        assert first_qubit == 0
        assert machine.zone(first_zone).allows_fiber

    def test_route_fiber_gate(self):
        program = compile_pinned(*FIBER_FROM_STORAGE)
        machine = two_modules()
        zone_a, zone_b = gate_zone(program, 0)
        assert (zone_a, zone_b) == (0, 4)
        assert machine.zone(zone_a).allows_fiber
        assert machine.zone(zone_b).allows_fiber
        assert program.final_placement == {0: (0,), 4: (1,)}
