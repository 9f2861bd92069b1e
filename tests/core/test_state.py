"""Machine-state tests: chains, shuttles, LRU bookkeeping.

Eviction choice and SWAP relabelling happen inside the array core, so those
cases compile end to end (see ``scheduling_scenarios``).
"""

from __future__ import annotations

import pytest
from scheduling_scenarios import (
    FULL_GATE_ZONES,
    STAR_HUB,
    WINDOW_QUBIT_IN_FULL_ZONE,
    compile_pinned,
    evicted_before,
    splits,
)

from repro.core import MachineState, RoutingError
from repro.sim.oparray import K_CHAIN_SWAP, K_MERGE, K_MOVE, K_SPLIT


class TestPlacement:
    def test_initial_chains(self, tiny_grid):
        state = MachineState(tiny_grid, {0: (0, 1), 2: (2,)})
        assert state.chains[0] == [0, 1]
        assert state.zone_of(2) == 2
        assert state.free_space(0) == 2
        assert state.free_space(1) == 4

    def test_duplicate_placement_rejected(self, tiny_grid):
        with pytest.raises(RoutingError, match="twice"):
            MachineState(tiny_grid, {0: (0,), 1: (0,)})

    def test_module_and_colocation_queries(self, two_modules):
        optical0 = two_modules.optical_zones(0)[0].zone_id
        optical1 = two_modules.optical_zones(1)[0].zone_id
        state = MachineState(two_modules, {optical0: (0, 1), optical1: (2,)})
        assert state.co_located(0, 1)
        assert not state.co_located(0, 2)
        assert state.zone_of(2) == optical1
        assert state.maps.zone_module[state.zone_of(2)] == 1
        assert state.free_space(optical0) == 2


class TestShuttle:
    def test_edge_ion_shuttles_without_chain_swaps(self, tiny_grid):
        state = MachineState(tiny_grid, {0: (0, 1, 2)})
        state.shuttle(2, 1)  # tail ion
        assert state.chains[0] == [0, 1]
        assert state.chains[1] == [2]
        assert state.records == [(K_SPLIT, 2, 0), (K_MOVE, 2, 0, 1), (K_MERGE, 2, 1)]

    def test_interior_ion_bubbles_to_nearest_edge(self, tiny_grid):
        state = MachineState(tiny_grid, {0: (0, 1, 2, 3)})
        state.shuttle(1, 1)  # position 1 of 4: head side is nearer
        chain_swaps = [record for record in state.records if record[0] == K_CHAIN_SWAP]
        assert chain_swaps == [(K_CHAIN_SWAP, 0, 0)]
        assert state.chains[0] == [0, 2, 3]

    def test_multi_hop_path(self):
        from repro.hardware import QCCDGridMachine

        machine = QCCDGridMachine(1, 4, 4)
        state = MachineState(machine, {0: (0,)})
        state.shuttle(0, 3)
        moves = [record for record in state.records if record[0] == K_MOVE]
        assert moves == [(K_MOVE, 0, 0, 1), (K_MOVE, 0, 1, 2), (K_MOVE, 0, 2, 3)]
        assert state.stats["shuttles"] == 3

    def test_noop_shuttle(self, tiny_grid):
        state = MachineState(tiny_grid, {0: (0,)})
        state.shuttle(0, 0)
        assert state.records == []

    def test_full_destination_rejected(self, tiny_grid):
        state = MachineState(tiny_grid, {0: (0,), 1: (1, 2, 3, 4)})
        with pytest.raises(RoutingError, match="full"):
            state.shuttle(0, 1)


class TestLru:
    def test_fifo_victim_is_chain_head(self, tiny_grid):
        state = MachineState(tiny_grid, {0: (2, 0, 1)})
        assert state.fifo_victim(0, frozenset()) == 2
        assert state.fifo_victim(0, frozenset({2})) == 0

    def test_all_protected_raises(self, tiny_grid):
        state = MachineState(tiny_grid, {0: (0,)})
        with pytest.raises(RoutingError, match="evictable"):
            state.fifo_victim(0, frozenset({0}))

    def test_protected_qubits_skipped(self):
        """Operand 0 heads a chain of equally idle ions, yet is not evicted."""
        program = compile_pinned(*FULL_GATE_ZONES)
        assert evicted_before(program, 0) == [2]
        assert splits(program, 0) == []

    def test_future_qubits_spared(self):
        """Qubit 2 precedes 3 in the chain but has a gate in the window."""
        program = compile_pinned(*WINDOW_QUBIT_IN_FULL_ZONE)
        assert evicted_before(program, 1) == [3]


class TestGateEmission:
    def test_local_gate_requires_colocation(self, tiny_grid, bell_pair):
        state = MachineState(tiny_grid, {0: (0,), 1: (1,)})
        with pytest.raises(RoutingError, match="not co-located"):
            state.emit_local_gate(bell_pair[1], 1)

    def test_swap_gate_relabels_chains(self):
        """An inserted SWAP trades the two qubits' chain slots in place."""
        program = compile_pinned(*STAR_HUB)
        assert program.metadata["inserted_swaps"] == 1
        assert program.final_placement[0] == (14, 1, 2, 3, 4, 5, 6, 7)
        assert program.final_placement[4] == (8, 9, 10, 11, 12, 13, 0, 15)

    def test_final_placement_snapshot(self, tiny_grid):
        state = MachineState(tiny_grid, {0: (0, 1)})
        state.shuttle(1, 2)
        placement = state.final_placement()
        assert placement == {0: (0,), 2: (1,)}
