"""SWAP-insertion tests (§3.3): the weight-table trigger rule and its config.

The rule runs inside the array core, so each case compiles end to end from an
explicit placement and is pinned byte-for-byte against the frozen seed
scheduler (see ``scheduling_scenarios``).
"""

from __future__ import annotations

import pytest
from scheduling_scenarios import (
    SPLIT_8,
    STAR_HUB,
    SWAP_INSERT,
    WINDOW_QUBIT_IN_FULL_ZONE,
    compile_pinned,
    gate_zone,
    splits,
    star,
    swap_pairs,
    two_modules_cap8,
)

from repro.core import MussTiConfig


class TestWeightTable:
    def test_total_and_partner_count(self):
        """Among idle candidates the SWAP takes one with no window gates."""
        busy_14 = star(16, range(8, 14))
        busy_14.cx(1, 14)
        busy_15 = star(16, range(8, 14))
        busy_15.cx(2, 15)
        picked = [
            swap_pairs(compile_pinned(two_modules_cap8, circuit, SPLIT_8, SWAP_INSERT))
            for circuit in (busy_14, busy_15)
        ]
        assert picked == [[(0, 15)], [(0, 14)]]

    def test_active_qubits(self):
        """Qubit 2 is in the look-ahead window, so it stays in the optical
        zone and its fiber gate fires there without a shuttle."""
        program = compile_pinned(*WINDOW_QUBIT_IN_FULL_ZONE)
        assert splits(program, 2) == []
        assert gate_zone(program, 2) == (0, 4)


class TestInsertionRule:
    def test_swap_inserted_for_heavy_remote_traffic(self):
        """Fig 5's star: after one fiber gate the hub migrates to module 1
        and its remaining gates run locally there."""
        program = compile_pinned(*STAR_HUB)
        assert len(swap_pairs(program)) == 1
        assert gate_zone(program, 0) == (0, 4)
        assert all(gate_zone(program, index) == 4 for index in range(1, 6))

    def test_partner_never_awaits_gate_with_migrant(self):
        """The chosen partner has no upcoming gate with the migrating qubit
        (the BV churn bug this rule prevents): qubits 9-13 carry fewer window
        gates than the busy 14 and 15, but each still awaits qubit 0."""
        circuit = star(16, range(8, 14))
        circuit.cx(1, 14).cx(1, 14).cx(2, 15).cx(2, 15)
        program = compile_pinned(two_modules_cap8, circuit, SPLIT_8, SWAP_INSERT)
        [(migrant, partner)] = swap_pairs(program)
        assert (migrant, partner) == (0, 14)
        assert all(set(gate.qubits) != {migrant, partner} for gate in circuit.gates)


class TestConfigValidation:
    def test_threshold_floor(self):
        with pytest.raises(ValueError, match="swap_threshold"):
            MussTiConfig(swap_threshold=2)

    def test_lookahead_floor(self):
        with pytest.raises(ValueError, match="lookahead_k"):
            MussTiConfig(lookahead_k=0)

    def test_ablation_labels(self):
        assert MussTiConfig.trivial().label == "Trivial"
        assert MussTiConfig.swap_insert_only().label == "SWAP Insert"
        assert MussTiConfig.sabre_only().label == "SABRE"
        assert MussTiConfig.full().label == "SABRE + SWAP Insert"

    def test_with_lookahead(self):
        config = MussTiConfig().with_lookahead(12)
        assert config.lookahead_k == 12
        assert config.use_sabre_mapping  # other fields preserved
