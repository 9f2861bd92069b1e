"""Workload generator structure tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits import statevector, validate_native
from repro.workloads import (
    bernstein_vazirani,
    cuccaro_adder,
    ghz,
    qaoa_ring,
    qft,
    random_circuit,
    sqrt_circuit,
    supremacy_circuit,
)


class TestGHZ:
    def test_structure(self):
        circuit = ghz(8)
        assert circuit.num_qubits == 8
        assert circuit.count_ops() == {"h": 1, "cx": 7}

    def test_prepares_ghz_state(self):
        state = statevector(ghz(4))
        expected = np.zeros(16)
        expected[0] = expected[15] = 1 / math.sqrt(2)
        assert np.allclose(state, expected)

    def test_interactions_are_nearest_neighbour(self):
        circuit = ghz(16)
        for a, b in circuit.interaction_pairs():
            assert b - a == 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            ghz(1)


class TestBV:
    def test_default_secret_all_ones(self):
        circuit = bernstein_vazirani(8)
        assert circuit.count_ops()["cx"] == 7

    def test_custom_secret(self):
        circuit = bernstein_vazirani(8, secret=0b0000101)
        assert circuit.count_ops()["cx"] == 2

    def test_zero_secret(self):
        circuit = bernstein_vazirani(8, secret=0)
        assert "cx" not in circuit.count_ops()

    def test_all_gates_share_ancilla(self):
        circuit = bernstein_vazirani(10)
        ancilla = 9
        for gate in circuit.two_qubit_gates():
            assert ancilla in gate.qubits

    def test_recovers_secret(self):
        # After the oracle + uncompute, the data register holds the secret.
        secret = 0b101
        circuit = bernstein_vazirani(4, secret=secret).without_non_unitary()
        amplitudes = np.abs(statevector(circuit)) ** 2
        # Trace out the ancilla (qubit 3): sum probabilities per data value.
        probabilities = amplitudes.reshape(2, 8).sum(axis=0)
        assert probabilities[secret] == pytest.approx(1.0)

    def test_secret_out_of_range(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(4, secret=1 << 5)


class TestQFT:
    def test_gate_count(self):
        n = 8
        circuit = qft(n)
        assert circuit.count_ops()["cp"] == n * (n - 1) // 2
        assert circuit.count_ops()["h"] == n
        assert circuit.count_ops()["swap"] == n // 2

    def test_without_swaps(self):
        circuit = qft(6, include_swaps=False)
        assert "swap" not in circuit.count_ops()

    def test_qft_width_is_capped_where_angles_stay_representable(self):
        # pi / 2**1024 would need a float beyond double range.
        with pytest.raises(ValueError, match="at most 1024 qubits"):
            qft(1025)

    def test_qft_matrix(self):
        from repro.circuits import unitary

        n = 3
        circuit = qft(n)
        dimension = 1 << n
        omega = np.exp(2j * math.pi / dimension)
        expected = np.array(
            [[omega ** (j * k) for k in range(dimension)] for j in range(dimension)]
        ) / math.sqrt(dimension)
        assert np.allclose(unitary(circuit), expected, atol=1e-9)

    def test_all_to_all_interactions(self):
        circuit = qft(6, include_swaps=False)
        pairs = set(circuit.interaction_pairs())
        assert len(pairs) == 15  # every unordered pair


class TestQAOA:
    def test_ring_edges(self):
        n = 12
        circuit = qaoa_ring(n, rounds=1)
        pairs = circuit.interaction_pairs()
        assert len(pairs) == n
        for a, b in pairs:
            assert (b - a == 1) or (a == 0 and b == n - 1)

    def test_round_scaling(self):
        one = qaoa_ring(8, rounds=1)
        two = qaoa_ring(8, rounds=2)
        assert two.count_ops()["rzz"] == 2 * one.count_ops()["rzz"]

    def test_deterministic(self):
        assert qaoa_ring(8, seed=3) == qaoa_ring(8, seed=3)
        assert qaoa_ring(8, seed=3) != qaoa_ring(8, seed=4)


class TestAdder:
    def test_native_form(self):
        circuit = cuccaro_adder(16)
        validate_native(circuit)

    def test_undcomposed_keeps_toffolis(self):
        circuit = cuccaro_adder(16, decompose=False)
        assert circuit.count_ops()["ccx"] > 0

    def test_adds_correctly(self):
        """Simulate the 10-qubit adder and check b <- a + b (mod 2^k)."""
        circuit = cuccaro_adder(10, decompose=False).without_non_unitary()
        state = statevector(circuit)
        basis = int(np.argmax(np.abs(state)))
        assert abs(state[basis]) == pytest.approx(1.0)
        bits = 4  # (10 - 2) // 2
        a = sum(((basis >> (2 + 2 * i)) & 1) << i for i in range(bits))
        b = sum(((basis >> (1 + 2 * i)) & 1) << i for i in range(bits))
        carry = (basis >> (2 * bits + 1)) & 1
        # Inputs: a = 0101 pattern, b = 1111.
        a_in = sum((1 << i) for i in range(bits) if i % 2 == 0)
        b_in = (1 << bits) - 1
        total = a_in + b_in
        assert a == a_in  # a register is restored
        assert b == total % (1 << bits)
        assert carry == total >> bits

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            cuccaro_adder(3)


class TestSQRT:
    def test_native_form(self):
        validate_native(sqrt_circuit(20))

    def test_round_default_scales_with_size(self):
        small = sqrt_circuit(30)
        large_per_round = sqrt_circuit(210, rounds=1)
        large_default = sqrt_circuit(210)
        assert large_default.num_two_qubit_gates == large_per_round.num_two_qubit_gates
        assert small.num_two_qubit_gates > 0

    def test_interleaving_keeps_interactions_local(self):
        circuit = sqrt_circuit(60)
        spans = [abs(a - b) for a, b in circuit.interaction_pairs()]
        local = sum(1 for s in spans if s <= 8)
        assert local / len(spans) > 0.9, "SQRT interactions should be mostly local"

    def test_too_small(self):
        with pytest.raises(ValueError):
            sqrt_circuit(5)


class TestRandomCircuits:
    def test_ran_deterministic(self):
        assert random_circuit(16, seed=1) == random_circuit(16, seed=1)
        assert random_circuit(16, seed=1) != random_circuit(16, seed=2)

    def test_ran_gate_count_default(self):
        circuit = random_circuit(32)
        assert circuit.count_ops()["cx"] == 4 * 32

    def test_ran_explicit_count(self):
        circuit = random_circuit(16, num_two_qubit_gates=10)
        assert circuit.count_ops()["cx"] == 10

    def test_ran_no_self_loops(self):
        circuit = random_circuit(8, num_two_qubit_gates=200, seed=9)
        for gate in circuit.two_qubit_gates():
            assert gate.qubits[0] != gate.qubits[1]

    def test_sc_grid_locality(self):
        circuit = supremacy_circuit(64, depth=8)
        columns = 8
        for a, b in circuit.interaction_pairs():
            assert (b - a == 1) or (b - a == columns), f"non-grid edge {(a, b)}"

    def test_sc_depth_scaling(self):
        shallow = supremacy_circuit(36, depth=4)
        deep = supremacy_circuit(36, depth=8)
        assert deep.num_two_qubit_gates > shallow.num_two_qubit_gates

    def test_sc_deterministic(self):
        assert supremacy_circuit(30) == supremacy_circuit(30)
