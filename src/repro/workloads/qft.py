"""Quantum Fourier transform.

The textbook QFT applies controlled-phase gates between every qubit pair —
an all-to-all communication pattern and the heaviest two-qubit gate count in
the suite (n(n-1)/2 CP gates plus the final reversal SWAPs).  The paper omits
QFT fidelity beyond n=32 because it underflows double precision; our
log-domain ledger still reports it.
"""

from __future__ import annotations

import math

from ..circuits import QuantumCircuit

#: Widest QFT whose smallest phase angle, pi / 2**(n-1), double precision
#: can represent; a wider register would divide by 2**1024 or more.
MAX_QFT_QUBITS = 1024


def qft(num_qubits: int, *, include_swaps: bool = True) -> QuantumCircuit:
    """Build the ``num_qubits``-qubit QFT.

    Args:
        num_qubits: register width.
        include_swaps: append the qubit-reversal SWAP network (default true,
            matching QASMBench's qft circuits).
    """
    if num_qubits < 1:
        raise ValueError(f"QFT needs at least 1 qubit, got {num_qubits}")
    if num_qubits > MAX_QFT_QUBITS:
        raise ValueError(
            f"QFT supports at most {MAX_QFT_QUBITS} qubits, got {num_qubits}: "
            f"its smallest phase angle pi/2**{num_qubits - 1} is below double precision"
        )
    circuit = QuantumCircuit(num_qubits, name=f"QFT_n{num_qubits}")
    # Process from the most significant qubit down (qubit 0 is the least
    # significant bit); with the final swap reversal this is exactly the
    # DFT matrix on computational-basis indices.
    for target in range(num_qubits - 1, -1, -1):
        circuit.h(target)
        for control in range(target - 1, -1, -1):
            angle = math.pi / (2 ** (target - control))
            circuit.cp(angle, control, target)
    if include_swaps:
        for q in range(num_qubits // 2):
            circuit.swap(q, num_qubits - 1 - q)
    return circuit
