"""Quantum circuit intermediate representation.

The circuit layer is deliberately small and self-contained: gates
(:mod:`repro.circuits.gate`), the circuit container
(:mod:`repro.circuits.circuit`), the gate dependency DAG used by every
scheduler (:mod:`repro.circuits.dag`), lowering passes
(:mod:`repro.circuits.decompose`) and OpenQASM 2.0 I/O
(:mod:`repro.circuits.qasm`).

The dense simulators of :mod:`repro.circuits.statevector` need numpy, which
the rest of the package does not: their three names load on first access,
so ``import repro`` works without numpy.
"""

from importlib import import_module

from .circuit import CircuitError, QuantumCircuit, validate_native
from .dag import DependencyError, DependencyGraph, dependency_layers
from .decompose import lower_to_native, ms_equivalent
from .gate import (
    GATE_ARITIES,
    GATE_PARAM_COUNTS,
    ONE_QUBIT_GATES,
    THREE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    Gate,
    GateError,
)
from .profile import (
    communication_summary,
    interaction_distance_histogram,
    locality_score,
    reuse_distance_profile,
)
from .qasm import QasmError, emit_qasm, load_qasm, parse_qasm, save_qasm

__all__ = [
    "CircuitError",
    "DependencyError",
    "DependencyGraph",
    "GATE_ARITIES",
    "GATE_PARAM_COUNTS",
    "Gate",
    "GateError",
    "ONE_QUBIT_GATES",
    "QasmError",
    "QuantumCircuit",
    "THREE_QUBIT_GATES",
    "TWO_QUBIT_GATES",
    "communication_summary",
    "dependency_layers",
    "interaction_distance_histogram",
    "locality_score",
    "reuse_distance_profile",
    "emit_qasm",
    "equivalent_up_to_global_phase",
    "load_qasm",
    "lower_to_native",
    "ms_equivalent",
    "parse_qasm",
    "save_qasm",
    "statevector",
    "unitary",
    "validate_native",
]

_STATEVECTOR_NAMES = ("equivalent_up_to_global_phase", "statevector", "unitary")


def __getattr__(name: str):
    if name not in _STATEVECTOR_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.statevector")
    # Importing the submodule binds ``statevector`` in this namespace to
    # the module; overwrite all three names with the functions.
    for attr in _STATEVECTOR_NAMES:
        globals()[attr] = getattr(module, attr)
    return globals()[name]
