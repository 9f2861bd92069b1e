"""Program verification: proves a compiled program realises its circuit.

Two layers of checking:

1. *Physical legality* — every op is legal for the machine state when it
   fires (chain edges, capacities, adjacency, zone kinds).  The executor
   already enforces this while pricing; :func:`verify_program` reuses it.
2. *Logical equivalence* — the circuit gates embedded in the packed
   records (gate nodes with ``circuit_index >= 0``) form exactly the
   source circuit executed in a dependency-respecting order, each acting
   on its original logical qubits.
   Compiler-inserted SWAPs are transparent: they relabel which ion carries
   which logical qubit, and the executor's chain bookkeeping guarantees
   subsequent gates still find their logical operands.

Together these two checks are the repository's ground truth that a scheduler
is *correct*, independent of how good its metrics are.
"""

from __future__ import annotations

from ..circuits import DependencyGraph
from ..physics import PhysicalParams
from .events import ExecutionError, replay
from .oparray import K_FIBER, K_GATE
from .program import Program


class VerificationError(RuntimeError):
    """Raised when a program does not faithfully realise its circuit."""


def verify_program(program: Program, params: PhysicalParams | None = None) -> None:
    """Raise :class:`VerificationError` unless the program is fully valid.

    Layer 1 replays the op stream once (:func:`repro.sim.events.replay`)
    and additionally checks the program is *priceable* under ``params``
    (no entangler's ``1 - εN²`` fidelity collapses to zero) — exactly
    the failures :func:`~repro.sim.execute` would raise, without paying
    for a pricing fold.
    """
    # Layer 1: physical legality + priceability (the ledger's replay).
    try:
        replay(program).verify_priceable(params)
    except (ExecutionError, ValueError) as exc:
        raise VerificationError(f"physical legality: {exc}") from exc

    verify_logical(program)


def verify_logical(program: Program) -> None:
    """Layer 2 alone: the op stream realises the circuit (dependency
    order, gate identity, completeness).  Assumes legality was already
    established via :func:`repro.sim.events.replay`.  Reads the packed
    records; a gate node past the circuit's end stands for the circuit
    slot its op claimed, if any."""
    circuit = program.circuit
    packed = program.packed_view
    gates = packed.gate_table(circuit)
    num_gates = len(circuit.gates)
    dag = DependencyGraph(circuit)
    executed: set[int] = set()
    for record in packed.records:
        kind = record[0]
        if kind != K_GATE and kind != K_FIBER:
            continue
        node = record[1]
        index = packed.circuit_index(node, num_gates)
        if index < 0:
            continue  # compiler-inserted
        if index >= num_gates:
            raise VerificationError(
                f"circuit gate #{index} does not exist (the circuit has "
                f"{num_gates} gates)"
            )
        if index in executed:
            raise VerificationError(f"circuit gate #{index} executed twice")
        gate = gates[node]
        if node != index and gate != gates[index]:  # a claim on another gate
            raise VerificationError(
                f"circuit gate #{index} mismatch: program has {gate}, "
                f"circuit has {gates[index]}"
            )
        if not dag.is_ready(index):
            raise VerificationError(
                f"circuit gate #{index} ({gate}) executed before its "
                "dependencies"
            )
        dag.complete(index)
        executed.add(index)
    if not dag.is_empty:
        missing = [node for node, _ in dag.frontier_gates()]
        raise VerificationError(
            f"{len(dag)} circuit gates never executed (next ready: "
            f"{missing[:5]})"
        )


def is_valid(program: Program, params: PhysicalParams | None = None) -> bool:
    """Boolean convenience wrapper around :func:`verify_program`."""
    try:
        verify_program(program, params)
    except VerificationError:
        return False
    return True
