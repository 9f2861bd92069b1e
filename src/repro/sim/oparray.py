"""Packed op streams: the one schedule representation a program holds.

The array-core scheduler (:mod:`repro.core.arraycore`, which hands its
records back in a :class:`~repro.core.arraycore.ScheduleResult`) and the
grid baselines (through :class:`~repro.core.state.MachineState`) emit
their schedules as flat integer records instead of :mod:`repro.sim.ops`
dataclass instances — creating ~50k frozen dataclasses per compile costs
more than the scheduling decisions themselves.  A :class:`PackedOps`
holds that stream: one small tuple of ints per op, tagged by a kind code,
plus the per-gate operand arrays needed to price gates without touching
:class:`~repro.circuits.Gate` objects.

Every :class:`~repro.sim.program.Program` holds one: a program built
from an op dataclass list is encoded once, by its constructor
(:meth:`PackedOps.from_operations`, the exact inverse of
:meth:`PackedOps.materialize`).  The replay, the pricing folds and the
verifier read the records; the dataclasses remain the construction and
read-only decode view (:attr:`~repro.sim.program.Program.operations`).

Kind codes (first element of every record)::

    0 SplitOp(qubit, zone)                 -> (0, qubit, zone)
    1 MoveOp(qubit, source, destination)   -> (1, qubit, source, destination)
    2 MergeOp(qubit, zone)                 -> (2, qubit, zone)
      MergeOp(qubit, zone, side) [not tail] -> (2, qubit, zone, side)
    3 ChainSwapOp(zone, position)          -> (3, zone, position)
    4 GateOp(gate, zone, node)             -> (4, node, zone)
    5 FiberGateOp(gate, zone_a, zone_b, node) -> (5, node, zone_a, zone_b)
    6 SwapGateOp(qubit_a, qubit_b, zone_a, zone_b)
                                           -> (6, qubit_a, qubit_b, zone_a, zone_b)
    7 an op the records cannot carry       -> (7, error text, op)

Kind 7 comes only from :meth:`PackedOps.from_operations`: the replay
raises its text when it reaches it, so an earlier illegal op still
reports first, and :meth:`PackedOps.materialize` hands the op back.
"""

from __future__ import annotations

from .ops import (
    ChainSwapOp,
    FiberGateOp,
    GateOp,
    MergeOp,
    MoveOp,
    Operation,
    SplitOp,
    SwapGateOp,
)

K_SPLIT, K_MOVE, K_MERGE, K_CHAIN_SWAP, K_GATE, K_FIBER, K_SWAP, K_INVALID = range(8)


class PackedOps:
    """An op stream as flat int records (see module docstring).

    ``qubits_a``/``qubits_b`` map a gate node (the ``node`` field of
    kind-4/5 records) to its operands, with ``qubits_b[node] == -1`` for
    one-qubit gates — enough to price every gate record without the
    :class:`~repro.circuits.Gate` object.  Nodes index the circuit's
    gates; ``gates`` is set only when the stream runs gates the circuit
    does not hold, which take the nodes past its end.  ``claims`` holds,
    per such node, the ``circuit_index`` it decodes with: ``-1`` for a
    compiler-inserted gate, else the circuit slot its op claimed (a
    wrong or stale claim the verifier reports).
    """

    __slots__ = ("records", "qubits_a", "qubits_b", "gates", "claims", "_shuttle_count")

    def __init__(self, records, qubits_a, qubits_b, gates=None, claims=()) -> None:
        self.records: list[tuple[int, ...]] = records
        self.qubits_a = qubits_a
        self.qubits_b = qubits_b
        self.gates = gates
        self.claims: tuple[int, ...] = claims
        self._shuttle_count: int | None = None

    @classmethod
    def for_circuit(cls, records, circuit, extra_gates=(), claims=()) -> "PackedOps":
        """Wrap ``records`` with the operand arrays of a native circuit,
        followed by ``extra_gates`` (nodes past the circuit's end) and
        their ``claims``."""
        if not extra_gates:
            return cls(records, *_operands(circuit.gates))
        gates = tuple(circuit.gates) + tuple(extra_gates)
        return cls(records, *_operands(gates), gates, tuple(claims))

    @classmethod
    def from_operations(cls, operations, circuit, num_zones: int) -> "PackedOps":
        """Encode an op dataclass list: the inverse of :meth:`materialize`.

        A gate op keeps its ``circuit_index`` as its node when the
        circuit holds that gate there; any other gate gets a node past
        the circuit's end that keeps the index as its claim.  An op the
        records cannot carry — an unknown op type, a zone or qubit id
        the machine or circuit lacks, a gate on more than two qubits —
        becomes a kind-7 record with its error text and the op itself.
        """
        gates = list(circuit.gates)
        num_gates = len(gates)
        num_qubits = circuit.num_qubits
        claims: list[int] = []
        records: list[tuple] = []
        append = records.append
        for op in operations:
            op_class = op.__class__
            if op_class is GateOp or op_class is FiberGateOp:
                gate = op.gate
                qubits = gate.qubits
                if op_class is GateOp:
                    if len(qubits) > 2:
                        append((K_INVALID, f"gate {gate} acts on {len(qubits)} qubits", op))
                        continue
                    zones: tuple[int, ...] = (op.zone,)
                elif len(qubits) != 2:
                    append((K_INVALID, f"fiber gate {gate} needs two qubits", op))
                    continue
                else:
                    zones = (op.zone_a, op.zone_b)
                node = op.circuit_index
                if not 0 <= node < num_gates or (
                    gates[node] is not gate and gates[node] != gate
                ):
                    claims.append(node)
                    node = len(gates)
                    gates.append(gate)
                if op_class is GateOp:
                    record: tuple = (K_GATE, node, op.zone)
                else:
                    record = (K_FIBER, node, op.zone_a, op.zone_b)
            elif op_class is MoveOp:
                qubits = (op.qubit,)
                zones = (op.source_zone, op.destination_zone)
                record = (K_MOVE, op.qubit, op.source_zone, op.destination_zone)
            elif op_class is SplitOp:
                qubits = (op.qubit,)
                zones = (op.zone,)
                record = (K_SPLIT, op.qubit, op.zone)
            elif op_class is MergeOp:
                qubits = (op.qubit,)
                zones = (op.zone,)
                record = (K_MERGE, op.qubit, op.zone)
                if op.side != "tail":
                    record += (op.side,)
            elif op_class is ChainSwapOp:
                qubits = ()
                zones = (op.zone,)
                record = (K_CHAIN_SWAP, op.zone, op.position)
            elif op_class is SwapGateOp:
                qubits = (op.qubit_a, op.qubit_b)
                zones = (op.zone_a, op.zone_b)
                record = (K_SWAP, op.qubit_a, op.qubit_b, op.zone_a, op.zone_b)
            else:
                append((K_INVALID, f"unknown operation type {op_class.__name__}", op))
                continue
            missing = _missing_id(zones, num_zones, qubits, num_qubits)
            append(record if missing is None else (K_INVALID, missing, op))
        return cls.for_circuit(records, circuit, gates[num_gates:], claims)

    def __len__(self) -> int:
        return len(self.records)

    def gate_table(self, circuit):
        """Node -> :class:`~repro.circuits.Gate` for these records."""
        return circuit.gates if self.gates is None else self.gates

    def circuit_index(self, node: int, num_gates: int) -> int:
        """The ``circuit_index`` gate node ``node`` decodes with, for a
        circuit of ``num_gates`` gates: the node itself, or the claim of
        a node past the circuit's end."""
        return node if node < num_gates else self.claims[node - num_gates]

    @property
    def shuttle_count(self) -> int:
        count = self._shuttle_count
        if count is None:
            count = self._shuttle_count = sum(
                1 for record in self.records if record[0] == K_MOVE
            )
        return count

    def materialize(self, circuit) -> list[Operation]:
        """Build the equivalent :mod:`repro.sim.ops` object stream."""
        gates = self.gate_table(circuit)
        num_gates = len(circuit.gates)
        index = self.circuit_index
        out: list[Operation] = []
        append = out.append
        for record in self.records:
            kind = record[0]
            if kind == K_GATE:
                node = record[1]
                append(GateOp(gates[node], record[2], index(node, num_gates)))
            elif kind == K_MOVE:
                append(MoveOp(record[1], record[2], record[3]))
            elif kind == K_CHAIN_SWAP:
                append(ChainSwapOp(record[1], record[2]))
            elif kind == K_SPLIT:
                append(SplitOp(record[1], record[2]))
            elif kind == K_MERGE:
                append(MergeOp(*record[1:]))
            elif kind == K_FIBER:
                node = record[1]
                append(
                    FiberGateOp(gates[node], record[2], record[3], index(node, num_gates))
                )
            elif kind == K_SWAP:
                append(SwapGateOp(record[1], record[2], record[3], record[4]))
            else:  # K_INVALID: the op the records could not carry
                append(record[2])
        return out


def _operands(gates) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ``qubits_a``/``qubits_b`` arrays of a gate sequence."""
    operands = [gate.qubits for gate in gates]
    return (
        tuple(qubits[0] for qubits in operands),
        tuple(qubits[1] if len(qubits) == 2 else -1 for qubits in operands),
    )


def _missing_id(zones, num_zones: int, qubits, num_qubits: int) -> str | None:
    """The error text for the first zone or qubit id out of range."""
    for zone_id in zones:
        if not 0 <= zone_id < num_zones:
            return f"zone {zone_id} does not exist (the machine has {num_zones} zones)"
    for qubit in qubits:
        if not 0 <= qubit < num_qubits:
            return f"qubit {qubit} does not exist (the circuit has {num_qubits} qubits)"
    return None
