"""Compiled program: an operation stream plus its execution context."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..circuits import QuantumCircuit
from ..hardware import Machine
from .ops import MoveOp, Operation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .oparray import PackedOps


@dataclass
class Program:
    """The output of every compiler in this repository.

    Attributes:
        machine: the hardware the program was compiled for.
        circuit: the source circuit (logical gates, native 1q/2q form).
        initial_placement: zone id -> ordered chain of logical qubits, the
            state of the machine before the first op.
        operations: the op stream (see :mod:`repro.sim.ops`).
        compiler_name: provenance label for reports.
        compile_time_s: wall-clock seconds spent compiling.
        metadata: free-form compiler statistics (e.g. inserted SWAP count).
        final_placement: chains after the last op (filled by compilers; used
            by SABRE's two-fold search).
    """

    machine: Machine
    circuit: QuantumCircuit
    initial_placement: dict[int, tuple[int, ...]]
    operations: list[Operation]
    compiler_name: str = "unknown"
    compile_time_s: float = 0.0
    metadata: dict[str, float] = field(default_factory=dict)
    final_placement: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def packed_view(self) -> "PackedOps | None":
        """Packed records carrying the op stream, when the program has
        them (see :class:`ArrayProgram`); the replay encodes
        ``operations`` otherwise."""
        return None

    @property
    def shuttle_count(self) -> int:
        """Number of inter-zone moves (the paper's headline shuttle metric)."""
        return sum(1 for op in self.operations if isinstance(op, MoveOp))

    @property
    def num_operations(self) -> int:
        return len(self.operations)

    def initial_zone_of(self, qubit: int) -> int:
        """Zone holding ``qubit`` before execution starts."""
        for zone_id, chain in self.initial_placement.items():
            if qubit in chain:
                return zone_id
        raise KeyError(f"qubit {qubit} is not placed")

    def validate_placement(self) -> None:
        """Check the initial placement is a partition within capacities."""
        seen: set[int] = set()
        num_zones = self.machine.num_zones
        num_qubits = self.circuit.num_qubits
        for zone_id, chain in self.initial_placement.items():
            if not 0 <= zone_id < num_zones:
                raise ValueError(
                    f"initial placement names zone {zone_id}, which does not "
                    f"exist (the machine has {num_zones} zones)"
                )
            zone = self.machine.zone(zone_id)
            if len(chain) > zone.capacity:
                raise ValueError(
                    f"initial chain in zone {zone_id} exceeds capacity "
                    f"({len(chain)} > {zone.capacity})"
                )
            for qubit in chain:
                if not 0 <= qubit < num_qubits:
                    raise ValueError(
                        f"initial placement names qubit {qubit}, which does "
                        f"not exist (the circuit has {num_qubits} qubits)"
                    )
                if qubit in seen:
                    raise ValueError(f"qubit {qubit} placed twice")
                seen.add(qubit)
        missing = set(range(self.circuit.num_qubits)) - seen
        if missing:
            raise ValueError(f"qubits never placed: {sorted(missing)}")


class ArrayProgram(Program):
    """A :class:`Program` whose op stream lives in packed int records.

    Produced by the array-core scheduler, the grid baselines and the
    multi-programming batch merge: the schedule is carried as a
    :class:`~repro.sim.oparray.PackedOps` and the ``operations`` list of
    op dataclasses is only materialised on first access.
    :func:`repro.sim.events.replay` reads the packed form directly
    through :attr:`packed_view`, so a compile + execute round trip never
    builds a single op object.

    Once ``operations`` has been materialised (or assigned), the packed
    view is withdrawn: the list is then the single mutable source of
    truth, exactly like a plain :class:`Program`, and the replay encodes
    it afresh — callers that edit the op stream (tests corrupting an op)
    are replayed as edited.
    """

    def __init__(
        self,
        machine: Machine,
        circuit: QuantumCircuit,
        initial_placement: dict[int, tuple[int, ...]],
        packed: "PackedOps",
        compiler_name: str = "unknown",
        compile_time_s: float = 0.0,
        metadata: dict[str, float] | None = None,
        final_placement: dict[int, tuple[int, ...]] | None = None,
    ) -> None:
        self.machine = machine
        self.circuit = circuit
        self.initial_placement = initial_placement
        self.compiler_name = compiler_name
        self.compile_time_s = compile_time_s
        self.metadata = {} if metadata is None else metadata
        self.final_placement = {} if final_placement is None else final_placement
        self._packed = packed
        self._materialized: list[Operation] | None = None

    @property
    def packed_view(self) -> "PackedOps | None":  # type: ignore[override]
        """The packed records while they are still authoritative.

        ``None`` once ``operations`` has been materialised — from then on
        the object list may have been mutated and must be replayed as is.
        """
        return self._packed if self._materialized is None else None

    @property  # type: ignore[override]
    def operations(self) -> list[Operation]:
        ops = self._materialized
        if ops is None:
            ops = self._materialized = self._packed.materialize(self.circuit)
        return ops

    @operations.setter
    def operations(self, value: list[Operation]) -> None:
        self._materialized = value

    @property
    def shuttle_count(self) -> int:
        if self._materialized is None:
            return self._packed.shuttle_count
        return sum(1 for op in self._materialized if isinstance(op, MoveOp))

    @property
    def num_operations(self) -> int:
        if self._materialized is None:
            return len(self._packed.records)
        return len(self._materialized)
