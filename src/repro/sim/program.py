"""Compiled program: a packed op stream plus its execution context."""

from __future__ import annotations

from collections.abc import Iterable

from ..circuits import QuantumCircuit
from ..hardware import Machine
from .oparray import PackedOps
from .ops import Operation


class Program:
    """The output of every compiler in this repository.

    The op stream is held once, as packed int records
    (:class:`~repro.sim.oparray.PackedOps`): the array-core scheduler,
    the grid baselines and the multi-programming batch merge hand theirs
    over as is, and an op dataclass sequence is encoded here, once.
    The replay, the pricing folds and the verifier read the records;
    :attr:`operations` decodes them afresh on each read and cannot be
    assigned — build a new :class:`Program` to change a schedule.

    Attributes:
        machine: the hardware the program was compiled for.
        circuit: the source circuit (logical gates, native 1q/2q form).
        initial_placement: zone id -> ordered chain of logical qubits, the
            state of the machine before the first op.
        packed_view: the op stream (see :mod:`repro.sim.oparray`).
        compiler_name: provenance label for reports.
        compile_time_s: wall-clock seconds spent compiling.
        metadata: free-form compiler statistics (e.g. inserted SWAP count).
        final_placement: chains after the last op (filled by compilers).
    """

    def __init__(
        self,
        machine: Machine,
        circuit: QuantumCircuit,
        initial_placement: dict[int, tuple[int, ...]],
        operations: PackedOps | Iterable[Operation],
        compiler_name: str = "unknown",
        compile_time_s: float = 0.0,
        metadata: dict[str, float] | None = None,
        final_placement: dict[int, tuple[int, ...]] | None = None,
    ) -> None:
        if not isinstance(operations, PackedOps):
            operations = PackedOps.from_operations(
                operations, circuit, machine.num_zones
            )
        self.machine = machine
        self.circuit = circuit
        self.initial_placement = initial_placement
        self._packed = operations
        self.compiler_name = compiler_name
        self.compile_time_s = compile_time_s
        self.metadata = {} if metadata is None else metadata
        self.final_placement = {} if final_placement is None else final_placement

    @property
    def packed_view(self) -> PackedOps:
        """The packed records: the program's one op stream."""
        return self._packed

    @property
    def operations(self) -> tuple[Operation, ...]:
        """The op stream as :mod:`repro.sim.ops` dataclasses (a decode)."""
        return tuple(self._packed.materialize(self.circuit))

    @property
    def shuttle_count(self) -> int:
        """Number of inter-zone moves (the paper's headline shuttle metric)."""
        return self._packed.shuttle_count

    @property
    def num_operations(self) -> int:
        return len(self._packed)

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


#: The name the array core's programs had; every program is one now.
ArrayProgram = Program
