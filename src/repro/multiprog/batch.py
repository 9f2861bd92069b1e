"""Batch scheduler: pack N independent circuits onto one machine.

:func:`pack_batch` runs one admission round: a policy (see
:mod:`repro.multiprog.policies`) picks queued jobs, the
:class:`~repro.multiprog.regions.RegionAllocator` carves each admitted
job a region, and the job's circuit is compiled against the region's
sub-machine through the ordinary :func:`repro.compile` front door — the
MUSS-TI pipeline neither knows nor cares that its machine is a slice of
a bigger one.  The per-region programs' packed records are then lifted
into the machine frame (zone ids through the region's zone map, qubit
and gate indices offset per tenant) and concatenated into one
machine-wide :class:`~repro.sim.program.Program`.

Concatenation *is* interleaving here: the ledger's timing fold starts an
op when its qubits and blocking zones are free, and disjoint regions
share neither, so tenants' op streams overlap in time and the combined
makespan is the max — not the sum — of the per-tenant makespans (the
queueing simulator and the tests both lean on this).

A single admitted job whose region covers the whole machine returns its
program **unchanged** — same ops, same placement, same compiler name —
which is the byte-identical differential guarantee against the direct
compile path.

:func:`slice_ledger` splits one machine-wide
:class:`~repro.sim.events.EventLedger` back into per-tenant accounting
(op/shuttle counts, fidelity charge, makespan) using the op-owner table
the packer records: integer counts partition exactly; log-fidelity
slices sum to the machine total up to float re-association.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import Gate, QuantumCircuit
from ..hardware import Machine, resolve_machine
from ..physics import resolve_physics
from ..pipeline.facade import compile as compile_circuit
from ..sim.events import EventLedger, replay
from ..sim.oparray import (
    K_CHAIN_SWAP,
    K_FIBER,
    K_GATE,
    K_MERGE,
    K_MOVE,
    K_SPLIT,
    K_SWAP,
    PackedOps,
)
from ..sim.program import Program
from ..workloads import get_benchmark
from .policies import Policy, resolve_policy
from .regions import Region, RegionAllocator, RegionError


@dataclass(frozen=True)
class BatchJob:
    """One queued compilation request."""

    job_id: str
    workload: str
    tenant: str = "default"
    compiler: str = "muss-ti"
    priority: int = 0
    weight: float = 1.0


@dataclass
class _Entry:
    """Queue entry: a job plus its resolved circuit (what policies see)."""

    job: BatchJob
    circuit: QuantumCircuit

    @property
    def tenant(self) -> str:
        return self.job.tenant

    @property
    def priority(self) -> int:
        return self.job.priority

    @property
    def weight(self) -> float:
        return self.job.weight

    @property
    def qubits(self) -> int:
        return self.circuit.num_qubits


@dataclass(frozen=True)
class Placement:
    """One admitted job: its region, region-frame program, and the
    offsets that lift it into the machine frame."""

    job: BatchJob
    region: Region
    program: Program
    qubit_offset: int
    gate_offset: int


@dataclass(frozen=True)
class BatchSchedule:
    """The machine-wide result of one admission round.

    ``owners[i]`` is the index into ``placements`` of the tenant that
    op ``i`` of ``program`` belongs to — the key
    :func:`slice_ledger` uses to split accounting per tenant.
    """

    machine: Machine
    program: Program
    placements: tuple[Placement, ...]
    owners: tuple[int, ...]
    deferred: tuple[BatchJob, ...]

    def ledger(self) -> EventLedger:
        """Replay the combined program (legality-checked once)."""
        return replay(self.program)

    @property
    def admitted(self) -> tuple[BatchJob, ...]:
        return tuple(placement.job for placement in self.placements)


def _lift_records(
    program: Program,
    zone_of: tuple[int, ...],
    qubit_offset: int,
    gate_offset: int,
    extra_offset: int,
) -> tuple[list[tuple], list[Gate], list[int]]:
    """Lift a region-frame program's packed records into the machine frame.

    ``zone_of`` maps region zone ids to machine zone ids.  Circuit gate
    nodes move by ``gate_offset``; the nodes of gates the tenant's
    circuit does not hold (a compiler that returns op objects may insert
    some) move by ``extra_offset``.  Returns the records, those extra
    gates on their machine-frame qubits, and their claims (a claimed
    circuit slot moves by ``gate_offset``).
    """
    packed = program.packed_view
    num_gates = len(program.circuit.gates)
    extra_gates = [
        gate.on(*(q + qubit_offset for q in gate.qubits))
        for gate in packed.gate_table(program.circuit)[num_gates:]
    ]
    claims = [claim + gate_offset if claim >= 0 else claim for claim in packed.claims]
    lifted = []
    append = lifted.append
    for record in packed.records:
        kind = record[0]
        if kind == K_GATE or kind == K_FIBER:
            node = record[1]
            node += gate_offset if node < num_gates else extra_offset
            append((kind, node) + tuple(zone_of[zone_id] for zone_id in record[2:]))
        elif kind == K_MOVE:
            append(
                (K_MOVE, record[1] + qubit_offset, zone_of[record[2]], zone_of[record[3]])
            )
        elif kind == K_SPLIT or kind == K_MERGE:  # a merge may carry its side
            append((kind, record[1] + qubit_offset, zone_of[record[2]]) + record[3:])
        elif kind == K_CHAIN_SWAP:
            append((K_CHAIN_SWAP, zone_of[record[1]], record[2]))
        elif kind == K_SWAP:
            append(
                (
                    K_SWAP,
                    record[1] + qubit_offset,
                    record[2] + qubit_offset,
                    zone_of[record[3]],
                    zone_of[record[4]],
                )
            )
        else:  # K_INVALID: the combined replay raises its text
            append(record)
    return lifted, extra_gates, claims


def _lift_placement(
    placement: dict[int, tuple[int, ...]],
    zone_map: dict[int, int],
    qubit_offset: int,
) -> dict[int, tuple[int, ...]]:
    return {
        zone_map[zone_id]: tuple(q + qubit_offset for q in chain)
        for zone_id, chain in placement.items()
    }


def _combine(
    machine: Machine, placements: tuple[Placement, ...], deferred: tuple[BatchJob, ...]
) -> BatchSchedule:
    """Lift every placement into the machine frame and concatenate."""
    single = len(placements) == 1 and placements[0].qubit_offset == 0
    if single and placements[0].region.zone_map == {
        zone_id: zone_id for zone_id in placements[0].region.zone_ids
    } and len(placements[0].region.zone_ids) == machine.num_zones:
        # Whole-machine single tenant: the region-frame program already
        # is the machine-frame program — hand it back untouched so the
        # multiprog path is byte-identical to the direct compile path.
        program = placements[0].program
        return BatchSchedule(
            machine=machine,
            program=program,
            placements=placements,
            owners=(0,) * program.num_operations,
            deferred=deferred,
        )

    total_qubits = sum(p.program.circuit.num_qubits for p in placements)
    total_gates = sum(len(p.program.circuit.gates) for p in placements)
    combined_circuit = QuantumCircuit(max(total_qubits, 1), name="multiprog")
    records: list[tuple] = []
    extra_gates: list[Gate] = []
    claims: list[int] = []
    owners: list[int] = []
    initial_placement: dict[int, tuple[int, ...]] = {}
    final_placement: dict[int, tuple[int, ...]] = {}
    compile_time_s = 0.0
    for index, placement in enumerate(placements):
        zone_map = placement.region.zone_map
        offset = placement.qubit_offset
        for gate in placement.program.circuit.gates:
            combined_circuit.append(gate.on(*(q + offset for q in gate.qubits)))
        lifted, extras, extra_claims = _lift_records(
            placement.program,
            placement.region.zone_ids,
            offset,
            placement.gate_offset,
            total_gates + len(extra_gates) - len(placement.program.circuit.gates),
        )
        records.extend(lifted)
        extra_gates.extend(extras)
        claims.extend(extra_claims)
        owners.extend([index] * len(lifted))
        initial_placement.update(
            _lift_placement(placement.program.initial_placement, zone_map, offset)
        )
        if placement.program.final_placement:
            final_placement.update(
                _lift_placement(placement.program.final_placement, zone_map, offset)
            )
        compile_time_s += placement.program.compile_time_s

    program = Program(
        machine=machine,
        circuit=combined_circuit,
        initial_placement=initial_placement,
        operations=PackedOps.for_circuit(records, combined_circuit, extra_gates, claims),
        compiler_name="multiprog",
        compile_time_s=compile_time_s,
        metadata={"tenants": float(len(placements))},
        final_placement=final_placement,
    )
    return BatchSchedule(
        machine=machine,
        program=program,
        placements=placements,
        owners=tuple(owners),
        deferred=deferred,
    )


def pack_batch(
    jobs,
    machine: Machine | str,
    *,
    policy: str | Policy = "first-fit",
    window: int | None = None,
) -> BatchSchedule:
    """One admission round: policy-ordered packing of *jobs* onto *machine*.

    Jobs the policy never admits (they do not fit the free hardware, or
    exceed the whole machine) come back in ``deferred`` — a later round
    (or the queueing simulator) retries them; nothing is silently lost.
    """
    jobs = tuple(jobs)
    entries = [_Entry(job=job, circuit=get_benchmark(job.workload)) for job in jobs]
    if isinstance(machine, str):
        needed = max((entry.qubits for entry in entries), default=1)
        machine = resolve_machine(machine, needed)
    policy = (
        resolve_policy(policy) if window is None
        else resolve_policy(policy, window=window)
    )
    allocator = RegionAllocator(machine)

    queue = list(entries)
    placements: list[Placement] = []
    qubit_offset = 0
    gate_offset = 0
    while queue:
        index = policy.select(
            queue, fits=lambda entry: allocator.fits(entry.qubits)
        )
        if index is None:
            break
        entry = queue.pop(index)
        region = allocator.allocate(entry.qubits)
        result = compile_circuit(entry.circuit, region.machine(), entry.job.compiler)
        program = result.program
        placements.append(
            Placement(
                job=entry.job,
                region=region,
                program=program,
                qubit_offset=qubit_offset,
                gate_offset=gate_offset,
            )
        )
        policy.record_service(
            entry.tenant, float(len(region.units)), entry.weight
        )
        qubit_offset += program.circuit.num_qubits
        gate_offset += len(program.circuit.gates)

    deferred = tuple(entry.job for entry in queue)
    if not placements:
        raise RegionError(
            "no job could be admitted: the smallest queued circuit does not "
            "fit the machine"
        )
    return _combine(machine, tuple(placements), deferred)


def slice_ledger(
    ledger: EventLedger,
    owners: tuple[int, ...],
    num_slices: int,
    params=None,
) -> list[dict]:
    """Per-tenant accounting slices of one machine-wide ledger.

    Returns one dict per owner index: ``operations`` and ``shuttles``
    (integer counts — they partition the machine totals exactly),
    ``log10_fidelity`` (this tenant's charge total, including the
    background-heat charges its ops accrued), and ``makespan_us`` (when
    this tenant's last op finishes).  Summing the slices recovers the
    machine-wide ledger: exactly for the counts, up to float
    re-association for the fidelity.
    """
    if len(owners) != len(ledger):
        raise ValueError(
            f"owners table has {len(owners)} entries for {len(ledger)} ops"
        )
    if isinstance(params, str):
        params = resolve_physics(params)
    slices = [
        {
            "operations": 0,
            "shuttles": 0,
            "log10_fidelity": 0.0,
            "makespan_us": 0.0,
        }
        for _ in range(num_slices)
    ]
    for event, owner in zip(ledger.events(params), owners):
        entry = slices[owner]
        entry["operations"] += 1
        if event.kind == "move":
            entry["shuttles"] += 1
        entry["log10_fidelity"] += event.log10_charge
        if event.end_us > entry["makespan_us"]:
            entry["makespan_us"] = event.end_us
    return slices
