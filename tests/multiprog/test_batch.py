"""Batch packing: multi-tenant interleaving and ledger slicing."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

import repro
from repro.circuits import Gate
from repro.multiprog import BatchJob, RegionError, pack_batch, slice_ledger
from repro.sim import GateOp, Program, VerificationError, replay, reprice, verify_program


def two_tenant_schedule():
    jobs = [
        BatchJob("a", "GHZ_n16", tenant="alice"),
        BatchJob("b", "QFT_n16", tenant="bob"),
    ]
    return pack_batch(jobs, "eml:16:2")


class _InsertingCompiler:
    """Returns op objects, led by one compiler-inserted ``h`` on qubit 0."""

    def compile(self, circuit, machine, placement=None):
        program = repro.MussTiCompiler().compile(circuit, machine, placement)
        zone = program.initial_zone_of(0)
        return Program(
            machine,
            circuit,
            program.initial_placement,
            [GateOp(Gate("h", (0,)), zone), *program.operations],
            compiler_name="inserting",
        )


class _SubstitutingCompiler:
    """Returns op objects whose first circuit gate is swapped for another
    gate on the same qubits, still claiming the original's slot."""

    def compile(self, circuit, machine, placement=None):
        program = repro.MussTiCompiler().compile(circuit, machine, placement)
        ops = list(program.operations)
        first = next(i for i, op in enumerate(ops) if isinstance(op, GateOp))
        gate = ops[first].gate
        ops[first] = replace(ops[first], gate=Gate("y" if gate.is_one_qubit else "cz", gate.qubits))
        return Program(machine, circuit, program.initial_placement, ops)


class TestPackBatch:
    def test_two_tenants_admitted_on_disjoint_regions(self):
        schedule = two_tenant_schedule()
        assert len(schedule.placements) == 2
        assert schedule.deferred == ()
        a, b = schedule.placements
        assert not set(a.region.units) & set(b.region.units)
        assert not set(a.region.zone_ids) & set(b.region.zone_ids)

    def test_combined_program_is_legal_and_interleaves(self):
        schedule = two_tenant_schedule()
        assert schedule.program.compiler_name == "multiprog"
        ledger = schedule.ledger()  # replay legality-checks every op
        report = reprice(ledger, "table1")
        slices = slice_ledger(ledger, schedule.owners, len(schedule.placements))
        # Disjoint regions share nothing, so the combined makespan is the
        # max — not the sum — of the tenant makespans: true co-scheduling.
        per_tenant = [entry["makespan_us"] for entry in slices]
        assert report.makespan_us == pytest.approx(max(per_tenant))
        assert report.makespan_us < sum(per_tenant)

    def test_owners_cover_every_op(self):
        schedule = two_tenant_schedule()
        assert len(schedule.owners) == len(schedule.program.operations)
        assert set(schedule.owners) == {0, 1}

    def test_admitted_property_lists_jobs(self):
        schedule = two_tenant_schedule()
        assert [job.job_id for job in schedule.admitted] == ["a", "b"]

    def test_oversized_job_is_deferred(self, two_tight_modules):
        jobs = [
            BatchJob("small", "GHZ_n8"),
            BatchJob("huge", "GHZ_n32"),
        ]
        schedule = pack_batch(jobs, two_tight_modules)
        assert [job.job_id for job in schedule.admitted] == ["small"]
        assert [job.job_id for job in schedule.deferred] == ["huge"]

    def test_nothing_admissible_raises(self, two_tight_modules):
        with pytest.raises(RegionError):
            pack_batch([BatchJob("huge", "GHZ_n32")], two_tight_modules)

    def test_machine_instance_accepted(self, two_modules_cap8):
        schedule = pack_batch([BatchJob("a", "GHZ_n8")], two_modules_cap8)
        assert schedule.machine is two_modules_cap8

    def test_priority_policy_orders_admission(self):
        jobs = [
            BatchJob("lo", "GHZ_n16", priority=0),
            BatchJob("hi", "QFT_n16", priority=5),
        ]
        schedule = pack_batch(jobs, "eml:16:2", policy="priority")
        assert schedule.admitted[0].job_id == "hi"


class TestSliceLedger:
    def test_counts_partition_exactly(self):
        schedule = two_tenant_schedule()
        ledger = schedule.ledger()
        slices = slice_ledger(ledger, schedule.owners, len(schedule.placements))
        assert sum(s["operations"] for s in slices) == len(ledger)
        total_shuttles = sum(
            1 for event in ledger.events() if event.kind == "move"
        )
        assert sum(s["shuttles"] for s in slices) == total_shuttles

    def test_fidelity_slices_sum_to_machine_total(self):
        schedule = two_tenant_schedule()
        ledger = schedule.ledger()
        report = reprice(ledger, "table1")
        slices = slice_ledger(
            ledger, schedule.owners, len(schedule.placements), "table1"
        )
        assert math.isclose(
            sum(s["log10_fidelity"] for s in slices),
            report.log10_fidelity,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )

    def test_owner_table_length_mismatch_raises(self):
        schedule = two_tenant_schedule()
        ledger = schedule.ledger()
        with pytest.raises(ValueError):
            slice_ledger(ledger, schedule.owners[:-1], 2)


def test_tenants_returning_op_objects_keep_inserted_gates():
    """A tenant program built from op objects is lifted too; its
    compiler-inserted gate lands on the tenant's own qubit 0."""
    name = "batch-test-inserting"
    if name not in repro.default_registry():
        repro.register_compiler(name, summary="test-only")(_InsertingCompiler)
    jobs = [BatchJob("a", "GHZ_n16", compiler=name), BatchJob("b", "QFT_n16", compiler=name)]
    schedule = pack_batch(jobs, "eml:16:2")
    verify_program(schedule.program)
    ledger = replay(schedule.program)
    firsts = [schedule.owners.index(owner) for owner in (0, 1)]
    events = ledger.events()
    assert [events[index].kind for index in firsts] == ["gate:h", "gate:h"]
    assert [events[index].qubits for index in firsts] == [(0,), (16,)]
    tenants = [replay(placement.program) for placement in schedule.placements]
    assert ledger.one_qubit_gate_count == sum(t.one_qubit_gate_count for t in tenants)


def test_lifted_claim_names_the_combined_circuit_slot():
    """A tenant gate claiming a slot it does not hold is reported at that
    slot of the combined circuit: the claim moves by the gate offset."""
    name = "batch-test-substituting"
    if name not in repro.default_registry():
        repro.register_compiler(name, summary="test-only")(_SubstitutingCompiler)
    jobs = [BatchJob("a", "GHZ_n16"), BatchJob("b", "QFT_n16", compiler=name)]
    schedule = pack_batch(jobs, "eml:16:2")
    tenant = schedule.placements[1]
    claimed = next(
        op.circuit_index for op in tenant.program.operations if isinstance(op, GateOp)
    )
    index = tenant.gate_offset + claimed
    with pytest.raises(VerificationError) as raised:
        verify_program(schedule.program)
    assert str(raised.value).startswith(f"circuit gate #{index} mismatch: program has ")
    assert str(raised.value).endswith(f"circuit has {schedule.program.circuit[index]}")
