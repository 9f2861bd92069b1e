"""Timed-event ledger tests: replay once, price many, stay consistent."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core import MussTiCompiler
from repro.physics import PhysicalParams, resolve_physics
from repro.sim import (
    CHANNELS,
    EventLedger,
    ExecutionError,
    execute,
    fidelity_breakdown,
    price_many,
    program_to_records,
    replay,
    reprice,
)
from repro.workloads import get_benchmark


def compiled(machine, name="GHZ_n32"):
    return MussTiCompiler().compile(get_benchmark(name), machine)


PROFILE_SPECS = (
    "table1",
    "perfect-gate",
    "perfect-shuttle",
    "table1?heating_rate=0.01",
    "table1?fiber_gate_time_us=100",
)


class TestRepriceEqualsExecute:
    """The one-pricing-engine contract: reprice == execute, bit for bit."""

    @pytest.mark.parametrize("spec", PROFILE_SPECS)
    def test_identical_reports_on_grid(self, small_grid_2x2, spec):
        program = compiled(small_grid_2x2, "QAOA_n32")
        params = resolve_physics(spec)
        ledger = replay(program)
        assert asdict(ledger.reprice(params)) == asdict(execute(program, params))

    @pytest.mark.parametrize("spec", PROFILE_SPECS)
    def test_identical_reports_on_eml(self, two_tight_modules, spec):
        """Fiber gates and remote SWAPs price identically too."""
        program = compiled(two_tight_modules, "BV_n16")
        base = execute(program)
        assert base.fiber_gate_count > 0
        params = resolve_physics(spec)
        ledger = replay(program)
        assert asdict(ledger.reprice(params)) == asdict(execute(program, params))

    def test_idle_decoherence_flag_matches(self, small_grid_2x2):
        program = compiled(small_grid_2x2)
        ledger = replay(program)
        assert (
            ledger.reprice(include_idle_decoherence=True).log10_fidelity
            == execute(program, include_idle_decoherence=True).log10_fidelity
        )

    def test_module_reprice_accepts_program_and_specs(self, small_grid_2x2):
        program = compiled(small_grid_2x2)
        assert (
            reprice(program, "perfect-shuttle").log10_fidelity
            == execute(program, PhysicalParams().perfect_shuttle()).log10_fidelity
        )

    def test_price_many_replays_once(self, small_grid_2x2):
        program = compiled(small_grid_2x2)
        reports = price_many(
            program, {"real": "table1", "ideal-gate": "perfect-gate"}
        )
        assert set(reports) == {"real", "ideal-gate"}
        assert (
            reports["real"].log10_fidelity == execute(program).log10_fidelity
        )
        assert (
            reports["ideal-gate"].log10_fidelity
            == execute(program, PhysicalParams().perfect_gate()).log10_fidelity
        )


class TestEventStream:
    def test_one_event_per_op(self, small_grid_2x2):
        program = compiled(small_grid_2x2)
        events = replay(program).events()
        assert len(events) == program.num_operations
        assert [event.index for event in events] == list(range(len(events)))

    def test_charges_fold_to_executor_total(self, small_grid_2x2):
        """Per-channel charges sum *exactly* to log10_fidelity."""
        import math

        program = compiled(small_grid_2x2, "QAOA_n32")
        events = replay(program).events()
        total = 0.0
        for event in events:
            for _channel, value in event.charges:
                total += value
        assert total * math.log10(math.e) == execute(program).log10_fidelity

    def test_durations_fold_to_serial_time(self, small_grid_2x2):
        program = compiled(small_grid_2x2, "QAOA_n32")
        events = replay(program).events()
        total = 0.0
        for event in events:
            total += event.duration_us
        assert total == execute(program).execution_time_us

    def test_makespan_is_last_event_end(self, small_grid_2x2):
        program = compiled(small_grid_2x2, "QAOA_n32")
        events = replay(program).events()
        assert max(e.end_us for e in events) == execute(program).makespan_us

    def test_channels_are_known(self, small_grid_2x2):
        events = replay(compiled(small_grid_2x2)).events()
        seen = {channel for e in events for channel, _ in e.charges}
        assert seen <= set(CHANNELS)

    def test_two_qubit_events_record_trap_occupancy(self, small_grid_2x2):
        events = replay(compiled(small_grid_2x2)).events()
        two_qubit = [
            e for e in events if e.kind.startswith("gate:") and len(e.qubits) == 2
        ]
        assert two_qubit
        assert all(e.ions >= 2 for e in two_qubit)

    def test_trap_ops_record_heat_deposits(self, small_grid_2x2):
        events = replay(compiled(small_grid_2x2)).events()
        params = PhysicalParams()
        expected = {
            "split": params.split_nbar,
            "move": params.move_nbar,
            "merge": params.merge_nbar,
            "chain_swap": params.chain_swap_nbar,
        }
        for event in events:
            if event.kind in expected:
                assert event.heat_delta == expected[event.kind]
                assert event.heated_zone >= 0
            else:
                assert event.heat_delta == 0.0
                assert event.heated_zone == -1

    def test_events_agree_with_trace_records(self, small_grid_2x2):
        program = compiled(small_grid_2x2)
        events = replay(program).events()
        records = program_to_records(program)
        for event, record in zip(events, records):
            assert event.kind == record["kind"]
            assert list(event.qubits) == record["qubits"]
            assert list(event.zones) == record["zones"]
            assert event.start_us == record["start_us"]
            assert event.duration_us == record["duration_us"]
            assert event.end_us == record["end_us"]


class TestChannels:
    def test_channels_equal_breakdown(self, small_grid_2x2):
        program = compiled(small_grid_2x2, "Adder_n32")
        assert replay(program).channels() == fidelity_breakdown(program)

    def test_channels_respect_params(self, small_grid_2x2):
        program = compiled(small_grid_2x2)
        ideal = replay(program).channels(PhysicalParams().perfect_shuttle())
        assert ideal["background_heat"] == 0.0


class TestReplayLegality:
    def test_replay_rejects_illegal_program(self, small_grid_2x2):
        from repro.sim import Program
        from repro.sim.ops import MoveOp

        program = compiled(small_grid_2x2, "GHZ_n32")
        move_index = next(
            i
            for i, op in enumerate(program.operations)
            if isinstance(op, MoveOp)
        )
        ops = list(program.operations)
        bad = ops[move_index]
        ops[move_index] = MoveOp(bad.qubit, bad.source_zone + 1, bad.destination_zone)
        program = Program(
            program.machine, program.circuit, program.initial_placement, ops
        )
        with pytest.raises(ExecutionError) as error:
            replay(program)
        assert error.value.op_index == move_index

    def test_replay_counts_match_report(self, small_grid_2x2):
        program = compiled(small_grid_2x2, "QAOA_n32")
        ledger = replay(program)
        report = execute(program)
        assert ledger.move_count == report.shuttle_count
        assert ledger.split_count == report.split_count
        assert ledger.merge_count == report.merge_count
        assert ledger.chain_swap_count == report.chain_swap_count
        assert ledger.one_qubit_gate_count == report.one_qubit_gate_count
        assert ledger.two_qubit_gate_count == report.two_qubit_gate_count
        assert ledger.fiber_gate_count == report.fiber_gate_count
        assert len(ledger) == program.num_operations


class TestVerifyPriceable:
    """A legal-but-unpriceable program (entangler fidelity collapses to
    zero) must fail verification, exactly as the pre-ledger executor-based
    verify did."""

    @pytest.fixture
    def collapsed_program(self):
        from repro.circuits import QuantumCircuit
        from repro.hardware import resolve_machine
        from repro.sim import GateOp, Program

        # 170 ions in one trap: 1 - (170^2)/25600 < 0 under table1.
        circuit = QuantumCircuit(170, name="packed")
        circuit.cx(0, 1)
        machine = resolve_machine("ring:3:200")
        placement = {0: tuple(range(170)), 1: (), 2: ()}
        return Program(machine, circuit, placement, [GateOp(circuit[0], 0, 0)])

    def test_replay_alone_accepts_it(self, collapsed_program):
        replay(collapsed_program)  # legality is physics-independent

    def test_verify_priceable_rejects_it(self, collapsed_program):
        with pytest.raises(ExecutionError, match="collapsed to zero"):
            replay(collapsed_program).verify_priceable()

    def test_verify_program_rejects_it(self, collapsed_program):
        from repro.sim import VerificationError, verify_program

        with pytest.raises(VerificationError, match="collapsed to zero"):
            verify_program(collapsed_program)

    def test_perfect_gate_params_make_it_priceable(self, collapsed_program):
        replay(collapsed_program).verify_priceable(
            PhysicalParams().perfect_gate()
        )

    def test_error_matches_execute(self, collapsed_program):
        with pytest.raises(ExecutionError) as from_execute:
            execute(collapsed_program)
        with pytest.raises(ExecutionError) as from_verify:
            replay(collapsed_program).verify_priceable()
        assert str(from_execute.value) == str(from_verify.value)


class TestLedgerViews:
    """Trace/breakdown views accept an already-replayed ledger."""

    def test_views_accept_a_ledger(self, small_grid_2x2, tmp_path):
        import json

        from repro.sim import render_timeline, save_trace

        program = compiled(small_grid_2x2)
        ledger = replay(program)
        assert program_to_records(ledger) == program_to_records(program)
        assert render_timeline(ledger) == render_timeline(program)
        assert fidelity_breakdown(ledger) == fidelity_breakdown(program)
        path = tmp_path / "trace.json"
        save_trace(ledger, str(path))
        assert json.loads(path.read_text())["circuit"] == "GHZ_n32"


class TestTimingCache:
    def test_profiles_sharing_durations_share_one_timing_fold(
        self, small_grid_2x2
    ):
        """perfect-gate / perfect-shuttle change no durations, so pricing
        them reuses the table1 timing fold — the repricing fast path."""
        ledger = replay(compiled(small_grid_2x2))
        assert isinstance(ledger, EventLedger)
        ledger.reprice(resolve_physics("table1"))
        ledger.reprice(resolve_physics("perfect-gate"))
        ledger.reprice(resolve_physics("perfect-shuttle"))
        assert len(ledger._timing_cache) == 1
        ledger.reprice(resolve_physics("table1?fiber_gate_time_us=100"))
        assert len(ledger._timing_cache) == 2
