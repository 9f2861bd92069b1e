"""Pass pipeline: decomposition equivalence, composition, error handling."""

from __future__ import annotations

import pytest

from repro.circuits import GateError, QuantumCircuit
from repro.core import MussTiCompiler, MussTiConfig, RoutingError
from repro.pipeline import (
    CompileResult,
    PassPipeline,
    PipelineError,
    SabrePlacementPass,
    SchedulingPass,
    TrivialPlacementPass,
    ValidateNativePass,
    build_muss_ti_pipeline,
)
from repro.sim import verify_program
from repro.workloads import SMALL_SUITE, get_benchmark

ARM_CONFIGS = {
    "Trivial": MussTiConfig.trivial,
    "SWAP Insert": MussTiConfig.swap_insert_only,
    "SABRE": MussTiConfig.sabre_only,
    "SABRE + SWAP Insert": MussTiConfig.full,
}


class TestBuildMussTiPipeline:
    def test_full_arm_stages(self):
        pipeline = build_muss_ti_pipeline(MussTiConfig.full())
        assert pipeline.describe() == "validate-native -> placement-sabre -> schedule"
        assert pipeline.passes[2].config.use_swap_insertion

    def test_trivial_arm_stages(self):
        pipeline = build_muss_ti_pipeline(MussTiConfig.trivial())
        assert (
            pipeline.describe() == "validate-native -> placement-trivial -> schedule"
        )
        assert not pipeline.passes[2].config.use_swap_insertion

    def test_every_arm_maps_to_matching_variant(self):
        for label, arm in ARM_CONFIGS.items():
            config = arm()
            pipeline = build_muss_ti_pipeline(config)
            placement = pipeline.passes[1]
            if config.use_sabre_mapping:
                assert isinstance(placement, SabrePlacementPass), label
            else:
                assert isinstance(placement, TrivialPlacementPass), label


class TestSeedEquivalence:
    """The decomposed pipeline must schedule exactly like the monolith did."""

    @pytest.mark.parametrize("app", SMALL_SUITE)
    def test_table2_workloads_identical_ops(self, app, small_grid_2x2):
        circuit = get_benchmark(app)
        via_class = MussTiCompiler().compile(circuit, small_grid_2x2)
        via_pipeline = (
            MussTiCompiler().pipeline().compile(circuit, small_grid_2x2)
        )
        assert via_pipeline.program.operations == via_class.operations
        assert (
            via_pipeline.program.initial_placement == via_class.initial_placement
        )
        assert via_pipeline.program.final_placement == via_class.final_placement

    @pytest.mark.parametrize("label", sorted(ARM_CONFIGS))
    def test_every_arm_identical_ops(self, label, two_modules_cap8):
        config = ARM_CONFIGS[label]()
        circuit = get_benchmark("GHZ_n16")
        via_class = MussTiCompiler(config).compile(circuit, two_modules_cap8)
        via_pipeline = build_muss_ti_pipeline(config).compile(
            circuit, two_modules_cap8
        )
        assert via_pipeline.program.operations == via_class.operations

    def test_handmade_pipeline_matches_builder(self, small_grid_2x2):
        config = MussTiConfig.full()
        circuit = get_benchmark("Adder_n32")
        built = build_muss_ti_pipeline(config).compile(circuit, small_grid_2x2)
        handmade = PassPipeline(
            name="MUSS-TI",
            passes=(
                ValidateNativePass(),
                SabrePlacementPass(config),
                SchedulingPass(config),
            ),
            config=config,
        ).compile(circuit, small_grid_2x2)
        assert handmade.program.operations == built.program.operations

    def test_metadata_preserved(self, small_grid_2x2):
        circuit = get_benchmark("GHZ_n32")
        program = MussTiCompiler().compile(circuit, small_grid_2x2)
        assert program.compiler_name == "MUSS-TI"
        assert program.metadata["shuttles"] == program.shuttle_count
        assert program.compile_time_s > 0


class TestCompileResult:
    def test_pass_stats_recorded(self, small_grid_2x2):
        circuit = get_benchmark("GHZ_n16")
        result = build_muss_ti_pipeline().compile(circuit, small_grid_2x2)
        assert isinstance(result, CompileResult)
        assert set(result.pass_stats) == {
            "validate-native",
            "placement-sabre",
            "schedule",
        }
        for stats in result.pass_stats.values():
            assert stats["seconds"] >= 0
        assert result.pass_stats["schedule"]["scheduled_gates"] == len(circuit)

    def test_result_proxies_program(self, small_grid_2x2):
        circuit = get_benchmark("GHZ_n16")
        result = build_muss_ti_pipeline().compile(circuit, small_grid_2x2)
        assert result.compiler_name == result.program.compiler_name
        assert result.num_operations == result.program.num_operations
        assert result.shuttle_count == result.program.shuttle_count
        assert result.circuit is result.program.circuit
        assert result.machine is result.program.machine

    def test_verify_returns_self(self, small_grid_2x2):
        circuit = get_benchmark("GHZ_n16")
        result = build_muss_ti_pipeline().compile(circuit, small_grid_2x2)
        assert result.verify() is result

    def test_execute_produces_report(self, small_grid_2x2):
        circuit = get_benchmark("GHZ_n16")
        report = build_muss_ti_pipeline().compile(circuit, small_grid_2x2).execute()
        assert 0 < report.fidelity <= 1


class TestPlacementPasses:
    def test_caller_placement_wins(self, tiny_grid):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        placement = {0: (0, 1), 1: (2, 3)}
        result = build_muss_ti_pipeline().compile(
            circuit, tiny_grid, initial_placement=placement
        )
        assert result.program.initial_placement == placement
        assert any("placement" in note for note in result.diagnostics)

    def test_initial_placement_keeps_class_api_semantics(self, tiny_grid):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3)
        placement = {0: (0, 1), 1: (2, 3)}
        program = MussTiCompiler().compile(
            circuit, tiny_grid, initial_placement=placement
        )
        verify_program(program)
        assert program.initial_placement == placement


class TestPipelineErrors:
    def test_scheduling_without_placement(self, tiny_grid, bell_pair):
        pipeline = PassPipeline(
            name="broken", passes=(SchedulingPass(MussTiConfig()),)
        )
        with pytest.raises(PipelineError, match="placement"):
            pipeline.compile(bell_pair, tiny_grid)

    def test_pipeline_without_scheduler(self, tiny_grid, bell_pair):
        pipeline = PassPipeline(
            name="no-op", passes=(ValidateNativePass(), TrivialPlacementPass())
        )
        with pytest.raises(PipelineError, match="no schedule"):
            pipeline.compile(bell_pair, tiny_grid)

    def test_unlowered_circuit_rejected(self, tiny_grid):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        without_validation = PassPipeline(
            name="unvalidated",
            passes=(TrivialPlacementPass(), SchedulingPass(MussTiConfig())),
        )
        # The scheduler itself rejects a wide gate that no
        # ValidateNativePass caught.
        for pipeline in (build_muss_ti_pipeline(), without_validation):
            with pytest.raises(GateError, match="lower_to_native"):
                pipeline.compile(circuit, tiny_grid)

    @pytest.mark.parametrize(
        ("placement", "message"),
        [
            pytest.param(
                {0: (0, 1), 1: (1, 2, 3, 4)}, "qubit 1 placed twice",
                id="qubit-placed-twice",
            ),
            pytest.param(
                {0: (0, 1), 1: (2, 4)}, r"initial_placement: 1 of .* never placed \(3\)",
                id="missing-qubit",
            ),
            pytest.param(
                {0: (0, 1), 1: (2, 3, -1), 2: (4,)}, "initial_placement: zone 1 holds qubit -1",
                id="negative-qubit",
            ),
            pytest.param(
                {0: (0, 1), 99: (2, 3, 4)}, "initial_placement: zone 99 is not a zone id",
                id="unknown-zone",
            ),
            pytest.param(
                {0: (0, 1), "1": (2, 3, 4)}, "initial_placement: zone '1' is not a zone id",
                id="zone-not-an-int",
            ),
            pytest.param(
                {0: (0, 1), 1: (2, 3, 4), 2: (5,)}, "initial_placement: zone 2 holds qubit 5",
                id="qubit-not-in-circuit",
            ),
            pytest.param(
                {0: (0, 1, 2, 3, 4)}, "initial_placement: zone 0 holds 5 qubits but has capacity 4",
                id="chain-over-capacity",
            ),
        ],
    )
    def test_malformed_placement_rejected(self, tiny_grid, placement, message):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        with pytest.raises(RoutingError, match=message):
            MussTiCompiler().compile(circuit, tiny_grid, initial_placement=placement)


class TestCustomComposition:
    def test_bare_passes_read_pipeline_config(self, small_grid_2x2):
        """Passes without their own config pick up PassPipeline.config."""
        config = MussTiConfig(lookahead_k=4, optical_slack=0)
        circuit = get_benchmark("Adder_n32")
        explicit = build_muss_ti_pipeline(config).compile(circuit, small_grid_2x2)
        via_context = PassPipeline(
            name="MUSS-TI",
            passes=(
                ValidateNativePass(),
                SabrePlacementPass(),  # no config: reads context.config
                SchedulingPass(),  # ditto
            ),
            config=config,
        ).compile(circuit, small_grid_2x2)
        assert via_context.program.operations == explicit.program.operations

    def test_fifo_scheduling_variant(self, small_grid_2x2):
        """A pipeline variant is a config away: no-LRU, no SWAP insertion."""
        config = MussTiConfig(
            use_lru=False, use_swap_insertion=False, use_sabre_mapping=False
        )
        result = build_muss_ti_pipeline(config, name="fifo").compile(
            get_benchmark("QAOA_n32"), small_grid_2x2
        )
        assert result.compiler_name == "fifo"
        result.verify()
