"""End-to-end MUSS-TI compiler tests."""

from __future__ import annotations

from dataclasses import replace

import pytest
from differential.reference import RefRoutingError, reference_compile
from scheduling_scenarios import (
    NO_SLACK,
    SPLIT_8,
    SWAP_INSERT,
    TRIVIAL,
    compile_pinned,
    cx_circuit,
    dual_optical,
    evicted_before,
    gate_zone,
    merges,
    one_module,
    star,
    swap_pairs,
    swaps,
    two_modules,
    two_modules_cap8,
)

from repro.circuits import QuantumCircuit
from repro.core import MussTiCompiler, MussTiConfig, RoutingError
from repro.sim import (
    FiberGateOp,
    GateOp,
    SwapGateOp,
    execute,
    verify_program,
)
from repro.workloads import get_benchmark


class TestBasicCompilation:
    def test_bell_pair(self, tiny_grid, bell_pair):
        program = MussTiCompiler().compile(bell_pair, tiny_grid)
        verify_program(program)
        report = execute(program)
        assert report.one_qubit_gate_count == 1
        assert report.two_qubit_gate_count == 1
        assert report.shuttle_count == 0  # both qubits start co-located

    def test_chain_on_eml(self, two_modules_cap8, linear_chain_8):
        program = MussTiCompiler().compile(linear_chain_8, two_modules_cap8)
        verify_program(program)

    def test_rejects_unlowered_circuit(self, tiny_grid):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(Exception, match="lower_to_native"):
            MussTiCompiler().compile(circuit, tiny_grid)

    def test_compile_time_recorded(self, tiny_grid, bell_pair):
        program = MussTiCompiler().compile(bell_pair, tiny_grid)
        assert program.compile_time_s > 0
        assert program.compiler_name == "MUSS-TI"

    def test_metadata_statistics(self, small_grid_2x2):
        circuit = get_benchmark("Adder_n32")
        program = MussTiCompiler().compile(circuit, small_grid_2x2)
        assert "shuttles" in program.metadata
        assert program.metadata["shuttles"] == program.shuttle_count

    def test_deterministic(self, small_grid_2x2):
        circuit = get_benchmark("QAOA_n32")
        first = MussTiCompiler().compile(circuit, small_grid_2x2)
        second = MussTiCompiler().compile(circuit, small_grid_2x2)
        assert first.operations == second.operations


class TestExecutableFirstSelection:
    def test_ready_gates_run_before_routing(self, tiny_grid):
        """Fig 4's g0: a co-located gate runs before any shuttle fires."""
        circuit = QuantumCircuit(6)
        circuit.cx(0, 4)  # needs routing under block placement
        circuit.cx(2, 3)  # co-located (same trap) -> should execute first
        placement = {0: (0, 1, 2, 3), 1: (4, 5)}
        program = MussTiCompiler().compile(
            circuit, tiny_grid, initial_placement=placement
        )
        gate_order = [
            op.circuit_index
            for op in program.operations
            if isinstance(op, (GateOp, FiberGateOp)) and op.gate.is_two_qubit
        ]
        assert gate_order.index(1) < gate_order.index(0)

    def test_fcfs_among_blocked_gates(self, tiny_grid):
        """Both gates need routing: the older one is routed first."""
        circuit = QuantumCircuit(8)
        circuit.cx(0, 4)
        circuit.cx(1, 5)
        placement = {0: (0, 1, 2, 3), 1: (4, 5, 6, 7)}
        program = MussTiCompiler().compile(
            circuit, tiny_grid, initial_placement=placement
        )
        gate_order = [
            op.circuit_index
            for op in program.operations
            if isinstance(op, GateOp) and op.gate.is_two_qubit
        ]
        assert gate_order == [0, 1]


class TestCrossModuleBehaviour:
    def test_cross_module_gates_use_fiber(self, two_tight_modules):
        circuit = QuantumCircuit(10)
        circuit.cx(0, 9)  # qubits land on different modules (limit 8)
        program = MussTiCompiler(MussTiConfig.trivial()).compile(
            circuit, two_tight_modules
        )
        verify_program(program)
        fiber_ops = [
            op for op in program.operations if isinstance(op, FiberGateOp)
        ]
        assert len(fiber_ops) == 1

    def test_no_fiber_on_single_module(self, one_module):
        circuit = QuantumCircuit(8)
        for q in range(7):
            circuit.cx(q, q + 1)
        program = MussTiCompiler().compile(circuit, one_module)
        assert not any(
            isinstance(op, (FiberGateOp, SwapGateOp)) for op in program.operations
        )

    def test_swap_insertion_reduces_fiber_gates(self, two_tight_modules):
        """A BV-style star: the hot qubit should migrate, not fiber 8x."""
        circuit = QuantumCircuit(16)
        for partner in range(8, 16):
            circuit.cx(0, partner)
        with_swaps = MussTiCompiler(MussTiConfig.swap_insert_only()).compile(
            circuit, two_tight_modules
        )
        without = MussTiCompiler(MussTiConfig.trivial()).compile(
            circuit, two_tight_modules
        )
        count = lambda prog: sum(
            1 for op in prog.operations if isinstance(op, FiberGateOp)
        )
        assert count(with_swaps) < count(without)
        verify_program(with_swaps)
        verify_program(without)


class TestAblationArms:
    @pytest.mark.parametrize(
        "config",
        [
            MussTiConfig.trivial(),
            MussTiConfig.swap_insert_only(),
            MussTiConfig.sabre_only(),
            MussTiConfig.full(),
        ],
        ids=lambda c: c.label,
    )
    def test_every_arm_verifies(self, config, two_modules_cap8):
        circuit = get_benchmark("GHZ_n16")
        wide = QuantumCircuit(16, name=circuit.name)
        wide.extend(circuit.gates)
        program = MussTiCompiler(config).compile(wide, two_modules_cap8)
        verify_program(program)

    def test_no_lru_arm_works(self, small_grid_2x2):
        circuit = get_benchmark("QAOA_n32")
        config = MussTiConfig(use_lru=False)
        program = MussTiCompiler(config).compile(circuit, small_grid_2x2)
        verify_program(program)

    def test_lru_not_worse_than_fifo(self, small_grid_2x2):
        circuit = get_benchmark("Adder_n32")
        lru = MussTiCompiler(MussTiConfig(use_lru=True)).compile(
            circuit, small_grid_2x2
        )
        fifo = MussTiCompiler(MussTiConfig(use_lru=False)).compile(
            circuit, small_grid_2x2
        )
        assert lru.shuttle_count <= fifo.shuttle_count + 5


class TestPaperScaleBehaviour:
    def test_table2_adder_scale(self, small_grid_2x2):
        """Adder_32 on the 2x2 grid: single-digit shuttles (paper: 7)."""
        circuit = get_benchmark("Adder_n32")
        program = MussTiCompiler().compile(circuit, small_grid_2x2)
        report = execute(program)
        assert report.shuttle_count <= 20

    def test_ghz_32_scale(self, small_grid_2x2):
        circuit = get_benchmark("GHZ_n32")
        program = MussTiCompiler().compile(circuit, small_grid_2x2)
        report = execute(program)
        assert report.shuttle_count <= 10  # paper: 2
        assert report.fidelity > 0.5       # paper: 0.82

    def test_eml_chain_needs_few_shuttles(self):
        from repro.hardware import EMLQCCDMachine

        circuit = get_benchmark("GHZ_n128")
        machine = EMLQCCDMachine.for_circuit_size(128)
        program = MussTiCompiler().compile(circuit, machine)
        report = execute(program)
        assert report.shuttle_count <= 40
        verify_program(program)


# ---------------------------------------------------------------------------
# Routing and SWAP-insertion scenarios, each compiled from an explicit
# placement and pinned byte-for-byte against the frozen seed scheduler (zone
# ids are listed in scheduling_scenarios).  Inputs checked from more than one
# angle live in test_routing, test_state and test_swap_insertion.
# ---------------------------------------------------------------------------


SCENARIOS = [
    # -- local routing: zone choice (§3.2) --------------------------------
    pytest.param(
        one_module, cx_circuit(2, (0, 1)), {0: (0,), 1: (1,)}, TRIVIAL,
        lambda p: gate_zone(p, 0) == 0 and merges(p) == [(1, 0)],
        id="local-tie-goes-to-higher-level",
    ),
    pytest.param(
        one_module, cx_circuit(6, (0, 1)), {0: (2, 3, 4, 5), 1: (0,), 2: (1,)},
        TRIVIAL,
        lambda p: gate_zone(p, 0) == 1 and p.metadata["evictions"] == 0,
        id="local-avoids-full-zone",
    ),
    pytest.param(
        one_module, cx_circuit(4, (0, 1), (0, 2), (1, 3)), {0: (0,), 1: (1, 2, 3)},
        TRIVIAL,
        lambda p: gate_zone(p, 0) == 1,
        id="local-partner-census-breaks-tie",
    ),
    # -- conflict handling: LRU eviction and optical slack -----------------
    pytest.param(
        two_modules, cx_circuit(6, (0, 1), (1, 2), (4, 5)),
        {0: (0, 1, 2, 3), 2: (4,), 4: (5,)}, NO_SLACK,
        lambda p: merges(p)[0] == (3, 1) and p.metadata["evictions"] == 1,
        id="lru-evicts-to-lower-level",
    ),
    pytest.param(
        two_modules, cx_circuit(6, (3, 0), (4, 5)), {0: (3, 0, 1, 2), 2: (4,), 4: (5,)},
        NO_SLACK,
        lambda p: evicted_before(p, 1) == [1],
        id="lru-skips-recently-used",
    ),
    pytest.param(
        two_modules, cx_circuit(6, (3, 0), (4, 5)), {0: (3, 0, 1, 2), 2: (4,), 4: (5,)},
        replace(NO_SLACK, use_lru=False),
        lambda p: evicted_before(p, 1) == [3],
        id="fifo-evicts-chain-head",
    ),
    pytest.param(
        two_modules, cx_circuit(10, (8, 9)),
        {0: (0, 1, 2, 3), 1: (4, 5, 6, 7), 2: (8,), 4: (9,)}, NO_SLACK,
        lambda p: merges(p)[0] == (0, 3),
        id="eviction-cascades-to-storage",
    ),
    pytest.param(
        two_modules, cx_circuit(6, (4, 5)), {0: (0, 1, 2, 3), 2: (4,), 4: (5,)},
        replace(TRIVIAL, optical_slack=2),
        lambda p: evicted_before(p, 0) == [0, 1, 2],
        id="slack-batches-evictions",
    ),
    pytest.param(
        two_modules, cx_circuit(6, (4, 5), (0, 5), (1, 5), (2, 5), (3, 5)),
        {0: (0, 1, 2, 3), 2: (4,), 4: (5,)}, replace(TRIVIAL, optical_slack=3),
        lambda p: evicted_before(p, 0) == [0],
        id="slack-spares-window-qubits",
    ),
    pytest.param(
        two_modules, cx_circuit(16, (14, 15)),
        {0: (0, 1, 2, 3), 1: (4, 5, 6, 7), 2: (8, 9, 10, 11), 3: (12, 13, 14), 4: (15,)},
        replace(TRIVIAL, optical_slack=8),
        lambda p: p.metadata["evictions"] == 1,
        id="slack-stops-at-module-headroom",
    ),
    # -- fiber routing into optical zones ----------------------------------
    pytest.param(
        two_modules, cx_circuit(2, (0, 1)), {0: (0,), 4: (1,)}, TRIVIAL,
        lambda p: gate_zone(p, 0) == (0, 4) and p.shuttle_count == 0,
        id="fiber-in-place",
    ),
    pytest.param(
        dual_optical, cx_circuit(5, (0, 4)), {0: (1, 2, 3), 3: (0,), 5: (4,)}, TRIVIAL,
        lambda p: gate_zone(p, 0) == (1, 5),
        id="fiber-balances-optical-zones",
    ),
    # -- §3.3 SWAP insertion ------------------------------------------------
    pytest.param(
        two_modules_cap8, star(16, range(8, 14)), SPLIT_8, TRIVIAL,
        lambda p: not swaps(p) and p.metadata["inserted_swaps"] == 0,
        id="swap-disabled-by-config",
    ),
    pytest.param(
        # Weight 3 equals the threshold, so idle qubit 8 is not swapped in.
        two_modules_cap8, star(9, range(4, 8)), {0: (0, 1, 2, 3), 4: (4, 5, 6, 7, 8)},
        replace(SWAP_INSERT, swap_threshold=3),
        lambda p: not swaps(p),
        id="swap-needs-weight-above-threshold",
    ),
    pytest.param(
        two_modules_cap8, star(16, range(8, 13)), SPLIT_8,
        replace(SWAP_INSERT, swap_threshold=3, lookahead_k=3),
        lambda p: not swaps(p),
        id="swap-weight-counts-k-layers-k3",
    ),
    pytest.param(
        two_modules_cap8, star(16, range(8, 13)), SPLIT_8,
        replace(SWAP_INSERT, swap_threshold=3, lookahead_k=4),
        lambda p: len(swaps(p)) == 1,
        id="swap-weight-counts-k-layers-k4",
    ),
    pytest.param(
        two_modules_cap8, cx_circuit(16, (0, 8), (0, 1), *((0, q) for q in range(9, 14))),
        SPLIT_8, SWAP_INSERT,
        lambda p: not swaps(p),
        id="no-swap-while-needed-at-home",
    ),
    pytest.param(
        two_modules, cx_circuit(9, (0, 4), (0, 5), (0, 6), (0, 7), (0, 5), (8, 4)),
        {0: (0, 1, 2, 3), 4: (4, 5, 6, 7), 5: (8,)},
        replace(SWAP_INSERT, swap_threshold=3),
        lambda p: not swaps(p),
        id="no-swap-without-idle-partner",
    ),
    pytest.param(
        two_modules, cx_circuit(9, (0, 4), (0, 5), (0, 6), (0, 7), (0, 5)),
        {0: (0, 1, 2, 3), 4: (4, 5, 6, 7), 5: (8,)},
        replace(SWAP_INSERT, swap_threshold=3),
        lambda p: swap_pairs(p) == [(0, 8)],
        id="swap-with-idle-partner",
    ),
]


class TestSchedulingScenarios:
    @pytest.mark.parametrize(
        ("machine", "circuit", "placement", "config", "outcome"), SCENARIOS
    )
    def test_scenario(self, machine, circuit, placement, config, outcome):
        program = compile_pinned(machine, circuit, placement, config)
        assert outcome(program)

    def test_full_module_raises_like_reference(self):
        """Slack is best effort, but a hard need with no free slot raises."""
        circuit = cx_circuit(17, (12, 16))
        placement = {
            0: (0, 1, 2, 3), 1: (4, 5, 6, 7), 2: (8, 9, 10, 11),
            3: (12, 13, 14, 15), 4: (16,),
        }
        config = replace(TRIVIAL, optical_slack=8)
        with pytest.raises(RoutingError, match="no free space"):
            MussTiCompiler(config).compile(
                circuit, two_modules(), initial_placement=placement
            )
        with pytest.raises(RefRoutingError, match="no free space"):
            reference_compile(circuit, two_modules(), config, initial_placement=placement)
