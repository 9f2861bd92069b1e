"""Differential equivalence: optimized scheduler/executor vs the frozen seed.

The performance overhaul (event-driven scheduling loop, precomputed
topology maps, cached look-ahead, incremental state) must be a pure
speedup.  These tests compare the live implementation against the
self-contained pre-optimization copy in :mod:`reference` and require:

* **byte-identical** ``Program`` serializations (op stream, placements,
  metadata, and the timed JSON trace records), and
* identical :class:`ExecutionReport` metrics (every field except the
  inherently run-dependent ``compile_time_s``),

on the full Table 2 workload suite across the machine grid (the paper's
two small grids plus multi-module EML machines that exercise the fiber
path, SWAP insertion and eviction storms).  At QFT_n512 x 256 modules the
reference's output is stored as data (``data/scale_cell.json``);
``live_reference.py`` beside this file re-derives it (outside the
``test_*.py`` pattern, so run only when named).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest
from program_bytes import program_bytes

from repro.core import MussTiConfig
from repro.hardware import resolve_machine
from repro.pipeline import compile as compile_circuit
from repro.sim import execute
from repro.workloads import SMALL_SUITE, get_benchmark

from .reference import reference_compile, reference_execute

#: The machine grid the ISSUE demands (Table 2's grids) plus EML machines
#: pinned small enough that the 30-32 qubit suite spans several modules —
#: without those, fiber gates, remote SWAP insertion and optical-slack
#: eviction would go untested.
MACHINE_SPECS = (
    "grid:2x2:12",
    "grid:2x3:8",
    "eml?module_limit=16&modules=2",
    "eml?capacity=6&module_limit=12&modules=3",
)

#: The scale cell, checked against the reference's stored output.
SCALE_CELL = ("QFT_n512", "eml?capacity=4&modules=256")
SCALE_DATA = Path(__file__).parent / "data" / "scale_cell.json"

TABLE2_CELLS = [
    (app, machine) for app in SMALL_SUITE for machine in MACHINE_SPECS
]


def assert_programs_identical(optimized, reference) -> None:
    assert optimized.operations == reference.operations
    assert optimized.initial_placement == reference.initial_placement
    assert optimized.final_placement == reference.final_placement
    assert optimized.metadata == reference.metadata
    assert program_bytes(optimized) == program_bytes(reference)


def assert_reports_identical(optimized_report, reference_report) -> None:
    lhs = asdict(optimized_report)
    rhs = asdict(reference_report)
    lhs.pop("compile_time_s")
    rhs.pop("compile_time_s")
    assert lhs == rhs


def compare_cell(app: str, machine_spec: str, config: MussTiConfig) -> None:
    circuit = get_benchmark(app)
    machine = resolve_machine(machine_spec, circuit.num_qubits)
    optimized = compile_circuit(
        circuit, machine, compiler="muss-ti", config=config, verify=False
    ).program
    reference = reference_compile(circuit, machine, config)
    assert_programs_identical(optimized, reference)
    assert_reports_identical(execute(optimized), reference_execute(reference))


@pytest.mark.parametrize(("app", "machine_spec"), TABLE2_CELLS)
def test_table2_grid_matches_reference(app: str, machine_spec: str) -> None:
    compare_cell(app, machine_spec, MussTiConfig())


ARM_CONFIGS = {
    "trivial": MussTiConfig.trivial(),
    "swap-insert": MussTiConfig.swap_insert_only(),
    "sabre": MussTiConfig.sabre_only(),
    "full": MussTiConfig.full(),
    "lookahead-4": MussTiConfig().with_lookahead(4),
    "lookahead-12": MussTiConfig().with_lookahead(12),
    "no-lru": MussTiConfig(use_lru=False),
    "no-slack": MussTiConfig(optical_slack=0),
}


@pytest.mark.parametrize("arm", sorted(ARM_CONFIGS))
def test_config_arms_match_reference(arm: str) -> None:
    """Every pipeline variant stays equivalent, not just the default."""
    compare_cell("QFT_n32", "eml?module_limit=16&modules=2", ARM_CONFIGS[arm])


@pytest.mark.parametrize("arm", sorted(ARM_CONFIGS))
def test_config_arms_match_reference_on_grid(arm: str) -> None:
    compare_cell("QAOA_n32", "grid:2x3:8", ARM_CONFIGS[arm])


def test_caller_supplied_placement_matches_reference() -> None:
    """The no-placement-pass path (explicit initial placement) is covered."""
    from repro.core.compiler import MussTiCompiler
    from repro.core.mapping import trivial_placement

    circuit = get_benchmark("BV_n32")
    machine = resolve_machine("eml?module_limit=16&modules=2", circuit.num_qubits)
    placement = trivial_placement(circuit, machine)
    config = MussTiConfig()
    optimized = MussTiCompiler(config).compile(
        circuit, machine, initial_placement=placement
    )
    reference = reference_compile(
        circuit, machine, config, initial_placement=placement
    )
    assert_programs_identical(optimized, reference)


def test_dual_optical_machine_matches_reference() -> None:
    """Multiple optical zones per module (Fig 12 layout) stay equivalent."""
    compare_cell(
        "GHZ_n32", "eml?module_limit=12&modules=3&optical=2", MussTiConfig()
    )


def scale_cell_record(program, report) -> dict:
    """What ``data/scale_cell.json`` stores of a compiled scale cell.

    The program-bytes sha256 covers the op stream, placements, metadata
    and timed trace records; the placements, metadata and every report
    field but ``compile_time_s`` are stored in the clear, so a diff reads
    as data.  Normalised through JSON, as the stored copy was.
    """
    fields = asdict(report)
    fields.pop("compile_time_s")
    return json.loads(
        json.dumps(
            {
                "program_sha256": hashlib.sha256(program_bytes(program)).hexdigest(),
                "initial_placement": program.initial_placement,
                "final_placement": program.final_placement,
                "metadata": program.metadata,
                "report": fields,
            }
        )
    )


def stored_scale_cell() -> dict:
    assert SCALE_DATA.exists(), (
        f"{SCALE_DATA} missing - run `pytest tests/differential/live_reference.py "
        f"--update-goldens` once and commit the result"
    )
    return json.loads(SCALE_DATA.read_text(encoding="utf-8"))


@pytest.mark.slow
def test_array_core_scale_cell_matches_reference(scale_cell_program) -> None:
    """The array core stays byte-identical at QFT_n512 x 256 modules.

    The frozen reference takes about 110 s to compile this cell, so its
    output is stored in ``data/scale_cell.json``: the array core's
    program bytes, placements, metadata and report must equal it.
    ``live_reference.py`` re-derives that data from the live reference
    in its own CI job.
    """
    actual = scale_cell_record(scale_cell_program, execute(scale_cell_program))
    assert actual == stored_scale_cell()


def test_executor_rejects_like_reference() -> None:
    """A corrupted op stream fails both executors at the same op index."""
    from repro.sim import ExecutionError, Program
    from repro.sim.ops import MoveOp

    from .reference import RefExecutionError

    circuit = get_benchmark("QFT_n32")
    machine = resolve_machine(
        "eml?capacity=6&module_limit=12&modules=3", circuit.num_qubits
    )
    program = compile_circuit(
        circuit, machine, compiler="muss-ti", verify=False
    ).program
    move_index = next(
        i for i, op in enumerate(program.operations) if isinstance(op, MoveOp)
    )
    # Teleporting move: the source zone no longer matches the ion's transit.
    ops = list(program.operations)
    bad = ops[move_index]
    ops[move_index] = MoveOp(bad.qubit, bad.source_zone + 1, bad.destination_zone)
    program = Program(program.machine, program.circuit, program.initial_placement, ops)
    with pytest.raises(ExecutionError) as optimized_error:
        execute(program)
    with pytest.raises(RefExecutionError) as reference_error:
        reference_execute(program)
    assert optimized_error.value.op_index == reference_error.value.op_index
