"""Tracked microbenchmark suite: ``repro bench micro`` -> ``BENCH_<date>.json``.

A fixed, registry-addressed grid of compile+execute cells spanning the
repository's scale axis — from the paper's small 2x2 grid through ring /
chain / star topologies up to a 64-module EML machine — timed fresh
(never cache-served) and written to a dated, schema-validated JSON file.
Committing one ``BENCH_*.json`` per performance-relevant PR gives the
repo a perf *trajectory*: every optimization claims its speedup against
a recorded baseline instead of a vibe.

Method: each cell compiles ``repeats`` times and executes ``repeats``
times, recording the **minimum** wall-clock of each phase (the standard
microbenchmark estimator — the minimum is the least noise-contaminated
observation).  Schedule metrics (op counts, makespan, fidelity) ride
along so a timing change caused by a schedule change is immediately
visible.

Besides the plain compile+execute cells, the grid carries one
``"mode": "reprice"`` cell: the replay-once/price-many flow.  It
compiles once, then times pricing the same schedule under
:data:`REPRICE_PROFILES` (a Fig 13-style arm set, ``len`` ≥ a dozen)
two ways — N full re-executions versus one
:func:`repro.sim.replay` plus N
:meth:`~repro.sim.EventLedger.reprice` folds — and records the speedup.
That cell is the tracked evidence that multi-profile physics sweeps stay
cheap.

Every kind of cell a payload may hold — micro, serve, fleet and faults
— is declared once in :data:`CELL_FAMILIES`: its identity, compared
metrics, guard metric and schema fragment.  :data:`BENCH_SCHEMA`,
:func:`merge_payloads` and ``repro bench compare`` all read that table.

The emitted payload is validated against :data:`BENCH_SCHEMA` before it
is written; ``validate_payload`` (via :mod:`repro.schema`) uses
``jsonschema`` when available and falls back to an equivalent structural
check on machines without it (the package itself stays stdlib-only).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from ..hardware import canonical_machine_spec, machine_from_spec, resolve_machine
from ..physics import resolve_physics
from ..pipeline import resolve_compiler
from ..schema import SchemaError, validate
from ..sim import execute, replay
from ..workloads import get_benchmark, parse_name
from .cells import matches_filter, parse_filter

#: Current schema version of the ``BENCH_*.json`` payload.  Version 2
#: added the optional ``mode``/``profiles``/``reexecute_s``/``speedup``
#: cell fields for the replay-once/price-many cell; version 3 added the
#: service load-generator cells (``repro bench serve``: ``serve-cold`` /
#: ``serve-warm`` modes with p50/p99/throughput metrics) and the
#: ``serve`` / ``mixed`` grids; version 4 added the multi-tenant
#: queueing cells (``repro bench fleet``: ``mode: fleet`` with
#: throughput / wait / fairness metrics) and the ``fleet`` grid;
#: version 5 added the fault-robustness cells (``repro bench faults``:
#: ``mode: faults`` with makespan-degradation / fidelity-delta /
#: recovery-overhead metrics) and the ``faults`` grid; version 6 added
#: the ``serve-backpressure`` mode and the optional ``rejected`` (429)
#: count to the serve cells; version 7 pinned the compile+execute cell
#: workloads to the :data:`MICRO_WORKLOADS` enum (adding the array-core
#: scale cells ``QFT_n512``/``QFT_n1024``) and deduped cell identity
#: through resolved-machine canonicalisation.  Older files still
#: validate (and compare) cleanly.
SCHEMA_VERSION = 7

#: Every workload that has ever appeared in a tracked compile+execute
#: micro cell — the schema enum for that cell kind (v7).  Serve / fleet
#: / faults cells keep free-form workload strings (they name traces and
#: request mixes, not registry benchmarks).
MICRO_WORKLOADS: tuple[str, ...] = (
    "GHZ_n32",
    "QFT_n32",
    "QFT_n64",
    "QFT_n128",
    "QFT_n512",
    "QFT_n1024",
    "QV_n32",
    "SQRT_n128",
)

#: The physics arms of the ``reprice`` cell: the Fig 13 counterfactuals
#: plus heating-rate / gate-decay / fiber / lifetime sweeps — the
#: "dozens of parameter arms" use case the event ledger exists for.
REPRICE_PROFILES: tuple[str, ...] = (
    "table1",
    "perfect-gate",
    "perfect-shuttle",
    "table1?heating_rate=0.0005",
    "table1?heating_rate=0.002",
    "table1?heating_rate=0.005",
    "table1?heating_rate=0.01",
    "table1?gate_decay_epsilon=0.0001",
    "table1?gate_decay_epsilon=1e-05",
    "table1?fiber_gate_fidelity=0.95",
    "table1?fiber_gate_fidelity=0.999",
    "table1?qubit_lifetime_us=60000000",
)

#: The fixed grid, ordered small -> large.  Machines are registry spec
#: strings (canonicalised at run time); the final cell — QFT_n128 on a
#: 64-module EML with tight traps — is the headline "largest cell" whose
#: wall-clock every performance PR is judged against.
MICRO_GRID: tuple[dict, ...] = (
    {"workload": "GHZ_n32", "machine": "grid:2x2:12", "compiler": "muss-ti"},
    {"workload": "QFT_n32", "machine": "ring:8:16", "compiler": "muss-ti"},
    {"workload": "QFT_n32", "machine": "chain:8:16", "compiler": "muss-ti"},
    {"workload": "QFT_n64", "machine": "star:1+6:16", "compiler": "muss-ti"},
    {"workload": "QFT_n64", "machine": "eml", "compiler": "muss-ti"},
    {"workload": "QV_n32", "machine": "eml", "compiler": "muss-ti"},
    {"workload": "SQRT_n128", "machine": "eml", "compiler": "muss-ti"},
    {"workload": "QFT_n64", "machine": "eml?capacity=4&modules=64", "compiler": "muss-ti"},
    {"workload": "QFT_n128", "machine": "eml:64:4", "compiler": "muss-ti"},
    {"workload": "QFT_n128", "machine": "eml?capacity=4&modules=64", "compiler": "muss-ti"},
    {"workload": "QFT_n512", "machine": "eml?capacity=4&modules=256", "compiler": "muss-ti"},
    {"workload": "QFT_n1024", "machine": "eml?capacity=4&modules=256", "compiler": "muss-ti"},
    {"workload": "QFT_n128", "machine": "eml:64:4", "compiler": "muss-ti", "mode": "reprice"},
)

#: The ``mode`` of a cell that carries none: the plain compile+execute cell.
DEFAULT_MODE = "compile-execute"

#: Properties every cell has, in every family: its identity triple.
_IDENTITY_PROPERTIES = {
    "workload": {"type": "string", "minLength": 1},
    "machine": {"type": "string", "minLength": 1},
    "compiler": {"type": "string", "minLength": 1},
}


def _cell_schema(required: list[str], properties: dict) -> dict:
    """One family's cell schema: the identity triple, then its own fields
    (a family may narrow an identity property in place)."""
    return {
        "type": "object",
        "required": [*_IDENTITY_PROPERTIES, *required],
        "additionalProperties": False,
        "properties": {**_IDENTITY_PROPERTIES, **properties},
    }


@dataclass(frozen=True)
class CellFamily:
    """One kind of BENCH cell, declared once for the schema, merge and compare.

    A cell's identity is ``(workload, machine, compiler, mode)`` plus,
    when :attr:`identity` is set, that template filled from the cell: a
    load or queueing cell is only comparable with one run at the same
    size, so its size is part of what it is.
    """

    #: Heading of the family's ``repro bench compare`` table.
    title: str
    #: The ``mode`` values of the family's cells (:data:`DEFAULT_MODE`
    #: stands for a cell without one).
    modes: tuple[str, ...]
    #: Metrics compared per matched cell, in table order.
    metrics: tuple[str, ...]
    #: The metric the ``--fail-over`` guard judges.
    guard: str
    #: JSON Schema of one cell.
    schema: dict
    #: Extra identity: a :meth:`str.format_map` template over the cell.
    identity: str = ""
    #: Metrics that are percentages already: their delta is reported in
    #: points, since a ratio against a 0.0 baseline is undefined.
    points: tuple[str, ...] = ()
    #: Guard-metric units per second, for the noise floor; ``None`` for a
    #: deterministic family, which the floor never skips.
    floor_unit: float | None = 1.0
    #: Template of the bracketed label after a non-default mode, over
    #: the key's ``mode`` and ``compiler``.
    tag: str = "{mode}"


#: Every BENCH cell family, in the order ``repro bench compare`` prints
#: them (:data:`SCHEMA_VERSION` records when each arrived).
CELL_FAMILIES: tuple[CellFamily, ...] = (
    # Compile+execute cells and the replay-once/price-many cell; judged
    # on ``total_s`` in seconds.
    CellFamily(
        title="Microbenchmark comparison",
        modes=(DEFAULT_MODE, "reprice"),
        metrics=("compile_s", "execute_s", "total_s"),
        guard="total_s",
        schema=_cell_schema(
            [
                "compile_s",
                "execute_s",
                "total_s",
                "operations",
                "shuttles",
                "makespan_us",
                "log10_fidelity",
            ],
            {
                "workload": {"enum": list(MICRO_WORKLOADS)},
                "compile_s": {"type": "number", "minimum": 0},
                "execute_s": {"type": "number", "minimum": 0},
                "total_s": {"type": "number", "minimum": 0},
                "operations": {"type": "integer", "minimum": 0},
                "shuttles": {"type": "integer", "minimum": 0},
                "makespan_us": {"type": "number", "minimum": 0},
                "log10_fidelity": {"type": "number", "maximum": 0},
                # Replay-once/price-many cell: execute_s is the replay +
                # N-fold pricing time; reexecute_s the N full
                # re-executions it replaces.
                "mode": {"enum": ["reprice"]},
                "profiles": {"type": "integer", "minimum": 2},
                "reexecute_s": {"type": "number", "minimum": 0},
                "speedup": {"type": "number", "minimum": 0},
            },
        ),
    ),
    # Service load-generator cells (``repro bench serve``): the cold,
    # warm and backpressure phases of one load run, judged on ``p99_ms``.
    # Throughput is shown but not judged: its good direction is up, and
    # p99 already covers it.  ``rejected`` (429s) is absent from pre-v6
    # baselines and renders as n/a there.
    CellFamily(
        title="Service load comparison",
        modes=("serve-cold", "serve-warm", "serve-backpressure"),
        metrics=("p50_ms", "p99_ms", "throughput_rps", "rejected"),
        guard="p99_ms",
        identity="c{concurrency}r{requests}",
        floor_unit=1000.0,
        schema=_cell_schema(
            [
                "mode",
                "concurrency",
                "requests",
                "errors",
                "p50_ms",
                "p99_ms",
                "throughput_rps",
            ],
            {
                "mode": {"enum": ["serve-cold", "serve-warm", "serve-backpressure"]},
                "concurrency": {"type": "integer", "minimum": 1},
                "requests": {"type": "integer", "minimum": 1},
                "errors": {"type": "integer", "minimum": 0},
                "rejected": {"type": "integer", "minimum": 0},
                "p50_ms": {"type": "number", "minimum": 0},
                "p99_ms": {"type": "number", "minimum": 0},
                "throughput_rps": {"type": "number", "minimum": 0},
            },
        ),
    ),
    # Multi-tenant queueing cells (``repro bench fleet``): one per
    # admission policy, which the ``compiler`` field carries.  Judged on
    # tail queue wait.  The waits come from simulated makespans, not a
    # clock, so the noise floor does not apply.
    CellFamily(
        title="Fleet comparison",
        modes=("fleet",),
        metrics=("throughput_jps", "p99_wait_ms"),
        guard="p99_wait_ms",
        identity="j{jobs}a{arrival}",
        floor_unit=None,
        tag="{compiler}",
        schema=_cell_schema(
            [
                "mode",
                "jobs",
                "arrival",
                "dropped",
                "throughput_jps",
                "utilization",
                "p50_wait_ms",
                "p99_wait_ms",
                "jain",
            ],
            {
                "mode": {"enum": ["fleet"]},
                "jobs": {"type": "integer", "minimum": 1},
                "arrival": {"enum": ["poisson", "bursty"]},
                "dropped": {"type": "integer", "minimum": 0},
                "throughput_jps": {"type": "number", "minimum": 0},
                "utilization": {"type": "number", "minimum": 0},
                "p50_wait_ms": {"type": "number", "minimum": 0},
                "p99_wait_ms": {"type": "number", "minimum": 0},
                "jain": {"type": "number", "minimum": 0, "maximum": 1},
            },
        ),
    ),
    # Fault-robustness cells (``repro bench faults``): one per fault
    # profile, which the ``compiler`` field carries as
    # ``faults-<profile>``.  Judged on how much slower the fault-avoiding
    # schedule is than the pristine compile; deterministic simulator
    # output.
    CellFamily(
        title="Faults comparison",
        modes=("faults",),
        metrics=("makespan_us", "makespan_degradation_pct", "recovery_overhead_pct"),
        guard="makespan_degradation_pct",
        points=("makespan_degradation_pct", "recovery_overhead_pct"),
        floor_unit=None,
        tag="{compiler}",
        schema=_cell_schema(
            [
                "mode",
                "profile",
                "num_faults",
                "pristine_makespan_us",
                "makespan_us",
                "makespan_degradation_pct",
                "log10_fidelity_delta",
                "recovery_overhead_pct",
            ],
            {
                "mode": {"enum": ["faults"]},
                "profile": {"type": "string", "minLength": 1},
                "num_faults": {"type": "integer", "minimum": 1},
                "pristine_makespan_us": {"type": "number", "minimum": 0},
                "makespan_us": {"type": "number", "minimum": 0},
                "makespan_degradation_pct": {"type": "number"},
                "log10_fidelity_delta": {"type": "number"},
                "recovery_overhead_pct": {"type": "number"},
            },
        ),
    ),
)

_FAMILY_BY_MODE = {mode: family for family in CELL_FAMILIES for mode in family.modes}


def cell_family(mode: str) -> CellFamily:
    """The family of cells whose ``mode`` is *mode*."""
    return _FAMILY_BY_MODE[mode]


def cell_key(cell: dict) -> tuple:
    """A cell's identity: ``(workload, machine, compiler, mode)`` plus its
    family's extra identity.  Compare matches cells by it and merge
    replaces cells by it, so a fold never drops a cell compare tracks."""
    mode = cell.get("mode", DEFAULT_MODE)
    key = (cell["workload"], cell["machine"], cell["compiler"], mode)
    identity = cell_family(mode).identity
    return key + (identity.format_map(cell),) if identity else key


def describe_key(key: tuple) -> str:
    """``workload on machine [tag] @identity`` for one :func:`cell_key`."""
    workload, machine, compiler, mode = key[:4]
    text = f"{workload} on {machine}"
    if mode != DEFAULT_MODE:
        tag = cell_family(mode).tag.format(mode=mode, compiler=compiler)
        text += f" [{tag}]"
    if len(key) > 4:
        text += f" @{key[4]}"
    return text


#: JSON Schema (draft 2020-12) of the ``BENCH_*.json`` payload.
BENCH_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://example.invalid/repro-muss-ti/bench-micro.schema.json",
    "title": "repro bench payload",
    "type": "object",
    "required": ["schema_version", "created_utc", "grid", "repeats", "environment", "cells"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"enum": [1, 2, 3, 4, 5, 6, SCHEMA_VERSION]},
        "created_utc": {"type": "string", "minLength": 1},
        "grid": {"enum": ["micro", "serve", "fleet", "faults", "mixed"]},
        "repeats": {"type": "integer", "minimum": 1},
        "environment": {
            "type": "object",
            "required": ["python", "platform"],
            "additionalProperties": False,
            "properties": {
                "python": {"type": "string", "minLength": 1},
                "platform": {"type": "string", "minLength": 1},
            },
        },
        "cells": {
            "type": "array",
            "minItems": 1,
            "items": {"anyOf": [family.schema for family in CELL_FAMILIES]},
        },
    },
}


#: The payload does not conform to :data:`BENCH_SCHEMA` (the shared
#: :class:`repro.schema.SchemaError`, kept under its historical name).
BenchSchemaError = SchemaError


def validate_payload(payload: dict) -> None:
    """Raise :class:`BenchSchemaError` unless *payload* conforms to
    :data:`BENCH_SCHEMA`.  Uses ``jsonschema`` when installed, otherwise
    the equivalent built-in structural check (:mod:`repro.schema`)."""
    validate(payload, BENCH_SCHEMA)


def _resolved_machine_key(workload: str, machine_spec: str) -> str:
    """Cell-identity machine key: the *resolved* machine's canonical spec.

    String canonicalisation alone cannot collapse every equivalent
    spelling (``eml?modules=64&capacity=4&operation=1`` spells out a
    default; circuit-relative ``eml`` pins its module count only once a
    workload sizes it), so identity goes through
    :func:`~repro.hardware.machine_from_spec` and the built machine's
    verified canonical ``spec``.  Off-registry machines fall back to the
    canonical string.
    """
    _, num_qubits = parse_name(workload)
    resolved = machine_from_spec(machine_spec, num_qubits).spec
    return resolved if resolved is not None else machine_spec


def micro_cells(cell_filter: str | None = None) -> list[dict]:
    """The micro grid with canonical machine specs, optionally filtered
    with the sweep engine's ``--filter`` syntax.

    Cells are deduplicated by resolved-machine identity — equivalent
    spec spellings (positional vs query form, explicit defaults vs
    omitted) never produce duplicate rows; the first spelling wins.
    """
    cells = [
        {**cell, "machine": canonical_machine_spec(cell["machine"])}
        for cell in MICRO_GRID
    ]
    seen: set[tuple] = set()
    deduped: list[dict] = []
    for cell in cells:
        machine = _resolved_machine_key(cell["workload"], cell["machine"])
        key = cell_key({**cell, "machine": machine})
        if key in seen:
            continue
        seen.add(key)
        deduped.append(cell)
    cells = deduped
    if cell_filter:
        terms = parse_filter(cell_filter)
        cells = [cell for cell in cells if matches_filter(cell, terms)]
    return cells


ProgressFn = Callable[[int, int, dict], None]

#: Per-cell profile consumer: called with (cell, formatted profile text).
ProfileSink = Callable[[dict, str], None]


def _run_reprice_cell(cell: dict, program, compile_s: float, repeats: int) -> dict:
    """Time the replay-once/price-many flow against N full re-executions.

    ``execute_s`` records the ledger path (one :func:`repro.sim.replay`
    plus one :meth:`~repro.sim.EventLedger.reprice` per profile in
    :data:`REPRICE_PROFILES`); ``reexecute_s`` the per-profile
    re-execution it replaces.  Both arms price the identical reports —
    only the wall clock differs.
    """
    profiles = [resolve_physics(spec) for spec in REPRICE_PROFILES]
    reexecute_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for params in profiles:
            execute(program, params)
        reexecute_s = min(reexecute_s, time.perf_counter() - started)
    reprice_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        ledger = replay(program)
        for params in profiles:
            ledger.reprice(params)
        reprice_s = min(reprice_s, time.perf_counter() - started)
    report = execute(program)
    return {
        "workload": cell["workload"],
        "machine": cell["machine"],
        "compiler": cell["compiler"],
        "mode": "reprice",
        "profiles": len(profiles),
        "compile_s": round(compile_s, 6),
        "execute_s": round(reprice_s, 6),
        "reexecute_s": round(reexecute_s, 6),
        "speedup": round(reexecute_s / reprice_s, 2) if reprice_s > 0 else 0.0,
        "total_s": round(compile_s + reprice_s, 6),
        "operations": program.num_operations,
        "shuttles": report.shuttle_count,
        "makespan_us": report.makespan_us,
        "log10_fidelity": report.log10_fidelity,
    }


def _run_cell(cell: dict, repeats: int) -> dict:
    """Measure one micro cell: min-of-``repeats`` compile and execute."""
    circuit = get_benchmark(cell["workload"])
    machine = resolve_machine(cell["machine"], circuit.num_qubits)
    compiler = resolve_compiler(cell["compiler"])
    compile_s = float("inf")
    program = None
    for _ in range(repeats):
        started = time.perf_counter()
        program = compiler.compile(circuit, machine)
        compile_s = min(compile_s, time.perf_counter() - started)
    if cell.get("mode") == "reprice":
        return _run_reprice_cell(cell, program, compile_s, repeats)
    execute_s = float("inf")
    report = None
    for _ in range(repeats):
        started = time.perf_counter()
        report = execute(program)
        execute_s = min(execute_s, time.perf_counter() - started)
    return {
        "workload": cell["workload"],
        "machine": cell["machine"],
        "compiler": cell["compiler"],
        "compile_s": round(compile_s, 6),
        "execute_s": round(execute_s, 6),
        "total_s": round(compile_s + execute_s, 6),
        "operations": program.num_operations,
        "shuttles": report.shuttle_count,
        "makespan_us": report.makespan_us,
        "log10_fidelity": report.log10_fidelity,
    }


def _profile_cell(cell: dict) -> str:
    """One profiled compile+execute of *cell*: top-20 cumulative text."""
    import cProfile
    import io
    import pstats

    circuit = get_benchmark(cell["workload"])
    machine = resolve_machine(cell["machine"], circuit.num_qubits)
    compiler = resolve_compiler(cell["compiler"])
    profiler = cProfile.Profile()
    profiler.enable()
    program = compiler.compile(circuit, machine)
    execute(program)
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(20)
    return stream.getvalue()


# ---------------------------------------------------------------------------
# Sweep-engine driver API (``module.cells`` / ``run_cell`` / ``assemble``)
# ---------------------------------------------------------------------------
# The micro grid runs through the same ProcessPoolExecutor engine as the
# paper experiments (``repro bench micro --jobs N``), but always with the
# result cache disabled: perf numbers are measured fresh, never served.


def cells(repeats: int = 3, cell_filter: str | None = None) -> list[dict]:
    """Engine-facing cell specs: the micro grid with ``repeats`` pinned."""
    return [{**cell, "repeats": repeats} for cell in micro_cells(cell_filter)]


def run_cell(spec: dict) -> dict:
    """Engine-facing worker entry point: measure one grid cell."""
    cell = {key: value for key, value in spec.items() if key != "repeats"}
    return _run_cell(cell, spec["repeats"])


def assemble(pairs: list[tuple[dict, dict]]) -> list[dict]:
    """Engine-facing row assembly: rows are the cell results, grid order."""
    return [result for _spec, result in pairs]


def run(repeats: int = 3, cell_filter: str | None = None) -> list[dict]:
    """Driver-protocol serial reference: the measured rows, grid order."""
    return [run_cell(spec) for spec in cells(repeats=repeats, cell_filter=cell_filter)]


def run_micro(
    *,
    repeats: int = 3,
    cell_filter: str | None = None,
    progress: ProgressFn | None = None,
    jobs: int = 1,
    profile_sink: ProfileSink | None = None,
) -> dict:
    """Execute the microbenchmark grid; returns the payload (validated).

    Results are always measured fresh — perf numbers must never be served
    from the sweep cache (``jobs > 1`` uses the sweep engine's process
    pool with caching disabled).  The payload is deterministic up to the
    measured wall-clock fields: a ``--jobs`` run and a serial run produce
    byte-identical payloads once ``compile_s`` / ``execute_s`` /
    ``reexecute_s`` / ``speedup`` / ``total_s`` and the environment stamp
    are masked.

    When *profile_sink* is given, each cell additionally runs once under
    :mod:`cProfile` (after the timed repeats, in-process even under
    ``jobs``) and the sink receives the top-20 cumulative report.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    cells_ = micro_cells(cell_filter)
    if not cells_:
        raise ValueError(f"filter {cell_filter!r} selected no micro cells")
    if jobs > 1 and len(cells_) > 1:
        from .engine import sweep

        def engine_progress(_experiment, done, total, outcome) -> None:
            if progress is not None:
                progress(done, total, outcome.result)

        result = sweep(
            "micro",
            jobs=jobs,
            use_cache=False,
            cells_kwargs={"repeats": repeats, "cell_filter": cell_filter},
            progress=engine_progress,
        )
        rows = result.rows
    else:
        rows = []
        for index, cell in enumerate(cells_):
            row = _run_cell(cell, repeats)
            rows.append(row)
            if progress is not None:
                progress(index + 1, len(cells_), row)
    if profile_sink is not None:
        for cell in cells_:
            profile_sink(cell, _profile_cell(cell))
    return build_payload("micro", rows, repeats=repeats)


def build_payload(grid: str, cells: list[dict], *, repeats: int = 1) -> dict:
    """A validated BENCH payload of *cells*, stamped with the schema
    version, the UTC time and this interpreter's environment."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "grid": grid,
        "repeats": repeats,
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "cells": cells,
    }
    validate_payload(payload)
    return payload


def default_output_path(root: Path | str = ".") -> Path:
    """``BENCH_<utc date>.json`` under *root* (the repo root, typically)."""
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%d")
    return Path(root) / f"BENCH_{stamp}.json"


def write_payload(payload: dict, path: Path | str) -> Path:
    """Validate and write the payload; returns the path written."""
    validate_payload(payload)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def merge_payloads(base: dict, new: dict) -> dict:
    """Merge *new* cells over *base* cells into one tracked payload.

    Cells match on :func:`cell_key`, the identity compare judges by;
    matching cells are replaced by the new measurement, others are kept,
    new ones appended — so ``repro bench serve`` can fold its serve cells
    into the day's ``BENCH_<date>.json`` without clobbering the micro
    grid, and a ``--quick`` cell never replaces a full-size one.  The
    merged grid is the shared grid name, or ``"mixed"``.
    """
    validate_payload(base)
    validate_payload(new)
    replacements = {cell_key(cell): cell for cell in new["cells"]}
    cells = [replacements.pop(cell_key(cell), cell) for cell in base["cells"]]
    cells.extend(cell for cell in new["cells"] if cell_key(cell) in replacements)
    merged = {
        **new,
        "schema_version": SCHEMA_VERSION,
        "grid": base["grid"] if base["grid"] == new["grid"] else "mixed",
        "cells": cells,
    }
    validate_payload(merged)
    return merged


def render(payload: dict) -> str:
    """Fixed-width table of the payload's cells."""
    from ..analysis.tables import render_table

    headers = [
        "workload", "machine", "compile_s", "execute_s", "total_s", "ops", "shuttles",
    ]
    body = [
        [
            row["workload"] + (" [reprice]" if row.get("mode") == "reprice" else ""),
            row["machine"],
            f"{row['compile_s']:.3f}",
            f"{row['execute_s']:.3f}",
            f"{row['total_s']:.3f}",
            row["operations"],
            row["shuttles"],
        ]
        for row in payload["cells"]
    ]
    table = render_table(
        headers, body, title=f"Microbenchmarks (best of {payload['repeats']})"
    )
    notes = [
        f"replay-once/price-many: {row['workload']} on {row['machine']} — "
        f"{row['profiles']} profiles, re-execute {row['reexecute_s']:.3f}s vs "
        f"reprice {row['execute_s']:.3f}s ({row['speedup']:.1f}x)"
        for row in payload["cells"]
        if row.get("mode") == "reprice"
    ]
    return "\n".join([table] + notes)
