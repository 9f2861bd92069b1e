"""The compile workloads, ``paper`` and ``scale``.

Both time calls into the public API only — ``repro.compile`` from the
benchmark name (so circuit generation counts as compile time) and
``repro.execute`` (replay plus pricing) — and check every program with
``repro.verify_program`` outside the timed window.

A *pass* compiles and executes every cell of the workload once, in an
order drawn from the run's seed.  A run makes as many passes as fit in
its time budget; each timing it reports is a sum over cells of that
cell's median across the run's passes.

The traced pass decomposes each MUSS-TI compile into the public calls
``sabre_placement`` composes (trivial placement, the forward and the
reverse warm-up compile with SABRE off, then the final pipeline compile
from the resulting placement) and each execute into ``replay`` and
``reprice``, recording a span around each call.
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace

import repro
from repro.analysis.experiments import fig6, table2
from repro.analysis.runs import eml_for, small_grid
from repro.core.mapping import trivial_placement
from repro.hardware import QCCDGridMachine
from repro.sim.program import ArrayProgram

from .measure import median, peak_rss_mib, percentile, reset_peak_rss
from .spans import SpanRecorder

#: ``scale``: MUSS-TI alone on tight-trap EMLs with many modules.  The
#: first cell is the ROADMAP headline cell; the two sparse circuits keep
#: a gain tuned to QFT's all-to-all interaction window honest.
SCALE_CELLS = (
    ("QFT_n128", "eml?capacity=4&modules=64"),
    ("QFT_n256", "eml?capacity=4&modules=128"),
    ("SQRT_n299", "eml?capacity=4&modules=128"),
    ("RAN_n256", "eml?capacity=4&modules=128"),
)

#: Leaf layers of a traced cell; their self times should cover nearly
#: all of compile + execute.
LAYERS = (
    "build",
    "trivial_placement",
    "sabre_forward",
    "sabre_reverse",
    "schedule_final",
    "baselines.murali",
    "baselines.dai",
    "baselines.mqt",
    "replay",
    "reprice",
)


@dataclass(frozen=True)
class Cell:
    """One (application, machine, compiler) case."""

    app: str
    machine: tuple  # ("grid", rows, cols, capacity) | ("eml_for",) | ("spec", spec)
    compiler: str


def paper_cells() -> list[Cell]:
    """The cells ``table2.py`` and ``fig6.py`` build, in their order."""
    cells = []
    for spec in table2.cells():
        rows, cols = map(int, spec["grid"].split("x"))
        capacity = small_grid(spec["grid"]).trap_capacity
        cells.append(Cell(spec["app"], ("grid", rows, cols, capacity), spec["compiler"]))
    for spec in fig6.cells():
        scale = spec["scale"]
        if spec["compiler"] == "muss-ti" and scale != "small":
            machine: tuple = ("eml_for",)
        elif scale == "small":
            machine = ("grid", 2, 2, small_grid("2x2").trap_capacity)
        else:
            rows, cols = fig6.SCALES[scale]["grid"]
            machine = ("grid", rows, cols, 16)
        cells.append(Cell(spec["app"], machine, spec["compiler"]))
    return cells


def scale_cells() -> list[Cell]:
    return [Cell(app, ("spec", spec), "muss-ti") for app, spec in SCALE_CELLS]


CELLS = {"paper": paper_cells, "scale": scale_cells}

#: A small cell per compiler the workload uses, compiled once during set-up
#: so lazy imports and first-call caches are warm before timing.
WARM_CELLS = {
    "paper": [
        Cell("GHZ_n16", ("grid", 2, 2, 12), name)
        for name in ("murali", "dai", "mqt", "muss-ti")
    ],
    "scale": [Cell("QFT_n16", ("spec", "eml?capacity=4&modules=8"), "muss-ti")],
}


def build_machine(cell: Cell, circuit):
    kind = cell.machine[0]
    if kind == "grid":
        return QCCDGridMachine(*cell.machine[1:])
    if kind == "eml_for":
        return eml_for(circuit)
    return repro.resolve_machine(cell.machine[1], circuit.num_qubits)


@dataclass
class Prepared:
    """Everything set-up builds: the cells and their machines."""

    cells: list[Cell]
    machines: list
    maps_s: float


def setup(workload: str) -> Prepared:
    """Build machines and topology maps, then run the warm cells once."""
    cells = CELLS[workload]()
    circuits = {app: repro.get_benchmark(app) for app in {cell.app for cell in cells}}
    started = time.perf_counter()
    machines = []
    for cell in cells:
        machine = build_machine(cell, circuits[cell.app])
        machine.topology_maps()
        machines.append(machine)
    maps_s = time.perf_counter() - started
    for cell in WARM_CELLS[workload]:
        circuit = repro.get_benchmark(cell.app)
        result = repro.compile(circuit, build_machine(cell, circuit), compiler=cell.compiler)
        repro.execute(result.program)
    return Prepared(cells, machines, maps_s)


def machine_label(machine) -> str:
    return machine.spec or type(machine).__name__


def outputs(program, report) -> tuple:
    """The deterministic outputs a cell must reproduce on every pass."""
    placement = tuple(sorted(program.final_placement.items()))
    return (
        report.shuttle_count,
        report.makespan_us,
        report.log10_fidelity,
        program.num_operations,
        placement,
    )


@dataclass
class CellRecord:
    """One cell's timings across a run's passes, and its checked outputs."""

    compile_s: list[float] = field(default_factory=list)
    execute_s: list[float] = field(default_factory=list)
    outputs: tuple | None = None
    failures: list[str] = field(default_factory=list)


@dataclass
class CompileRun:
    """State of one run of a compile workload."""

    prepared: Prepared
    rng: random.Random
    records: list[CellRecord] = field(default_factory=list)
    attempted: int = 0
    pass_peak_rss_mb: list[float] = field(default_factory=list)
    passes: int = 0

    def __post_init__(self) -> None:
        self.records = [CellRecord() for _ in self.prepared.cells]

    def order(self) -> list[int]:
        return self.rng.sample(range(len(self.prepared.cells)), len(self.prepared.cells))

    def check(self, index: int, program, report) -> None:
        """Verify a program (untimed) and its agreement with earlier passes."""
        record = self.records[index]
        found = outputs(program, report)
        try:
            repro.verify_program(program)
        except Exception as error:  # any exception here is a failed check
            record.failures.append(f"verify_program: {type(error).__name__}: {error}")
            return
        if record.outputs is None:
            record.outputs = found
        elif record.outputs != found:
            record.failures.append("outputs differ between passes")

    def timed_pass(self) -> None:
        """Compile and execute every cell once, timing each call."""
        prepared = self.prepared
        peak = 0.0
        for index in self.order():
            cell = prepared.cells[index]
            machine = prepared.machines[index]
            self.attempted += 1
            # Start each cell from a collected heap, so the previous cell's
            # garbage (and its verification) sets neither peak nor pace.
            gc.collect()
            reset_peak_rss()
            try:
                started = time.perf_counter()
                result = repro.compile(cell.app, machine, compiler=cell.compiler)
                compiled = time.perf_counter()
                report = repro.execute(result.program)
                finished = time.perf_counter()
            except Exception as error:  # a failing cell is counted, not fatal
                self.records[index].failures.append(f"{type(error).__name__}: {error}")
                continue
            peak = max(peak, peak_rss_mib())
            self.records[index].compile_s.append(compiled - started)
            self.records[index].execute_s.append(finished - compiled)
            self.check(index, result.program, report)
        self.pass_peak_rss_mb.append(peak)
        self.passes += 1

    def traced_pass(self, recorder: SpanRecorder, counts: dict) -> None:
        """Compile and execute every cell through its public layers, traced."""
        prepared = self.prepared
        for index in self.order():
            cell = prepared.cells[index]
            machine = prepared.machines[index]
            trace = counts["passes"] * len(prepared.cells) + index
            self.attempted += 1
            gc.collect()  # as in the timed pass
            try:
                with recorder.span(trace, "cell"):
                    with recorder.span(trace, "compile"):
                        program = traced_compile(recorder, trace, cell, machine, counts)
                    with recorder.span(trace, "execute"):
                        packed = getattr(program, "packed_view", None) is not None
                        with recorder.span(trace, "replay"):
                            ledger = repro.replay(program)
                        with recorder.span(trace, "reprice"):
                            report = ledger.reprice()
            except Exception as error:  # a failing cell is counted, not fatal
                self.records[index].failures.append(f"{type(error).__name__}: {error}")
                continue
            counts["sim.packed_ops" if packed else "sim.object_ops"] += len(ledger)
            counts["circuits.gates"] += len(program.circuit)
            self.check(index, program, report)
        counts["passes"] += 1

    @property
    def failed(self) -> int:
        return sum(len(record.failures) for record in self.records)

    def summary(self) -> dict:
        """End-to-end metrics of the run's untraced passes."""
        records = [record for record in self.records if record.compile_s]
        compile_s = sum(median(record.compile_s) for record in records)
        execute_s = sum(median(record.execute_s) for record in records)
        cell_ms = [
            1000.0 * (median(record.compile_s) + median(record.execute_s))
            for record in records
        ]
        checked = [record.outputs for record in self.records if record.outputs]
        return {
            "compile_s": compile_s,
            "execute_s": execute_s,
            "p50_ms": percentile(cell_ms, 0.50),
            "p99_ms": percentile(cell_ms, 0.99),
            "throughput_rps": len(records) / (compile_s + execute_s),
            "peak_rss_mb": median(self.pass_peak_rss_mb),
            "shuttles": sum(found[0] for found in checked),
            "makespan_us": sum(found[1] for found in checked),
            "neg_log10_fidelity": -sum(found[2] for found in checked),
        }

    def detail(self) -> list[dict]:
        """Per-cell outputs and timings for the run's detail file."""
        rows = []
        for cell, machine, record in zip(
            self.prepared.cells, self.prepared.machines, self.records
        ):
            row = {
                "app": cell.app,
                "machine": machine_label(machine),
                "compiler": cell.compiler,
                "compile_s": record.compile_s,
                "execute_s": record.execute_s,
                "failures": record.failures,
            }
            if record.outputs is not None:
                shuttles, makespan, log10_fidelity, ops, _ = record.outputs
                row.update(
                    shuttles=shuttles,
                    makespan_us=makespan,
                    log10_fidelity=log10_fidelity,
                    operations=ops,
                )
            rows.append(row)
        return rows


def traced_compile(recorder: SpanRecorder, trace: int, cell: Cell, machine, counts: dict):
    """``repro.compile`` split into its public layers, one span each."""
    with recorder.span(trace, "build"):
        circuit = repro.get_benchmark(cell.app)
    compiler = repro.resolve_compiler(cell.compiler)
    if cell.compiler != "muss-ti":
        with recorder.span(trace, f"baselines.{cell.compiler}"):
            program = compiler.compile(circuit, machine)
        counts["baselines.ops"] += program.num_operations
        return program
    config = compiler.config
    with recorder.span(trace, "trivial_placement"):
        placement = trivial_placement(circuit, machine)
    if config.use_sabre_mapping:
        warmup = repro.MussTiCompiler(replace(config, use_sabre_mapping=False))
        with recorder.span(trace, "sabre_forward"):
            forward = warmup.compile(circuit, machine, initial_placement=placement)
        with recorder.span(trace, "sabre_reverse"):
            backward = warmup.compile(
                circuit.reversed(), machine, initial_placement=forward.final_placement
            )
        placement = dict(backward.final_placement)
        counts["mapping.warmup_ops"] += forward.num_operations + backward.num_operations
        counts["schedule.fallbacks"] += sum(
            not isinstance(found, ArrayProgram) for found in (forward, backward)
        )
    with recorder.span(trace, "schedule_final"):
        program = compiler.pipeline().compile(
            circuit, machine, initial_placement=placement
        ).program
    counts["schedule.ops"] += program.num_operations
    counts["schedule.inserted_swaps"] += int(program.metadata.get("inserted_swaps", 0))
    counts["schedule.fallbacks"] += not isinstance(program, ArrayProgram)
    return program


def layer_metrics(run: CompileRun, recorder: SpanRecorder, counts: Counter) -> dict:
    """Per-layer metrics of a traced run, per pass."""
    passes = counts["passes"]
    self_s = recorder.self_times()

    def per_pass(name: str) -> float:
        return self_s.get(name, 0.0) / passes

    cells = len(run.prepared.cells)
    traced: dict[int, list[float]] = defaultdict(list)
    for trace, _, _, name, start, end in recorder.spans:
        if name == "cell":
            traced[trace % cells].append(end - start)
    untraced = run.summary()
    untraced_s = untraced["compile_s"] + untraced["execute_s"]
    final_ops = counts["schedule.ops"]
    warmup_ops = counts["mapping.warmup_ops"]
    return {
        "workloads.build_s": per_pass("build"),
        "circuits.gates": counts["circuits.gates"] / passes,
        "hardware.maps_s": run.prepared.maps_s,
        "mapping.trivial_s": per_pass("trivial_placement"),
        "mapping.sabre_forward_s": per_pass("sabre_forward"),
        "mapping.sabre_reverse_s": per_pass("sabre_reverse"),
        "mapping.warmup_ops": warmup_ops / passes,
        "mapping.useful_op_ratio": (
            final_ops / (final_ops + warmup_ops) if final_ops else 0.0
        ),
        "schedule.final_s": per_pass("schedule_final"),
        "schedule.ops": final_ops / passes,
        "schedule.inserted_swaps": counts["schedule.inserted_swaps"] / passes,
        "schedule.fallbacks": counts["schedule.fallbacks"] / passes,
        "baselines.murali_s": per_pass("baselines.murali"),
        "baselines.dai_s": per_pass("baselines.dai"),
        "baselines.mqt_s": per_pass("baselines.mqt"),
        "baselines.ops": counts["baselines.ops"] / passes,
        "sim.replay_s": per_pass("replay"),
        "sim.price_s": per_pass("reprice"),
        "sim.object_ops": counts["sim.object_ops"] / passes,
        "sim.packed_ops": counts["sim.packed_ops"] / passes,
        "trace.overhead_s": sum(median(times) for times in traced.values()) - untraced_s,
        "trace.accounted_ratio": (
            sum(self_s.get(name, 0.0) for name in LAYERS)
            / sum(sum(times) for times in traced.values())
        ),
    }
