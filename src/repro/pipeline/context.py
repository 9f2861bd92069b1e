"""Shared state threaded through a pass pipeline.

A :class:`CompileContext` is the mutable scratch space every
:class:`~repro.pipeline.passes.Pass` reads and writes: the inputs (circuit,
machine, config), the artefacts produced so far (placement, the array
core's schedule) and per-pass bookkeeping (wall time, counters, free-form
diagnostic notes).  A :class:`CompileResult` is the immutable outcome: the
executable :class:`~repro.sim.Program` plus the pipeline diagnostics that do
not belong in the program itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..circuits import QuantumCircuit
from ..hardware import Machine
from ..sim import Program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.arraycore import ScheduleResult
    from ..physics import PhysicalParams
    from ..sim import ExecutionReport


@dataclass
class CompileContext:
    """Mutable state handed from pass to pass.

    ``placement`` starts as the caller-provided initial placement (or
    ``None``); a placement pass fills it in when absent.  ``schedule`` is
    the scheduling pass's output, which the pipeline builds its
    :class:`~repro.sim.Program` from.
    """

    circuit: QuantumCircuit
    machine: Machine
    config: Any = None
    placement: dict[int, tuple[int, ...]] | None = None
    schedule: "ScheduleResult | None" = None
    #: Per-pass counters and timings, keyed by pass name.
    pass_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Free-form notes a pass wants surfaced on the result.
    diagnostics: list[str] = field(default_factory=list)

    def record(self, pass_name: str, **counters: float) -> None:
        """Merge ``counters`` into the stats bucket of ``pass_name``."""
        self.pass_stats.setdefault(pass_name, {}).update(counters)

    def note(self, message: str) -> None:
        self.diagnostics.append(message)


@dataclass(frozen=True)
class CompileResult:
    """A compiled schedule plus pipeline-level diagnostics.

    Wraps the :class:`~repro.sim.Program` the class-based API returns, so
    callers that only need the program use ``result.program`` (or the
    convenience proxies below) and callers that care about the pipeline read
    ``pass_stats``/``diagnostics``.
    """

    program: Program
    pass_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    # -- program proxies ------------------------------------------------

    @property
    def circuit(self) -> QuantumCircuit:
        return self.program.circuit

    @property
    def machine(self) -> Machine:
        return self.program.machine

    @property
    def compiler_name(self) -> str:
        return self.program.compiler_name

    @property
    def compile_time_s(self) -> float:
        return self.program.compile_time_s

    @property
    def num_operations(self) -> int:
        return self.program.num_operations

    @property
    def shuttle_count(self) -> int:
        return self.program.shuttle_count

    # -- one-stop verbs -------------------------------------------------

    def verify(self) -> "CompileResult":
        """Run both schedule-legality layers; raises on any bug."""
        from ..sim import verify_program

        verify_program(self.program)
        return self

    def execute(self, params: "PhysicalParams | None" = None) -> "ExecutionReport":
        """Execute the schedule under ``params`` (paper physics when None)."""
        from ..sim import execute

        return execute(self.program, params)
