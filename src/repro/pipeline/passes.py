"""Composable compilation passes and the pipeline that runs them.

The MUSS-TI compiler is a short sequence of passes over a shared
:class:`~repro.pipeline.context.CompileContext`:

1. :class:`ValidateNativePass` — reject circuits not lowered to the native
   gate set.
2. A placement pass — :class:`TrivialPlacementPass` (§3.4 sequential
   highest-level-first) or :class:`SabrePlacementPass` (§3.4 two-fold
   search).  Placement passes are no-ops when the caller supplied an
   initial placement.
3. :class:`SchedulingPass` — the Fig 3 interleaved loop: executable-first
   gate selection, multi-level routing with LRU eviction, and the §3.3
   weight-table SWAP insertion after fiber gates when
   :attr:`~repro.core.config.MussTiConfig.use_swap_insertion` is set.

The Fig 8 ablation arms are therefore pipeline *variants*: the placement
pass and the config's SWAP-insertion flag change, the scheduling loop
does not.  :func:`build_muss_ti_pipeline` maps a
:class:`~repro.core.config.MussTiConfig` onto the matching variant, which
is exactly what :class:`~repro.core.compiler.MussTiCompiler` wraps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from ..circuits import QuantumCircuit, validate_native
from ..core.arraycore import schedule
from ..core.config import MussTiConfig
from ..core.mapping import sabre_placement, trivial_placement
from ..hardware import Machine
from ..sim.program import Program
from .context import CompileContext, CompileResult


class PipelineError(Exception):
    """A pipeline was assembled or driven incorrectly."""


@runtime_checkable
class Pass(Protocol):
    """One stage of a compiler pipeline.

    A pass mutates the :class:`CompileContext` in place — filling in the
    placement, producing the array core's
    :class:`~repro.core.arraycore.ScheduleResult`, recording stats — and
    returns nothing.
    """

    name: str

    def run(self, context: CompileContext) -> None: ...


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class ValidateNativePass:
    """Reject circuits that were not lowered to the native gate set."""

    name = "validate-native"

    def run(self, context: CompileContext) -> None:
        validate_native(context.circuit)


class TrivialPlacementPass:
    """§3.4 'Trivial Mapping': sequential highest-level-first placement."""

    name = "placement-trivial"

    def run(self, context: CompileContext) -> None:
        if context.placement is not None:
            context.note(f"{self.name}: caller-provided placement kept")
            return
        context.placement = trivial_placement(context.circuit, context.machine)
        context.record(self.name, placed_qubits=float(context.circuit.num_qubits))


def _context_config(
    own: MussTiConfig | None, context: CompileContext
) -> MussTiConfig:
    """A pass's knobs: its own config, else the pipeline-level one."""
    if own is not None:
        return own
    if isinstance(context.config, MussTiConfig):
        return context.config
    return MussTiConfig()


class SabrePlacementPass:
    """§3.4 'SABRE': two-fold search seeded from the trivial placement.

    Constructed without a config, it reads the pipeline-level one from the
    context at run time.
    """

    name = "placement-sabre"

    def __init__(self, config: MussTiConfig | None = None) -> None:
        self.config = config

    def run(self, context: CompileContext) -> None:
        if context.placement is not None:
            context.note(f"{self.name}: caller-provided placement kept")
            return
        context.placement = sabre_placement(
            context.circuit, context.machine, _context_config(self.config, context)
        )
        context.record(self.name, placed_qubits=float(context.circuit.num_qubits))


class SchedulingPass:
    """The Fig 3 loop: gate selection, multi-level routing, SWAP insertion.

    Interleaves three stages until the dependency DAG is empty:

    1. **Gate selection** — execute every frontier gate that already meets
       the hardware requirement (one-qubit gates anywhere; two-qubit gates
       whose operands are co-located in a gate-capable zone, or sitting in
       optical zones of two different modules).
    2. **Qubit routing** — when nothing is executable, take the frontier's
       oldest two-qubit gate (first-come, first-served) and route its
       operands: same-module gates to the best local zone by the
       multi-level policy, cross-module gates into their optical zones for
       a fiber gate.  Zone conflicts are resolved by LRU eviction to lower
       levels (page-fault analogy, Fig 4).
    3. **SWAP insertion** — with ``use_swap_insertion`` set, after each
       cross-module gate the §3.3 weight-table rule may insert a remote
       logical SWAP to migrate a qubit to the module where its upcoming
       partners live (Fig 5).

    The loop runs on the array core (:func:`repro.core.arraycore.schedule`),
    which always returns a schedule or raises.  Constructed without a
    config, the pass reads the pipeline-level one from the context at run
    time.
    """

    name = "schedule"

    def __init__(self, config: MussTiConfig | None = None) -> None:
        self.config = config

    def run(self, context: CompileContext) -> None:
        if context.placement is None:
            raise PipelineError(
                "SchedulingPass needs a placement; run a placement pass first "
                "or pass initial_placement to compile()"
            )
        result = schedule(
            context.circuit,
            context.machine,
            context.placement,
            _context_config(self.config, context),
        )
        context.schedule = result
        context.record(
            self.name,
            scheduled_gates=float(len(context.circuit)),
            inserted_swaps=float(result.inserted_swaps),
        )


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PassPipeline:
    """An ordered pass sequence that compiles circuits onto machines.

    ``name`` becomes the program's ``compiler_name``; ``config`` is carried
    on the context, and passes constructed without their own config (e.g.
    a bare ``SchedulingPass()``) read their knobs from it at run time.
    """

    name: str
    passes: tuple[Pass, ...]
    config: Any = None

    def describe(self) -> str:
        """``validate-native -> placement-sabre -> schedule`` style summary."""
        return " -> ".join(p.name for p in self.passes)

    def compile(
        self,
        circuit: QuantumCircuit,
        machine: Machine,
        initial_placement: dict[int, tuple[int, ...]] | None = None,
    ) -> CompileResult:
        """Run every pass in order; returns the schedule + diagnostics."""
        started = time.perf_counter()
        context = CompileContext(
            circuit=circuit,
            machine=machine,
            config=self.config,
            placement=None if initial_placement is None else dict(initial_placement),
        )
        for stage in self.passes:
            stage_started = time.perf_counter()
            stage.run(context)
            context.record(
                stage.name, seconds=time.perf_counter() - stage_started
            )
        result = context.schedule
        if result is None or context.placement is None:
            raise PipelineError(
                f"pipeline {self.name!r} produced no schedule "
                f"(passes: {self.describe() or 'none'}); add a SchedulingPass"
            )
        program = Program(
            machine=machine,
            circuit=circuit,
            initial_placement=dict(context.placement),
            operations=result.packed,
            compiler_name=self.name,
            compile_time_s=time.perf_counter() - started,
            metadata=result.metadata(),
            final_placement=result.final_placement(),
        )
        return CompileResult(
            program=program,
            pass_stats={name: dict(s) for name, s in context.pass_stats.items()},
            diagnostics=tuple(context.diagnostics),
        )


def build_muss_ti_pipeline(
    config: MussTiConfig | None = None, name: str = "MUSS-TI"
) -> PassPipeline:
    """Assemble the pipeline variant matching a :class:`MussTiConfig`.

    The four Fig 8 ablation arms map onto the four (placement pass,
    ``use_swap_insertion``) combinations; the scheduling loop is shared.
    """
    config = config or MussTiConfig()
    placement: Pass = (
        SabrePlacementPass(config)
        if config.use_sabre_mapping
        else TrivialPlacementPass()
    )
    return PassPipeline(
        name=name,
        passes=(ValidateNativePass(), placement, SchedulingPass(config)),
        config=config,
    )
