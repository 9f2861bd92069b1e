"""Mid-schedule fault events and recompile-from-checkpoint recovery.

The static pipeline assumes the machine it compiled for stays healthy
for the whole schedule.  A :class:`FaultEvent` breaks that assumption:
at ``at_us`` into an already-priced schedule, a set of resources fails
(a :class:`~repro.faults.model.FaultModel` becomes active).  Recovery
reuses the replay-once event ledger instead of re-simulating:

1. **Commit** — replay the pristine program once; every circuit gate
   whose timed event *finishes* before the fault instant stays valid
   (its pricing is untouched — faults are not retroactive).
2. **Residual** — the logical gates not yet complete form a residual
   circuit (logical qubits are fault-free state; only the hardware
   mapping is stale).
3. **Recompile** — the residual circuit is compiled from scratch against
   the *faulted* machine (the event's model merged over any faults the
   machine already carried), so placement/routing avoid the newly dead
   resources exactly like static faults.
4. **Splice** — combined makespan = fault instant + residual makespan;
   the difference vs the pristine makespan is the recovery overhead
   ``repro bench faults`` tracks.

When the workload no longer fits the surviving capacity the recompile
raises the same clear admission error as a static faulted compile —
surfaced here as :class:`RecoveryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import FaultError, FaultModel

__all__ = ["FaultEvent", "RecoveryError", "RecoveryResult", "inject_fault"]


class RecoveryError(FaultError):
    """The residual workload cannot be recompiled on the faulted machine."""


@dataclass(frozen=True)
class FaultEvent:
    """Resources described by ``model`` fail at ``at_us`` into the run."""

    at_us: float
    model: FaultModel

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise FaultError(f"fault time must be >= 0 us, got {self.at_us}")
        if self.model.is_empty:
            raise FaultError("a FaultEvent needs a non-empty fault model")


@dataclass(frozen=True)
class RecoveryResult:
    """The outcome of recovering one schedule from one fault event."""

    fault_at_us: float
    pristine_makespan_us: float
    pristine_log10_fidelity: float
    committed_gates: int
    residual_gates: int
    residual_makespan_us: float
    combined_makespan_us: float
    combined_log10_fidelity: float

    @property
    def overhead_pct(self) -> float:
        """Recovery cost vs the pristine makespan, in percent."""
        if self.pristine_makespan_us <= 0:
            return 0.0
        return (
            (self.combined_makespan_us - self.pristine_makespan_us)
            / self.pristine_makespan_us
            * 100.0
        )

    def to_dict(self) -> dict:
        return {
            "fault_at_us": self.fault_at_us,
            "pristine_makespan_us": self.pristine_makespan_us,
            "pristine_log10_fidelity": self.pristine_log10_fidelity,
            "committed_gates": self.committed_gates,
            "residual_gates": self.residual_gates,
            "residual_makespan_us": self.residual_makespan_us,
            "combined_makespan_us": self.combined_makespan_us,
            "combined_log10_fidelity": self.combined_log10_fidelity,
            "overhead_pct": self.overhead_pct,
        }


def _merge_models(base: FaultModel | None, extra: FaultModel) -> FaultModel:
    """Union of two fault models; *extra*'s eps wins on shared modules."""
    if base is None or base.is_empty:
        return extra
    return FaultModel(
        dead_zones=base.dead_zones + extra.dead_zones,
        severed_edges=base.severed_edges + extra.severed_edges,
        failed_links=base.failed_links + extra.failed_links,
        entangler_eps=base.entangler_eps + extra.entangler_eps,
    )


def _faulted_machine(machine, model: FaultModel):
    """A fresh machine: *machine*'s architecture + *model* merged in."""
    from ..hardware import default_machine_registry

    merged = _merge_models(machine.fault_model, model)
    merged.validate_for(machine)
    arch = replace(machine.architecture(), faults=merged)
    return default_machine_registry().from_architecture(arch)


def committed_gate_indices(ledger, params, at_us: float) -> set[int]:
    """Circuit indices of gates whose timed event completes by *at_us*."""
    from ..sim.oparray import K_FIBER, K_GATE

    packed = ledger.packed
    num_gates = len(ledger.program.circuit.gates)
    committed: set[int] = set()
    for event in ledger.events(params):
        if event.start_us + event.duration_us > at_us:
            continue
        record = packed.records[event.index]
        if record[0] == K_GATE or record[0] == K_FIBER:
            index = packed.circuit_index(record[1], num_gates)
            if index >= 0:
                committed.add(index)
    return committed


def inject_fault(
    program,
    event: FaultEvent,
    *,
    compiler: str = "muss-ti",
    physics=None,
) -> RecoveryResult:
    """Recover *program* from *event*; returns the spliced metrics.

    Raises :class:`RecoveryError` when the residual circuit does not fit
    the faulted machine's surviving capacity.
    """
    from ..circuits import QuantumCircuit
    from ..core.state import RoutingError
    from ..physics import resolve_physics
    from ..pipeline import resolve_compiler
    from ..sim import replay

    params = resolve_physics(physics)
    ledger = replay(program)
    pristine = ledger.reprice(params)
    committed = committed_gate_indices(ledger, params, event.at_us)

    circuit = program.circuit
    residual = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_residual")
    for index, gate in enumerate(circuit):
        if index not in committed:
            residual.append(gate)

    if not len(residual):
        # Every logical gate finished before the fault: nothing to redo.
        return RecoveryResult(
            fault_at_us=event.at_us,
            pristine_makespan_us=pristine.makespan_us,
            pristine_log10_fidelity=pristine.log10_fidelity,
            committed_gates=len(committed),
            residual_gates=0,
            residual_makespan_us=0.0,
            combined_makespan_us=pristine.makespan_us,
            combined_log10_fidelity=pristine.log10_fidelity,
        )

    machine = _faulted_machine(program.machine, event.model)
    try:
        residual_program = resolve_compiler(compiler).compile(residual, machine)
    except RoutingError as error:
        raise RecoveryError(
            f"cannot recover from fault at {event.at_us:g} us: residual "
            f"circuit ({len(residual)} gates) does not fit the surviving "
            f"capacity of {machine.describe()} ({error})"
        ) from None
    residual_report = replay(residual_program).reprice(params)
    return RecoveryResult(
        fault_at_us=event.at_us,
        pristine_makespan_us=pristine.makespan_us,
        pristine_log10_fidelity=pristine.log10_fidelity,
        committed_gates=len(committed),
        residual_gates=len(residual),
        residual_makespan_us=residual_report.makespan_us,
        combined_makespan_us=event.at_us + residual_report.makespan_us,
        combined_log10_fidelity=(
            pristine.log10_fidelity + residual_report.log10_fidelity
        ),
    )
