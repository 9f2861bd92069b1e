"""Fault-robustness cells: ``repro bench faults``.

Sweeps the named fault profiles of :mod:`repro.faults.profiles` over one
tracked workload/machine pair and emits one ``mode: "faults"`` cell per
profile into the same schema-validated ``BENCH_<date>.json`` trajectory
the microbenchmark, serve, and fleet suites feed.  Each cell answers
three questions about one degraded-hardware scenario:

* **makespan_degradation_pct** — how much slower the fault-avoiding
  schedule is than the pristine compile of the same workload (the metric
  ``repro bench compare`` guards);
* **log10_fidelity_delta** — the fidelity cost of the detours plus any
  degraded-entangler pricing;
* **recovery_overhead_pct** — the cost of the *dynamic* path: the same
  faults striking halfway through the pristine schedule, recovered by
  recompiling the unfinished gates on the surviving hardware.

The cell's ``compiler`` field carries ``faults-<profile>`` — the natural
variant axis — so compare matches cells across runs the way it matches
scheduler and policy variants.  Everything is deterministic: profiles
pick resources by id, the workload is a fixed circuit, and the fault
instant is a fixed fraction of the pristine makespan.
"""

from __future__ import annotations

#: Default tracked pair: a 4-module EML with small traps, so the
#: 20-qubit QFT *must* span modules and storage-zone deaths actually
#: shrink usable capacity (``dead-zones-4`` shifts the placement split
#: and shows up in the makespan; the single-resource profiles are routed
#: around at zero makespan cost on this symmetric machine — degradation
#: 0.0 is the pass condition fault avoidance earns, and the compare
#: guard trips if a regression makes it climb).
DEFAULT_MACHINE = "eml?capacity=4&modules=4"
DEFAULT_WORKLOAD = "qft20"

#: Profiles of the tracked sweep, and the ``--quick`` CI subset.
DEFAULT_PROFILES: tuple[str, ...] = (
    "dead-zones-1",
    "dead-zones-2",
    "dead-zones-4",
    "links-1",
    "degraded-1",
    "mixed-1",
)
QUICK_PROFILES: tuple[str, ...] = ("dead-zones-1", "links-1")

#: The dynamic fault strikes at this fraction of the pristine makespan.
FAULT_AT_FRACTION = 0.5


def _workload_circuit(workload: str):
    from ..circuits import lower_to_native
    from ..workloads.qft import qft

    if workload.startswith("qft"):
        return lower_to_native(qft(int(workload[len("qft") :])))
    raise ValueError(f"unknown faults-bench workload {workload!r}")


def run_faults_bench(
    *,
    machine: str = DEFAULT_MACHINE,
    workload: str = DEFAULT_WORKLOAD,
    compiler: str = "muss-ti",
    profiles: tuple[str, ...] | None = None,
    quick: bool = False,
) -> dict:
    """Run the fault-robustness sweep; returns a validated BENCH payload
    with one cell per profile, plus per-profile diagnostics under a
    non-schema sibling key for the human summary."""
    from dataclasses import replace as dc_replace

    from ..faults import FaultEvent, build_fault_profile, inject_fault
    from ..hardware import default_machine_registry, resolve_machine
    from ..pipeline import resolve_compiler
    from ..sim import replay
    from .micro import build_payload

    if profiles is None:
        profiles = QUICK_PROFILES if quick else DEFAULT_PROFILES

    pristine = resolve_machine(machine)
    if pristine.fault_model is not None:
        raise ValueError(
            f"faults bench needs a pristine baseline machine, got "
            f"{machine!r} which already carries faults"
        )
    circuit = _workload_circuit(workload)
    compile_fn = resolve_compiler(compiler).compile

    base_program = compile_fn(circuit, pristine)
    base_report = replay(base_program).reprice()
    registry = default_machine_registry()

    cells = []
    diagnostics = {}
    for profile in profiles:
        model = build_fault_profile(profile, pristine)
        arch = dc_replace(pristine.architecture(), faults=model)
        faulted = registry.from_architecture(arch)
        program = compile_fn(circuit, faulted)
        report = replay(program).reprice()
        degradation = (
            (report.makespan_us - base_report.makespan_us)
            / base_report.makespan_us
            * 100.0
        )
        recovery = inject_fault(
            base_program,
            FaultEvent(
                at_us=FAULT_AT_FRACTION * base_report.makespan_us, model=model
            ),
            compiler=compiler,
        )
        cells.append(
            {
                "workload": workload,
                "machine": pristine.spec or machine,
                "compiler": f"faults-{profile}",
                "mode": "faults",
                "profile": profile,
                "num_faults": model.num_faults,
                "pristine_makespan_us": round(base_report.makespan_us, 3),
                "makespan_us": round(report.makespan_us, 3),
                "makespan_degradation_pct": round(degradation, 3),
                "log10_fidelity_delta": round(
                    report.log10_fidelity - base_report.log10_fidelity, 6
                ),
                "recovery_overhead_pct": round(recovery.overhead_pct, 3),
            }
        )
        diagnostics[profile] = {
            "faults": model.describe(),
            "faulted_spec": faulted.spec,
            "recovery": recovery.to_dict(),
        }

    payload = build_payload("faults", cells)
    return {"payload": payload, "diagnostics": diagnostics}


def render(result: dict) -> str:
    """Human summary of one faults bench run."""
    lines = [
        f"{'profile':14s} {'faults':>6s} {'makespan_us':>12s} "
        f"{'degrade_%':>10s} {'dlog10F':>9s} {'recover_%':>10s}"
    ]
    for cell in result["payload"]["cells"]:
        lines.append(
            f"{cell['profile']:14s} {cell['num_faults']:6d} "
            f"{cell['makespan_us']:12.1f} "
            f"{cell['makespan_degradation_pct']:10.2f} "
            f"{cell['log10_fidelity_delta']:9.4f} "
            f"{cell['recovery_overhead_pct']:10.2f}"
        )
    return "\n".join(lines)
