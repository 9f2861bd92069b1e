"""Multi-tenant queueing cells: ``repro bench fleet``.

Runs the :mod:`repro.multiprog.queueing` simulator over the default
tenant mix on the tracked machine and emits one ``mode: "fleet"`` cell
per admission policy into the same schema-validated ``BENCH_<date>.json``
trajectory the microbenchmark and serve suites feed.  The cell's
``compiler`` field carries the policy name — the natural variant axis —
so ``repro bench compare`` matches ``fleet-<policy>`` cells across runs
and guards their ``p99_wait_ms`` the way it guards scheduler
``total_s`` and service ``p99_ms``.

The simulation replays one seeded arrival trace under every policy, so
run-to-run cell deltas reflect code changes, not sampling noise; the
service-time compiles behind it are disk-cached keyed by
:attr:`repro.serve.jobs.Job.key`.  ``--quick`` shrinks the trace to a
CI-smoke size; job count and arrival process are part of the cell
identity, so a quick cell is only ever compared with (or merged over)
a quick cell.
"""

from __future__ import annotations

#: Stable workload label of the fleet cells (the tenant mix, not one
#: circuit); stable across runs so ``repro bench compare`` matches.
MIX_LABEL = "fleet:default-mix"

#: Job count of the tracked cell, and its ``--quick`` CI size.
DEFAULT_JOBS = 20_000
QUICK_JOBS = 2_000


def run_fleet_bench(
    *,
    jobs: int = DEFAULT_JOBS,
    arrival: str = "poisson",
    load: float = 0.8,
    seed: int = 7,
    machine: str = "eml:16:2",
    machine_qubits: int = 128,
    policies: tuple[str, ...] | None = None,
    cache_dir: str | None = None,
    quick: bool = False,
) -> dict:
    """Run the queueing simulator; returns a validated BENCH payload
    with one cell per policy (default: every registered policy), plus
    the raw simulator result under a non-schema sibling key for the
    human summary."""
    # Deferred: repro.multiprog leans on repro.bench.cache, so a
    # module-level import here would be circular through the package.
    from ..multiprog.policies import DEFAULT_POLICIES
    from ..multiprog.queueing import FleetSimConfig, run_fleet_sim
    from .micro import build_payload

    if policies is None:
        policies = DEFAULT_POLICIES
    if quick:
        jobs = min(jobs, QUICK_JOBS)
    config = FleetSimConfig(
        machine=machine,
        machine_qubits=machine_qubits,
        jobs=jobs,
        arrival=arrival,
        load=load,
        seed=seed,
        policies=tuple(policies),
        cache_dir=cache_dir,
    )
    result = run_fleet_sim(config)
    cells = [
        {
            "workload": MIX_LABEL,
            "machine": result["machine"],
            "compiler": f"fleet-{policy}",
            "mode": "fleet",
            "jobs": result["jobs"],
            "arrival": result["arrival"],
            "dropped": metrics["dropped"],
            "throughput_jps": round(metrics["throughput_jps"], 2),
            "utilization": round(metrics["utilization"], 4),
            "p50_wait_ms": round(metrics["p50_wait_ms"], 3),
            "p99_wait_ms": round(metrics["p99_wait_ms"], 3),
            "jain": round(metrics["jain"], 4),
        }
        for policy, metrics in result["policies"].items()
    ]
    payload = build_payload("fleet", cells)
    return {"payload": payload, "diagnostics": {"sim": result}}


def render(result: dict) -> str:
    """Human summary of one fleet bench run."""
    from ..multiprog.queueing import render_fleet

    return render_fleet(result["diagnostics"]["sim"])
