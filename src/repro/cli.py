"""Command-line interface: compile, inspect, compare and sweep from the shell.

Usage::

    python -m repro list
    python -m repro compile Adder_n32 --machine grid:2x2:12
    python -m repro compile GHZ_n128 --machine eml --compiler trivial
    python -m repro compile BV_n64 --machine eml --compiler "muss-ti?lookahead_k=4"
    python -m repro compile BV_n64 --machine eml --set optical_slack=0
    python -m repro compile BV_n64 --machine eml --timeline
    python -m repro compile GHZ_n128 --physics perfect-shuttle
    python -m repro compile GHZ_n128 --physics "table1?heating_rate=0.5" --json
    python -m repro compare QAOA_n128 --physics perfect-gate
    python -m repro trace GHZ_n32 grid:2x2:12
    python -m repro bench table2 --jobs 4
    python -m repro bench list
    python -m repro bench clear-cache fig7
    python -m repro bench sweep -w GHZ_n64 -m eml -m grid:2x2:12 -c muss-ti -c dai
    python -m repro bench compare BENCH_old.json BENCH_new.json --fail-over 50
    python -m repro bench compare latest BENCH_new.json --fail-over 50
    python -m repro bench serve --quick
    python -m repro serve --port 8000 --jobs 4
    python -m repro machine list
    python -m repro machine show eml:16:2
    python -m repro machine render star:1+6:16

Machine specs resolve through the machine registry (``repro machine
list``): ``grid:RxC:CAP``, ``eml[:CAP[:OPTICAL]]``, ``ring:N[:CAP]``,
``star:H+L[:CAP]``, ``chain:N[:CAP]``, any registered name with
``?key=value&...`` options, or ``file:path.json`` architecture files.

Physics specs resolve through the physics-profile registry: ``table1``
(the default), ``perfect-gate``, ``perfect-shuttle``, each optionally
with ``?field=value&...`` overrides of any
:class:`~repro.physics.PhysicalParams` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap
import time
from pathlib import Path

from .analysis import format_fidelity, render_table
from .bench import (
    ResultCache,
    default_cache_dir,
    describe_cell,
    experiment_registry,
    stderr_progress,
    sweep,
)
from .hardware import (
    available_machines,
    canonical_machine_spec,
    default_machine_registry,
    render_machine,
    resolve_machine,
)
from .physics import available_physics, resolve_physics
from .pipeline import (
    available_compilers,
    default_registry,
    parse_option_assignments,
    resolve_compiler,
)
from .pipeline import compile as compile_circuit
from .sim import execute, fidelity_breakdown, render_breakdown, replay, verify_logical
from .sim.trace import render_timeline, save_trace
from .workloads import available_benchmarks, get_benchmark


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text at spaces only, so a registered name such as
    ``perfect-shuttle`` or ``muss-ti`` is never split across lines."""

    def _split_lines(self, text: str, width: int) -> list[str]:
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


class _Parser(argparse.ArgumentParser):
    """An argument parser (and, through ``add_subparsers``, subcommand
    parsers) using :class:`_HelpFormatter`."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("formatter_class", _HelpFormatter)
        super().__init__(*args, **kwargs)


def _machine_spec_help() -> str:
    """The ``--machine`` flag help, derived from the machine registry."""
    return (
        "machine spec (registered: "
        f"{', '.join(available_machines())}; e.g. grid:3x4:16, eml:16:2, "
        "ring:8:16, star:1+6:16, name?key=value, or file:path.json)"
    )


def _physics_spec_help() -> str:
    """The ``--physics`` flag help, derived from the physics registry."""
    return (
        "physics-profile spec (registered: "
        f"{', '.join(available_physics())}; default table1, append "
        "?field=value overrides, e.g. table1?heating_rate=0.5)"
    )


def _add_physics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--physics", default=None, metavar="SPEC", help=_physics_spec_help()
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    print("canonical paper suite:")
    for name in available_benchmarks():
        circuit = get_benchmark(name)
        print(
            f"  {name:12s} {circuit.num_qubits:4d} qubits, "
            f"{len(circuit):6d} gates ({circuit.num_two_qubit_gates} two-qubit)"
        )
    print()
    print("families accept any size, e.g. GHZ_n48, QV_n20, Ising_n64, HS_n16")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    if args.json and (args.breakdown or args.timeline):
        print(
            "error: --json emits the report payload only; "
            "it cannot be combined with --breakdown/--timeline",
            file=sys.stderr,
        )
        return 2
    try:
        circuit = get_benchmark(args.benchmark)
        machine = resolve_machine(args.machine, circuit.num_qubits)
        overrides = parse_option_assignments(args.set or [])
        compiler = resolve_compiler(args.compiler, overrides)
        params = resolve_physics(args.physics)
    except (ValueError, KeyError) as error:
        # Bad workload name or size, bad machine spec, unknown compiler,
        # bad physics profile, bad spec/--set key or value: clean
        # message, no traceback.
        # Compilation itself runs outside this guard so real compile-time
        # failures still surface with full context.
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = compile_circuit(circuit, machine, compiler=compiler, verify=False)
    program = result.program
    # One legality-checked replay serves verification, the report and
    # every requested view (breakdown, timeline, JSON trace).
    ledger = replay(program)
    ledger.verify_priceable(params)
    if not args.no_verify:
        verify_logical(program)
    report = ledger.reprice(params)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        if args.breakdown:
            print()
            print(render_breakdown(fidelity_breakdown(ledger, params)))
        if args.timeline:
            print()
            print(render_timeline(ledger, params))
    if args.trace:
        save_trace(ledger, args.trace, params)
        print(f"\ntrace written to {args.trace}", file=sys.stderr if args.json else sys.stdout)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    circuit = get_benchmark(args.benchmark)
    try:
        grid = resolve_machine(args.grid, circuit.num_qubits)
        eml = resolve_machine(args.eml, circuit.num_qubits)
        params = resolve_physics(args.physics)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    registry = default_registry()
    rows = []
    for key in registry.paper_suite():
        entry = registry.entry(key)
        machine = grid if entry.machine_family == "grid" else eml
        program = entry.create().compile(circuit, machine)
        report = execute(program, params)
        rows.append(
            [
                program.compiler_name,
                report.shuttle_count,
                f"{report.execution_time_us:.0f}",
                format_fidelity(report.fidelity, report.log10_fidelity),
                f"{program.compile_time_s:.2f}",
            ]
        )
    print(f"{circuit.name}: baselines on {grid.describe()};")
    print(f"MUSS-TI on {eml.describe()}")
    print()
    print(
        render_table(
            ["compiler", "shuttles", "time (us)", "fidelity", "compile (s)"],
            rows,
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    circuit = get_benchmark(args.benchmark)
    try:
        machine = resolve_machine(args.machine, circuit.num_qubits)
        compiler = resolve_compiler(args.compiler)
        params = resolve_physics(args.physics)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    program = compile_circuit(circuit, machine, compiler=compiler).program
    ledger = replay(program)  # one replay for both views
    print(render_timeline(ledger, params, width=args.width))
    if args.output:
        save_trace(ledger, args.output, params)
        print(f"trace written to {args.output}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import CompileService, run_server

    try:
        service = CompileService(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            max_memory_mb=args.max_memory_mb,
            use_disk_cache=not args.no_disk_cache,
            disk_ttl_days=args.disk_ttl_days,
            max_connections=args.max_connections,
            max_inflight_per_client=args.max_inflight_per_client,
            rate_per_client=args.rate_per_client,
            trace_ring=args.trace_ring,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        asyncio.run(
            run_server(
                service,
                args.host,
                args.port,
                announce=lambda line: print(line, flush=True),
            )
        )
    except KeyboardInterrupt:
        pass
    except OSError as error:
        # Port already bound, privileged port, bad host: clean message.
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_fleet_sim(args: argparse.Namespace) -> int:
    from .multiprog import FleetSimConfig, render_fleet, run_fleet_sim
    from .multiprog.policies import available_policies

    jobs = min(args.jobs, 5000) if args.quick else args.jobs
    policies = tuple(args.policy) if args.policy else tuple(available_policies())
    config = FleetSimConfig(
        machine=args.machine,
        machine_qubits=args.machine_qubits,
        jobs=jobs,
        arrival=args.arrival,
        load=args.load,
        seed=args.seed,
        policies=policies,
        window=args.window,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    try:
        result = run_fleet_sim(config)
    except ValueError as error:
        # Bad machine spec, unknown policy/arrival, bad load: clean message.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(render_fleet(result))
    return 0


def _cmd_fleet_policies(_args: argparse.Namespace) -> int:
    from .multiprog.policies import POLICIES

    print("registered admission policies:")
    for name, cls in POLICIES.items():
        print(f"  {name:10s} {cls.summary}")
    return 0


def _cmd_fleet_pack(args: argparse.Namespace) -> int:
    from .multiprog import BatchJob, pack_batch, slice_ledger
    from .multiprog.regions import RegionError

    jobs = [
        BatchJob(
            job_id=f"job{index}",
            workload=workload,
            tenant=f"tenant{index}",
            compiler=args.compiler,
        )
        for index, workload in enumerate(args.workloads)
    ]
    try:
        machine = resolve_machine(args.machine, args.machine_qubits)
        schedule = pack_batch(jobs, machine, policy=args.policy)
        ledger = schedule.ledger()
    except (ValueError, RegionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    slices = slice_ledger(ledger, schedule.owners, len(schedule.placements))
    report = ledger.reprice()
    rows = [
        [
            placement.job.tenant,
            placement.job.workload,
            placement.region.describe(),
            entry["operations"],
            entry["shuttles"],
            f"{entry['makespan_us']:.0f}",
            f"{entry['log10_fidelity']:.3f}",
        ]
        for placement, entry in zip(schedule.placements, slices)
    ]
    print(
        render_table(
            ["tenant", "workload", "region", "ops", "shuttles",
             "makespan (us)", "log10 F"],
            rows,
            title=f"batch pack on {machine.describe()} [{args.policy}]",
        )
    )
    print(
        f"combined: {len(ledger)} ops, makespan {report.makespan_us:.0f} us, "
        f"log10 fidelity {report.log10_fidelity:.3f}"
    )
    if schedule.deferred:
        deferred = ", ".join(job.workload for job in schedule.deferred)
        print(f"deferred (did not fit this round): {deferred}")
    return 0


def _fold_bench_payload(payload: dict, output: str | None) -> Path:
    """Write *payload* to *output* (default: the day's
    ``BENCH_<date>.json``), folded into the payload already there so every
    bench suite shares one file.  Raises :class:`ValueError` when the
    existing file cannot be merged."""
    from .bench import micro

    path = Path(output or micro.default_output_path())
    if path.exists():
        try:
            payload = micro.merge_payloads(
                json.loads(path.read_text(encoding="utf-8")), payload
            )
        except ValueError as error:
            raise ValueError(f"cannot merge into {path}: {error}") from None
    micro.write_payload(payload, path)
    return path


def _cmd_bench_fleet(args: argparse.Namespace) -> int:
    from .bench import fleet as bench_fleet

    try:
        result = bench_fleet.run_fleet_bench(
            jobs=args.jobs,
            arrival=args.arrival,
            load=args.load,
            seed=args.seed,
            machine=args.machine,
            machine_qubits=args.machine_qubits,
            cache_dir=args.cache_dir,
            quick=args.quick,
        )
        path = _fold_bench_payload(result["payload"], args.output)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(bench_fleet.render(result))
    print(
        f"[fleet: {len(result['payload']['cells'])} cells, schema-valid, "
        f"written to {path}]"
    )
    return 0


def _cmd_bench_faults(args: argparse.Namespace) -> int:
    from .bench import faults as bench_faults

    try:
        result = bench_faults.run_faults_bench(
            machine=args.machine or bench_faults.DEFAULT_MACHINE,
            workload=args.workload or bench_faults.DEFAULT_WORKLOAD,
            compiler=args.compiler,
            profiles=tuple(args.profile) if args.profile else None,
            quick=args.quick,
        )
        path = _fold_bench_payload(result["payload"], args.output)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(bench_faults.render(result))
    print(
        f"[faults: {len(result['payload']['cells'])} cells, schema-valid, "
        f"written to {path}]"
    )
    return 0


def _faults_bench_default(field: str) -> str:
    from .bench import faults as bench_faults

    return {
        "machine": bench_faults.DEFAULT_MACHINE,
        "workload": bench_faults.DEFAULT_WORKLOAD,
    }[field]


def _cmd_faults_list(args: argparse.Namespace) -> int:
    from .faults import describe_fault_profiles

    print(describe_fault_profiles())
    return 0


def _cmd_faults_show(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from .faults import build_fault_profile

    try:
        machine = resolve_machine(args.machine, args.qubits)
        model = build_fault_profile(args.profile, machine)
        faulted = default_machine_registry().from_architecture(
            dc_replace(machine.architecture(), faults=model)
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    maps = faulted.topology_maps()
    print(f"profile : {args.profile}")
    print(f"machine : {machine.describe()}")
    print(f"faults  : {model.describe()}")
    print(f"spec    : {faulted.spec}")
    if maps.dead_zones:
        dead = ", ".join(str(zone) for zone in sorted(maps.dead_zones))
        print(f"dead zones   : {dead}")
    if maps.blocked_links:
        pairs = ", ".join(f"{a}-{b}" for a, b in sorted(maps.blocked_links))
        print(f"failed links : {pairs}")
    if model.entangler_eps:
        degraded = ", ".join(
            f"module {module} eps={eps:g}"
            for module, eps in sorted(model.eps_by_module().items())
        )
        print(f"degraded     : {degraded}")
    return 0


def _cmd_faults_inject(args: argparse.Namespace) -> int:
    from .faults import FaultEvent, RecoveryError, build_fault_profile
    from .faults import inject_fault as run_inject

    circuit = get_benchmark(args.workload)
    try:
        machine = resolve_machine(args.machine, circuit.num_qubits)
        compiler = resolve_compiler(args.compiler)
        model = build_fault_profile(args.profile, machine)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    program = compiler.compile(circuit, machine)
    pristine_makespan = replay(program).reprice().makespan_us
    at_us = (
        args.at_us
        if args.at_us is not None
        else args.at_fraction * pristine_makespan
    )
    try:
        recovery = run_inject(
            program, FaultEvent(at_us=at_us, model=model), compiler=args.compiler
        )
    except (RecoveryError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(recovery.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"workload  : {args.workload} on {machine.describe()}")
    print(f"fault     : {args.profile} ({model.describe()}) at {at_us:.1f} us")
    print(
        f"committed : {recovery.committed_gates} gates before the fault, "
        f"{recovery.residual_gates} recompiled on surviving hardware"
    )
    print(
        f"makespan  : pristine {recovery.pristine_makespan_us:.1f} us -> "
        f"combined {recovery.combined_makespan_us:.1f} us "
        f"({recovery.overhead_pct:+.2f}% recovery overhead)"
    )
    print(
        f"fidelity  : log10 F {recovery.pristine_log10_fidelity:.3f} -> "
        f"{recovery.combined_log10_fidelity:.3f}"
    )
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from .serve import loadgen

    try:
        result = loadgen.run_serve_bench(
            requests=args.requests,
            concurrency=args.concurrency,
            jobs=args.jobs if args.jobs is not None else (2 if args.quick else None),
            quick=args.quick,
        )
        path = _fold_bench_payload(result["payload"], args.output)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(loadgen.render(result))
    print(
        f"[serve: {len(result['payload']['cells'])} cells, schema-valid, "
        f"written to {path}]"
    )
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .bench import compare as bench_compare

    try:
        text, code = bench_compare.run_compare(
            args.old,
            args.new,
            fail_over_pct=args.fail_over,
            min_seconds=(
                args.min_seconds
                if args.min_seconds is not None
                else bench_compare.DEFAULT_MIN_SECONDS
            ),
        )
    except ValueError as error:
        # Unreadable file, invalid JSON, schema violation: clean message.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(text)
    return code


def _sweep_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        cell_filter=args.filter,
        progress=stderr_progress if not args.quiet else None,
    )


def _print_sweep(name: str, result, render, elapsed: float, filtered: bool) -> None:
    if filtered:
        # A filtered sweep may cover only part of each row, so the driver's
        # paper-style renderer can't be trusted; show the raw cells instead.
        for outcome in result.outcomes:
            print(f"{describe_cell(outcome.spec)} -> {outcome.result}")
    else:
        print(render(result.rows))
    print(
        f"[{name}: {len(result.outcomes)} cells, {result.hits} cached, "
        f"{len(result.rows)} rows in {elapsed:.1f} s]"
    )
    print()


def _cmd_bench_run(args: argparse.Namespace) -> int:
    registry = experiment_registry()
    names = list(args.experiments)
    if names == ["all"]:
        names = sorted(name for name in registry if name not in ("adhoc", "micro"))
    unknown = [
        name for name in names if name not in registry or name in ("adhoc", "micro")
    ]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(use 'repro bench sweep' for ad-hoc grids, "
            f"'repro bench micro' for the tracked perf cells)",
            file=sys.stderr,
        )
        return 2
    for name in names:
        started = time.perf_counter()
        result = sweep(name, **_sweep_kwargs(args))
        elapsed = time.perf_counter() - started
        _print_sweep(name, result, registry[name].render, elapsed, bool(args.filter))
    return 0


def _cmd_bench_sweep(args: argparse.Namespace) -> int:
    cells_kwargs = dict(
        workloads=tuple(args.workload),
        machines=tuple(args.machine or ["eml"]),
        compilers=tuple(args.compiler or ["muss-ti"]),
    )
    from .bench import adhoc

    started = time.perf_counter()
    try:
        result = sweep("adhoc", cells_kwargs=cells_kwargs, **_sweep_kwargs(args))
    except (ValueError, KeyError) as error:
        # Bad workload/machine/compiler spec: report cleanly, not a traceback.
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    _print_sweep("adhoc", result, adhoc.render, elapsed, bool(args.filter))
    return 0


def _cmd_bench_micro(args: argparse.Namespace) -> int:
    from .bench import micro

    repeats = 1 if args.quick else args.repeats

    def progress(done: int, total: int, row: dict) -> None:
        print(
            f"[micro {done}/{total}] {row['workload']} on {row['machine']}: "
            f"compile {row['compile_s']:.3f}s execute {row['execute_s']:.3f}s",
            file=sys.stderr,
        )

    def profile_sink(cell: dict, text: str) -> None:
        print(
            f"[micro profile] {cell['workload']} on {cell['machine']}:\n{text}",
            file=sys.stderr,
        )

    try:
        payload = micro.run_micro(
            repeats=repeats,
            cell_filter=args.filter,
            progress=None if args.quiet else progress,
            jobs=args.jobs,
            profile_sink=profile_sink if args.profile else None,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    path = args.output or micro.default_output_path()
    micro.write_payload(payload, path)
    print(micro.render(payload))
    print(f"[micro: {len(payload['cells'])} cells, schema-valid, written to {path}]")
    return 0


def _cmd_bench_list(args: argparse.Namespace) -> int:
    registry = experiment_registry()
    cache = ResultCache(args.cache_dir)
    print(f"cache: {cache.root}")
    for name in sorted(registry):
        module = registry[name]
        if name == "adhoc":
            grid = "(grid from 'repro bench sweep' flags)"
        else:
            grid = f"{len(module.cells())} cells, {cache.count(name)} cached"
        summary = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:10s} {grid:28s} {summary}")
    return 0


def _cmd_bench_clear_cache(args: argparse.Namespace) -> int:
    if args.experiment is not None and args.experiment not in experiment_registry():
        print(f"unknown experiment {args.experiment!r}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    removed = cache.clear(args.experiment)
    target = args.experiment or "all experiments"
    print(f"removed {removed} cache file(s) for {target} under {cache.root}")
    return 0


def _cmd_machine_list(_args: argparse.Namespace) -> int:
    registry = default_machine_registry()
    print("registered machine topologies:")
    for line in registry.describe().splitlines():
        print(f"  {line}")
    print()
    print(f"families: {', '.join(registry.families())}")
    print(
        "specs take positional segments (grid:3x4:16, eml:16:2, ring:8:16, "
        "star:1+6:16), ?key=value options, or file:path.json"
    )
    return 0


def _cmd_machine_show(args: argparse.Namespace) -> int:
    try:
        machine = resolve_machine(args.spec, args.qubits)
        canonical = canonical_machine_spec(args.spec)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    arch = machine.architecture()
    print(f"spec      : {args.spec}")
    print(f"canonical : {canonical}")
    print(f"built     : {machine.spec or '(custom architecture)'}")
    print(f"summary   : {machine.describe()}")
    print(f"zones     : {arch.num_zones} across {arch.num_modules} module(s)")
    print(f"capacity  : {arch.total_capacity} ions total")
    print(f"edges     : {len(arch.edges)} shuttle edges")
    return 0


def _cmd_machine_render(args: argparse.Namespace) -> int:
    try:
        machine = resolve_machine(args.spec, args.qubits)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_machine(machine))
    return 0


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        metavar="N",
        help="worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--filter",
        metavar="EXPR",
        help="run only matching cells, e.g. 'app=GHZ_n128 compiler=muss-ti'",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="ignore the on-disk result cache"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache root (default: {default_cache_dir()})",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress on stderr"
    )


#: Explicit bench sub-commands; anything else after ``bench`` is an
#: experiment name and routes through the implicit ``run``.
BENCH_SUBCOMMANDS = (
    "run", "list", "clear-cache", "sweep", "micro", "compare", "serve",
    "fleet", "faults",
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro",
        description="MUSS-TI reproduction command line",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list benchmark workloads").set_defaults(
        handler=_cmd_list
    )

    compile_parser = commands.add_parser("compile", help="compile one workload")
    compile_parser.add_argument("benchmark", help="e.g. Adder_n32")
    compile_parser.add_argument(
        "--machine", default="eml", metavar="SPEC", help=_machine_spec_help()
    )
    compile_parser.add_argument(
        "--compiler",
        default="muss-ti",
        metavar="SPEC",
        help=(
            "registered compiler, optionally with ?key=value options "
            f"(registered: {', '.join(available_compilers())})"
        ),
    )
    compile_parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help=(
            "override one compiler option (repeatable), "
            "e.g. --set lookahead_k=4"
        ),
    )
    _add_physics_flag(compile_parser)
    compile_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the execution report as schema-validated JSON instead "
        "of the human summary",
    )
    compile_parser.add_argument(
        "--timeline", action="store_true", help="print an ASCII zone timeline"
    )
    compile_parser.add_argument(
        "--breakdown",
        action="store_true",
        help="print the fidelity loss split by channel",
    )
    compile_parser.add_argument("--trace", help="write a JSON op trace here")
    compile_parser.add_argument(
        "--no-verify", action="store_true", help="skip schedule verification"
    )
    compile_parser.set_defaults(handler=_cmd_compile)

    compare_parser = commands.add_parser(
        "compare", help="all four compilers on one workload"
    )
    compare_parser.add_argument("benchmark")
    compare_parser.add_argument(
        "--grid",
        default="grid:3x4:16",
        metavar="SPEC",
        help="machine for grid-family compilers (default: grid:3x4:16)",
    )
    compare_parser.add_argument(
        "--eml",
        default="eml",
        metavar="SPEC",
        help="machine for eml-family compilers (default: eml, sized to the circuit)",
    )
    _add_physics_flag(compare_parser)
    compare_parser.set_defaults(handler=_cmd_compare)

    trace_parser = commands.add_parser(
        "trace", help="ASCII timeline (and JSON trace) of one compiled workload"
    )
    trace_parser.add_argument("benchmark", help="e.g. GHZ_n32")
    trace_parser.add_argument("machine", metavar="MACHINE", help=_machine_spec_help())
    trace_parser.add_argument(
        "--compiler",
        default="muss-ti",
        metavar="SPEC",
        help=(
            "registered compiler, optionally with ?key=value options "
            f"(registered: {', '.join(available_compilers())})"
        ),
    )
    _add_physics_flag(trace_parser)
    trace_parser.add_argument(
        "--width",
        type=int,
        default=72,
        metavar="COLS",
        help="timeline width in columns (default: 72)",
    )
    trace_parser.add_argument(
        "--output", metavar="PATH", help="also write the JSON op trace here"
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    machine_parser = commands.add_parser(
        "machine", help="inspect the machine/topology registry"
    )
    machine_commands = machine_parser.add_subparsers(
        dest="machine_command", required=True
    )
    machine_list = machine_commands.add_parser(
        "list", help="registered topologies and their families"
    )
    machine_list.set_defaults(handler=_cmd_machine_list)
    for sub, handler, description in (
        ("show", _cmd_machine_show, "build a spec and summarise it"),
        ("render", _cmd_machine_render, "draw an ASCII zone map"),
    ):
        machine_sub = machine_commands.add_parser(sub, help=description)
        machine_sub.add_argument("spec", metavar="SPEC", help=_machine_spec_help())
        machine_sub.add_argument(
            "--qubits",
            type=int,
            default=32,
            metavar="N",
            help="circuit size for circuit-relative specs (default: 32)",
        )
        machine_sub.set_defaults(handler=handler)

    serve_parser = commands.add_parser(
        "serve",
        help="run the async compilation service (HTTP + JSON job API)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8000,
        help="TCP port; 0 picks an ephemeral port (default: 8000)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: CPU count; 0 = in-process threads)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"on-disk result cache root (default: {default_cache_dir()})",
    )
    serve_parser.add_argument(
        "--max-memory-mb",
        type=float,
        default=64.0,
        metavar="MB",
        help="in-memory result cache bound in MiB (default: 64)",
    )
    serve_parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="keep results in memory only (skip the on-disk tier)",
    )
    serve_parser.add_argument(
        "--disk-ttl-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="age limit of disk-cached results; stale entries are deleted "
             "on read and recomputed (default: no limit)",
    )
    serve_parser.add_argument(
        "--max-connections",
        type=int,
        default=0,
        metavar="N",
        help="shed connections beyond N with a structured 503 "
             "(default: 0 = unlimited)",
    )
    serve_parser.add_argument(
        "--max-inflight-per-client",
        type=int,
        default=0,
        metavar="N",
        help="reject a client's concurrent requests beyond N with a "
             "structured 429 + Retry-After (default: 0 = unlimited)",
    )
    serve_parser.add_argument(
        "--rate-per-client",
        type=float,
        default=0.0,
        metavar="RPS",
        help="token-bucket request rate per client address; excess gets "
             "a structured 429 + Retry-After (default: 0 = unlimited)",
    )
    serve_parser.add_argument(
        "--trace-ring",
        type=int,
        default=256,
        metavar="N",
        help="finished requests kept for GET /trace/recent (default: 256)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    fleet_parser = commands.add_parser(
        "fleet",
        help="multi-tenant co-scheduling: queueing sim, policies, batch pack",
    )
    fleet_commands = fleet_parser.add_subparsers(dest="fleet_command", required=True)

    fleet_sim = fleet_commands.add_parser(
        "sim",
        help="drive synthetic multi-tenant jobs through the admission policies",
    )
    fleet_sim.add_argument(
        "machine",
        nargs="?",
        default="eml:16:2",
        metavar="MACHINE",
        help=f"machine to co-schedule on (default: eml:16:2); {_machine_spec_help()}",
    )
    fleet_sim.add_argument(
        "--jobs",
        type=int,
        default=100_000,
        metavar="N",
        help="synthetic jobs in the arrival trace (default: 100000)",
    )
    fleet_sim.add_argument(
        "--arrival",
        choices=("poisson", "bursty"),
        default="poisson",
        help="arrival process (default: poisson)",
    )
    fleet_sim.add_argument(
        "--load",
        type=float,
        default=0.8,
        metavar="RHO",
        help="offered load: arriving unit-time per available unit-time "
        "(default: 0.8)",
    )
    fleet_sim.add_argument(
        "--seed", type=int, default=7, metavar="N", help="trace seed (default: 7)"
    )
    fleet_sim.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="NAME",
        help="admission policy, repeatable (default: all registered)",
    )
    fleet_sim.add_argument(
        "--machine-qubits",
        type=int,
        default=128,
        metavar="N",
        help="size circuit-relative machine specs to this many qubits "
        "(default: 128)",
    )
    fleet_sim.add_argument(
        "--window",
        type=int,
        default=256,
        metavar="N",
        help="queue-scan window per admission decision (default: 256)",
    )
    fleet_sim.add_argument(
        "--quick",
        action="store_true",
        help="cap the trace at 5000 jobs (CI smoke run)",
    )
    fleet_sim.add_argument(
        "--json",
        action="store_true",
        help="emit the full simulation result as JSON",
    )
    fleet_sim.add_argument(
        "--cache-dir",
        default=None,
        help=f"service-time compile cache root (default: {default_cache_dir()})",
    )
    fleet_sim.add_argument(
        "--no-cache",
        action="store_true",
        help="recompile service times instead of using the disk cache",
    )
    fleet_sim.set_defaults(handler=_cmd_fleet_sim)

    fleet_policies = fleet_commands.add_parser(
        "policies", help="list registered admission policies"
    )
    fleet_policies.set_defaults(handler=_cmd_fleet_policies)

    fleet_pack = fleet_commands.add_parser(
        "pack",
        help="pack a batch of workloads onto one machine and show "
        "per-tenant ledger slices",
    )
    fleet_pack.add_argument(
        "workloads",
        nargs="+",
        metavar="WORKLOAD",
        help="workloads to co-schedule, one tenant each (e.g. GHZ_n16 QFT_n16)",
    )
    fleet_pack.add_argument(
        "--machine",
        default="eml:16:2",
        metavar="SPEC",
        help=f"default eml:16:2; {_machine_spec_help()}",
    )
    fleet_pack.add_argument(
        "--policy",
        default="first-fit",
        metavar="NAME",
        help="admission policy (default: first-fit)",
    )
    fleet_pack.add_argument(
        "--compiler",
        default="muss-ti",
        metavar="SPEC",
        help=(
            "compiler for every tenant (default: muss-ti; registered: "
            f"{', '.join(available_compilers())})"
        ),
    )
    fleet_pack.add_argument(
        "--machine-qubits",
        type=int,
        default=128,
        metavar="N",
        help="size circuit-relative machine specs to this many qubits "
        "(default: 128)",
    )
    fleet_pack.set_defaults(handler=_cmd_fleet_pack)

    faults_parser = commands.add_parser(
        "faults",
        help="degraded-hardware tooling: profiles, faulted specs, recovery",
    )
    faults_commands = faults_parser.add_subparsers(
        dest="faults_command", required=True
    )

    faults_list = faults_commands.add_parser(
        "list", help="registered fault profiles"
    )
    faults_list.set_defaults(handler=_cmd_faults_list)

    faults_show = faults_commands.add_parser(
        "show", help="apply a fault profile to a machine and show the result"
    )
    faults_show.add_argument(
        "profile", metavar="PROFILE", help="fault profile (see 'faults list')"
    )
    faults_show.add_argument(
        "--machine",
        default="eml?modules=4",
        metavar="SPEC",
        help=f"default eml?modules=4; {_machine_spec_help()}",
    )
    faults_show.add_argument(
        "--qubits",
        type=int,
        default=None,
        metavar="N",
        help="size circuit-relative machine specs to N qubits",
    )
    faults_show.set_defaults(handler=_cmd_faults_show)

    faults_inject = faults_commands.add_parser(
        "inject",
        help="strike a compiled schedule mid-run and recover on the "
        "surviving hardware",
    )
    faults_inject.add_argument(
        "workload", metavar="WORKLOAD", help="benchmark to compile (e.g. QFT_n20)"
    )
    faults_inject.add_argument(
        "--machine",
        default="eml?modules=4",
        metavar="SPEC",
        help=f"default eml?modules=4; {_machine_spec_help()}",
    )
    faults_inject.add_argument(
        "--profile",
        default="dead-zones-1",
        metavar="NAME",
        help="fault profile to strike with (default: dead-zones-1)",
    )
    faults_inject.add_argument(
        "--compiler",
        default="muss-ti",
        metavar="SPEC",
        help="compiler for both the pristine and recovery compiles "
        "(default: muss-ti)",
    )
    faults_inject.add_argument(
        "--at-fraction",
        type=float,
        default=0.5,
        metavar="F",
        help="fault instant as a fraction of the pristine makespan "
        "(default: 0.5)",
    )
    faults_inject.add_argument(
        "--at-us",
        type=float,
        default=None,
        metavar="US",
        help="fault instant in microseconds (overrides --at-fraction)",
    )
    faults_inject.add_argument(
        "--json", action="store_true", help="emit the recovery result as JSON"
    )
    faults_inject.set_defaults(handler=_cmd_faults_inject)

    bench_parser = commands.add_parser(
        "bench", help="parallel, cached experiment sweeps"
    )
    bench_commands = bench_parser.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_commands.add_parser(
        "run", help="run registered experiments through the sweep engine"
    )
    bench_run.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help="experiment names (e.g. table2 fig7), or 'all'",
    )
    _add_sweep_flags(bench_run)
    bench_run.set_defaults(handler=_cmd_bench_run)

    bench_sweep = bench_commands.add_parser(
        "sweep", help="ad-hoc workload x machine x compiler grid"
    )
    bench_sweep.add_argument(
        "-w",
        "--workload",
        action="append",
        required=True,
        metavar="NAME",
        help="workload, repeatable (e.g. -w GHZ_n64 -w Adder_n128)",
    )
    bench_sweep.add_argument(
        "-m",
        "--machine",
        action="append",
        default=None,
        metavar="SPEC",
        help=f"repeatable (default: eml); {_machine_spec_help()}",
    )
    bench_sweep.add_argument(
        "-c",
        "--compiler",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "compiler spec, repeatable (default: muss-ti; registered: "
            f"{', '.join(available_compilers())}; append ?key=value options)"
        ),
    )
    _add_sweep_flags(bench_sweep)
    bench_sweep.set_defaults(handler=_cmd_bench_sweep)

    bench_micro = bench_commands.add_parser(
        "micro",
        help="tracked microbenchmark grid, written to BENCH_<date>.json",
    )
    bench_micro.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timing repeats per phase; the minimum is recorded (default: 3)",
    )
    bench_micro.add_argument(
        "--quick",
        action="store_true",
        help="single repeat per cell (CI smoke; noisier numbers)",
    )
    bench_micro.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="output file (default: ./BENCH_<utc date>.json)",
    )
    bench_micro.add_argument(
        "--filter",
        metavar="EXPR",
        help="run only matching cells, e.g. 'workload=QFT_n64'",
    )
    bench_micro.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress on stderr"
    )
    bench_micro.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for cell execution via the sweep engine "
            "(default: 1 = in-process; never cache-served)"
        ),
    )
    bench_micro.add_argument(
        "--profile",
        action="store_true",
        help=(
            "after timing, run each cell once under cProfile and print the "
            "top-20 cumulative entries to stderr"
        ),
    )
    bench_micro.set_defaults(handler=_cmd_bench_micro)

    bench_serve = bench_commands.add_parser(
        "serve",
        help="service load generator: latency/throughput cells -> BENCH_<date>.json",
    )
    bench_serve.add_argument(
        "--requests",
        type=int,
        default=60,
        metavar="N",
        help="requests per phase (default: 60)",
    )
    bench_serve.add_argument(
        "--concurrency",
        type=int,
        default=8,
        metavar="N",
        help="concurrent client connections (default: 8)",
    )
    bench_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="service worker processes (default: CPU count; 0 = threads)",
    )
    bench_serve.add_argument(
        "--quick",
        action="store_true",
        help="seconds-scale CI smoke run (small mix, low concurrency)",
    )
    bench_serve.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="output file; merges into an existing payload "
        "(default: ./BENCH_<utc date>.json)",
    )
    bench_serve.set_defaults(handler=_cmd_bench_serve)

    bench_fleet = bench_commands.add_parser(
        "fleet",
        help="multi-tenant queueing cells (one per policy) -> BENCH_<date>.json",
    )
    bench_fleet.add_argument(
        "--jobs",
        type=int,
        default=20_000,
        metavar="N",
        help="synthetic jobs in the trace (default: 20000)",
    )
    bench_fleet.add_argument(
        "--arrival",
        choices=("poisson", "bursty"),
        default="poisson",
        help="arrival process (default: poisson)",
    )
    bench_fleet.add_argument(
        "--load",
        type=float,
        default=0.8,
        metavar="RHO",
        help="offered load (default: 0.8)",
    )
    bench_fleet.add_argument(
        "--seed", type=int, default=7, metavar="N", help="trace seed (default: 7)"
    )
    bench_fleet.add_argument(
        "--machine",
        default="eml:16:2",
        metavar="SPEC",
        help=f"default eml:16:2; {_machine_spec_help()}",
    )
    bench_fleet.add_argument(
        "--machine-qubits",
        type=int,
        default=128,
        metavar="N",
        help="size circuit-relative machine specs to this many qubits "
        "(default: 128)",
    )
    bench_fleet.add_argument(
        "--cache-dir",
        default=None,
        help=f"service-time compile cache root (default: {default_cache_dir()})",
    )
    bench_fleet.add_argument(
        "--quick",
        action="store_true",
        help="cap the trace at 2000 jobs (CI smoke run)",
    )
    bench_fleet.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="output file; merges into an existing payload "
        "(default: ./BENCH_<utc date>.json)",
    )
    bench_fleet.set_defaults(handler=_cmd_bench_fleet)

    bench_faults = bench_commands.add_parser(
        "faults",
        help="fault-robustness cells (one per profile) -> BENCH_<date>.json",
    )
    bench_faults.add_argument(
        "--machine",
        default=None,
        metavar="SPEC",
        help="pristine baseline machine "
        f"(default: {_faults_bench_default('machine')}); "
        f"{_machine_spec_help()}",
    )
    bench_faults.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="tracked workload "
        f"(default: {_faults_bench_default('workload')})",
    )
    bench_faults.add_argument(
        "--compiler",
        default="muss-ti",
        metavar="SPEC",
        help="compiler for pristine and faulted compiles (default: muss-ti)",
    )
    bench_faults.add_argument(
        "--profile",
        action="append",
        default=None,
        metavar="NAME",
        help="fault profile, repeatable (default: the tracked sweep; "
        "see 'repro faults list')",
    )
    bench_faults.add_argument(
        "--quick",
        action="store_true",
        help="run the two-profile CI smoke subset",
    )
    bench_faults.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="output file; merges into an existing payload "
        "(default: ./BENCH_<utc date>.json)",
    )
    bench_faults.set_defaults(handler=_cmd_bench_faults)

    bench_compare_parser = bench_commands.add_parser(
        "compare",
        help="diff two BENCH_*.json payloads (the perf-regression guard)",
    )
    bench_compare_parser.add_argument(
        "old",
        metavar="OLD.json",
        help="baseline payload, or the word 'latest' (or a directory) to "
        "auto-discover the newest committed BENCH_<date>.json",
    )
    bench_compare_parser.add_argument(
        "new", metavar="NEW.json", help="candidate payload (a fresh bench micro run)"
    )
    bench_compare_parser.add_argument(
        "--fail-over",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero when any matched cell's total_s regressed by "
        "more than PCT percent",
    )
    bench_compare_parser.add_argument(
        "--min-seconds",
        type=float,
        default=None,
        metavar="S",
        help="baseline total_s below which a cell is shown but not judged "
        "(default: 0.05; timer noise dominates tiny cells)",
    )
    bench_compare_parser.set_defaults(handler=_cmd_bench_compare)

    bench_list = bench_commands.add_parser(
        "list", help="registered experiments and cache population"
    )
    bench_list.add_argument("--cache-dir", default=None)
    bench_list.set_defaults(handler=_cmd_bench_list)

    bench_clear = bench_commands.add_parser(
        "clear-cache", help="drop cached results (all, or one experiment)"
    )
    bench_clear.add_argument("experiment", nargs="?", default=None)
    bench_clear.add_argument("--cache-dir", default=None)
    bench_clear.set_defaults(handler=_cmd_bench_clear_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Sugar: ``repro bench table2 --jobs 2`` routes through the implicit
    # ``run`` sub-command.
    if (
        len(argv) >= 2
        and argv[0] == "bench"
        and argv[1] not in BENCH_SUBCOMMANDS
        and argv[1] not in ("-h", "--help")
    ):
        argv.insert(1, "run")
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
