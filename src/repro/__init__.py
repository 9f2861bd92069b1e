"""repro: a full reproduction of MUSS-TI (MICRO 2025).

MUSS-TI is a multi-level shuttle-scheduling compiler for entanglement-module
linked QCCD (EML-QCCD) trapped-ion machines.  This package provides the
complete stack: circuit IR and OpenQASM I/O, benchmark workload generators,
hardware and physics models, the MUSS-TI compiler, three baseline compilers
(Murali et al., Dai et al., MQT-like), a schedule executor/verifier, and the
experiment harness regenerating every table and figure of the paper.

Quickstart — the :func:`repro.compile` facade resolves benchmark names,
machine specs and compiler specs in one call::

    import repro

    result = repro.compile("GHZ_n32", "eml", verify=True)
    print(result.execute().summary())

Compilers are looked up in a single registry by *spec string* —
``"muss-ti"``, ``"muss-ti?lookahead_k=4"``, ``"murali"``, ``"dai"``,
``"mqt"``, or the ablation arms ``"trivial"`` / ``"sabre"`` /
``"swap-insert"`` — and new ones plug in with
:func:`repro.register_compiler`.  Machines resolve the same way through
the declarative topology registry — ``"eml:16:2"``, ``"grid:3x4:16"``,
``"ring:8:16"``, ``"star:1+6:16"``, ``"eml?modules=4&optical=2"`` or
``"file:arch.json"`` — new topologies plug in with
:func:`repro.register_machine` (a builder function returning an
:class:`~repro.hardware.ArchitectureSpec`; no ``Machine`` subclass
needed).  Physics resolves the same way through the physics-profile
registry — ``"table1"``, ``"perfect-gate"``, ``"perfect-shuttle"``,
``"table1?heating_rate=0.5"`` — and a compiled schedule prices under
many profiles from **one** replay via the timed-event ledger::

    ledger = repro.replay(result.program)
    for spec in ("table1", "perfect-gate", "perfect-shuttle"):
        print(ledger.reprice(repro.resolve_physics(spec)).log10_fidelity)

Under the hood MUSS-TI is a
:class:`~repro.pipeline.PassPipeline` of composable passes (placement,
scheduling, SWAP insertion policy); see :mod:`repro.pipeline`.

The class-based API remains fully supported::

    from repro import (EMLQCCDMachine, MussTiCompiler, execute, get_benchmark)

    circuit = get_benchmark("GHZ_n32")
    machine = EMLQCCDMachine.for_circuit_size(circuit.num_qubits)
    program = MussTiCompiler().compile(circuit, machine)
    print(execute(program).summary())
"""

from .baselines import DaiCompiler, MqtLikeCompiler, MuraliCompiler
from .circuits import (
    DependencyGraph,
    Gate,
    QuantumCircuit,
    lower_to_native,
    parse_qasm,
)
from .core import MussTiCompiler, MussTiConfig
from .hardware import (
    ArchitectureSpec,
    EMLQCCDMachine,
    Machine,
    MachineRegistry,
    ModuleLayout,
    QCCDGridMachine,
    ZoneKind,
    ZoneSpec,
    available_machines,
    canonical_machine_spec,
    default_machine_registry,
    load_machine,
    machine_from_spec,
    paper_grid,
    register_machine,
    render_machine,
    resolve_machine,
    save_machine,
)
from .physics import (
    DEFAULT_PARAMS,
    PhysicalParams,
    PhysicsRegistry,
    available_physics,
    canonical_physics_spec,
    register_physics,
    resolve_physics,
)
from .pipeline import (
    CompileResult,
    CompilerRegistry,
    PassPipeline,
    available_compilers,
    build_muss_ti_pipeline,
    compile,
    default_registry,
    register_compiler,
    resolve_compiler,
)
from .sim import (
    EventLedger,
    ExecutionReport,
    Program,
    TimedEvent,
    execute,
    fidelity_breakdown,
    is_valid,
    price_many,
    replay,
    reprice,
    verify_program,
)
from .workloads import available_benchmarks, get_benchmark

__version__ = "1.13.0"

__all__ = [
    "DEFAULT_PARAMS",
    "ArchitectureSpec",
    "CompileResult",
    "CompilerRegistry",
    "DaiCompiler",
    "DependencyGraph",
    "EMLQCCDMachine",
    "EventLedger",
    "ExecutionReport",
    "Gate",
    "Machine",
    "MachineRegistry",
    "ModuleLayout",
    "MqtLikeCompiler",
    "MuraliCompiler",
    "MussTiCompiler",
    "MussTiConfig",
    "PassPipeline",
    "PhysicalParams",
    "PhysicsRegistry",
    "Program",
    "QCCDGridMachine",
    "QuantumCircuit",
    "TimedEvent",
    "ZoneKind",
    "ZoneSpec",
    "available_benchmarks",
    "available_compilers",
    "available_machines",
    "available_physics",
    "build_muss_ti_pipeline",
    "canonical_machine_spec",
    "canonical_physics_spec",
    "compile",
    "default_machine_registry",
    "default_registry",
    "execute",
    "fidelity_breakdown",
    "get_benchmark",
    "is_valid",
    "load_machine",
    "lower_to_native",
    "machine_from_spec",
    "parse_qasm",
    "paper_grid",
    "price_many",
    "register_compiler",
    "register_machine",
    "register_physics",
    "render_machine",
    "replay",
    "reprice",
    "resolve_compiler",
    "resolve_machine",
    "resolve_physics",
    "save_machine",
    "verify_program",
    "__version__",
]
