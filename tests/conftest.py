"""Shared test fixtures: small machines and circuits used across modules."""

from __future__ import annotations

import pytest

import repro
from repro.circuits import QuantumCircuit
from repro.hardware import EMLQCCDMachine, ModuleLayout, QCCDGridMachine, resolve_machine
from repro.workloads import get_benchmark


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite golden snapshot files instead of asserting against them",
    )


@pytest.fixture
def update_goldens(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture(scope="session")
def scale_cell_program():
    """MUSS-TI's QFT_n512 x ``eml?capacity=4&modules=256`` program.

    Compiled once per session: the differential and invariant tests both
    check it, and it takes about 12 s.
    """
    circuit = get_benchmark("QFT_n512")
    machine = resolve_machine("eml?capacity=4&modules=256", circuit.num_qubits)
    return repro.compile(circuit, machine, compiler="muss-ti", verify=False).program


@pytest.fixture
def tiny_grid() -> QCCDGridMachine:
    """2x2 grid, capacity 4: the smallest interesting baseline machine."""
    return QCCDGridMachine(2, 2, 4)


@pytest.fixture
def small_grid_2x2() -> QCCDGridMachine:
    """The paper's Table 2 machine: 2x2 grid, capacity 12."""
    return QCCDGridMachine(2, 2, 12)


@pytest.fixture
def one_module() -> EMLQCCDMachine:
    """A single EML module (1 optical + 1 operation + 2 storage, cap 4)."""
    return EMLQCCDMachine(num_modules=1, trap_capacity=4)


@pytest.fixture
def two_modules() -> EMLQCCDMachine:
    """Two fiber-linked EML modules, capacity 4 (8 zones total)."""
    return EMLQCCDMachine(num_modules=2, trap_capacity=4)


@pytest.fixture
def two_modules_cap8() -> EMLQCCDMachine:
    """Two fiber-linked EML modules with roomier traps."""
    return EMLQCCDMachine(num_modules=2, trap_capacity=8)


@pytest.fixture
def two_tight_modules() -> EMLQCCDMachine:
    """Two modules that hold at most 8 qubits each, forcing circuits wider
    than 8 qubits to split across the fiber link."""
    return EMLQCCDMachine(num_modules=2, trap_capacity=4, module_qubit_limit=8)


@pytest.fixture
def dual_optical_module() -> EMLQCCDMachine:
    """Two modules with two optical zones each (the Fig 12 layout)."""
    layout = ModuleLayout(num_optical=2)
    return EMLQCCDMachine(num_modules=2, trap_capacity=4, layout=layout)


@pytest.fixture
def bell_pair() -> QuantumCircuit:
    circuit = QuantumCircuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


@pytest.fixture
def linear_chain_8() -> QuantumCircuit:
    """An 8-qubit CX chain (GHZ without the measure wrapper)."""
    circuit = QuantumCircuit(8, name="chain8")
    circuit.h(0)
    for q in range(7):
        circuit.cx(q, q + 1)
    return circuit
