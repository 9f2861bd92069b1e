"""Timed-event ledger: replay once, price many times.

This module is the repository's **single replay and pricing engine**.
One legality-checked replay of a :class:`~repro.sim.program.Program`'s
packed records (:mod:`repro.sim.oparray`) produces an
:class:`EventLedger` — the canonical record of *what happened*: the
records themselves plus the trap occupancies that local two-qubit
fidelity depends on.  Everything priced from a schedule is then a pure
fold over that ledger under a :class:`~repro.physics.PhysicalParams`:

* :func:`repro.sim.execute` — replay + :meth:`EventLedger.reprice`,
* :func:`repro.sim.fidelity_breakdown` — :meth:`EventLedger.channels`,
* :func:`repro.sim.program_to_records` / ``render_timeline`` —
  :meth:`EventLedger.records`,
* Fig 13-style counterfactuals — :func:`reprice` / :func:`price_many`
  under any physics profile, **without re-validating**.

The replay, the timing fold and the fidelity fold exist once each, all
over the packed records every program holds.  The per-op
duration and fidelity-charge tables live here and only here;
``breakdown.py`` and ``trace.py`` carry no pricing knowledge of their
own, so the three views can never drift apart again.

Pricing reproduces the §4 model bit for bit: Eq. 1
(``exp(-t/T1 - k·nbar)``) for trap operations, ``1 - εN²`` for local
entanglers, the 0.99 fiber gate (plus ``log(1 - eps)`` per degraded
module entangler), and the per-zone background ``B_i = exp(-k·heat_i)``
— every natural-log charge is accumulated in exactly the order the
original executor charged its ledger, so an
:class:`~repro.sim.metrics.ExecutionReport` priced through this module
matches the frozen reference byte for byte (the differential suite
asserts it).

Repricing the same ledger under N parameter sets costs one replay plus N
folds; parameter sets sharing Table 1 durations (the perfect-gate /
perfect-shuttle counterfactuals) additionally share one timing fold via
a per-duration-signature cache, which is what makes multi-profile
physics sweeps cheap (see the ``reprice`` microbenchmark cell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..physics import PhysicalParams, idle_log_fidelity, shuttle_log_fidelity
from ..physics.timing import move_duration_us
from .metrics import ExecutionReport
from .oparray import (
    K_CHAIN_SWAP,
    K_FIBER,
    K_GATE,
    K_INVALID,
    K_MERGE,
    K_MOVE,
    K_SPLIT,
    K_SWAP,
    PackedOps,
)
from .program import Program

#: log10(e); converts the natural-log fidelity total to log10.
_LOG10_E = math.log10(math.e)

#: Pricing channels, in report order (re-exported as
#: ``repro.sim.CATEGORIES`` for the breakdown view).
CHANNELS = (
    "one_qubit_gates",
    "two_qubit_gates",
    "fiber_gates",
    "shuttle_ops",
    "background_heat",
)


class ExecutionError(RuntimeError):
    """Raised when an op is illegal for the current machine state."""

    def __init__(self, message: str, op_index: int | None = None) -> None:
        if op_index is not None:
            message = f"op #{op_index}: {message}"
        super().__init__(message)
        self.op_index = op_index


@dataclass(frozen=True, slots=True)
class TimedEvent:
    """One priced schedule op: what happened, when, and what it cost.

    ``charges`` is the exact ledger sequence of this op's natural-log
    fidelity contributions as ``(channel, value)`` pairs — folding every
    event's charges in order reproduces the executor's ``log10_fidelity``
    to the last bit.  ``ions`` is the trap occupancy a local entangler
    fired with (0 when not applicable); ``heated_zone``/``heat_delta``
    record the motional-quanta deposit of trap ops (zone -1 / 0.0 when
    none).
    """

    index: int
    kind: str
    qubits: tuple[int, ...]
    zones: tuple[int, ...]
    ions: int
    start_us: float
    duration_us: float
    heated_zone: int
    heat_delta: float
    charges: tuple[tuple[str, float], ...]

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    @property
    def log10_charge(self) -> float:
        """This op's total fidelity charge in log10 (all channels)."""
        return sum(value for _, value in self.charges) * _LOG10_E


def _describe(record, gates) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """(kind, qubits, zones) of one record — the descriptive fields trace
    records and events share."""
    kind = record[0]
    if kind == K_GATE:
        gate = gates[record[1]]
        return f"gate:{gate.name}", gate.qubits, (record[2],)
    if kind == K_MOVE:
        return "move", (record[1],), (record[2], record[3])
    if kind == K_SPLIT:
        return "split", (record[1],), (record[2],)
    if kind == K_MERGE:
        return "merge", (record[1],), (record[2],)
    if kind == K_CHAIN_SWAP:
        return "chain_swap", (), (record[1],)
    if kind == K_FIBER:
        gate = gates[record[1]]
        return f"fiber:{gate.name}", gate.qubits, (record[2], record[3])
    return "swap_insert", (record[1], record[2]), (record[3], record[4])


#: Record field naming the zone a trap op heats, by kind.
_HEATED_FIELD = {K_SPLIT: 2, K_MOVE: 3, K_MERGE: 2, K_CHAIN_SWAP: 1}


class _Timing:
    """Result of one timing fold: per-op spans plus the aggregates."""

    __slots__ = ("spans", "serial_time", "makespan", "qubit_busy")

    def __init__(self, spans, serial_time, makespan, qubit_busy) -> None:
        self.spans = spans  # list of (start_us, duration_us, end_us)
        self.serial_time = serial_time
        self.makespan = makespan
        self.qubit_busy = qubit_busy


class EventLedger:
    """The replay-once artifact: one legality-checked pass over a program.

    Holds the program, the packed records the replay checked
    (:attr:`packed`), the only replay-dependent pricing input — the trap
    occupancy each local entangler fired with — and the op-category
    counts.  All pricing methods are pure folds over :attr:`packed`;
    none mutates machine state or re-validates legality, which is what
    makes :meth:`reprice`-ing the same schedule under many
    :class:`~repro.physics.PhysicalParams` cheap.

    Build one with :func:`replay`.
    """

    __slots__ = (
        "program",
        "packed",
        "trap_sizes",
        "split_count",
        "move_count",
        "merge_count",
        "chain_swap_count",
        "one_qubit_gate_count",
        "two_qubit_gate_count",
        "fiber_gate_count",
        "inserted_swap_count",
        "remote_swap_count",
        "_timing_cache",
    )

    def __init__(
        self, program: Program, trap_sizes: list[int], counts, packed: PackedOps
    ) -> None:
        self.program = program
        #: The records that were replayed; every fold reads these.
        self.packed = packed
        #: ions-in-trap per op index (0 where not applicable).
        self.trap_sizes = trap_sizes
        (
            self.split_count,
            self.move_count,
            self.merge_count,
            self.chain_swap_count,
            self.one_qubit_gate_count,
            self.two_qubit_gate_count,
            self.fiber_gate_count,
            self.inserted_swap_count,
            self.remote_swap_count,
        ) = counts
        self._timing_cache: dict[tuple, _Timing] = {}

    def __len__(self) -> int:
        return len(self.packed)

    # -- timing fold -----------------------------------------------------

    def _timing(self, params: PhysicalParams) -> _Timing:
        """Resource-model timing fold, cached per duration signature.

        An op starts when its qubits and *blocking* zones are all free;
        one-qubit gates do not block their zone (other work may proceed
        around them).  Parameter sets sharing Table 1 durations — e.g.
        the perfect-gate / perfect-shuttle counterfactuals — share one
        fold.
        """
        move_time = move_duration_us(params.inter_zone_distance_um, params)
        split_time = params.split_time_us
        merge_time = params.merge_time_us
        chain_swap_time = params.chain_swap_time_us
        one_qubit_time = params.one_qubit_gate_time_us
        two_qubit_time = params.two_qubit_gate_time_us
        fiber_time = params.fiber_gate_time_us
        signature = (
            split_time,
            move_time,
            merge_time,
            chain_swap_time,
            one_qubit_time,
            two_qubit_time,
            fiber_time,
        )
        cached = self._timing_cache.get(signature)
        if cached is not None:
            return cached

        packed = self.packed
        qubits_a = packed.qubits_a
        qubits_b = packed.qubits_b
        qubit_ready: dict[int, float] = {}
        zone_ready: dict[int, float] = {}
        qubit_busy: dict[int, float] = {}
        qubit_ready_get = qubit_ready.get
        zone_ready_get = zone_ready.get
        qubit_busy_get = qubit_busy.get
        serial_time = 0.0
        spans: list[tuple[float, float, float]] = []
        append_span = spans.append

        for record in packed.records:
            kind = record[0]
            if kind == K_GATE:
                node = record[1]
                qubit_b = qubits_b[node]
                if qubit_b < 0:
                    serial_time += one_qubit_time
                    qubit = qubits_a[node]
                    start = qubit_ready_get(qubit, 0.0)
                    end = start + one_qubit_time
                    qubit_ready[qubit] = end
                    qubit_busy[qubit] = qubit_busy_get(qubit, 0.0) + one_qubit_time
                    append_span((start, one_qubit_time, end))
                else:
                    serial_time += two_qubit_time
                    zone_id = record[2]
                    qubit_a = qubits_a[node]
                    start = qubit_ready_get(qubit_a, 0.0)
                    when = qubit_ready_get(qubit_b, 0.0)
                    if when > start:
                        start = when
                    when = zone_ready_get(zone_id, 0.0)
                    if when > start:
                        start = when
                    end = start + two_qubit_time
                    qubit_ready[qubit_a] = end
                    qubit_busy[qubit_a] = qubit_busy_get(qubit_a, 0.0) + two_qubit_time
                    qubit_ready[qubit_b] = end
                    qubit_busy[qubit_b] = qubit_busy_get(qubit_b, 0.0) + two_qubit_time
                    zone_ready[zone_id] = end
                    append_span((start, two_qubit_time, end))
            elif kind == K_MOVE:
                serial_time += move_time
                qubit = record[1]
                source_zone = record[2]
                destination_zone = record[3]
                start = qubit_ready_get(qubit, 0.0)
                when = zone_ready_get(source_zone, 0.0)
                if when > start:
                    start = when
                when = zone_ready_get(destination_zone, 0.0)
                if when > start:
                    start = when
                end = start + move_time
                qubit_ready[qubit] = end
                qubit_busy[qubit] = qubit_busy_get(qubit, 0.0) + move_time
                zone_ready[source_zone] = end
                zone_ready[destination_zone] = end
                append_span((start, move_time, end))
            elif kind == K_SPLIT or kind == K_MERGE:
                duration = split_time if kind == K_SPLIT else merge_time
                serial_time += duration
                qubit = record[1]
                zone_id = record[2]
                start = qubit_ready_get(qubit, 0.0)
                when = zone_ready_get(zone_id, 0.0)
                if when > start:
                    start = when
                end = start + duration
                qubit_ready[qubit] = end
                qubit_busy[qubit] = qubit_busy_get(qubit, 0.0) + duration
                zone_ready[zone_id] = end
                append_span((start, duration, end))
            elif kind == K_CHAIN_SWAP:
                serial_time += chain_swap_time
                zone_id = record[1]
                start = zone_ready_get(zone_id, 0.0)
                end = start + chain_swap_time
                zone_ready[zone_id] = end
                append_span((start, chain_swap_time, end))
            elif kind == K_FIBER:
                serial_time += fiber_time
                node = record[1]
                zone_a = record[2]
                zone_b = record[3]
                qubit_a = qubits_a[node]
                qubit_b = qubits_b[node]
                start = qubit_ready_get(qubit_a, 0.0)
                when = qubit_ready_get(qubit_b, 0.0)
                if when > start:
                    start = when
                when = zone_ready_get(zone_a, 0.0)
                if when > start:
                    start = when
                when = zone_ready_get(zone_b, 0.0)
                if when > start:
                    start = when
                end = start + fiber_time
                qubit_ready[qubit_a] = end
                qubit_busy[qubit_a] = qubit_busy_get(qubit_a, 0.0) + fiber_time
                qubit_ready[qubit_b] = end
                qubit_busy[qubit_b] = qubit_busy_get(qubit_b, 0.0) + fiber_time
                zone_ready[zone_a] = end
                zone_ready[zone_b] = end
                append_span((start, fiber_time, end))
            else:  # K_SWAP
                qubit_a, qubit_b, zone_a, zone_b = record[1:]
                if zone_a != zone_b:
                    duration = 3 * fiber_time
                    zones = (zone_a, zone_b)
                else:
                    duration = 3 * two_qubit_time
                    zones = (zone_a,)
                serial_time += duration
                start = qubit_ready_get(qubit_a, 0.0)
                when = qubit_ready_get(qubit_b, 0.0)
                if when > start:
                    start = when
                for zone_id in zones:
                    when = zone_ready_get(zone_id, 0.0)
                    if when > start:
                        start = when
                end = start + duration
                qubit_ready[qubit_a] = end
                qubit_busy[qubit_a] = qubit_busy_get(qubit_a, 0.0) + duration
                qubit_ready[qubit_b] = end
                qubit_busy[qubit_b] = qubit_busy_get(qubit_b, 0.0) + duration
                for zone_id in zones:
                    zone_ready[zone_id] = end
                append_span((start, duration, end))

        makespan = max(
            max(qubit_ready.values(), default=0.0),
            max(zone_ready.values(), default=0.0),
        )
        timing = _Timing(spans, serial_time, makespan, qubit_busy)
        self._timing_cache[signature] = timing
        return timing

    # -- fidelity fold ---------------------------------------------------

    def _fold_fidelity(self, params: PhysicalParams, sink=None):
        """The one fidelity-charge table: §4's model over the op stream.

        Returns ``(log_total, heat)`` with every natural-log charge added
        in the executor's canonical order.  When *sink* is given it is
        called as ``sink(index, channel, value)`` for every individual
        charge, in that same order — the breakdown and the event stream
        are built through it.
        """
        move_time = move_duration_us(params.inter_zone_distance_um, params)
        split_nbar = params.split_nbar
        move_nbar = params.move_nbar
        merge_nbar = params.merge_nbar
        chain_swap_nbar = params.chain_swap_nbar
        split_log = shuttle_log_fidelity(params.split_time_us, split_nbar, params)
        move_log = shuttle_log_fidelity(move_time, move_nbar, params)
        merge_log = shuttle_log_fidelity(params.merge_time_us, merge_nbar, params)
        chain_swap_log = shuttle_log_fidelity(
            params.chain_swap_time_us, chain_swap_nbar, params
        )
        heating_rate = params.heating_rate  # background = -heating_rate * heat
        one_qubit_log = math.log(params.one_qubit_gate_fidelity)
        fiber_log = math.log(params.fiber_gate_fidelity)
        two_qubit_gate_fidelity = params.two_qubit_gate_fidelity
        for value in (split_log, move_log, merge_log, chain_swap_log,
                      one_qubit_log, fiber_log):
            if value > 1e-12:
                raise ValueError(
                    f"fidelity contribution must be <= 1 (log <= 0), got "
                    f"log={value}"
                )

        # Degraded entanglers: fiber charges at a degraded module's zones
        # pick up an extra log(1 - eps) per remote MS gate.  Pristine
        # machines keep the exact seed float path (no lookup, no adds).
        machine = self.program.machine
        fault_model = machine.fault_model
        eps_by_module = (
            fault_model.eps_by_module() if fault_model is not None else {}
        )
        zone_fiber_extra: dict[int, float] | None = None
        if eps_by_module:
            zone_fiber_extra = {
                zone.zone_id: math.log1p(
                    -eps_by_module.get(zone.module_id, 0.0)
                )
                for zone in machine.zones
            }

        heat: dict[int, float] = {zone.zone_id: 0.0 for zone in machine.zones}
        trap_sizes = self.trap_sizes
        qubits_b = self.packed.qubits_b
        #: ions -> (fidelity, natural log); local entangler pricing cache.
        two_qubit_cache: dict[int, tuple[float, float]] = {}
        log_total = 0.0

        for index, record in enumerate(self.packed.records):
            kind = record[0]
            if kind == K_GATE:
                zone_id = record[2]
                background = -heating_rate * heat[zone_id]
                if qubits_b[record[1]] < 0:
                    log_total += one_qubit_log
                    log_total += background
                    if sink is not None:
                        sink(index, "one_qubit_gates", one_qubit_log)
                        sink(index, "background_heat", background)
                else:
                    ions = trap_sizes[index]
                    entry = two_qubit_cache.get(ions)
                    if entry is None:
                        fidelity = two_qubit_gate_fidelity(ions)
                        entry = (
                            fidelity,
                            math.log(fidelity) if fidelity > 0.0 else 0.0,
                        )
                        two_qubit_cache[ions] = entry
                    fidelity, gate_log = entry
                    if fidelity <= 0.0:
                        raise ExecutionError(
                            f"two-qubit gate fidelity collapsed to zero with "
                            f"{ions} ions in zone {zone_id}",
                            index,
                        )
                    log_total += gate_log
                    log_total += background
                    if sink is not None:
                        sink(index, "two_qubit_gates", gate_log)
                        sink(index, "background_heat", background)
            elif kind == K_MOVE:
                log_total += move_log
                heat[record[3]] += move_nbar
                if sink is not None:
                    sink(index, "shuttle_ops", move_log)
            elif kind == K_SPLIT:
                log_total += split_log
                heat[record[2]] += split_nbar
                if sink is not None:
                    sink(index, "shuttle_ops", split_log)
            elif kind == K_MERGE:
                log_total += merge_log
                heat[record[2]] += merge_nbar
                if sink is not None:
                    sink(index, "shuttle_ops", merge_log)
            elif kind == K_CHAIN_SWAP:
                log_total += chain_swap_log
                heat[record[1]] += chain_swap_nbar
                if sink is not None:
                    sink(index, "shuttle_ops", chain_swap_log)
            elif kind == K_FIBER:
                zone_a = record[2]
                zone_b = record[3]
                charge = fiber_log
                if zone_fiber_extra is not None:
                    charge += zone_fiber_extra[zone_a] + zone_fiber_extra[zone_b]
                background_a = -heating_rate * heat[zone_a]
                background_b = -heating_rate * heat[zone_b]
                log_total += charge
                log_total += background_a
                log_total += background_b
                if sink is not None:
                    sink(index, "fiber_gates", charge)
                    sink(index, "background_heat", background_a)
                    sink(index, "background_heat", background_b)
            else:  # K_SWAP
                zone_a = record[3]
                zone_b = record[4]
                if zone_a != zone_b:  # remote swap: three fiber MS gates (§3.3)
                    charge = fiber_log
                    if zone_fiber_extra is not None:
                        charge += zone_fiber_extra[zone_a] + zone_fiber_extra[zone_b]
                    background_a = -heating_rate * heat[zone_a]
                    background_b = -heating_rate * heat[zone_b]
                    for _ in range(3):
                        log_total += charge
                        log_total += background_a
                        log_total += background_b
                        if sink is not None:
                            sink(index, "fiber_gates", charge)
                            sink(index, "background_heat", background_a)
                            sink(index, "background_heat", background_b)
                else:
                    ions = trap_sizes[index]
                    entry = two_qubit_cache.get(ions)
                    if entry is None:
                        fidelity = two_qubit_gate_fidelity(ions)
                        entry = (
                            fidelity,
                            math.log(fidelity) if fidelity > 0.0 else 0.0,
                        )
                        two_qubit_cache[ions] = entry
                    fidelity, gate_log = entry
                    if fidelity <= 0.0:
                        raise ExecutionError(
                            f"swap fidelity collapsed to zero with {ions} ions",
                            index,
                        )
                    background = -heating_rate * heat[zone_a]
                    for _ in range(3):
                        log_total += gate_log
                        log_total += background
                        if sink is not None:
                            sink(index, "two_qubit_gates", gate_log)
                            sink(index, "background_heat", background)

        return log_total, heat

    # -- public folds ----------------------------------------------------

    def reprice(
        self,
        params: PhysicalParams | None = None,
        *,
        include_idle_decoherence: bool = False,
    ) -> ExecutionReport:
        """Price the replayed schedule under *params*; no re-validation.

        Byte-identical to :func:`repro.sim.execute` on the same program
        and parameters — the two share this fold.
        """
        params = params or PhysicalParams()
        log_total, heat = self._fold_fidelity(params)
        timing = self._timing(params)
        if include_idle_decoherence:
            makespan = timing.makespan
            busy_get = timing.qubit_busy.get
            for qubit in range(self.program.circuit.num_qubits):
                idle = makespan - busy_get(qubit, 0.0)
                if idle > 0:
                    log_total += idle_log_fidelity(idle, params)
        program = self.program
        return ExecutionReport(
            circuit_name=program.circuit.name,
            compiler_name=program.compiler_name,
            num_qubits=program.circuit.num_qubits,
            shuttle_count=self.move_count,
            split_count=self.split_count,
            merge_count=self.merge_count,
            chain_swap_count=self.chain_swap_count,
            one_qubit_gate_count=self.one_qubit_gate_count,
            two_qubit_gate_count=self.two_qubit_gate_count,
            fiber_gate_count=self.fiber_gate_count,
            inserted_swap_count=self.inserted_swap_count,
            remote_swap_count=self.remote_swap_count,
            execution_time_us=timing.serial_time,
            makespan_us=timing.makespan,
            log10_fidelity=log_total * _LOG10_E,
            zone_heat=dict(heat),
            compile_time_s=program.compile_time_s,
        )

    def verify_priceable(self, params: PhysicalParams | None = None) -> None:
        """Raise :class:`ExecutionError` if pricing under *params* would
        fail — a local entangler whose ``1 - εN²`` fidelity collapses to
        zero for some recorded trap occupancy.

        Legality (the replay) is physics-independent; this is the one
        physics-dependent failure mode, checked without a full pricing
        fold so verification stays cheap.
        """
        params = params or PhysicalParams()
        collapsed = {
            ions
            for ions in set(self.trap_sizes)
            if ions and params.two_qubit_gate_fidelity(ions) <= 0.0
        }
        if not collapsed:
            return
        for index, (record, ions) in enumerate(
            zip(self.packed.records, self.trap_sizes)
        ):
            if ions in collapsed:
                if record[0] == K_GATE:
                    raise ExecutionError(
                        f"two-qubit gate fidelity collapsed to zero with "
                        f"{ions} ions in zone {record[2]}",
                        index,
                    )
                raise ExecutionError(
                    f"swap fidelity collapsed to zero with {ions} ions", index
                )

    def channels(self, params: PhysicalParams | None = None) -> dict[str, float]:
        """Per-channel log10 contributions (the fidelity breakdown).

        The values sum to :attr:`ExecutionReport.log10_fidelity` (same
        charges, grouped by channel) and are all <= 0.
        """
        params = params or PhysicalParams()
        totals = {channel: 0.0 for channel in CHANNELS}

        def sink(_index: int, channel: str, value: float) -> None:
            totals[channel] += value

        self._fold_fidelity(params, sink)
        return {channel: value * _LOG10_E for channel, value in totals.items()}

    def events(self, params: PhysicalParams | None = None) -> tuple[TimedEvent, ...]:
        """The priced event stream: one :class:`TimedEvent` per op."""
        params = params or PhysicalParams()
        charges: list[list[tuple[str, float]]] = [[] for _ in range(len(self))]

        def sink(index: int, channel: str, value: float) -> None:
            charges[index].append((channel, value))

        self._fold_fidelity(params, sink)
        timing = self._timing(params)
        heat_deltas = {
            K_SPLIT: params.split_nbar,
            K_MOVE: params.move_nbar,
            K_MERGE: params.merge_nbar,
            K_CHAIN_SWAP: params.chain_swap_nbar,
        }
        gates = self.packed.gate_table(self.program.circuit)
        events = []
        for index, record in enumerate(self.packed.records):
            kind, qubits, zones = _describe(record, gates)
            start, duration, _ = timing.spans[index]
            field = _HEATED_FIELD.get(record[0])
            if field is None:
                heated_zone, heat_delta = -1, 0.0
            else:
                heated_zone, heat_delta = record[field], heat_deltas[record[0]]
            events.append(
                TimedEvent(
                    index=index,
                    kind=kind,
                    qubits=qubits,
                    zones=zones,
                    ions=self.trap_sizes[index],
                    start_us=start,
                    duration_us=duration,
                    heated_zone=heated_zone,
                    heat_delta=heat_delta,
                    charges=tuple(charges[index]),
                )
            )
        return tuple(events)

    def records(self, params: PhysicalParams | None = None) -> list[dict]:
        """Timed, JSON-serialisable op records (the trace view)."""
        timing = self._timing(params or PhysicalParams())
        gates = self.packed.gate_table(self.program.circuit)
        records = []
        for index, record in enumerate(self.packed.records):
            kind, qubits, zones = _describe(record, gates)
            start, duration, end = timing.spans[index]
            records.append(
                {
                    "index": index,
                    "kind": kind,
                    "qubits": list(qubits),
                    "zones": list(zones),
                    "start_us": start,
                    "duration_us": duration,
                    "end_us": end,
                }
            )
        return records


def replay(program: Program) -> EventLedger:
    """The single legality-checked replay: program -> :class:`EventLedger`.

    Validates the initial placement, replays every op against the machine
    (chain edges, capacities, shuttle adjacency, zone kinds, and the
    machine's dead zones, severed edges and failed links), captures the
    trap occupancy of every local entangler, and counts each op
    category.  Raises :class:`ExecutionError` on the first illegal op.

    The replay reads the program's packed records
    (:attr:`~repro.sim.program.Program.packed_view`).
    """
    program.validate_placement()
    machine = program.machine
    packed = program.packed_view
    maps = machine.topology_maps()
    for zone_id in sorted(maps.dead_zones):
        chain = program.initial_placement.get(zone_id)
        if chain:
            raise ExecutionError(
                f"initial placement puts qubit(s) {sorted(chain)} in zone "
                f"{zone_id}, which the fault model declares dead"
            )
    # Faults live in the tables: a dead zone has capacity 0 and hosts no
    # gate or fiber work, and the adjacency lacks dead and severed edges.
    zone_capacity = maps.zone_capacity
    zone_allows_gates = maps.zone_allows_gates
    zone_allows_fiber = maps.zone_allows_fiber
    zone_module = maps.zone_module
    blocked_links = maps.blocked_links
    adjacent = _live_adjacency(machine, maps)

    chains: list[list[int]] = [[] for _ in zone_capacity]
    location = [-1] * program.circuit.num_qubits  # -1: detached
    transit = [-1] * program.circuit.num_qubits  # zone hovered over, or -1
    for zone_id, chain in program.initial_placement.items():
        chains[zone_id].extend(chain)
        for qubit in chain:
            location[qubit] = zone_id

    gates = packed.gate_table(program.circuit)

    def illegal(index: int) -> ExecutionError:
        why = _why(packed.records[index], machine, gates, chains, location, transit)
        return ExecutionError(why, index)

    records = packed.records
    qubits_a = packed.qubits_a
    qubits_b = packed.qubits_b
    trap_sizes = [0] * len(records)
    detached = 0
    splits = moves = merges = chain_swaps = 0
    one_qubit_gates = two_qubit_gates = fiber_gates = 0
    inserted_swaps = remote_swaps = 0
    try:
        for index, record in enumerate(records):
            kind = record[0]
            if kind == K_GATE:
                node = record[1]
                zone_id = record[2]
                if location[qubits_a[node]] != zone_id:
                    raise illegal(index)
                qubit_b = qubits_b[node]
                if qubit_b < 0:
                    one_qubit_gates += 1
                else:
                    if location[qubit_b] != zone_id or not zone_allows_gates[zone_id]:
                        raise illegal(index)
                    two_qubit_gates += 1
                    trap_sizes[index] = len(chains[zone_id])
            elif kind == K_MOVE:
                qubit = record[1]
                source = record[2]
                destination = record[3]
                if transit[qubit] != source or destination not in adjacent[source]:
                    raise illegal(index)
                transit[qubit] = destination
                moves += 1
            elif kind == K_SPLIT:
                qubit = record[1]
                zone_id = record[2]
                if transit[qubit] != -1 or location[qubit] != zone_id:
                    raise illegal(index)
                chain = chains[zone_id]
                position = chain.index(qubit)
                if position != 0 and position != len(chain) - 1:
                    raise illegal(index)
                del chain[position]
                location[qubit] = -1
                transit[qubit] = zone_id
                detached += 1
                splits += 1
            elif kind == K_MERGE:
                qubit = record[1]
                zone_id = record[2]
                if transit[qubit] != zone_id:
                    raise illegal(index)
                chain = chains[zone_id]
                if len(chain) >= zone_capacity[zone_id]:
                    raise illegal(index)
                if len(record) == 3:
                    chain.append(qubit)
                elif record[3] == "head":
                    chain.insert(0, qubit)
                else:
                    raise illegal(index)
                transit[qubit] = -1
                location[qubit] = zone_id
                detached -= 1
                merges += 1
            elif kind == K_CHAIN_SWAP:
                chain = chains[record[1]]
                position = record[2]
                if not 0 <= position < len(chain) - 1:
                    raise illegal(index)
                chain[position], chain[position + 1] = (
                    chain[position + 1],
                    chain[position],
                )
                chain_swaps += 1
            elif kind == K_FIBER:
                node = record[1]
                zone_a = record[2]
                zone_b = record[3]
                module_a = zone_module[zone_a]
                module_b = zone_module[zone_b]
                if (
                    not (zone_allows_fiber[zone_a] and zone_allows_fiber[zone_b])
                    or module_a == module_b
                    or (blocked_links and _link_blocked(blocked_links, module_a, module_b))
                    or location[qubits_a[node]] != zone_a
                    or location[qubits_b[node]] != zone_b
                ):
                    raise illegal(index)
                fiber_gates += 1
            elif kind == K_SWAP:
                qubit_a, qubit_b, zone_a, zone_b = record[1:]
                if location[qubit_a] != zone_a or location[qubit_b] != zone_b:
                    raise illegal(index)
                if zone_a != zone_b:
                    module_a = zone_module[zone_a]
                    module_b = zone_module[zone_b]
                    if (
                        not (zone_allows_fiber[zone_a] and zone_allows_fiber[zone_b])
                        or module_a == module_b
                        or (
                            blocked_links
                            and _link_blocked(blocked_links, module_a, module_b)
                        )
                    ):
                        raise illegal(index)
                    remote_swaps += 1
                else:
                    if not zone_allows_gates[zone_a]:
                        raise illegal(index)
                    trap_sizes[index] = len(chains[zone_a])
                inserted_swaps += 1
                chain_a = chains[zone_a]
                chain_b = chains[zone_b]
                chain_a[chain_a.index(qubit_a)] = qubit_b
                chain_b[chain_b.index(qubit_b)] = qubit_a
                location[qubit_a] = zone_b
                location[qubit_b] = zone_a
            else:  # K_INVALID
                raise illegal(index)
    except IndexError:
        # Encoded op lists are range-checked (kind 7); only hand-built
        # records can name an id past the end of a table.
        raise ExecutionError(
            f"record {record} names a zone, qubit or gate that does not exist",
            index,
        ) from None
    if detached:
        raise ExecutionError(
            "qubits left detached at end of program: "
            f"{[qubit for qubit, zone_id in enumerate(transit) if zone_id >= 0]}"
        )
    return EventLedger(
        program,
        trap_sizes,
        (
            splits,
            moves,
            merges,
            chain_swaps,
            one_qubit_gates,
            two_qubit_gates,
            fiber_gates,
            inserted_swaps,
            remote_swaps,
        ),
        packed,
    )


def _link_blocked(blocked_links, module_a: int, module_b: int) -> bool:
    if module_a > module_b:
        module_a, module_b = module_b, module_a
    return (module_a, module_b) in blocked_links


def _live_adjacency(machine, maps) -> list[frozenset[int]]:
    """Per-zone shuttle neighbours without dead zones or severed edges
    (cached on the topology maps)."""
    cached = getattr(maps, "_live_adjacency", None)
    if cached is None:
        live = machine.live_adjacency()
        cached = [live[zone_id] for zone_id in range(len(maps.zone_capacity))]
        object.__setattr__(maps, "_live_adjacency", cached)
    return cached


def _why(record, machine, gates, chains, location, transit) -> str:
    """The error text of a record that failed a replay check.

    Re-runs the record's checks in their documented order against the
    replay state just before it, so each failure names its first broken
    rule.  Runs only on the error path.
    """
    kind = record[0]
    if kind == K_INVALID:
        return record[1]
    faults = machine.fault_model
    dead = faults.dead_zones if faults is not None else ()

    def found(qubit: int) -> int | None:
        return location[qubit] if location[qubit] >= 0 else None

    if kind == K_GATE:
        gate = gates[record[1]]
        zone_id = record[2]
        for qubit in gate.qubits:
            if location[qubit] != zone_id:
                return (
                    f"gate {gate} expects qubit {qubit} in zone {zone_id}, "
                    f"found {found(qubit)}"
                )
        zone = machine.zone(zone_id)
        if not zone.allows_gates:
            return f"zone {zone_id} ({zone.kind.value}) cannot execute two-qubit gates"
        return f"zone {zone_id} is dead (fault model); no gate can run there"
    if kind == K_SPLIT:
        qubit, zone_id = record[1], record[2]
        if transit[qubit] >= 0:
            return f"qubit {qubit} is already detached"
        if location[qubit] != zone_id:
            return f"qubit {qubit} is in zone {found(qubit)}, not {zone_id}"
        return (
            f"qubit {qubit} is at interior position "
            f"{chains[zone_id].index(qubit)} of zone {zone_id} (chain swaps "
            "required before split)"
        )
    if kind == K_MOVE or kind == K_MERGE:
        qubit, zone_id = record[1], record[2]  # a move's source zone
        at = transit[qubit]
        if at < 0:
            return f"qubit {qubit} is not detached"
        if at != zone_id:
            return f"qubit {qubit} is over zone {at}, not {zone_id}"
        if kind == K_MOVE:
            destination = record[3]
            if destination not in machine.neighbours(zone_id):
                return (
                    f"zones {zone_id} and {destination} are not "
                    "shuttle-adjacent"
                )
            if destination in dead:
                return (
                    f"zone {destination} is dead (fault model); qubit {qubit} "
                    "cannot shuttle into it"
                )
            return f"shuttle edge {zone_id}-{destination} is severed (fault model)"
        if zone_id in dead:
            return (
                f"zone {zone_id} is dead (fault model); qubit {qubit} cannot "
                "merge into it"
            )
        capacity = machine.zone(zone_id).capacity
        if len(chains[zone_id]) >= capacity:
            return f"zone {zone_id} is full (capacity {capacity})"
        return f"bad merge side {record[3]!r}"
    if kind == K_CHAIN_SWAP:
        zone_id, position = record[1], record[2]
        return (
            f"chain swap position {position} out of range for zone {zone_id} "
            f"(chain length {len(chains[zone_id])})"
        )
    if kind == K_FIBER:
        zone_a, zone_b = record[2], record[3]
        link = _link_error(machine, faults, zone_a, zone_b, "fiber gate")
        if link is not None:
            return link
        qubit_a, qubit_b = gates[record[1]].qubits
        if location[qubit_a] != zone_a:
            return (
                f"fiber gate expects qubit {qubit_a} in zone {zone_a}, "
                f"found {found(qubit_a)}"
            )
        return (
            f"fiber gate expects qubit {qubit_b} in zone {zone_b}, "
            f"found {found(qubit_b)}"
        )
    qubit_a, qubit_b, zone_a, zone_b = record[1:]  # K_SWAP
    for qubit, zone_id in ((qubit_a, zone_a), (qubit_b, zone_b)):
        if location[qubit] != zone_id:
            return f"swap expects qubit {qubit} in zone {zone_id}, found {found(qubit)}"
    if zone_a != zone_b:
        return _link_error(machine, faults, zone_a, zone_b, "remote swap")
    return f"zone {zone_a} cannot execute gates"


def _link_error(machine, faults, zone_a: int, zone_b: int, what: str) -> str | None:
    """Why ``what`` (a fiber gate or remote swap) cannot run between two
    zones, or None when the link is usable."""
    optical_a = machine.zone(zone_a)
    optical_b = machine.zone(zone_b)
    if not (optical_a.allows_fiber and optical_b.allows_fiber):
        if what == "fiber gate":
            return (
                f"fiber gate needs optical zones, got {optical_a.kind.value} "
                f"and {optical_b.kind.value}"
            )
        return "remote swap endpoints must be optical zones"
    if optical_a.module_id == optical_b.module_id:
        return f"{what} endpoints must be in different modules"
    if faults is None:
        return None
    dead = faults.dead_zones
    if zone_a in dead or zone_b in dead:
        return (
            f"optical zone {zone_a if zone_a in dead else zone_b} is dead "
            "(fault model)"
        )
    if faults.blocks_link(optical_a.module_id, optical_b.module_id):
        low, high = sorted((optical_a.module_id, optical_b.module_id))
        return f"optical link {low}-{high} is failed (fault model)"
    return None


def _resolve_params(params) -> PhysicalParams:
    """Accept a :class:`PhysicalParams`, a physics-profile spec string
    (``"table1"``, ``"perfect-gate?heating_rate=0.5"``, ...), or None."""
    if params is None or isinstance(params, PhysicalParams):
        return params or PhysicalParams()
    from ..physics.registry import resolve_physics

    return resolve_physics(params)


def reprice(
    ledger: EventLedger | Program,
    params=None,
    *,
    include_idle_decoherence: bool = False,
) -> ExecutionReport:
    """Price a ledger (or program) under *params* — a
    :class:`~repro.physics.PhysicalParams` or a physics-profile spec
    string.  Passing an :class:`EventLedger` skips re-validation."""
    if isinstance(ledger, Program):
        ledger = replay(ledger)
    return ledger.reprice(
        _resolve_params(params),
        include_idle_decoherence=include_idle_decoherence,
    )


def price_many(
    ledger: EventLedger | Program, profiles
) -> dict[str, ExecutionReport]:
    """Replay once, price under every profile: label -> report.

    *profiles* maps labels to :class:`~repro.physics.PhysicalParams` or
    physics-profile spec strings.  This is the Fig 13 counterfactual in
    API form — N parameter arms cost one legality-checked replay plus N
    pricing folds.
    """
    if isinstance(ledger, Program):
        ledger = replay(ledger)
    return {
        label: ledger.reprice(_resolve_params(params))
        for label, params in dict(profiles).items()
    }
