"""Schedule executor: prices an op stream under a physical model.

:func:`execute` replays a :class:`~repro.sim.program.Program` against its
machine — any machine resolved from a registry spec string
(``"eml:16:2"``, ``"grid:2x2:12"``...) or lowered from a declarative
:class:`~repro.hardware.ArchitectureSpec` — validating every op's
legality, and prices the replay under §4's model: Eq. 1 for trap ops,
``1-εN²`` for local 2q gates, 0.99 for fiber gates, everything
multiplied by the background fidelity ``B_i = exp(-k·heat_i)`` of the
zone(s) involved.

This module is a thin front door over :mod:`repro.sim.events`:
``execute(program, params)`` is exactly ``replay(program).reprice(params)``
— one legality-checked replay of the program's packed records producing
an :class:`~repro.sim.events.EventLedger`, then one pricing fold.  Keep
the ledger around to price the *same* replay under many parameter sets
(:meth:`~repro.sim.events.EventLedger.reprice`,
:func:`~repro.sim.events.price_many`) without re-validating — the Fig 13
perfect-gate / perfect-shuttle counterfactuals in API form.  The pricing
tables themselves live in :mod:`repro.sim.events` and nowhere else.
"""

from __future__ import annotations

from ..physics import PhysicalParams
from .events import ExecutionError, replay
from .metrics import ExecutionReport
from .program import Program

__all__ = ["ExecutionError", "execute"]


def execute(
    program: Program,
    params: PhysicalParams | None = None,
    *,
    include_idle_decoherence: bool = False,
) -> ExecutionReport:
    """Replay and price a program; raises :class:`ExecutionError` on any
    illegal op.

    ``include_idle_decoherence`` additionally charges pure T1 decay for each
    qubit's idle time (makespan minus its busy time).  Off by default: with
    the paper's T1 = 600 s the term is negligible, and the paper's §4 model
    charges decay per operation only.
    """
    return replay(program).reprice(
        params, include_idle_decoherence=include_idle_decoherence
    )
