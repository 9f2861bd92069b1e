"""Canonical byte serialization of compiled programs, shared by the
differential oracle and the emitter corpus."""

from __future__ import annotations

import json

from repro.sim.trace import program_to_records


def program_bytes(program) -> bytes:
    """Canonical byte serialization of a compiled program.

    ``program_to_records`` flattens every op with its resource-model
    timing, so two equal byte strings mean equal schedules *and* equal
    derived timelines.
    """
    payload = {
        "compiler": program.compiler_name,
        "initial_placement": {
            str(zone): list(chain)
            for zone, chain in sorted(program.initial_placement.items())
        },
        "final_placement": {
            str(zone): list(chain)
            for zone, chain in sorted(program.final_placement.items())
        },
        "metadata": dict(sorted(program.metadata.items())),
        "operations": program_to_records(program),
    }
    return json.dumps(payload, sort_keys=True).encode()
