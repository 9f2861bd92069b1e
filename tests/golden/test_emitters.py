"""Emitter corpus: every compiler's Table 2 / Fig 6 programs, byte for byte.

The differential oracle (``tests/differential/``) pins MUSS-TI against a
frozen reference; this corpus pins everything else that emits ops — the
three grid baselines and the MUSS-TI ablation arms — on the cells the
paper's Table 2 and Fig 6 compile, plus each baseline on a faulted grid
(a dead zone and a severed edge), MUSS-TI on an EML machine under two
fault profiles (``mixed-1`` prices a degraded entangler), and two
two-tenant :func:`~repro.multiprog.pack_batch` merges.  Each entry
stores the sha256 of the canonical program bytes with the shuttle
count, makespan and log10 fidelity, so a diff reads as numbers; a cell
that raises stores its error instead.

Regenerate after an *intentional* schedule change with::

    pytest tests/golden/test_emitters.py --update-goldens

and review the diff: it should touch only the cells the change meant to.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from faulted import machine_for
from program_bytes import program_bytes

from repro.analysis.experiments import fig6, table2
from repro.analysis.runs import benchmark_circuit
from repro.core import RoutingError
from repro.hardware import MachineError
from repro.multiprog import BatchJob, pack_batch
from repro.pipeline import resolve_compiler
from repro.sim import execute

CORPUS = Path(__file__).parent / "data" / "emitters.json"

#: Every registered MUSS-TI-family arm runs wherever MUSS-TI does.
MUSS_TI_ARMS = ("muss-ti", "trivial", "sabre", "swap-insert")

#: A grid the baselines do not know is degraded: zone 4 is dead and the
#: 0-1 junction is cut, so routes between zones 0 and 1 go the long way
#: round and any distance query to zone 4 raises the machine's error.
FAULTED_GRID = "grid:3x3:16?dead_zones=4&severed_edges=0-1"
FAULTED_APPS = ("QFT_n16", "QFT_n32")
BASELINES = ("murali", "dai", "mqt")

#: MUSS-TI on an EML machine under fault profiles, as ``spec|profile``:
#: ``mixed-1`` kills a storage zone, fails a link and degrades an
#: entangler; ``dead-zones-2`` kills two storage zones.
FAULTED_EML = tuple(
    f"eml?capacity=4&modules=4|{profile}" for profile in ("mixed-1", "dead-zones-2")
)

#: One admission round packing two tenants: as CI's fleet smoke runs it
#: (no shuttles), and on smaller traps, where both tenants shuttle.
BATCH_CELLS = (
    ("pack_batch", "GHZ_n16+QFT_n16", "eml:16:2"),
    ("pack_batch", "GHZ_n16+QFT_n16", "eml?capacity=8&modules=4"),
)


def _paper_cells() -> list[tuple[str, str, str]]:
    """``(compiler, app, machine)`` for the cells table2/fig6 compile."""
    cells = [
        (spec["compiler"], spec["app"], f"small:{spec['grid']}")
        for spec in table2.cells()
    ]
    for spec in fig6.cells():
        scale = spec["scale"]
        if scale == "small":
            machine = "small:2x2"
        elif spec["compiler"] == "muss-ti":
            machine = "eml_for"
        else:
            rows, cols = fig6.SCALES[scale]["grid"]
            machine = f"grid:{rows}x{cols}:16"
        cells.append((spec["compiler"], spec["app"], machine))
    return cells


def corpus_cells() -> list[tuple[str, str, str]]:
    cells: list[tuple[str, str, str]] = []
    for compiler, app, machine in _paper_cells():
        arms = MUSS_TI_ARMS if compiler == "muss-ti" else (compiler,)
        cells.extend((arm, app, machine) for arm in arms)
    cells.extend(
        (compiler, app, FAULTED_GRID)
        for app in FAULTED_APPS
        for compiler in BASELINES
    )
    cells.extend(
        ("muss-ti", app, machine) for app in FAULTED_APPS for machine in FAULTED_EML
    )
    cells.extend(BATCH_CELLS)
    return list(dict.fromkeys(cells))


def _compile(compiler: str, app: str, machine_label: str):
    if compiler == "pack_batch":
        jobs = [BatchJob(name, name) for name in app.split("+")]
        return pack_batch(jobs, machine_label).program
    circuit = benchmark_circuit(app)
    machine = machine_for(machine_label, circuit)
    return resolve_compiler(compiler).compile(circuit, machine)


def _entry(compiler: str, app: str, machine_label: str) -> dict:
    try:
        program = _compile(compiler, app, machine_label)
    except (MachineError, RoutingError) as error:  # a failure is pinned too
        return {"error": f"{type(error).__name__}: {error}"}
    report = execute(program)
    return {
        "sha256": hashlib.sha256(program_bytes(program)).hexdigest(),
        "shuttles": report.shuttle_count,
        "makespan_us": report.makespan_us,
        "log10_fidelity": report.log10_fidelity,
    }


def test_emitter_corpus(update_goldens: bool) -> None:
    actual = {" ".join(cell): _entry(*cell) for cell in corpus_cells()}
    if update_goldens:
        CORPUS.write_text(json.dumps(actual, indent=1) + "\n", encoding="utf-8")
        return
    assert CORPUS.exists(), (
        f"{CORPUS} missing - run `pytest tests/golden/test_emitters.py "
        f"--update-goldens` once and commit the result"
    )
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    changed = sorted(
        key for key in expected.keys() | actual.keys()
        if expected.get(key) != actual.get(key)
    )
    assert not changed, (
        f"{len(changed)} emitter cell(s) changed: "
        + "; ".join(
            f"{key}: {expected.get(key)} -> {actual.get(key)}" for key in changed
        )
    )
