"""Shared benchmark configuration.

Every benchmark regenerates one table/figure of the paper via the
:mod:`repro.bench` sweep engine.  Experiments are deterministic, so a
single round measures the real cost; shape assertions on the returned
rows double as integration checks of the paper's claims.

All files under ``benchmarks/`` are auto-marked ``bench`` and ``slow`` so
the fast tier-1 job can deselect them (``-m "not bench"``) while a
dedicated CI job runs them.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

from repro.bench import sweep

_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # This hook sees the whole session's items, not just this directory's.
    for item in items:
        if _BENCH_DIR in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.bench)
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def sweep_once(benchmark):
    """Run one experiment through the sweep engine, timed, cache off.

    Benchmarks must measure the real cost of every cell, so the on-disk
    result cache is disabled; the engine still provides the cell
    decomposition and row assembly the production runner uses.

    Objects left alive by earlier tests are frozen out of the garbage
    collector for the run: otherwise a full collection over that foreign
    heap can land inside one cell's timed compile (~0.1 s after the whole
    tier-1 suite, several times a millisecond-scale cell's own cost).
    """

    def runner(experiment: str, **kwargs):
        kwargs.setdefault("use_cache", False)
        gc.collect()
        gc.freeze()
        try:
            result = benchmark.pedantic(
                sweep, args=(experiment,), kwargs=kwargs, rounds=1, iterations=1
            )
        finally:
            gc.unfreeze()
        return result.rows

    return runner
