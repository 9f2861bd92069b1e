"""The benchmark sees a slower layer on the workload that runs it, and only there.

Each test wraps one public call the harness reaches with calibrated extra
work (a busy wait twice as long as the call itself took) and checks that
``compile_s`` rises by more than its bound in ``BENCHMARK.json`` on the
workload the layer dominates, and stays within the bound on a workload
that never calls it.
"""

import json
import random
import time

import pytest

import repro
from perfbench import harness
from perfbench.measure import ROOT

BOUND = {
    metric["name"]: metric["bound"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}["compile_s"]


@pytest.fixture(scope="module")
def prepared():
    return {workload: harness.setup(workload) for workload in ("paper", "scale")}


def compare(prepared: harness.Prepared, patch, rounds: int = 2) -> tuple[float, float]:
    """``compile_s`` without and with ``patch`` applied, passes alternating.

    Alternating keeps the two sides on the same host conditions; the host's
    speed drifts over minutes.
    """
    plain = harness.CompileRun(prepared, random.Random(0))
    patched = harness.CompileRun(prepared, random.Random(0))
    for _ in range(rounds):
        plain.timed_pass()
        with pytest.MonkeyPatch.context() as monkeypatch:
            patch(monkeypatch)
            patched.timed_pass()
    assert plain.failed == patched.failed == 0
    return plain.summary()["compile_s"], patched.summary()["compile_s"]


def slowed(function, calls: list):
    """``function`` followed by a busy wait twice as long as the call took."""

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        result = function(*args, **kwargs)
        deadline = time.perf_counter() + 2 * (time.perf_counter() - started)
        while time.perf_counter() < deadline:
            pass
        calls.append(1)
        return result

    return wrapper


def test_slower_sabre_warmup_shows_on_scale(prepared):
    calls: list = []
    # sabre_placement runs both warm-ups through MussTiCompiler.compile;
    # the final compile goes through the pass pipeline directly.
    slow_warmups = slowed(repro.MussTiCompiler.compile, calls)
    base, slow = compare(
        prepared["scale"],
        lambda monkeypatch: monkeypatch.setattr(repro.MussTiCompiler, "compile", slow_warmups),
    )
    assert len(calls) == 2 * 2 * len(prepared["scale"].cells)
    assert slow > base * (1 + BOUND)


def test_slower_dai_shows_on_paper_and_not_on_scale(prepared):
    calls: list = []
    slow_dai = slowed(repro.DaiCompiler.compile, calls)

    def patch(monkeypatch):
        monkeypatch.setattr(repro.DaiCompiler, "compile", slow_dai)

    base_scale, slow_scale = compare(prepared["scale"], patch)
    assert not calls
    assert slow_scale <= base_scale * (1 + BOUND)
    base_paper, slow_paper = compare(prepared["paper"], patch)
    assert len(calls) == 2 * sum(cell.compiler == "dai" for cell in prepared["paper"].cells)
    assert slow_paper > base_paper * (1 + BOUND)
