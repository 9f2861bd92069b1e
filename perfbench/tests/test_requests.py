"""The serve workload's requests come from the seed and nothing else."""

import json

from perfbench import serveload
from perfbench.measure import ROOT
from perfbench.serveload import REPEAT_SHARE, generate

SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def encoded(plan: dict) -> bytes:
    return json.dumps(plan, sort_keys=True).encode()


def repeat_share(requests: list) -> float:
    distinct = {json.dumps(request, sort_keys=True) for request in requests}
    return 1.0 - len(distinct) / len(requests)


def test_same_seed_gives_byte_identical_requests():
    assert encoded(generate(5, SECONDS)) == encoded(generate(5, SECONDS))


def test_another_seed_changes_order_but_keeps_the_distribution():
    first, second = generate(5, SECONDS), generate(6, SECONDS)
    assert first["open"] != second["open"]
    assert first["arrivals"] != second["arrivals"]
    for phase in ("open", "closed"):
        assert len(first[phase]) == len(second[phase])
        assert abs(repeat_share(first[phase]) - REPEAT_SHARE) < 0.01
        assert repeat_share(first[phase]) == repeat_share(second[phase])
        # The same requests (so the same sizes) in another order.
        sent = [sorted(json.dumps(r, sort_keys=True) for r in plan[phase])
                for plan in (first, second)]
        assert sent[0] == sent[1]


def test_open_loop_keeps_the_configured_rate_and_a_tenth_traces():
    plan = generate(9, SECONDS)
    count = len(plan["open"])
    assert count >= serveload.MIN_SAMPLES
    rate = count / plan["arrivals"][-1]
    assert abs(rate - serveload.OPEN_RATE) / serveload.OPEN_RATE < 0.1
    traces = sum(path == "/trace" for path, _ in plan["open"]) / count
    assert 0.05 < traces < 0.15


def test_phases_request_disjoint_jobs():
    plan = generate(3, SECONDS)
    opened = {json.dumps(r, sort_keys=True) for r in plan["open"]}
    closed = {json.dumps(r, sort_keys=True) for r in plan["closed"]}
    assert not opened & closed
