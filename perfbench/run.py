#!/usr/bin/env python3
"""The repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {paper,scale,serve} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (self time per layer, work counts and the tracing overhead).
Every metric is printed by name with its unit, followed by one JSON
line ``{"correct", "attempted", "failed", "metrics"}`` as the last line
of standard output.  Per-cell outputs, per-phase counts and the span
dump go under ``.perfbench-work/``.

Workloads (why each exists is recorded in ``BENCHMARK.json``):

* ``paper`` — the 102 (application, machine, compiler) cells of Table 2
  and Fig 6, each compiled and executed once per pass;
* ``scale`` — MUSS-TI alone on four large circuits over tight-trap EMLs;
* ``serve`` — ``repro serve --jobs 1`` driven over two HTTP connections,
  an open-loop phase at a fixed rate then a closed-loop phase.

End-to-end metrics on ``paper`` and ``scale``: ``compile_s`` and
``execute_s`` are one pass's compile (from the benchmark name) and
execute wall time, summed over cells of each cell's median across the
run's passes; ``p50_ms``/``p99_ms`` are quantiles over cells of a
cell's median compile + execute time; ``throughput_rps`` is cells per
second of a pass.  On ``serve``: ``p50_ms``/``p99_ms`` are open-loop
latencies from each request's due time; ``throughput_rps`` is the
closed-loop completion rate; ``compile_s`` sums the server's
``execute`` spans (worker compile + pricing) over the open-loop misses;
``execute_s`` sums the server's event-loop busy spans (parse and encode)
over all open-loop requests.  On every workload: ``setup_s`` is
the median of several set-ups from process start; ``peak_rss_mb`` is the
high-water RSS of the timed calls (on ``paper`` and ``scale`` a pass's,
median across passes; on ``serve`` of the server and its worker); ``shuttles``, ``makespan_us`` and ``neg_log10_fidelity`` sum
the deterministic schedule quality over the distinct cells or jobs;
``success_ratio`` is (attempted - failed) / attempted.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.measure import WORK_DIR, median  # noqa: E402

WORKLOADS = ("paper", "scale", "serve")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_specs() -> dict:
    """Metric name -> unit, per kind, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {entry["name"]: entry["unit"] for entry in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def time_setup(workload: str) -> float:
    """Median wall time of fresh processes doing the workload's set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload],
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - started)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed ({probe.returncode})")
    return median(samples)


def run_passes(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while another fits in ``seconds``."""
    started = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now - started + longest > seconds:
            return


def run_compile_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import harness
    from perfbench.spans import SpanRecorder

    setup_s = None if trace else time_setup(workload)
    prepared = harness.setup(workload)
    run = harness.CompileRun(prepared, random.Random(seed))
    if not trace:
        run_passes(seconds, run.timed_pass)
        metrics = dict(run.summary(), setup_s=setup_s)
    else:
        recorder = SpanRecorder()
        counts: Counter = Counter()

        def both() -> None:
            run.timed_pass()
            run.traced_pass(recorder, counts)

        run_passes(seconds, both)
        metrics = harness.layer_metrics(run, recorder, counts)
        recorder.write(WORK_DIR / f"spans-{workload}-seed{seed}.jsonl")
    print(
        f"cell runs: attempted {run.attempted}, succeeded {run.attempted - run.failed}, "
        f"failed {run.failed}; {run.passes} untraced passes, so p50/p99 are over "
        f"{len(prepared.cells)} cells, each the median of {run.passes} samples"
    )
    return {
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "detail": {"passes": run.passes, "cells": run.detail()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    specs = metric_specs()
    kind = "per_layer" if args.trace else "end_to_end"
    if args.workload == "serve":
        from perfbench import serveload

        result = serveload.run(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_compile_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    metrics = result["metrics"]
    if args.trace:
        # Layers the workload never reaches did no work.
        metrics = dict(dict.fromkeys(specs[kind], 0.0), **metrics)
    else:
        metrics["success_ratio"] = (result["attempted"] - result["failed"]) / result["attempted"]
    if set(metrics) != set(specs[kind]):
        raise RuntimeError(
            f"metric set mismatch: missing {sorted(set(specs[kind]) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(specs[kind]))}"
        )
    detail_path = WORK_DIR / f"detail-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.parent.mkdir(parents=True, exist_ok=True)
    detail_path.write_text(json.dumps(result["detail"], indent=1, default=str))
    for name, unit in specs[kind].items():
        print(f"{name:<28} {metrics[name]:>16.6f} {unit}")
    print(f"attempted {result['attempted']}, failed {result['failed']}; detail: {detail_path}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in specs[kind].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
