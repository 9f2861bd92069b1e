"""Fleet bench cells: schema, merging, and the compare guard."""

from __future__ import annotations

import pytest

from repro.bench import merge_payloads, validate_payload
from repro.bench.compare import (
    DEFAULT_MIN_SECONDS,
    compare_payloads,
    guard_metric_for,
    render_comparison,
    worst_regression,
)
from repro.bench.fleet import MIX_LABEL, QUICK_JOBS, run_fleet_bench


@pytest.fixture(scope="module")
def fleet_result(tmp_path_factory):
    cache = tmp_path_factory.mktemp("fleet-cache")
    return run_fleet_bench(jobs=500, cache_dir=str(cache))


class TestRunFleetBench:
    def test_payload_validates_with_one_cell_per_policy(self, fleet_result):
        payload = fleet_result["payload"]
        validate_payload(payload)
        assert payload["grid"] == "fleet"
        compilers = {cell["compiler"] for cell in payload["cells"]}
        assert compilers == {
            "fleet-first-fit", "fleet-best-fit",
            "fleet-priority", "fleet-fair-share",
        }
        for cell in payload["cells"]:
            assert cell["workload"] == MIX_LABEL
            assert cell["mode"] == "fleet"
            assert cell["jobs"] == 500
            assert cell["dropped"] == 0

    def test_quick_caps_the_job_count(self, tmp_path):
        result = run_fleet_bench(
            jobs=1_000_000, quick=True, cache_dir=str(tmp_path)
        )
        assert result["payload"]["cells"][0]["jobs"] == QUICK_JOBS

    def test_merges_with_micro_style_payload(self, fleet_result):
        other = {
            "schema_version": 4,
            "created_utc": "2026-01-01T00:00:00Z",
            "grid": "micro",
            "repeats": 3,
            "environment": {"python": "3.11", "platform": "test"},
            "cells": [
                {
                    "workload": "GHZ_n32",
                    "machine": "eml",
                    "compiler": "muss-ti",
                    "compile_s": 1.0,
                    "execute_s": 2.0,
                    "total_s": 3.0,
                    "operations": 10,
                    "shuttles": 2,
                    "makespan_us": 100.0,
                    "log10_fidelity": -0.5,
                }
            ],
        }
        merged = merge_payloads(other, fleet_result["payload"])
        validate_payload(merged)
        assert merged["grid"] == "mixed"
        assert len(merged["cells"]) == 5


class TestCompareFleetCells:
    def test_guard_judges_p99_wait(self, fleet_result):
        old = fleet_result["payload"]
        new = {**old, "cells": [dict(cell) for cell in old["cells"]]}
        for cell in new["cells"]:
            cell["p99_wait_ms"] = cell["p99_wait_ms"] * 2 + 100.0
        rows = compare_payloads(old, new)
        assert all(row["status"] == "matched" for row in rows)
        worst, worst_key = worst_regression(rows)
        assert worst is not None and worst > 0
        assert guard_metric_for(worst_key) == "p99_wait_ms"
        assert "Fleet comparison" in render_comparison(rows)

    def test_different_job_counts_never_match(self, fleet_result):
        old = fleet_result["payload"]
        new = {**old, "cells": [dict(cell) for cell in old["cells"]]}
        for cell in new["cells"]:
            cell["jobs"] = cell["jobs"] * 2
        rows = compare_payloads(old, new)
        assert all(row["status"] in ("new", "gone") for row in rows)

    def test_sub_floor_regression_is_judged(self):
        # Waits come from simulated makespans, so a 15 ms -> 30 ms tail is
        # a real change, not timer noise: the 50 ms floor must not hide it.
        old = {
            "schema_version": 7,
            "created_utc": "2026-01-01T00:00:00Z",
            "grid": "fleet",
            "repeats": 1,
            "environment": {"python": "3.11", "platform": "test"},
            "cells": [
                {
                    "workload": MIX_LABEL,
                    "machine": "eml:16:2",
                    "compiler": "fleet-first-fit",
                    "mode": "fleet",
                    "jobs": QUICK_JOBS,
                    "arrival": "poisson",
                    "dropped": 0,
                    "throughput_jps": 50.0,
                    "utilization": 0.8,
                    "p50_wait_ms": 2.0,
                    "p99_wait_ms": 15.0,
                    "jain": 0.99,
                }
            ],
        }
        new = {**old, "cells": [{**old["cells"][0], "p99_wait_ms": 30.0}]}
        worst, key = worst_regression(
            compare_payloads(old, new), min_seconds=DEFAULT_MIN_SECONDS
        )
        assert worst == pytest.approx(100.0)
        assert key[2] == "fleet-first-fit"
