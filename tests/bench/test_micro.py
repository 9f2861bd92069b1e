"""Microbenchmark suite: grid declaration, schema validation, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import micro
from repro.cli import main
from repro.hardware import parse_machine_spec
from repro.schema import validate_node


class TestMicroGrid:
    def test_grid_spans_the_scale_axis(self):
        kinds = {parse_machine_spec(cell["machine"])[0] for cell in micro.MICRO_GRID}
        # Tentpole coverage: small grid through ring/chain/star up to EML.
        assert {"grid", "ring", "chain", "star", "eml"} <= kinds

    def test_grid_reaches_64_modules(self):
        options = [
            parse_machine_spec(cell["machine"])[1] for cell in micro.MICRO_GRID
        ]
        assert any(opts.get("modules") == 64 for opts in options)

    def test_cells_canonicalise_machines(self):
        for cell in micro.micro_cells():
            from repro.hardware import canonical_machine_spec

            assert cell["machine"] == canonical_machine_spec(cell["machine"])

    def test_filter_selects_subset(self):
        cells = micro.micro_cells("workload=GHZ_n32")
        assert cells and all(cell["workload"] == "GHZ_n32" for cell in cells)

    def test_empty_filter_rejected(self):
        with pytest.raises(ValueError, match="selected no micro cells"):
            micro.run_micro(repeats=1, cell_filter="workload=NoSuchThing")

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            micro.run_micro(repeats=0)


class TestCellDedupe:
    """Cell identity goes through resolved-machine canonicalisation —
    equivalent spec spellings never produce duplicate grid rows."""

    def test_committed_grid_has_no_duplicate_cells(self):
        cells = micro.micro_cells()
        keys = [
            (
                cell["workload"],
                micro._resolved_machine_key(cell["workload"], cell["machine"]),
                cell["compiler"],
                cell.get("mode", "compile-execute"),
            )
            for cell in cells
        ]
        assert len(keys) == len(set(keys))
        # The two QFT_n128 spellings name genuinely different machines
        # (4 modules × capacity 64 vs 64 modules × capacity 4), so both
        # survive dedupe.
        assert len(cells) == len(micro.MICRO_GRID)

    def test_equivalent_spellings_collapse(self, monkeypatch):
        # "eml" sized by QFT_n64 resolves to the same machine as the
        # pinned spelling; explicit defaults and key order collapse too.
        pinned = micro._resolved_machine_key("QFT_n64", "eml")
        grid = (
            {"workload": "QFT_n64", "machine": "eml", "compiler": "muss-ti"},
            {"workload": "QFT_n64", "machine": pinned, "compiler": "muss-ti"},
            {
                "workload": "QFT_n64",
                "machine": pinned + "&operation=1",
                "compiler": "muss-ti",
            },
        )
        monkeypatch.setattr(micro, "MICRO_GRID", grid)
        cells = micro.micro_cells()
        assert len(cells) == 1
        assert cells[0]["machine"] == "eml"  # first spelling wins

    def test_distinct_workloads_do_not_collapse(self, monkeypatch):
        grid = (
            {"workload": "QFT_n32", "machine": "eml", "compiler": "muss-ti"},
            {"workload": "QFT_n64", "machine": "eml", "compiler": "muss-ti"},
        )
        monkeypatch.setattr(micro, "MICRO_GRID", grid)
        assert len(micro.micro_cells()) == 2

    def test_mode_distinguishes_cells(self, monkeypatch):
        grid = (
            {"workload": "QFT_n32", "machine": "eml", "compiler": "muss-ti"},
            {
                "workload": "QFT_n32",
                "machine": "eml",
                "compiler": "muss-ti",
                "mode": "reprice",
            },
        )
        monkeypatch.setattr(micro, "MICRO_GRID", grid)
        assert len(micro.micro_cells()) == 2


class TestScaleGridAndSchemaV7:
    def test_grid_reaches_256_modules_and_n1024(self):
        workloads = {cell["workload"] for cell in micro.MICRO_GRID}
        assert {"QFT_n512", "QFT_n1024"} <= workloads
        from repro.hardware import parse_machine_spec

        options = [
            parse_machine_spec(cell["machine"])[1] for cell in micro.MICRO_GRID
        ]
        assert any(opts.get("modules") == 256 for opts in options)

    def test_grid_workloads_stay_in_schema_enum(self):
        plain = [cell for cell in micro.MICRO_GRID if "mode" not in cell]
        assert {cell["workload"] for cell in plain} <= set(micro.MICRO_WORKLOADS)

    def test_schema_v7_rejects_unknown_micro_workload(self):
        payload = _micro_payload([_timing_cell(workload="Bogus_n5")])
        with pytest.raises(micro.BenchSchemaError):
            micro.validate_payload(payload)

    def test_schema_v6_payloads_still_accepted(self):
        payload = _micro_payload([_timing_cell()])
        payload["schema_version"] = 6
        micro.validate_payload(payload)


class TestJobsAndProfile:
    def test_jobs_payload_matches_serial_modulo_timings(self):
        import copy

        def masked(payload: dict) -> str:
            clone = copy.deepcopy(payload)
            clone["created_utc"] = "X"
            clone["environment"] = {}
            for cell in clone["cells"]:
                for key in ("compile_s", "execute_s", "total_s",
                            "reexecute_s", "speedup"):
                    cell.pop(key, None)
            return json.dumps(clone, sort_keys=True)

        serial = micro.run_micro(repeats=1, cell_filter="workload=QFT_n32")
        parallel = micro.run_micro(
            repeats=1, cell_filter="workload=QFT_n32", jobs=2
        )
        assert len(serial["cells"]) == 2
        assert masked(serial) == masked(parallel)

    def test_profile_sink_receives_each_cell(self):
        reports: list[tuple[dict, str]] = []
        micro.run_micro(
            repeats=1,
            cell_filter="workload=GHZ_n32",
            profile_sink=lambda cell, text: reports.append((cell, text)),
        )
        assert len(reports) == 1
        cell, text = reports[0]
        assert cell["workload"] == "GHZ_n32"
        assert "cumulative" in text and "function calls" in text

    def test_cli_profile_flag_prints_report(self, tmp_path, capsys):
        code = main(
            [
                "bench", "micro", "--quick", "--quiet", "--profile",
                "--output", str(tmp_path / "BENCH_p.json"),
                "--filter", "workload=GHZ_n32",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "[micro profile] GHZ_n32" in err and "cumulative" in err


class TestRepriceCell:
    def test_grid_carries_a_reprice_cell(self):
        modes = [cell.get("mode") for cell in micro.MICRO_GRID]
        assert "reprice" in modes

    def test_reprice_profiles_resolve_and_span_the_counterfactuals(self):
        from repro.physics import resolve_physics

        assert len(micro.REPRICE_PROFILES) >= 12
        for spec in micro.REPRICE_PROFILES:
            resolve_physics(spec)  # does not raise
        assert {"perfect-gate", "perfect-shuttle"} <= {
            spec.split("?")[0] for spec in micro.REPRICE_PROFILES
        }

    @pytest.fixture(scope="class")
    def reprice_payload(self):
        return micro.run_micro(repeats=1, cell_filter="mode=reprice")

    def test_reprice_cell_records_both_arms(self, reprice_payload):
        payload = reprice_payload
        micro.validate_payload(payload)
        (row,) = payload["cells"]
        assert row["mode"] == "reprice"
        assert row["profiles"] == len(micro.REPRICE_PROFILES)
        assert row["execute_s"] > 0 and row["reexecute_s"] > 0
        assert row["speedup"] > 0
        # compile_s/execute_s/total_s round independently to 6 decimals.
        assert row["total_s"] == pytest.approx(
            row["compile_s"] + row["execute_s"], abs=2e-6
        )

    def test_reprice_render_mentions_speedup(self, reprice_payload):
        text = micro.render(reprice_payload)
        assert "replay-once/price-many" in text
        assert "[reprice]" in text


class TestPayloadSchema:
    @pytest.fixture(scope="class")
    def payload(self):
        return micro.run_micro(repeats=1, cell_filter="workload=GHZ_n32")

    def test_run_micro_emits_schema_valid_payload(self, payload):
        micro.validate_payload(payload)  # does not raise

    def test_payload_validates_under_jsonschema_when_available(self, payload):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(payload, micro.BENCH_SCHEMA)

    def test_builtin_validator_matches_jsonschema_verdicts(self, payload):
        """The stdlib fallback must reject what jsonschema rejects."""
        import copy

        bad_payloads = []
        missing = copy.deepcopy(payload)
        del missing["cells"]
        bad_payloads.append(missing)
        wrong_type = copy.deepcopy(payload)
        wrong_type["cells"][0]["compile_s"] = "fast"
        bad_payloads.append(wrong_type)
        negative = copy.deepcopy(payload)
        negative["cells"][0]["shuttles"] = -1
        bad_payloads.append(negative)
        extra = copy.deepcopy(payload)
        extra["cells"][0]["vibes"] = "good"
        bad_payloads.append(extra)
        empty = copy.deepcopy(payload)
        empty["cells"] = []
        bad_payloads.append(empty)
        stale = copy.deepcopy(payload)
        stale["schema_version"] = 99
        bad_payloads.append(stale)
        for bad in bad_payloads:
            with pytest.raises(micro.BenchSchemaError):
                validate_node(bad, micro.BENCH_SCHEMA, "$")

    def test_write_payload_round_trips(self, payload, tmp_path):
        path = micro.write_payload(payload, tmp_path / "BENCH_test.json")
        reloaded = json.loads(path.read_text())
        micro.validate_payload(reloaded)
        assert reloaded["cells"] == payload["cells"]

    def test_write_payload_rejects_invalid(self, tmp_path):
        with pytest.raises(micro.BenchSchemaError):
            micro.write_payload({"schema_version": 1}, tmp_path / "x.json")

    def test_render_mentions_every_cell(self, payload):
        text = micro.render(payload)
        for cell in payload["cells"]:
            assert cell["workload"] in text

    def test_default_output_path_is_dated(self, tmp_path):
        path = micro.default_output_path(tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"


class TestMicroCli:
    def test_quick_run_writes_schema_valid_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_cli.json"
        code = main(
            [
                "bench",
                "micro",
                "--quick",
                "--quiet",
                "--output",
                str(out),
                "--filter",
                "workload=GHZ_n32",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        micro.validate_payload(payload)
        assert payload["repeats"] == 1
        stdout = capsys.readouterr().out
        assert "schema-valid" in stdout and "GHZ_n32" in stdout

    def test_bad_filter_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["bench", "micro", "--quick", "--quiet", "--filter", "workload=Nope"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

def _micro_payload(cells: list[dict], grid: str = "micro") -> dict:
    return {
        "schema_version": 3,
        "created_utc": "2026-08-08T00:00:00Z",
        "grid": grid,
        "repeats": 1,
        "environment": {"python": "3.12.0", "platform": "test"},
        "cells": cells,
    }


def _timing_cell(**overrides) -> dict:
    cell = {
        "workload": "GHZ_n32",
        "machine": "grid:2x2:12",
        "compiler": "muss-ti",
        "compile_s": 1.0,
        "execute_s": 0.5,
        "total_s": 1.5,
        "operations": 100,
        "shuttles": 5,
        "makespan_us": 1000.0,
        "log10_fidelity": -1.0,
    }
    cell.update(overrides)
    return cell


def _serve_cell(**overrides) -> dict:
    cell = {
        "workload": "mix:compile+trace",
        "machine": "mix",
        "compiler": "mix",
        "mode": "serve-cold",
        "concurrency": 8,
        "requests": 60,
        "errors": 0,
        "p50_ms": 5.0,
        "p99_ms": 20.0,
        "throughput_rps": 400.0,
    }
    cell.update(overrides)
    return cell


class TestSchemaV3:
    def test_serve_cells_validate(self):
        micro.validate_payload(_micro_payload([_serve_cell()], grid="serve"))

    def test_mixed_payload_validates(self):
        micro.validate_payload(
            _micro_payload([_timing_cell(), _serve_cell()], grid="mixed")
        )

    def test_hybrid_cell_rejected(self):
        # A cell mixing timing and serve fields matches neither branch.
        broken = _serve_cell()
        del broken["p99_ms"]
        with pytest.raises(micro.BenchSchemaError):
            micro.validate_payload(_micro_payload([broken], grid="serve"))

    def test_serve_mode_enum_enforced(self):
        with pytest.raises(micro.BenchSchemaError):
            micro.validate_payload(
                _micro_payload([_serve_cell(mode="serve-lukewarm")], grid="serve")
            )

    def test_older_schema_versions_still_accepted(self):
        payload = _micro_payload([_timing_cell()])
        for version in (1, 2):
            payload["schema_version"] = version
            micro.validate_payload(payload)


class TestCellFamilies:
    def test_each_family_schema_admits_exactly_its_modes(self):
        for family in micro.CELL_FAMILIES:
            enum = family.schema["properties"]["mode"]["enum"]
            optional = "mode" not in family.schema["required"]
            assert optional == (micro.DEFAULT_MODE in family.modes)
            assert enum == [mode for mode in family.modes if mode != micro.DEFAULT_MODE]


class TestMergePayloads:
    def test_appends_new_cells_and_mixes_grids(self):
        base = _micro_payload([_timing_cell()])
        new = _micro_payload([_serve_cell()], grid="serve")
        merged = micro.merge_payloads(base, new)
        assert merged["grid"] == "mixed"
        assert len(merged["cells"]) == 2
        micro.validate_payload(merged)

    def test_replaces_matching_cells(self):
        base = _micro_payload([_serve_cell(p50_ms=5.0)], grid="serve")
        new = _micro_payload([_serve_cell(p50_ms=9.0)], grid="serve")
        merged = micro.merge_payloads(base, new)
        assert len(merged["cells"]) == 1
        assert merged["cells"][0]["p50_ms"] == 9.0
        assert merged["grid"] == "serve"

    def test_keeps_unmatched_base_cells_in_order(self):
        base = _micro_payload(
            [_timing_cell(), _timing_cell(workload="QFT_n64")]
        )
        new = _micro_payload([_timing_cell(workload="QFT_n64", total_s=9.0)])
        merged = micro.merge_payloads(base, new)
        assert [cell["workload"] for cell in merged["cells"]] == [
            "GHZ_n32",
            "QFT_n64",
        ]
        assert merged["cells"][1]["total_s"] == 9.0

    def test_mode_distinguishes_cells(self):
        base = _micro_payload([_serve_cell(mode="serve-cold")], grid="serve")
        new = _micro_payload([_serve_cell(mode="serve-warm")], grid="serve")
        merged = micro.merge_payloads(base, new)
        assert len(merged["cells"]) == 2

    def test_invalid_inputs_rejected(self):
        with pytest.raises(micro.BenchSchemaError):
            micro.merge_payloads({"schema_version": 3}, _micro_payload([_timing_cell()]))
