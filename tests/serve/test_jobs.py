"""Job parsing and canonicalisation: the service's front door."""

from __future__ import annotations

import json

import pytest

from repro.serve.jobs import (
    DEFAULTS,
    JobError,
    canonical_bytes,
    circuit_fingerprint,
    parse_job,
)
from repro.workloads import get_benchmark


class TestParseJob:
    def test_defaults_fill_omitted_fields(self):
        job = parse_job("compile", {"workload": "GHZ_n8"})
        assert job.machine.startswith("eml")
        assert job.compiler == DEFAULTS["compiler"]
        assert job.physics.startswith("table1")
        assert len(job.circuit_hash) == 32

    def test_machine_spellings_share_a_key(self):
        short = parse_job("compile", {"workload": "GHZ_n8", "machine": "grid:4x4:12"})
        long = parse_job(
            "compile",
            {"workload": "GHZ_n8", "machine": "grid?rows=4&cols=4&capacity=12"},
        )
        assert short.key == long.key

    def test_compiler_option_order_is_canonicalised(self):
        a = parse_job("compile", {"workload": "GHZ_n8", "compiler": "muss-ti?lookahead_k=4"})
        b = parse_job("compile", {"workload": "GHZ_n8", "compiler": "muss-ti?lookahead_k=4"})
        assert a.key == b.key
        assert a.compiler == b.compiler

    def test_key_is_json_and_omits_workload_name(self):
        job = parse_job("compile", {"workload": "GHZ_n8"})
        decoded = json.loads(job.key)
        assert decoded["circuit"] == job.circuit_hash
        assert "workload" not in decoded
        assert "GHZ_n8" not in job.key

    def test_kind_distinguishes_trace_from_compile(self):
        compile_job = parse_job("compile", {"workload": "GHZ_n8"})
        trace_job = parse_job("trace", {"workload": "GHZ_n8"})
        assert compile_job.key != trace_job.key

    def test_to_dict_round_trips_through_json(self):
        job = parse_job("compile", {"workload": "GHZ_n8"})
        echoed = json.loads(json.dumps(job.to_dict()))
        assert echoed["workload"] == "GHZ_n8"
        assert echoed["kind"] == "compile"
        assert echoed["circuit_hash"] == job.circuit_hash


class TestJobErrors:
    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ({"workload": "NoSuchFamily_n8"}, "workload"),
            ({"workload": "GHZ_n8", "machine": "grid:0x0:1"}, "machine"),
            ({"workload": "GHZ_n8", "compiler": "no-such-compiler"}, "compiler"),
            ({"workload": "GHZ_n8", "physics": "no-such-profile"}, "physics"),
            ({"workload": "GHZ_n8", "frobnicate": 1}, "frobnicate"),
            ({"workload": ""}, "workload"),
            ({"workload": 42}, "workload"),
        ],
    )
    def test_bad_fields_raise_tagged_errors(self, payload, field):
        with pytest.raises(JobError) as excinfo:
            parse_job("compile", payload)
        assert excinfo.value.field == field
        assert excinfo.value.message

    def test_oversized_qft_is_a_workload_error(self):
        # Pinned: QFT_n2048 used to raise OverflowError (a 500), not a
        # JobError tagged with its field.
        with pytest.raises(JobError, match="at most 1024 qubits") as excinfo:
            parse_job("compile", {"workload": "QFT_n2048"})
        assert excinfo.value.field == "workload"

    def test_missing_workload_is_a_field_error(self):
        with pytest.raises(JobError) as excinfo:
            parse_job("compile", {})
        assert excinfo.value.field == "workload"

    def test_non_dict_payload_is_a_payload_error(self):
        with pytest.raises(JobError) as excinfo:
            parse_job("compile", ["not", "a", "dict"])
        assert excinfo.value.field is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="unknown job kind"):
            parse_job("transmogrify", {"workload": "GHZ_n8"})


class TestCircuitFingerprint:
    def test_stable_across_regeneration(self):
        assert circuit_fingerprint(get_benchmark("GHZ_n8")) == circuit_fingerprint(
            get_benchmark("GHZ_n8")
        )

    def test_sensitive_to_circuit_content(self):
        assert circuit_fingerprint(get_benchmark("GHZ_n8")) != circuit_fingerprint(
            get_benchmark("GHZ_n16")
        )


class TestCanonicalBytes:
    def test_key_order_does_not_matter(self):
        assert canonical_bytes({"b": 1, "a": 2}) == canonical_bytes({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert b" " not in canonical_bytes({"a": [1, 2], "b": {"c": 3}})
