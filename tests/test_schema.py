"""Shared schema validation: the per-schema validator cache and the
stdlib fallback's agreement with ``jsonschema``."""

from __future__ import annotations

import copy
import sys
import threading

import pytest

import repro.schema as schema_module
from repro.bench.micro import BENCH_SCHEMA, validate_payload
from repro.schema import SchemaError, validate, validate_node
from repro.sim import REPORT_SCHEMA, ExecutionReport

REPORT = ExecutionReport(
    circuit_name="GHZ_n8",
    compiler_name="MUSS-TI",
    num_qubits=8,
    shuttle_count=3,
    split_count=2,
    merge_count=2,
    chain_swap_count=0,
    one_qubit_gate_count=1,
    two_qubit_gate_count=7,
    fiber_gate_count=1,
    inserted_swap_count=0,
    remote_swap_count=0,
    execution_time_us=1250.5,
    makespan_us=1250.5,
    log10_fidelity=-0.03,
    zone_heat={0: 1.5, 3: 0.0},
    compile_time_s=0.002,
)

_NAMES = {"workload": "GHZ_n32", "machine": "grid:2x2:12", "compiler": "muss-ti"}

#: One cell for every branch of the BENCH cell ``anyOf``.
BENCH_PAYLOAD = {
    "schema_version": 7,
    "created_utc": "2026-01-01T00:00:00Z",
    "grid": "mixed",
    "repeats": 3,
    "environment": {"python": "3.11.7", "platform": "Linux"},
    "cells": [
        {
            **_NAMES,
            "shuttles": 5,
            "operations": 48,
            "makespan_us": 2505.0,
            "log10_fidelity": -0.08,
            "compile_s": 0.0007,
            "execute_s": 0.0001,
            "total_s": 0.0008,
        },
        {
            **_NAMES,
            "mode": "reprice",
            "shuttles": 0,
            "operations": 8689,
            "makespan_us": 350765.0,
            "log10_fidelity": -146.2,
            "compile_s": 0.14,
            "execute_s": 0.03,
            "total_s": 0.17,
            "profiles": 12,
            "reexecute_s": 0.09,
            "speedup": 3.6,
        },
        {
            **_NAMES,
            "mode": "serve-backpressure",
            "concurrency": 8,
            "requests": 60,
            "errors": 0,
            "rejected": 4,
            "p50_ms": 6.9,
            "p99_ms": 521.6,
            "throughput_rps": 107.8,
        },
        {
            **_NAMES,
            "mode": "fleet",
            "jobs": 40,
            "arrival": "poisson",
            "dropped": 0,
            "throughput_jps": 3.5,
            "utilization": 0.8,
            "p50_wait_ms": 12.0,
            "p99_wait_ms": 80.0,
            "jain": 0.9,
        },
        {
            **_NAMES,
            "mode": "faults",
            "profile": "dead-zones-1",
            "num_faults": 1,
            "pristine_makespan_us": 62605.0,
            "makespan_us": 62605.0,
            "makespan_degradation_pct": 0.0,
            "log10_fidelity_delta": 0.0,
            "recovery_overhead_pct": 4.1,
        },
    ],
}


@pytest.fixture
def no_jsonschema(monkeypatch):
    """Force :func:`repro.schema.validate` onto the stdlib fallback."""
    monkeypatch.setitem(sys.modules, "jsonschema", None)


def _run_threads(worker, count: int = 8) -> list:
    """Run ``worker(index)`` on *count* threads released together, with a
    short switch interval so that unlocked races show; return failures."""
    start = threading.Barrier(count)
    failures = []

    def run(index):
        try:
            start.wait()
            worker(index)
        except Exception as error:  # reported through the return value
            failures.append(error)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return failures


class TestValidatorCache:
    @pytest.fixture
    def check_schema_calls(self, monkeypatch):
        """Empty the cache and record every ``check_schema`` call."""
        jsonschema = pytest.importorskip("jsonschema")
        monkeypatch.setattr(schema_module, "_VALIDATORS", {})
        validator_class = jsonschema.Draft202012Validator
        original = validator_class.check_schema.__func__
        calls = []

        def counting(cls, schema, *args, **kwargs):
            calls.append(schema)
            return original(cls, schema, *args, **kwargs)

        monkeypatch.setattr(validator_class, "check_schema", classmethod(counting))
        return calls

    def test_each_schema_is_meta_checked_once(self, check_schema_calls):
        for _ in range(5):
            ExecutionReport.from_dict(REPORT.to_dict())
            validate_payload(BENCH_PAYLOAD)
        assert len(check_schema_calls) == 2
        assert check_schema_calls[0] is REPORT_SCHEMA
        assert check_schema_calls[1] is BENCH_SCHEMA

    def test_invalid_schema_raises_on_first_use_and_is_not_cached(
        self, check_schema_calls
    ):
        import jsonschema

        broken = {
            "$schema": "https://json-schema.org/draft/2020-12/schema",
            "type": "no-such-type",
        }
        for attempt in (1, 2):
            with pytest.raises(jsonschema.SchemaError):
                validate({}, broken)
            assert len(check_schema_calls) == attempt
        assert id(broken) not in schema_module._VALIDATORS

    def test_cache_is_bounded(self, check_schema_calls):
        schemas = [
            {"type": "integer", "minimum": bound}
            for bound in range(schema_module._MAX_VALIDATORS + 8)
        ]
        for schema in schemas:
            validate(10**6, schema)
        assert len(schema_module._VALIDATORS) == schema_module._MAX_VALIDATORS
        # The oldest entry was dropped, so using it again rebuilds it.
        validate(10**6, schemas[0])
        assert len(check_schema_calls) == len(schemas) + 1

    def test_concurrent_first_use_builds_each_schema_once(self, check_schema_calls):
        def worker(_):
            validate(REPORT.to_dict(), REPORT_SCHEMA)
            validate_payload(BENCH_PAYLOAD)

        assert _run_threads(worker) == []
        assert len(check_schema_calls) == 2

    def test_concurrent_churn_keeps_the_cache_bounded(self, check_schema_calls):
        schemas = [
            {"type": "integer", "minimum": bound}
            for bound in range(schema_module._MAX_VALIDATORS + 8)
        ]

        def worker(index):
            for step in range(len(schemas)):
                validate(10**6, schemas[(5 * index + step) % len(schemas)])
                assert len(schema_module._VALIDATORS) <= schema_module._MAX_VALIDATORS

        assert _run_threads(worker) == []

    @pytest.mark.parametrize(
        ("schema", "payload"),
        [
            (REPORT_SCHEMA, {**REPORT.to_dict(), "shuttle_count": -1}),
            (REPORT_SCHEMA, {**REPORT.to_dict(), "circuit_name": 7}),
            (REPORT_SCHEMA, {**REPORT.to_dict(), "schema_version": True}),
            (REPORT_SCHEMA, {"schema_version": 1}),
            (BENCH_SCHEMA, {**BENCH_PAYLOAD, "cells": [{"workload": "x"}]}),
            (BENCH_SCHEMA, {**BENCH_PAYLOAD, "grid": "nope"}),
        ],
    )
    def test_error_text_matches_jsonschema_validate(self, schema, payload):
        jsonschema = pytest.importorskip("jsonschema")
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(payload, schema)
        # Twice: the first call builds the validator, the second reuses it.
        for _ in range(2):
            with pytest.raises(SchemaError) as got:
                validate(payload, schema)
            assert str(got.value) == str(expected.value)


class TestFallbackJsonEquality:
    @pytest.mark.parametrize("value", [True, False, 1.5, "1"])
    def test_const_rejects_non_equal_json_values(self, value):
        with pytest.raises(SchemaError):
            validate_node(value, {"const": 1})

    @pytest.mark.parametrize("value", [1, 1.0])
    def test_const_accepts_equal_numbers(self, value):
        validate_node(value, {"const": 1})

    def test_enum_tells_bool_from_int(self):
        validate_node(0, {"enum": [0, 1]})
        with pytest.raises(SchemaError):
            validate_node(False, {"enum": [0, 1]})
        with pytest.raises(SchemaError):
            validate_node(1, {"enum": [True]})

    def test_boolean_schema_version_is_rejected(self, no_jsonschema):
        payload = {**REPORT.to_dict(), "schema_version": True}
        with pytest.raises(SchemaError, match="schema_version"):
            ExecutionReport.from_dict(payload)
        with pytest.raises(SchemaError, match="schema_version"):
            validate_payload({**BENCH_PAYLOAD, "schema_version": True})

    def test_fallback_accepts_valid_payloads(self, no_jsonschema):
        assert ExecutionReport.from_dict(REPORT.to_dict()) == REPORT
        validate_payload(BENCH_PAYLOAD)


_MISSING = object()
_WRONG_TYPES = ("text", 7, 2.5, True, None, [], {})


def _accepts(payload, schema) -> bool:
    try:
        validate_node(payload, schema)
    except SchemaError:
        return False
    return True


def _mutations(node, schema, path=()):
    """Yield ``(path, replacement, schema)`` single-field edits of the
    valid *node*; a replacement of ``_MISSING`` deletes the field."""
    for branch in schema.get("anyOf", ()):
        if _accepts(node, branch):
            schema = branch
            break
    if isinstance(node, dict):
        yield path + ("unexpected_field",), 1, {}
        for name, value in node.items():
            sub = schema.get("properties", {}).get(name)
            if sub is None:
                sub = schema["additionalProperties"]
            yield path + (name,), _MISSING, sub
            yield from _mutations(value, sub, path + (name,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _mutations(value, schema["items"], path + (index,))
    if not path:
        return
    for wrong in _WRONG_TYPES:
        yield path, wrong, schema
    if "minimum" in schema:
        yield path, schema["minimum"] - 1, schema
    if "maximum" in schema:
        yield path, schema["maximum"] + 1, schema
    if type(node) is int:
        yield path, float(node), schema


def _apply(payload, path, replacement):
    mutated = copy.deepcopy(payload)
    parent = mutated
    for step in path[:-1]:
        parent = parent[step]
    if replacement is _MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return mutated


class TestFallbackParity:
    """One-directional: the stdlib fallback never accepts a payload that
    ``jsonschema`` rejects.  The one known way it is stricter (integral
    floats for ``integer`` fields) is pinned so it stays the only one."""

    @pytest.mark.parametrize(
        ("schema", "payload"),
        [(REPORT_SCHEMA, REPORT.to_dict()), (BENCH_SCHEMA, BENCH_PAYLOAD)],
        ids=["report", "bench"],
    )
    def test_single_field_mutations(self, schema, payload):
        jsonschema = pytest.importorskip("jsonschema")
        reference = jsonschema.Draft202012Validator(schema)
        assert reference.is_valid(payload) and _accepts(payload, schema)
        rejected = 0
        for path, replacement, field_schema in _mutations(payload, schema):
            mutated = _apply(payload, path, replacement)
            expected = reference.is_valid(mutated)
            actual = _accepts(mutated, schema)
            rejected += not expected
            if expected == actual:
                continue
            label = f"{'.'.join(map(str, path))} := {replacement!r}"
            assert expected, f"fallback accepted what jsonschema rejects: {label}"
            assert (
                isinstance(replacement, float)
                and replacement.is_integer()
                and field_schema.get("type") == "integer"
            ), f"fallback rejected what jsonschema accepts: {label}"
        assert rejected > 100
