"""Shared JSON-schema validation with a stdlib fallback.

Every JSON artifact this repository emits — the ``BENCH_*.json``
microbenchmark payloads (:data:`repro.bench.micro.BENCH_SCHEMA`) and the
:meth:`repro.sim.ExecutionReport.to_dict` report payloads
(:data:`repro.sim.metrics.REPORT_SCHEMA`) — is validated against a JSON
Schema before it is written and after it is read back.  ``jsonschema``
is used when installed; otherwise :func:`validate_node` provides an
equivalent structural check for the subset of the spec those schemas
use (``const`` and ``enum`` with scalar values, ``type``, ``required``,
``properties``, ``additionalProperties`` as ``False`` or a value schema,
``items``, ``minItems``, ``minLength``, ``minimum``, ``maximum``,
``anyOf``), keeping the package itself stdlib-only.

With ``jsonschema``, each schema's validator is built once per process:
the schema is meta-checked against its draft on first use and the
validator is cached, keyed on the schema object (so a schema must not be
mutated after it is first used).  Every payload is still checked in full,
and accept/reject verdicts and error text are exactly those of
``jsonschema.validate``.

The fallback never accepts a payload ``jsonschema`` rejects.  It is
stricter in one known way on JSON input: an ``integer`` field rejects
integral floats such as ``3.0``, which draft 2020-12 counts as integers.
(It also rejects a NaN against a ``minimum``/``maximum``; standard JSON
cannot carry NaN.)  ``const`` and ``enum`` compare JSON values, so
``true`` never equals ``1``.
"""

from __future__ import annotations

import threading
from typing import Any

#: Most validators kept at once; the oldest is dropped beyond this.
_MAX_VALIDATORS = 32

#: ``id(schema) -> (schema, validator)``.  Holding the schema keeps its
#: id from being reused by another object while the entry lives.
_VALIDATORS: dict[int, tuple[dict, Any]] = {}
_LOCK = threading.Lock()


class SchemaError(ValueError):
    """A payload does not conform to its declared JSON schema."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _json_equal(left: Any, right: Any) -> bool:
    """Scalar JSON equality: numbers compare by value, but a boolean
    never equals a number (Python's ``True == 1`` does not apply)."""
    return left == right and isinstance(left, bool) == isinstance(right, bool)


def _check_bounds(value: Any, schema: dict, path: str) -> None:
    minimum = schema.get("minimum")
    if minimum is not None:
        _check(value >= minimum, f"{path}: {value} < minimum {minimum}")
    maximum = schema.get("maximum")
    if maximum is not None:
        _check(value <= maximum, f"{path}: {value} > maximum {maximum}")


def validate_node(value: Any, schema: dict, path: str = "$") -> None:
    """Structurally validate *value* against the supported schema subset.

    Raises :class:`SchemaError` with a ``$.path.to.field`` location on the
    first violation.
    """
    if "anyOf" in schema:
        first_error: SchemaError | None = None
        for branch in schema["anyOf"]:
            try:
                validate_node(value, branch, path)
                return
            except SchemaError as error:
                if first_error is None:
                    first_error = error
        raise SchemaError(
            f"{path}: matches none of the {len(schema['anyOf'])} allowed "
            f"forms (first failure: {first_error})"
        )
    if "const" in schema:
        _check(
            _json_equal(value, schema["const"]), f"{path}: expected {schema['const']!r}"
        )
        return
    if "enum" in schema:
        _check(
            any(_json_equal(value, option) for option in schema["enum"]),
            f"{path}: expected one of {schema['enum']!r}, got {value!r}",
        )
        return
    kind = schema.get("type")
    if kind == "object":
        _check(isinstance(value, dict), f"{path}: expected object")
        for name in schema.get("required", ()):
            _check(name in value, f"{path}: missing required field {name!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties")
        if additional is False:
            for name in value:
                _check(name in properties, f"{path}: unexpected field {name!r}")
        elif isinstance(additional, dict):
            for name, element in value.items():
                if name not in properties:
                    validate_node(element, additional, f"{path}.{name}")
        for name, sub in properties.items():
            if name in value:
                validate_node(value[name], sub, f"{path}.{name}")
    elif kind == "array":
        _check(isinstance(value, list), f"{path}: expected array")
        _check(
            len(value) >= schema.get("minItems", 0),
            f"{path}: expected at least {schema.get('minItems', 0)} item(s)",
        )
        items = schema.get("items")
        if items:
            for index, element in enumerate(value):
                validate_node(element, items, f"{path}[{index}]")
    elif kind == "string":
        _check(isinstance(value, str), f"{path}: expected string")
        _check(
            len(value) >= schema.get("minLength", 0), f"{path}: string too short"
        )
    elif kind == "integer":
        _check(
            isinstance(value, int) and not isinstance(value, bool),
            f"{path}: expected integer",
        )
        _check_bounds(value, schema, path)
    elif kind == "number":
        _check(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{path}: expected number",
        )
        _check_bounds(value, schema, path)
    elif kind == "boolean":
        _check(isinstance(value, bool), f"{path}: expected boolean")


def _validator(jsonschema, schema: dict):
    """The cached ``jsonschema`` validator of *schema*, built on first use.

    Building runs ``check_schema``, so an invalid schema raises
    ``jsonschema.SchemaError`` here and is never cached.
    """
    with _LOCK:
        entry = _VALIDATORS.get(id(schema))
        if entry is None:
            cls = jsonschema.validators.validator_for(schema)
            cls.check_schema(schema)
            if len(_VALIDATORS) >= _MAX_VALIDATORS:
                del _VALIDATORS[next(iter(_VALIDATORS))]
            entry = _VALIDATORS[id(schema)] = (schema, cls(schema))
    return entry[1]


def validate(payload: Any, schema: dict) -> None:
    """Raise :class:`SchemaError` unless *payload* conforms to *schema*.

    Uses ``jsonschema`` when installed (the same check as
    ``jsonschema.validate``, through a validator built once per schema),
    otherwise the built-in :func:`validate_node` structural check.
    """
    try:
        import jsonschema
    except ImportError:
        validate_node(payload, schema, "$")
        return
    validator = _validator(jsonschema, schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(payload))
    if error is not None:
        raise SchemaError(str(error)) from error
