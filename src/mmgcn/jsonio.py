"""The one JSON reader and schema check for every file the program reads: the
run and ``synth`` configs, ``manifest.json`` and ``checkpoint.json``, plus
``prefixed``, which names the file or field behind a value another check
rejects.

A schema is built from plain values.  A dict is an object whose keys are the
only fields it may hold; a list is a list of its first element's schema.  A
type, or a tuple of types (``type(None)`` admits null), is a required value.
A tuple of types and one other value is a value of those types or of that
value's, which is the default; any other value is a default of its own type.
An omitted object or list takes its schema's defaults, or is missing if the
schema requires a field.  An integer is also a float, a boolean is never a
number, and NaN and Infinity are never accepted.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

_REQUIRED = object()  # the default of a schema that requires a value
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", type(None): "null"}


def read_json(path):
    """The parsed JSON file at ``path``; a file that cannot be read or holds
    invalid JSON raises ``ValueError`` naming the path."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def checked(value, schema, name: str):
    """``value`` with each omitted optional field set to its default; raises
    ``ValueError`` naming the dotted path, from ``name``, of the first field
    of the wrong type, else of the first missing field, else of the first
    unknown field."""
    errors = {}
    result = _check(value, schema, name, errors)
    for kind in ("type", "missing", "unknown"):
        if kind in errors:
            raise ValueError(errors[kind])
    return result


def prefixed(prefix: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with ``prefix`` put before the message of
    any ``ValueError`` it raises: the path of the file or field the values
    came from."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from exc


def _default(schema):
    if isinstance(schema, dict):
        filled = {key: _default(sub) for key, sub in schema.items()}
        return _REQUIRED if any(v is _REQUIRED for v in filled.values()) else filled
    if isinstance(schema, list):
        return _REQUIRED if _default(schema[0]) is _REQUIRED else copy.deepcopy(schema)
    if isinstance(schema, tuple):
        return next((s for s in schema if not isinstance(s, type)), _REQUIRED)
    return _REQUIRED if isinstance(schema, type) else schema


def _check(value, schema, path: str, errors: dict):
    """``value`` along ``schema``, keeping the first error of each kind."""
    if isinstance(schema, (dict, list)) and type(value) is not type(schema):
        kind = "an object" if isinstance(schema, dict) else "a list"
        errors.setdefault("type", f"{path} must be {kind}, got {value!r}")
    elif isinstance(schema, dict):
        result = {}
        for key, sub in schema.items():
            if key in value:
                result[key] = _check(value[key], sub, f"{path}.{key}", errors)
            else:
                result[key] = _default(sub)
                if result[key] is _REQUIRED:
                    errors.setdefault("missing", f"missing field {path}.{key}")
        for key in value:
            if key not in schema:
                errors.setdefault("unknown", f"unknown field {path}.{key}")
        return result
    elif isinstance(schema, list):
        return [_check(item, schema[0], f"{path}[{idx}]", errors)
                for idx, item in enumerate(value)]
    else:
        kinds = list(dict.fromkeys(s if isinstance(s, type) else type(s)
                                   for s in (schema if isinstance(schema, tuple) else (schema,))))
        if (type(value) not in kinds and not (type(value) is int and float in kinds)
                or type(value) is float and not math.isfinite(value)):
            expected = " or ".join(_KIND_NAMES[kind] for kind in kinds)
            errors.setdefault("type", f"{path} must be {expected}, got {value!r}")
    return value
