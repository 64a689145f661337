"""Run configuration: JSON loading, schema validation, defaults.

A run config is a plain JSON object.  Unknown keys anywhere are errors (the
validator names them), so typos cannot silently disable a stage.  A summary
file produced by an earlier run is also accepted as a config: the embedded
``config`` object is extracted, which makes reruns round-trip exactly.

``SCHEMA`` is a Draft 2020-12 JSON Schema, checked by :func:`describe_errors`,
which implements exactly the keywords ``SCHEMA`` uses, with jsonschema's
messages and paths.  Two rules are stricter than the draft: an ``integer`` is
an ``int`` (10.0 is refused), and a ``number`` is finite (NaN, Infinity and
1e400, which ``json`` reads as inf, are refused).
"""

from __future__ import annotations

import copy
import json

from .errors import ConfigError
from .problems import available_problems, finite_number

__all__ = ["SCHEMA", "DEFAULTS", "load_config", "validate_config",
           "resolve_config", "describe_errors"]

_NUM = {"type": "number"}
_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_NONNEG_INT = {"type": "integer", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_BOOL = {"type": "boolean"}


def _default(schema: dict, value) -> dict:
    """``schema`` with its JSON Schema ``default`` annotation."""
    return {**schema, "default": value}


SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["problem"],
    "properties": {
        # the one config version; any other is refused by name
        "schema_version": _default({"const": 1}, 1),
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["id"],
            "properties": {
                "id": {"type": "string"},
                "parameters": {"type": "object", "default": {}},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lo": _NUM,
                "hi": _NUM,
                "h": _POS_NUM,
                "dt": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "cfl_safety": _default(_POS_NUM, 1.0),
            },
        },
        "equations": {
            "type": "array",
            "items": {"enum": ["lower", "upper"]},
            "minItems": 1,
            "uniqueItems": True,
            "default": ["lower", "upper"],
        },
        "simulate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "start_time": {"type": "number", "minimum": 0, "default": 0.0},
                "start_state": {"type": "array", "items": _NUM, "minItems": 1},
                "n_paths": {"type": "integer", "minimum": 2, "default": 4000},
                "n_steps": _POS_INT,
                "chunk_size": _default(_POS_INT, 8192),
                "dump_paths": _default(_BOOL, False),
            },
        },
        "strategies": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "decision_counts": {
                    "type": "array", "items": _POS_INT, "minItems": 1,
                    "uniqueItems": True, "default": [2, 4, 8, 16],
                },
            },
        },
        "adversaries": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_random": _default(_NONNEG_INT, 3),
                "random_segments": _default(_POS_INT, 8),
                "include_feedback": _default(_BOOL, True),
                "include_best_response": _default(_BOOL, True),
            },
        },
        "experiments": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "value": _default(_BOOL, True),
                "filtration": _default(_BOOL, True),
                "dpp": _default(_BOOL, False),
                "embedding": _default(_BOOL, False),
                "hamiltonian": _default(_BOOL, True),
            },
        },
        "dpp": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rules": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["kind"],
                        "properties": {
                            "kind": {"enum": ["fixed_time", "first_exit"]},
                            "t": _NUM,
                            "level": _POS_NUM,
                        },
                    },
                    "default": [{"kind": "fixed_time"},
                                {"kind": "first_exit", "level": 1.0}],
                },
            },
        },
        "embedding": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"n_seeds": _default(_POS_INT, 5)},
        },
        "hamiltonian": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_queries": _default(_POS_INT, 2000),
                "gradient_scale": _default(_POS_NUM, 3.0),
                "curvature_scale": _default(_POS_NUM, 3.0),
            },
        },
        "assumptions": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": _default(_BOOL, True),
                "n_samples": _default(_POS_INT, 2000),
                "slack": {"type": "number", "minimum": 0, "default": 0.05},
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pde_sup": _default(_POS_NUM, 1e-2),
                "value_abs": _default(_POS_NUM, 0.03),
                "filtration_abs": _default(_POS_NUM, 0.02),
                "dpp_abs": _default(_POS_NUM, 2e-2),
                # retired: nothing reads it; accepted and ignored on load, so an
                # older summary that carries it still reloads and reruns
                "mc_abs": _POS_NUM,
                "se_multiplier": _default(_POS_NUM, 3.0),
                "monotonicity_se_multiplier": _default(_POS_NUM, 1.0),
                "hamiltonian_slack": _default(_POS_NUM, 1e-8),
            },
        },
        "seed": _default(_NONNEG_INT, 0),
        "threads": _default(_POS_INT, 1),
        "output_dir": {"type": ["string", "null"], "default": None},
    },
}


def _defaults_of(schema: dict) -> dict:
    """Every ``default`` under an object schema's properties, nested as the keys
    are; an object property without one contributes its own defaults, if any."""
    out = {}
    for key, prop in schema.get("properties", {}).items():
        if "default" in prop:
            out[key] = copy.deepcopy(prop["default"])
        elif nested := _defaults_of(prop):
            out[key] = nested
    return out


DEFAULTS = _defaults_of(SCHEMA)


def load_config(path: str) -> dict:
    """Parse a config file; a summary file is unwrapped to its embedded config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot be read: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if "config" in data and "checks" in data:
        # a previous run's summary: rerun it from the resolved config it embeds
        data = data["config"]
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: embedded config must be a JSON object")
    return data


# ------------------------------------------------------ schema checker ---- #
# One function per keyword of SCHEMA, each yielding (path, message) pairs
# with jsonschema's message for that keyword; ``path`` is a tuple of keys and
# indexes.  A keyword that is not in _KEYWORDS fails loudly (KeyError).

_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "null": type(None)}


def _is_type(value, name: str) -> bool:
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return finite_number(value)
    return isinstance(value, _JSON_TYPES[name])


def _equal(a, b) -> bool:
    """JSON equality as jsonschema has it: booleans are not numbers, 1 == 1.0."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _type(types, value, path, schema):
    names = [types] if isinstance(types, str) else types
    if not any(_is_type(value, name) for name in names):
        if "number" in names and isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path, f"{value!r} is not a finite number"
        else:
            yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"


def _properties(properties, value, path, schema):
    if isinstance(value, dict):
        for key, sub in properties.items():
            if key in value:
                yield from _check(sub, value[key], path + (key,))


def _additional_properties(allowed, value, path, schema):
    # SCHEMA uses only the boolean form
    if isinstance(value, dict) and not allowed:
        extras = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield path, (f"Additional properties are not allowed "
                         f"({', '.join(map(repr, extras))} {verb} unexpected)")


def _required(required, value, path, schema):
    if isinstance(value, dict):
        for key in required:
            if key not in value:
                yield path, f"{key!r} is a required property"


def _const(const, value, path, schema):
    if not _equal(value, const):
        yield path, f"{const!r} was expected"


def _enum(enum, value, path, schema):
    if not any(_equal(value, each) for each in enum):
        yield path, f"{value!r} is not one of {enum!r}"


def _items(items, value, path, schema):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _check(items, item, path + (i,))


def _min_items(count, value, path, schema):
    if isinstance(value, list) and len(value) < count:
        yield path, f"{value!r} {'should be non-empty' if count == 1 else 'is too short'}"


def _unique_items(unique, value, path, schema):
    if unique and isinstance(value, list) and any(
            _equal(a, b) for i, a in enumerate(value) for b in value[i + 1:]):
        yield path, f"{value!r} has non-unique elements"


def _minimum(bound, value, path, schema):
    if finite_number(value) and value < bound:
        yield path, f"{value!r} is less than the minimum of {bound!r}"


def _exclusive_minimum(bound, value, path, schema):
    if finite_number(value) and value <= bound:
        yield path, f"{value!r} is less than or equal to the minimum of {bound!r}"


def _annotation(arg, value, path, schema):
    return ()


_KEYWORDS = {
    "type": _type, "properties": _properties, "additionalProperties": _additional_properties,
    "required": _required, "const": _const, "enum": _enum, "items": _items,
    "minItems": _min_items, "uniqueItems": _unique_items, "minimum": _minimum,
    "exclusiveMinimum": _exclusive_minimum, "default": _annotation, "$schema": _annotation,
}


def _check(schema: dict, value, path: tuple):
    for keyword, arg in schema.items():
        yield from _KEYWORDS[keyword](arg, value, path, schema)


def describe_errors(data: dict) -> list[str]:
    """All schema violations as readable strings with JSON paths, by path."""
    out = []
    for path, message in sorted(_check(SCHEMA, data, ()), key=lambda e: e[0]):
        where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        out.append(f"{where}: {message}")
    return out


def _merge_defaults(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_defaults(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def validate_config(data: dict) -> None:
    """Schema plus semantic checks; raises ConfigError listing every problem."""
    errors = describe_errors(data)
    if not errors:
        pid = data["problem"]["id"]
        known = available_problems()
        if pid not in known:
            errors.append(f"$.problem.id: unknown problem {pid!r}; "
                          f"available: {', '.join(known)}")
        for i, rule in enumerate(data.get("dpp", {}).get("rules", [])):
            if rule.get("kind") == "first_exit" and "level" not in rule:
                errors.append(f"$.dpp.rules[{i}]: first_exit needs a 'level'")
        grid = data.get("grid", {})
        if "lo" in grid and "hi" in grid and not grid["lo"] < grid["hi"]:
            errors.append("$.grid: lo must be strictly below hi")
    if errors:
        raise ConfigError(errors)


def resolve_config(data: dict) -> dict:
    """Validated config merged over the defaults.

    Problem-level defaults (grid extent, step counts) are filled in later by
    the runner, once the problem object exists; resolution here is pure and
    idempotent, so a resolved config validates and resolves to itself.
    """
    validate_config(data)
    resolved = _merge_defaults(DEFAULTS, data)
    validate_config(resolved)
    return resolved
