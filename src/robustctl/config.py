"""Run configuration: JSON loading, schema validation, defaults.

A run config is a plain JSON object.  Unknown keys anywhere are errors (the
validator names them), so typos cannot silently disable a stage.  A summary
file produced by an earlier run is also accepted as a config: the embedded
``config`` object is extracted, which makes reruns round-trip exactly.
"""

from __future__ import annotations

import copy
import json
import os

import jsonschema

from .errors import ConfigError
from .problems import available_problems

__all__ = ["SCHEMA", "DEFAULTS", "load_config", "validate_config",
           "resolve_config", "describe_errors"]

_NUM = {"type": "number"}
_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_NONNEG_INT = {"type": "integer", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_BOOL = {"type": "boolean"}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["problem"],
    "properties": {
        "schema_version": _POS_INT,
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["id"],
            "properties": {
                "id": {"type": "string"},
                "parameters": {"type": "object"},
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
                "cfl_safety": _POS_NUM,
            },
        },
        "equations": {
            "type": "array",
            "items": {"enum": ["lower", "upper"]},
            "minItems": 1,
            "uniqueItems": True,
        },
        "simulate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "start_time": {"type": "number", "minimum": 0},
                "start_state": {"type": "array", "items": _NUM, "minItems": 1},
                "n_paths": {"type": "integer", "minimum": 2},
                "n_steps": _POS_INT,
                "chunk_size": _POS_INT,
                "dump_paths": _BOOL,
            },
        },
        "strategies": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "decision_counts": {
                    "type": "array", "items": _POS_INT, "minItems": 1,
                    "uniqueItems": True,
                },
            },
        },
        "adversaries": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_random": _NONNEG_INT,
                "random_segments": _POS_INT,
                "include_feedback": _BOOL,
                "include_best_response": _BOOL,
            },
        },
        "experiments": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "value": _BOOL,
                "filtration": _BOOL,
                "dpp": _BOOL,
                "embedding": _BOOL,
                "hamiltonian": _BOOL,
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
                },
            },
        },
        "embedding": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"n_seeds": _POS_INT},
        },
        "hamiltonian": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_queries": _POS_INT,
                "gradient_scale": _POS_NUM,
                "curvature_scale": _POS_NUM,
            },
        },
        "assumptions": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": _BOOL,
                "n_samples": _POS_INT,
                "slack": {"type": "number", "minimum": 0},
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pde_sup": _POS_NUM,
                "value_abs": _POS_NUM,
                "filtration_abs": _POS_NUM,
                "dpp_abs": _POS_NUM,
                "mc_abs": _POS_NUM,
                "se_multiplier": _POS_NUM,
                "monotonicity_se_multiplier": _POS_NUM,
                "hamiltonian_slack": _POS_NUM,
            },
        },
        "seed": _NONNEG_INT,
        "threads": _POS_INT,
        "output_dir": {"type": ["string", "null"]},
    },
}

DEFAULTS = {
    "schema_version": 1,
    "problem": {"parameters": {}},
    "grid": {"cfl_safety": 1.0},
    "equations": ["lower", "upper"],
    "simulate": {
        "start_time": 0.0,
        "n_paths": 4000,
        "chunk_size": 8192,
        "dump_paths": False,
    },
    "strategies": {"decision_counts": [2, 4, 8, 16]},
    "adversaries": {
        "n_random": 3,
        "random_segments": 8,
        "include_feedback": True,
        "include_best_response": True,
    },
    "experiments": {
        "value": True,
        "filtration": True,
        "dpp": False,
        "embedding": False,
        "hamiltonian": True,
    },
    "dpp": {"rules": [{"kind": "fixed_time"}, {"kind": "first_exit", "level": 1.0}]},
    "embedding": {"n_seeds": 5},
    "hamiltonian": {"n_queries": 2000, "gradient_scale": 3.0, "curvature_scale": 3.0},
    "assumptions": {"enabled": True, "n_samples": 2000, "slack": 0.05},
    "tolerances": {
        "pde_sup": 1e-2,
        "value_abs": 0.03,
        "filtration_abs": 0.02,
        "dpp_abs": 2e-2,
        "mc_abs": 5e-3,
        "se_multiplier": 3.0,
        "monotonicity_se_multiplier": 1.0,
        "hamiltonian_slack": 1e-8,
    },
    "seed": 0,
    "threads": 1,
    "output_dir": None,
}


def load_config(path: str) -> dict:
    """Parse a config file; a summary file is unwrapped to its embedded config."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
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


def describe_errors(data: dict) -> list[str]:
    """All schema violations as readable strings with JSON paths."""
    validator = jsonschema.Draft202012Validator(SCHEMA)
    out = []
    for err in sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path)):
        where = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path)
        out.append(f"{where}: {err.message}")
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
