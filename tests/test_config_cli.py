"""Config schema, the run orchestrator, and the command-line surface.

The orchestrator tests run real (tiny) experiments: a cheap grid, a few
hundred paths.  The one identity worth paying for is that a summary is a
pure function of (config, seed, command) with execution details stripped,
which is what makes reruns and thread sweeps byte-comparable.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from conftest import estimate_cell
import robustctl.config as config
import robustctl.game_engine as ge
import robustctl.pde_solver as pde_solver
import robustctl.runner as runner
from robustctl.cli import main
from robustctl.config import (DEFAULTS, SCHEMA, describe_errors, load_config,
                              resolve_config, validate_config)
from robustctl.errors import ConfigError
from robustctl.pde_solver import (FeedbackMap, SpaceTimeGrid, ValueField, make_grid,
                                  solve_isaacs)
from robustctl.problems import build_problem
from robustctl.reports import emit_report, format_cell, summary_to_json
from robustctl.runner import COMMANDS, Checks, _finish, run_experiment, write_result
from robustctl.sde_core import derive_seed, derive_seed_array
from robustctl.strategies import (AbsRegion, CappedRule, FixedTimeRule, HittingRule,
                                  ReplayControl)

CHEAP_PENNIES = {
    "problem": {"id": "pennies"},
    "grid": {"h": 0.2},
    "simulate": {"n_paths": 200, "n_steps": 32},
    "strategies": {"decision_counts": [2, 4]},
    "adversaries": {"n_random": 1, "random_segments": 4},
    "hamiltonian": {"n_queries": 100},
}


def cheap_constant(**overrides) -> dict:
    cfg = {"problem": {"id": "constant"},
           "simulate": {"n_paths": 64},
           "hamiltonian": {"n_queries": 50}}
    cfg.update(overrides)
    return cfg


# ------------------------------------------------------------------ schema ---- #


def test_resolution_is_idempotent():
    resolved = resolve_config({"problem": {"id": "constant"}})
    assert resolved["simulate"]["n_paths"] == 4000
    assert resolved["tolerances"]["value_abs"] == 0.03
    assert resolve_config(resolved) == resolved


def test_validation_and_a_single_worker_run_load_neither_jsonschema_nor_multiprocessing():
    # a fresh interpreter: this one has loaded both; a two-worker table still
    # forks its workers and gives the single-worker summary
    script = textwrap.dedent("""
        import os, sys
        import robustctl, robustctl.cli
        from robustctl.config import resolve_config
        from robustctl.reports import summary_to_json
        from robustctl.runner import run_experiment
        cfg = {"problem": {"id": "pennies"}, "grid": {"h": 0.2},
               "simulate": {"n_paths": 64, "n_steps": 16, "chunk_size": 32},
               "strategies": {"decision_counts": [2]},
               "adversaries": {"n_random": 1, "random_segments": 4}}
        resolve_config(cfg)
        run_experiment(cfg, command="validate")
        one = run_experiment(cfg, command="simulate", threads=1)
        loaded = [m for m in ("jsonschema", "multiprocessing") if m in sys.modules]
        assert not loaded, loaded
        forks, fork = [], os.fork
        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid
        os.fork = counted_fork
        two = run_experiment(cfg, command="simulate", threads=2)
        assert len(forks) == 2, forks
        assert summary_to_json(two.summary) == summary_to_json(one.summary)
    """)
    src = str(Path(ge.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr


def _subschemas(schema: dict):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_the_checker_implements_every_keyword_the_schema_uses():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    used = set().union(*(sub.keys() for sub in _subschemas(SCHEMA)))
    assert used <= set(config._KEYWORDS)
    # the checker reads additionalProperties only in its boolean form
    assert all(type(sub["additionalProperties"]) is bool
               for sub in _subschemas(SCHEMA) if "additionalProperties" in sub)
    # a keyword it does not implement is not passed over
    with pytest.raises(KeyError, match="anyOf"):
        list(config._check({"anyOf": [{"type": "string"}]}, 1, ()))


_KEY = hs.text(alphabet="abxyz_", min_size=1, max_size=3)
_SCALAR = hs.one_of(hs.none(), hs.booleans(), hs.integers(-3, 12), hs.floats(),
                    hs.text(max_size=3))
_JSON = hs.recursive(_SCALAR, lambda inner: hs.lists(inner, max_size=3)
                     | hs.dictionaries(_KEY, inner, max_size=3), max_leaves=6)


def _mostly(good, bad):
    """``good`` nine times in ten, else ``bad``."""
    return hs.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


def _near(schema: dict):
    """Values aimed at ``schema``: mostly valid, and invalid now and then at any depth."""
    if "const" in schema:
        return _mostly(hs.just(schema["const"]), _SCALAR)
    if "enum" in schema:
        return _mostly(hs.sampled_from(schema["enum"]), _SCALAR)
    types = schema["type"]
    shaped = []
    for name in [types] if isinstance(types, str) else types:
        if name == "object" and "properties" in schema:
            props = schema["properties"]
            required = schema.get("required", [])
            fields = hs.fixed_dictionaries(
                {k: _near(props[k]) for k in required},
                optional={k: _near(sub) for k, sub in props.items() if k not in required})
            # an unknown key, or a required key dropped
            broken = hs.tuples(fields, hs.dictionaries(_KEY, _SCALAR, max_size=2),
                               hs.sampled_from([None, *required])).map(
                lambda t: {k: v for k, v in {**t[1], **t[0]}.items() if k != t[2]})
            shaped.append(_mostly(fields, broken))
        elif name == "object":
            shaped.append(hs.dictionaries(_KEY, _JSON, max_size=2))
        elif name == "array":
            items = _near(schema["items"])
            # the broken lists may be short or repeat an item
            shaped.append(_mostly(
                hs.lists(items, min_size=schema.get("minItems", 0), max_size=4,
                         unique=schema.get("uniqueItems", False)),
                hs.lists(items, max_size=3).flatmap(
                    lambda xs: hs.just(xs + xs[:1]) | hs.just(xs))))
        elif name == "integer":
            shaped.append(hs.integers(schema.get("minimum", -3), 8))
        elif name == "number":
            lo = schema.get("minimum", schema.get("exclusiveMinimum", -5))
            shaped.append(hs.integers(lo, 8) | hs.floats(lo, 8, exclude_min=True).filter(
                lambda x: not x.is_integer()))
        else:
            shaped.append({"string": hs.text(max_size=3), "boolean": hs.booleans(),
                           "null": hs.none()}[name])
    return _mostly(hs.one_of(shaped), _SCALAR)


def _where(path) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def _oracle_errors(data) -> list[str]:
    errors = jsonschema.Draft202012Validator(SCHEMA).iter_errors(data)
    return [f"{_where(e.absolute_path)}: {e.message}"
            for e in sorted(errors, key=lambda e: list(e.absolute_path))]


def _strict_rule_paths(value, path=()):
    """Where the two stricter rules may part from the draft: every integral or
    non-finite float, and every array that holds a non-finite one (NaN is
    unequal to itself, and jsonschema finds duplicates by sorting)."""
    if isinstance(value, float) and not (math.isfinite(value) and not value.is_integer()):
        yield _where(path)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _strict_rule_paths(item, path + (key,))
    elif isinstance(value, list):
        if any(isinstance(v, float) and not math.isfinite(v) for v in value):
            yield _where(path)
        for i, item in enumerate(value):
            yield from _strict_rule_paths(item, path + (i,))


@settings(max_examples=400, deadline=None)
@given(_near(SCHEMA))
# a boolean is not the number 1, nor a duplicate of it; 1.0 is
@example({"problem": {"id": "x"}, "schema_version": True})
@example({"problem": {"id": "x"}, "schema_version": 1.0})
@example({"problem": {"id": "x"}, "strategies": {"decision_counts": [1, True]}})
@example({"problem": {"id": "x"}, "strategies": {"decision_counts": [2, 2.0]}})
def test_the_checker_agrees_with_jsonschema(data):
    mine, oracle = describe_errors(data), _oracle_errors(data)
    exempt = set(_strict_rule_paths(data))
    if not exempt:
        assert mine == oracle
    else:
        def paths(msgs):
            return {m.split(": ", 1)[0] for m in msgs} - exempt
        assert paths(mine) == paths(oracle)


def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigError, match="strategys"):
        resolve_config({"problem": {"id": "constant"}, "strategys": {}})


def test_unknown_nested_key_is_named():
    with pytest.raises(ConfigError, match="n_path"):
        resolve_config({"problem": {"id": "constant"},
                        "simulate": {"n_path": 10}})


def test_repeated_decision_counts_are_refused():
    # equal counts would give two ladder rows one label
    with pytest.raises(ConfigError, match="decision_counts"):
        resolve_config({"problem": {"id": "constant"},
                        "strategies": {"decision_counts": [4, 4]}})


def test_error_descriptions_carry_json_paths():
    msgs = describe_errors({"problem": {"id": 3}, "seed": -1})
    paths = [m.split(":")[0] for m in msgs]
    assert "$.problem.id" in paths
    assert "$.seed" in paths


def test_semantic_checks_collect_everything():
    bad = {"problem": {"id": "not_a_benchmark"},
           "grid": {"lo": 1.0, "hi": -1.0},
           "dpp": {"rules": [{"kind": "first_exit"}]}}
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    text = str(err.value)
    assert "not_a_benchmark" in text and "available" in text
    assert "lo must be strictly below hi" in text
    assert "first_exit needs a 'level'" in text


def test_retired_mc_abs_is_accepted_and_ignored_on_load(tmp_path):
    # nothing reads tolerances.mc_abs: a fresh summary no longer carries it,
    # and a summary written while it had a default (0.005) reruns to its bytes
    fresh = run_experiment(cheap_constant(), command="run", seed=5)
    assert "mc_abs" not in fresh.summary["config"]["tolerances"]
    older = json.loads(summary_to_json(fresh.summary))
    older["config"]["tolerances"]["mc_abs"] = 0.005
    path = tmp_path / "summary.json"
    path.write_text(summary_to_json(older))
    assert '"mc_abs": 0.005,' in path.read_text()
    rerun = run_experiment(load_config(str(path)), command="run")
    assert summary_to_json(rerun.summary) == path.read_text()


def test_only_schema_version_one_is_accepted(tmp_path, capsys):
    assert resolve_config({"problem": {"id": "constant"}})["schema_version"] == 1
    for version in (2, 0, True, "1"):
        with pytest.raises(ConfigError, match=r"\$\.schema_version"):
            resolve_config({"problem": {"id": "constant"}, "schema_version": version})
    cfg = write_cfg(tmp_path, {**cheap_constant(), "schema_version": 2})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "$.schema_version" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_config_unwraps_a_summary(tmp_path):
    inner = {"problem": {"id": "constant"}, "seed": 7}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"config": inner, "checks": [], "exit_code": 0}))
    assert load_config(str(path)) == inner

    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(missing))

    bad = tmp_path / "bad.json"
    bad.write_text("{\"problem\": ")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(bad))

    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(listy))


def test_unreadable_config_files_are_named(tmp_path, capsys):
    # a directory, bytes that are not UTF-8, and a path through a file
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"problem": {"id": "\xff"}}')
    (tmp_path / "afile").write_text("{}")
    for path, why in ((tmp_path, "cannot be read: Is a directory"), (binary, "not UTF-8"),
                      (tmp_path / "afile" / "config.json", "cannot be read: Not a directory")):
        with pytest.raises(ConfigError, match=why):
            load_config(str(path))
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err and why in err
    assert not (tmp_path / "out").exists()


def test_an_integer_past_the_digit_limit_is_named(tmp_path, capsys):
    # json.loads raises a bare ValueError, not a JSONDecodeError, for an
    # integer literal longer than Python's int conversion limit
    path = tmp_path / "config.json"
    path.write_text('{"problem": {"id": "constant"}, "seed": ' + "7" * 5000 + "}")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err and "digits" in err
    assert not (tmp_path / "out").exists()


def test_an_n_paths_whose_table_cannot_fit_is_named(tmp_path, capsys, monkeypatch):
    # 10**30 paths used to pass the schema and end, after the solves, in a
    # bare numpy ValueError with exit 1; the table's size is checked against
    # physical memory before the assumption gate and the solves
    def too_late(*args, **kwargs):
        raise AssertionError("ran past the size check")

    monkeypatch.setattr(runner, "validate_assumptions", too_late)
    monkeypatch.setattr(runner, "_solve_stage", too_late)
    path = write_cfg(tmp_path, cheap_constant(simulate={"n_paths": 10 ** 30}))
    for command in ("simulate", "compare", "dpp-check"):
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: $.simulate.n_paths: ") and str(10 ** 30) in err
    assert not (tmp_path / "out").exists()
    # a run that marches no table is not refused
    monkeypatch.undo()
    assert main(["hamiltonian-report", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_an_n_steps_whose_noise_panel_cannot_fit_is_named(tmp_path, capsys, monkeypatch):
    # 10**30 steps used to run the gate and the solve, then end in numpy's
    # casting error from the ladder's linspace with exit 1; a chunk's noise
    # panel is checked against physical memory before the gate and the solves
    def too_late(*args, **kwargs):
        raise AssertionError("ran past the noise panel's size check")

    monkeypatch.setattr(runner, "validate_assumptions", too_late)
    monkeypatch.setattr(runner, "_solve_stage", too_late)
    off = {name: False for name in ("value", "filtration", "dpp", "hamiltonian")}
    cfg = {**CHEAP_PENNIES, "grid": {"h": 0.1}, "simulate": {"n_paths": 100, "n_steps": 10 ** 30}}
    for command, experiments in (("simulate", {}), ("run", {**off, "embedding": True})):
        path = write_cfg(tmp_path, {**cfg, "experiments": experiments})
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: $.simulate.n_steps: {10 ** 30} steps need a "
                              f"noise panel of {100 * 10 ** 30 * 8} bytes a chunk")
    assert not (tmp_path / "out").exists()
    # a run that marches no path is not refused
    monkeypatch.undo()
    path = write_cfg(tmp_path, cfg)
    assert main(["hamiltonian-report", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_a_grid_whose_node_mesh_cannot_fit_is_named(tmp_path, capsys, monkeypatch):
    # h = 1e-300 used to end in a bare ValueError from the axes' linspace
    # with exit 1; the node count is checked before any axis or mesh is built
    def too_late(*args, **kwargs):
        raise AssertionError("ran past the grid's node-count check")

    monkeypatch.setattr(runner, "validate_assumptions", too_late)
    monkeypatch.setattr(pde_solver, "cfl_max_dt", too_late)
    path = write_cfg(tmp_path, {"problem": {"id": "pennies"}, "grid": {"h": 1e-300}})
    assert main(["solve-pde", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: $.grid: h=[1e-300]: the grid's ")
    assert "physical memory" in err
    assert not (tmp_path / "out").exists()


def test_a_rung_with_more_decisions_than_steps_is_named(tmp_path, capsys, monkeypatch):
    # grid40 on 16 steps used to run as a 16-segment ladder under its
    # 40-decision label; the count is refused before the gate and the solves
    def too_late(*args, **kwargs):
        raise AssertionError("ran past the decision-count check")

    monkeypatch.setattr(runner, "validate_assumptions", too_late)
    monkeypatch.setattr(runner, "_solve_stage", too_late)
    path = write_cfg(tmp_path, cheap_constant(simulate={"n_paths": 64, "n_steps": 16},
                                              strategies={"decision_counts": [2, 40]}))
    for command in ("simulate", "compare", "dpp-check"):
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: $.strategies.decision_counts: 40 decisions on "
                              "16 steps")
    assert not (tmp_path / "out").exists()
    problem = build_problem("pennies")
    lower = solve_isaacs(problem.spec, make_grid(problem.spec, -2, 2, 0.25), "lower")
    with pytest.raises(ConfigError, match=r"decision count must be in \[1, 16\]"):
        ge.default_strategy_family(problem, lower, [40], 0.0, ge.EngineConfig(n_steps=16))
    ladder, = ge.default_strategy_family(problem, lower, [16], 0.0, ge.EngineConfig(n_steps=16))
    assert len(ladder.rules) == 16


def test_an_embedding_run_with_too_few_steps_is_named(tmp_path, capsys, monkeypatch):
    # pennies at 4 steps with only the embedding stage used to exit 2 after
    # the solves, naming no config path: the built-in pairs' grid8 ladder
    # decides 8 times.  The step count is refused before the gate and the solves
    def too_late(*args, **kwargs):
        raise AssertionError("ran past the embedding's step check")

    monkeypatch.setattr(runner, "validate_assumptions", too_late)
    monkeypatch.setattr(runner, "solve_isaacs", too_late)
    rungs = max(ge.BUILTIN_PAIR_RUNGS)
    assert rungs == 8
    off = {name: False for name in ("value", "filtration", "dpp", "hamiltonian")}
    path = write_cfg(tmp_path, {**CHEAP_PENNIES, "simulate": {"n_paths": 64, "n_steps": 4},
                                "experiments": {**off, "embedding": True}})
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: $.simulate.n_steps: 4 steps, but the embedding "
                          f"pairs' ladders decide {rungs} times")
    assert not (tmp_path / "out").exists()
    # at the largest rung's step count the pairs are built and matched
    monkeypatch.undo()
    ok = write_cfg(tmp_path, {**CHEAP_PENNIES, "simulate": {"n_paths": 64, "n_steps": rungs},
                              "experiments": {**off, "embedding": True},
                              "embedding": {"n_seeds": 2}})
    assert main(["run", "--config", ok, "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "embedding.csv").read_text().splitlines()
    assert {row.split(",")[0] for row in rows[1:]} == {"alpha:const0", "alpha:grid4",
                                                       "alpha:grid8"}


def test_a_grid_whose_field_cannot_fit_is_named(tmp_path, capsys, monkeypatch):
    # pennies at h = 0.001 used to run the gate and die in the solve with a
    # bare numpy allocation error and exit 1; h = 1e-4 needs a field of
    # tens of terabytes, so the grid is refused before the gate
    def too_late(*args, **kwargs):
        raise AssertionError("ran past the grid's size check")

    monkeypatch.setattr(runner, "validate_assumptions", too_late)
    path = write_cfg(tmp_path, {"problem": {"id": "pennies"}, "grid": {"h": 1e-4}})
    for command in ("solve-pde", "simulate"):
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: $.grid: h=[0.0001]: one field of ")
        assert "physical memory" in err
    assert not (tmp_path / "out").exists()


def test_integral_floats_are_not_integers(tmp_path, capsys):
    # 10.0 steps used to pass the schema and die in np.linspace; a 2.0 seed
    # used to run and be recorded as 2.0
    for where, cfg in (("$.simulate.n_steps: 10.0",
                        cheap_constant(simulate={"n_paths": 64, "n_steps": 10.0})),
                       ("$.seed: 2.0", cheap_constant(seed=2.0))):
        message = f"{where} is not of type 'integer'"
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, command="simulate")
        assert message in err.value.errors
        path = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_numbers_are_refused_by_name(tmp_path, capsys):
    # json reads NaN and Infinity, and 1e400 as inf; each used to pass the
    # schema and end in a traceback once the summary was written
    for section, key in (("tolerances", "value_abs"), ("grid", "h"),
                         ("assumptions", "slack")):
        for spelling in ("NaN", "Infinity", "-Infinity", "1e400"):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({**cheap_constant(), section: {key: "X"}})
                           .replace('"X"', spelling))
            assert main(["validate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
            assert f"$.{section}.{key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert describe_errors({"problem": {"id": "constant"}, "grid": {"h": math.inf}}) \
        == ["$.grid.h: inf is not a finite number"]


# ------------------------------------------------------------------ runner ---- #


def test_validate_command_runs_only_the_gate():
    result = run_experiment(cheap_constant(), command="validate")
    assert result.exit_code == 0
    assert result.summary["stages"] == []
    assert result.summary["assumptions"]["lipschitz_pass"]
    assert result.summary["assumptions"]["growth_pass"]
    ids = [c["id"] for c in result.summary["checks"]]
    assert ids == ["assumptions.pass"]


def test_false_regularity_declaration_aborts_the_run():
    result = run_experiment({"problem": {"id": "growth_violator"}}, command="run")
    assert result.exit_code == 1
    assert result.summary["failed_checks"] == ["assumptions.pass"]
    assert result.summary["aborted_stages"]  # stages were planned, none ran
    assert "pde" not in result.summary


def test_unknown_command_is_rejected():
    with pytest.raises(ConfigError, match="unknown command"):
        run_experiment(cheap_constant(), command="banana")
    assert "run" in COMMANDS and COMMANDS["validate"] == ()


def test_constant_benchmark_passes_every_check():
    result = run_experiment(cheap_constant(), command="run", seed=3)
    assert result.exit_code == 0
    assert result.summary["failed_checks"] == []
    assert result.summary["config"]["seed"] == 3
    assert result.summary["stages"] == ["solve", "value", "filtration",
                                        "hamiltonian"]
    assert result.summary["value"]["best_mean"] == pytest.approx(1.0)
    assert result.summary["filtration"]["delta"] == 0.0
    for name in ("assumptions", "fields", "estimates", "hamiltonian"):
        assert name in result.tables


def test_execution_keys_are_stripped_from_the_summary():
    result = run_experiment(cheap_constant(output_dir="/tmp/somewhere"),
                            command="validate", threads=7)
    assert result.summary["config"]["threads"] == DEFAULTS["threads"]
    assert result.summary["config"]["output_dir"] == DEFAULTS["output_dir"]


def test_thread_count_never_changes_the_summary():
    one = run_experiment(CHEAP_PENNIES, command="run", seed=11, threads=1)
    six = run_experiment(CHEAP_PENNIES, command="run", seed=11, threads=6)
    assert summary_to_json(one.summary) == summary_to_json(six.summary)
    assert one.exit_code == six.exit_code == 0


def test_summary_reruns_byte_identically(tmp_path):
    first = run_experiment(CHEAP_PENNIES, command="run", seed=5)
    out = tmp_path / "out"
    paths = write_result(first, str(out))
    summary_path = out / "summary.json"
    assert str(summary_path) in paths
    rerun_cfg = load_config(str(summary_path))
    second = run_experiment(rerun_cfg, command="run")
    assert summary_to_json(second.summary) == summary_path.read_bytes().decode()


def test_the_fields_table_is_made_as_it_is_written(tmp_path):
    # the rows are made from the kept layers each time the table is read, so
    # one result writes the same fields.csv twice, row for row the layers a
    # list built from the solved fields holds
    result = run_experiment(CHEAP_PENNIES, command="solve-pde", seed=5)
    header, rows = result.tables["fields"]
    assert header == ["equation", "t", "x0", "value"] and not isinstance(rows, list)
    texts = [(Path(write_result(result, str(tmp_path / d))[0]).parent / "fields.csv").read_text()
             for d in ("a", "b")]
    assert texts[0] == texts[1]
    g = result.summary["config"]["grid"]
    spec = build_problem("pennies").spec
    grid = make_grid(spec, g["lo"], g["hi"], g["h"], dt=g["dt"], cfl_safety=g["cfl_safety"])
    stride = max(1, (len(grid.times) - 1) // 32)
    layers = sorted(set(range(0, len(grid.times), stride)) | {len(grid.times) - 1})
    fields = dict(zip(("lower", "upper"), solve_isaacs(spec, grid, ("lower", "upper"))))
    want = [[eq, float(grid.times[li]), float(x), float(val)]
            for eq, field in fields.items() for li in layers
            for x, val in zip(grid.axes[0], field.values[li])]
    assert list(rows) == want
    assert texts[0].count("\n") == len(want) + 1


def test_the_formatted_fields_table_keeps_the_bytes_of_format_cell(tmp_path):
    # the fields table formats a layer at a time with repr; the bytes must be
    # those of format_cell through csv.writer, signed zeros, subnormals and
    # exponents included
    spec = build_problem("pennies").spec
    grid = SpaceTimeGrid(np.array([0.0, 0.25, 0.5]), (np.array([-1.0, -0.0, 1.0]),))
    values = np.array([[-0.0, 5e-324, 1e16], [0.1, -2.5e-7, 1.0 / 3.0], [1e-16, -0.0, 2.0]])
    field = ValueField(which="lower", grid=grid, values=values,
                       feedback_u=FeedbackMap.constant(spec.controls_u, 0, grid),
                       feedback_v=FeedbackMap.constant(spec.controls_v, 0, grid),
                       response_v=np.zeros((3, 2, 3), dtype=np.uint8),
                       max_update=np.zeros(2))
    header, rows = runner._field_table({"lower": field, "upper": field})
    written, = [p for p in emit_report({}, {"fields": (header, rows)}, str(tmp_path))
                if p.endswith("fields.csv")]
    want = tmp_path / "want.csv"
    with open(want, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_cell(c) for c in row] for row in rows)
    assert Path(written).read_bytes() == want.read_bytes()
    text = want.read_text()
    assert text.startswith("equation,t,x0,value\nlower,0.0,-1.0,-0.0\nlower,0.0,-0.0,5e-324\n"
                           "lower,0.0,1.0,1e+16\n")


def test_oversized_grid_dt_is_a_config_error():
    cfg = {"problem": {"id": "heat"}, "grid": {"h": 0.5, "dt": 0.2},
           "equations": ["lower"]}
    with pytest.raises(ConfigError, match="grid.dt rejected"):
        run_experiment(cfg, command="solve-pde")


def test_a_bad_start_is_refused_before_the_gate_and_the_solves(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("reached past the start checks")

    monkeypatch.setattr(runner, "validate_assumptions", never)
    monkeypatch.setattr(runner, "solve_isaacs", never)
    for simulate, named in (({"start_state": [0.0, 0.0]}, "simulate.start_state"),
                            ({"start_time": 1.0}, "simulate.start_time")):
        cfg = {"problem": {"id": "drift_control"}, "simulate": simulate}
        with pytest.raises(ConfigError, match=named):
            run_experiment(cfg, command="run")


def test_a_bad_dpp_rule_is_refused_before_the_gate_and_the_solves(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("reached past the run plan")

    monkeypatch.setattr(runner, "validate_assumptions", never)
    monkeypatch.setattr(runner, "solve_isaacs", never)
    cfg = {**CHEAP_PENNIES, "experiments": {"value": True, "dpp": True},
           "dpp": {"rules": [{"kind": "fixed_time", "t": 5.0}]}}
    for command in ("run", "validate"):
        with pytest.raises(ConfigError, match="dpp rule fixed_time t=5.0 outside"):
            run_experiment(cfg, command=command)


def test_strict_mode_promotes_warnings_to_failure():
    checks = Checks()
    checks.add("demo", "stage", True, value=0.0, tolerance=1.0, detail="ok")
    lax = _finish({"config": {}}, {}, checks, ["something odd"], strict=False)
    assert lax.exit_code == 0
    checks2 = Checks()
    checks2.add("demo", "stage", True, value=0.0, tolerance=1.0, detail="ok")
    hard = _finish({"config": {}}, {}, checks2, ["something odd"], strict=True)
    assert hard.exit_code == 1
    assert hard.summary["failed_checks"] == []


def test_a_falling_rung_fails_monotone_and_clamps_warn(monkeypatch):
    # no shipped ladder lets value.monotone or the clamp warning fire, so the
    # value table is doctored after the march: clamps on grid2 and, in the
    # first run, grid4 one unit below grid2, far outside the band
    real = ge.value_experiment

    def doctored(*args, **kwargs):
        report = real(*args, **kwargs)
        report.per_strategy["grid2"].estimate.clamp_count = 3
        if drop:
            grid4 = report.per_strategy["grid4"].estimate
            grid4.mean = report.per_strategy["grid2"].mean - 1.0
        return report

    monkeypatch.setattr(ge, "value_experiment", doctored)
    cfg = {**CHEAP_PENNIES, "experiments": {"value": True, "filtration": False,
                                            "hamiltonian": False}}
    warning = "value: 3 rule-order clamps during simulation"
    drop = True
    fallen = run_experiment(cfg, command="run", seed=3)
    assert fallen.exit_code == 1
    assert fallen.summary["failed_checks"] == ["value.monotone"]
    mono = next(c for c in fallen.summary["checks"] if c["id"] == "value.monotone")
    assert mono["value"] == 1.0
    assert mono["detail"].startswith("grid4 (") and " below grid2 (" in mono["detail"]
    assert fallen.summary["value"]["monotonicity_violations"] == [mono["detail"]]
    assert fallen.summary["warnings"] == [warning]
    drop = False
    for strict, code in ((False, 0), (True, 1)):
        clamped = run_experiment(cfg, command="run", seed=3, strict=strict)
        assert clamped.summary["failed_checks"] == []
        assert clamped.summary["warnings"] == [warning]
        assert clamped.exit_code == code


# ------------------------------------------- the stages against direct calls ---- #

ALL_STAGES = {
    **CHEAP_PENNIES,
    "simulate": {"n_paths": 200, "n_steps": 32, "dump_paths": True},
    "experiments": {"value": True, "filtration": True, "dpp": True,
                    "embedding": True, "hamiltonian": True},
    "dpp": {"rules": [{"kind": "fixed_time"}, {"kind": "first_exit", "level": 0.5}]},
    "embedding": {"n_seeds": 1},
}


def direct_inputs(summary: dict):
    """The run's lower field, engine, families and ladder, rebuilt from its config."""
    cfg = summary["config"]
    problem = build_problem(cfg["problem"]["id"])
    g = cfg["grid"]
    grid = make_grid(problem.spec, g["lo"], g["hi"], g["h"], dt=g["dt"],
                     cfl_safety=g["cfl_safety"])
    lower = solve_isaacs(problem.spec, grid, "lower")
    sim = cfg["simulate"]
    engine = ge.EngineConfig(n_steps=sim["n_steps"], chunk_size=sim["chunk_size"])
    adv = cfg["adversaries"]
    base, enlarged = ge.default_adversary_families(
        problem, lower, n_random=adv["n_random"], random_segments=adv["random_segments"])
    ladder = ge.default_strategy_family(problem, lower, cfg["strategies"]["decision_counts"],
                                        sim["start_time"], engine)
    return problem.spec, lower, engine, base, enlarged, ladder


def filtration_summary(label: str, rep) -> dict:
    return {"strategy": label,
            "base_mean": rep.base.mean, "base_worst": rep.base.worst_id,
            "base_se": rep.base.estimate.std_error,
            "enlarged_mean": rep.enlarged.mean, "enlarged_worst": rep.enlarged.worst_id,
            "enlarged_se": rep.enlarged.estimate.std_error,
            "delta": rep.delta, "se_combined": rep.se_combined}


def test_every_stage_equals_the_direct_calls():
    result = run_experiment(ALL_STAGES, command="run", seed=6)
    summary, tables = result.summary, result.tables
    assert summary["stages"] == ["solve", "value", "filtration", "dpp", "embedding",
                                 "hamiltonian"]
    spec, lower, engine, base, enlarged, ladder = direct_inputs(summary)
    x0, n = np.array([0.0]), 200
    seed = derive_seed(6, 37)
    best = summary["value"]["best_strategy"]
    strat = {s.label: s for s in ladder}[best]

    filt = ge.filtration_experiment(spec, 0.0, x0, strat, base, enlarged, n, seed, engine)
    assert summary["filtration"] == filtration_summary(best, filt)
    assert tables["estimates"][1][-2:] == [
        ["filtration", best, filt.base.worst_id, filt.base.mean,
         filt.base.estimate.std_error, "", True],
        ["filtration", best, filt.enlarged.worst_id, filt.enlarged.mean,
         filt.enlarged.estimate.std_error, "", True]]

    rules = [("fixed_time_0.25", FixedTimeRule(spec.horizon / 2)),
             ("first_exit_0.5", CappedRule(HittingRule(AbsRegion(0.5)),
                                           FixedTimeRule(spec.horizon)))]
    rows = []
    for label, rho in rules:
        rep = ge.dpp_check(spec, lower, 0.0, x0, ladder, enlarged, rho, n,
                           seed, engine, rho_label=label)
        assert summary["dpp"][label] == {
            "field_value": rep.field_value, "game_value": rep.game_value,
            "residual": rep.residual, "std_error": rep.std_error,
            "best_strategy": rep.best_strategy, "worst_adversary": rep.worst_adversary}
        rows += [[label, slabel, aid, mean, se]
                 for (slabel, aid), (mean, se) in sorted(rep.cells.items())]
    assert tables["dpp"][1] == rows

    worst = next(m for m in enlarged.members
                 if m.id == summary["value"]["per_strategy"][best]["worst_adversary"])
    est = estimate_cell(spec, 0.0, x0, strat, worst, n, seed, engine,
                        keep_payoffs=True)
    seeds = derive_seed_array(seed, np.arange(n))
    assert tables["paths"][1] == [[i, int(seeds[i]), est.payoffs[i]] for i in range(n)]

    assert summary["embedding"] == {"n_pairs": 9, "n_seeds": 1, "mismatches": 0}
    assert [row[3] for row in tables["embedding"][1]] == [True] * 9
    assert result.exit_code == 0, summary["failed_checks"]

    # the dpp readouts ride on the value table's march and move none of its bits
    alone = run_experiment({**ALL_STAGES, "experiments": {**ALL_STAGES["experiments"],
                                                          "dpp": False}},
                           command="run", seed=6)
    assert "dpp" not in alone.summary
    for key in ("value", "filtration"):
        assert alone.summary[key] == summary[key]
    assert alone.tables["estimates"] == tables["estimates"]


def test_the_upper_field_is_gone_before_the_monte_carlo_tables(monkeypatch):
    # after the solves only the embedding pairs read the upper field, through
    # its feedback_v table; the plan builds them at once, so the field itself
    # is freed before the first table is marched, and the lower one is kept
    solve, refs, seen = runner.solve_isaacs, {}, []

    def recording(spec, grid, which="lower"):
        fields = solve(spec, grid, which)
        refs.update((field.which, weakref.ref(field)) for field in fields)
        return fields

    real = ge.value_experiment

    def entering(*args, **kwargs):
        seen.append((refs["lower"]() is not None, refs["upper"]() is None))
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "solve_isaacs", recording)
    monkeypatch.setattr(ge, "value_experiment", entering)
    result = run_experiment(ALL_STAGES, command="run", seed=3)
    assert seen == [(True, True)]
    assert result.summary["embedding"]["mismatches"] == 0


def test_embedding_without_the_upper_equation_fails_before_the_tables(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("reached the Monte Carlo tables")

    monkeypatch.setattr(ge, "value_experiment", never)
    monkeypatch.setattr(ge, "dpp_checks", never)
    cfg = {**ALL_STAGES, "equations": ["lower"]}
    with pytest.raises(ConfigError, match="stage 'embedding' needs the upper equation"):
        run_experiment(cfg, command="run", seed=3)


def test_embedding_check_fails_on_exactly_the_doctored_rows(monkeypatch):
    # the replay flips v on step 10 of row 0 only, so each pair's seed-0 row,
    # and no other, must come back unmatched
    honest = ReplayControl.realize_batch

    def doctored(self, *args):
        paths = np.array(honest(self, *args))
        paths[0, 10] = 1 - paths[0, 10]
        return paths

    monkeypatch.setattr(ReplayControl, "realize_batch", doctored)
    cfg = {**CHEAP_PENNIES, "embedding": {"n_seeds": 3},
           "experiments": {"value": False, "filtration": False, "embedding": True}}
    result = run_experiment(cfg, command="run", seed=6)
    summary, rows = result.summary, result.tables["embedding"][1]
    assert summary["embedding"] == {"n_pairs": 9, "n_seeds": 3, "mismatches": 9}
    assert [row[2] for row in rows] == [0] * 9 + [1] * 9 + [2] * 9
    assert [row[3] for row in rows] == [False] * 9 + [True] * 18
    embedding_warnings = [w for w in summary["warnings"] if w.startswith("embedding ")]
    assert len(embedding_warnings) == 9
    for aid, bid, _, _ in rows[:9]:
        assert any(w.startswith(f"embedding {aid}/{bid} seed 0: ") for w in embedding_warnings)
    assert summary["failed_checks"] == ["embedding.match"] and result.exit_code == 1


def test_filtration_without_the_value_stage_picks_over_the_base_family():
    cfg = {**CHEAP_PENNIES, "experiments": {"value": False, "filtration": True,
                                            "hamiltonian": False}}
    result = run_experiment(cfg, command="run", seed=4)
    summary = result.summary
    assert summary["stages"] == ["solve", "filtration"] and "value" not in summary
    spec, lower, engine, base, enlarged, ladder = direct_inputs(summary)
    x0, n, seed = np.array([0.0]), 200, derive_seed(4, 37)
    probe = ge.value_experiment(spec, 0.0, x0, ladder, base, n, seed, engine)
    best = {s.label: s for s in ladder}[probe.best_label]
    filt = ge.filtration_experiment(spec, 0.0, x0, best, base, enlarged, n, seed, engine)
    assert summary["filtration"] == filtration_summary(probe.best_label, filt)
    assert [row[0] for row in result.tables["estimates"][1]] == ["filtration"] * 2


def test_a_full_run_marches_one_table(monkeypatch):
    # value, filtration and both dpp rules read one marched table
    marched = []
    run_cells = ge._run_cells

    def counting(spec, times, x0, cells, *args, **kwargs):
        marched.append(len(cells))
        return run_cells(spec, times, x0, cells, *args, **kwargs)

    monkeypatch.setattr(ge, "_run_cells", counting)
    cfg = {**CHEAP_PENNIES, "experiments": {"value": True, "filtration": True,
                                            "dpp": True, "hamiltonian": False}}
    result = run_experiment(cfg, command="run", seed=2)
    assert len(result.summary["dpp"]) == 2
    n_cells = sum(len(entry["members"])
                  for entry in result.summary["value"]["per_strategy"].values())
    assert marched == [n_cells]


def test_a_full_run_screens_each_open_loop_member_once(monkeypatch):
    # the one table marches the plan's enlarged family, so its nine open-loop
    # members are screened once each, plus both rules
    screened = []
    screen = ge.check_nonanticipative

    def counting(obj, **kwargs):
        screened.append(obj)
        return screen(obj, **kwargs)

    monkeypatch.setattr(ge, "check_nonanticipative", counting)
    cfg = {**CHEAP_PENNIES, "adversaries": {"n_random": 3, "random_segments": 4},
           "experiments": {"value": True, "filtration": True, "dpp": True,
                           "hamiltonian": False}}
    result = run_experiment(cfg, command="run", seed=2)
    assert len(screened) == 11
    assert len({id(obj) for obj in screened}) == 11
    assert len(result.summary["value"]["per_strategy"]["grid2"]["members"]) == 11
    assert len(result.summary["dpp"]) == 2


def test_summary_keeps_only_the_final_march_update():
    result = run_experiment(CHEAP_PENNIES, command="solve-pde", seed=1)
    _, lower, *_ = direct_inputs(result.summary)
    final = result.summary["pde"]["lower"]["max_update_final"]
    assert type(final) is float
    assert final == float(lower.max_update[0])


def _plain_leaves(obj, where="$"):
    """Every non-plain key or leaf of a summary, by its JSON path."""
    if type(obj) is dict:
        for key, value in obj.items():
            if type(key) is not str:
                yield where, key
            yield from _plain_leaves(value, f"{where}.{key}")
    elif type(obj) is list:
        for k, value in enumerate(obj):
            yield from _plain_leaves(value, f"{where}[{k}]")
    elif type(obj) not in (str, int, float, bool, type(None)):
        yield where, obj


def test_summaries_hold_plain_json_values_only():
    # summary_to_json dumps a summary as it is, so every key must be a str and
    # every leaf a plain Python value: no numpy scalar, array or tuple
    runs = [run_experiment({**ALL_STAGES, "problem": {"id": pid}}, command="run", seed=5)
            for pid in ("pennies", "drift_control")]
    # the gate fails growth_violator: validate, and a run that aborts its stages
    runs += [run_experiment({"problem": {"id": "growth_violator"}}, command=command)
             for command in ("validate", "run")]
    assert runs[-1].summary["aborted_stages"] == runs[-1].summary["stages"] != []
    for result in runs:
        summary = result.summary
        assert list(_plain_leaves(summary)) == []
        assert summary_to_json(summary) == json.dumps(summary, sort_keys=True, indent=2,
                                                      allow_nan=False) + "\n"
    assert all(len(result.summary["stages"]) == 6 for result in runs[:2])


# --------------------------------------------------------------------- CLI ---- #


def write_cfg(tmp_path, cfg: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_validate_passes_and_writes_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path, cheap_constant())
    code = main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] assumptions.pass" in out
    assert "wrote" in out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["exit_code"] == 0
    assert (tmp_path / "out" / "assumptions.csv").exists()


def test_cli_reports_gate_failure_with_exit_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": {"id": "growth_violator"}})
    code = main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "[FAIL] assumptions.pass" in capsys.readouterr().out


def test_cli_maps_config_problems_to_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": {"id": "constant"}, "strategys": {}})
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err

    code = main(["run", "--config", str(tmp_path / "missing.json")])
    assert code == 2


def test_cli_refuses_a_file_as_the_output_directory_before_the_run(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    by_flag = write_cfg(tmp_path, cheap_constant())
    assert main(["run", "--config", by_flag, "--out", str(afile)]) == 2
    by_config = write_cfg(tmp_path, cheap_constant(output_dir=str(afile)))
    assert main(["run", "--config", by_config]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no stage ran
    assert err.count(f"output directory {afile} exists and is not a directory") == 2
    assert afile.read_text() == "kept"
    # a path that cannot be made is found only when written: one line, exit 3
    assert main(["validate", "--config", by_flag, "--out", str(afile / "sub")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("ignore:overflow")
def test_cli_maps_runtime_failures_to_exit_three(tmp_path, capsys):
    # the gate is disabled, so the unstable dynamics only explode mid-stage
    cfg = write_cfg(tmp_path, {
        "problem": {"id": "growth_violator"},
        "assumptions": {"enabled": False},
        "simulate": {"start_state": [10.0], "n_paths": 8},
    })
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "runtime error:" in capsys.readouterr().err


def test_cli_threads_env_is_validated(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, cheap_constant())
    monkeypatch.setenv("ROBUSTCTL_THREADS", "lots")
    code = main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "ROBUSTCTL_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("ROBUSTCTL_THREADS", "2")
    assert main(["validate", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


def test_cli_seed_flag_overrides_the_config(tmp_path):
    cfg = write_cfg(tmp_path, cheap_constant(seed=1))
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--seed", "9",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 9


def test_seed_and_thread_overrides_are_checked_by_the_schema(tmp_path, capsys):
    # the overrides join the raw config before it is resolved, so a bad one
    # is named as the config's own would be, and a summary written under an
    # override reloads as a config
    cfg = write_cfg(tmp_path, cheap_constant())
    assert main(["run", "--config", cfg, "--seed", "-1",
                 "--out", str(tmp_path / "bad")]) == 2
    assert "$.seed" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    with pytest.raises(ConfigError, match=r"\$\.threads"):
        run_experiment(cheap_constant(), command="validate", threads=0)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    summary_path = out / "summary.json"
    rerun = run_experiment(load_config(str(summary_path)), command="validate")
    assert rerun.summary["config"]["seed"] == 5
    assert summary_to_json(rerun.summary) == summary_path.read_text()


def test_seed_and_thread_overrides_are_not_cast(tmp_path):
    # a float or a bool is refused by name, as the same value in a config file
    # is; a numpy integer is the int it holds
    for key, value in (("seed", 2.5), ("seed", True), ("threads", 1.5), ("threads", True)):
        with pytest.raises(ConfigError, match=rf"\$\.{key}"):
            run_experiment(cheap_constant(), command="validate", **{key: value})
    result = run_experiment(cheap_constant(), command="validate",
                            seed=np.int64(5), threads=np.int32(2))
    assert type(result.summary["config"]["seed"]) is int
    out = tmp_path / "out"
    write_result(result, str(out))
    summary_path = out / "summary.json"
    assert json.loads(summary_path.read_text())["config"]["seed"] == 5
    rerun = run_experiment(load_config(str(summary_path)), command="validate")
    assert summary_to_json(rerun.summary) == summary_path.read_text()
