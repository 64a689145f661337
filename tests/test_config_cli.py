"""Config schema, the run orchestrator, and the command-line surface.

The orchestrator tests run real (tiny) experiments: a cheap grid, a few
hundred paths.  The one identity worth paying for is that a summary is a
pure function of (config, seed, command) with execution details stripped,
which is what makes reruns and thread sweeps byte-comparable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import estimate_cell
import robustctl.game_engine as ge
import robustctl.runner as runner
from robustctl.cli import main
from robustctl.config import (DEFAULTS, describe_errors, load_config,
                              resolve_config, validate_config)
from robustctl.errors import ConfigError
from robustctl.pde_solver import make_grid, solve_isaacs
from robustctl.problems import build_problem
from robustctl.reports import summary_to_json
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


def test_jsonschema_is_imported_only_when_a_config_is_validated():
    # a fresh interpreter: this one has validated configs already
    script = textwrap.dedent("""
        import sys
        import robustctl, robustctl.cli
        assert "jsonschema" not in sys.modules, "loaded on import"
        from robustctl.config import resolve_config
        resolve_config({"problem": {"id": "constant"}})
        assert "jsonschema" in sys.modules
    """)
    src = str(Path(ge.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr


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
                           derive_seed(6, 41), engine, rho_label=label)
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


def test_a_full_run_marches_one_value_table_and_one_dpp_table(monkeypatch):
    # value and filtration share one table; both dpp rules share another
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
    assert marched == [n_cells, n_cells]


def test_a_full_run_screens_each_open_loop_member_once(monkeypatch):
    # the value and dpp tables share the plan's enlarged family, so its nine
    # open-loop members are screened by the first table only, plus both rules
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
