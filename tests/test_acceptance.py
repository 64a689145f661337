"""Acceptance suite: production-scale checks of the package's headline claims.

One test per criterion, each announcing a [criterion N] PASS/FAIL line
straight through pytest's capture so the verdicts read off a plain run.
Tolerances and sizes are pinned constants; the point of this module is that
they are not negotiable downward.  Expect a few minutes of runtime: the
Monte Carlo criteria use 1e5 paths and the PDE criteria production grids.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from robustctl.errors import EmbeddingMismatchError
from robustctl.game_engine import (Adversary, AdversaryFamily, EngineConfig,
                                   builtin_pairs, default_adversary_families,
                                   default_strategy_family, dpp_checks,
                                   embed_feedback_as_openloop,
                                   filtration_experiment, value_experiment)
from robustctl.hamiltonian import (HamiltonianQuery, hamiltonian_lower,
                                   hamiltonian_mixed, hamiltonian_upper)
from robustctl.pde_solver import compare_to_reference, make_grid, solve_isaacs
from robustctl.problems import available_problems, build_problem
from robustctl.reports import summary_to_json
from robustctl.runner import run_experiment
from robustctl.sde_core import derive_seed, eval_payoff, sample_noise
from robustctl.strategies import (AbsRegion, CappedRule, ConstantAction,
                                  ConstantControl, ElementaryStrategy,
                                  FixedTimeRule, GridIndexRule, HittingRule,
                                  PiecewiseRandomControl,
                                  ReplayControl, SignControl,
                                  check_nonanticipative, make_grid_strategy)
from strategy_oracle import LookaheadAction, LookaheadControl, LookaheadRule

MASTER_SEED = 2026
N_PATHS = 100_000


def _constant_strategy(control_set, index, start, end, label="const"):
    return ElementaryStrategy(control_set=control_set,
                              start_rule=FixedTimeRule(start),
                              rules=(FixedTimeRule(end),),
                              actions=(ConstantAction(index),), label=label)


# ------------------------------------------------- expensive shared solves ---- #


@pytest.fixture(scope="module")
def heat_prod(heat_problem):
    """Lower field on the production heat grid, with the solve wall time."""
    spec = heat_problem.spec
    grid = make_grid(spec, -6.0, 6.0, 0.05)
    t0 = time.perf_counter()
    field = solve_isaacs(spec, grid, "lower")
    return field, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pennies_prod_lower(pennies_problem):
    grid = make_grid(pennies_problem.spec, -4.0, 4.0, 0.02)
    return solve_isaacs(pennies_problem.spec, grid, "lower")


@pytest.fixture(scope="module")
def drift_prod_lower(drift_problem):
    grid = make_grid(drift_problem.spec, -4.0, 4.0, 0.02)
    return solve_isaacs(drift_problem.spec, grid, "lower")


@pytest.fixture(scope="module")
def pennies_value(pennies_problem, pennies_prod_lower):
    """The flagship run: grid-feedback ladder against the enlarged family."""
    spec = pennies_problem.spec
    # two workers: results are bitwise the same on any worker count (criterion 10)
    engine = EngineConfig(n_steps=pennies_problem.sim_steps, threads=2)
    ladder = default_strategy_family(pennies_problem, pennies_prod_lower,
                                     [2, 4, 8, 16], 0.0, engine)
    base, enlarged = default_adversary_families(pennies_problem,
                                                pennies_prod_lower)
    t0 = time.perf_counter()
    report = value_experiment(spec, 0.0, np.array([0.0]), ladder, enlarged,
                              n_paths=N_PATHS, master_seed=MASTER_SEED,
                              engine=engine)
    elapsed = time.perf_counter() - t0
    return report, ladder, base, enlarged, engine, elapsed


# -------------------------------------------------------------- criteria ---- #


def test_criterion_01_heat_pde_matches_closed_form(heat_problem, heat_prod,
                                                   announce):
    field, elapsed = heat_prod
    err = compare_to_reference(field, heat_problem.reference, lo=-3.0, hi=3.0)
    ok = err.sup_error < 1e-2 and elapsed < 30.0
    announce(f"[criterion 1] {'PASS' if ok else 'FAIL'}: heat lower field "
             f"sup error {err.sup_error:.3e} < 1e-2 on |x|<=3 (all layers), "
             f"solve {elapsed:.2f}s < 30s")
    assert err.sup_error < 1e-2
    assert elapsed < 30.0


def test_criterion_02_heat_monte_carlo_hits_the_closed_form(heat_problem,
                                                            announce):
    spec = heat_problem.spec
    alpha = _constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    adv = Adversary("const:0", ConstantControl(0))
    t0 = time.perf_counter()
    est = value_experiment(spec, 0.0, np.array([0.0]), [alpha], AdversaryFamily((adv,)),
                           n_paths=N_PATHS, master_seed=MASTER_SEED,
                           engine=EngineConfig(n_steps=500)).best.estimate
    elapsed = time.perf_counter() - t0
    target = 1.0 / np.sqrt(3.0)
    tol = 3.0 * est.std_error + 5e-3
    gap = abs(est.mean - target)
    ok = gap <= tol and elapsed < 60.0
    announce(f"[criterion 2] {'PASS' if ok else 'FAIL'}: 1e5-path estimate "
             f"{est.mean:.6f} vs 3^-1/2 = {target:.6f}, |gap| {gap:.2e} <= "
             f"3*SE+5e-3 = {tol:.2e}, {elapsed:.1f}s < 60s")
    assert gap <= tol
    assert elapsed < 60.0


def test_criterion_03_hamiltonian_ordering_on_random_queries(announce):
    n_queries = 10_000
    worst = 0.0
    for k, pid in enumerate(available_problems()):
        problem = build_problem(pid)
        spec = problem.spec
        rng = np.random.default_rng(derive_seed(MASTER_SEED, 31, k))
        for _ in range(n_queries):
            q = HamiltonianQuery(
                t=float(rng.uniform(0.0, spec.horizon)),
                x=rng.uniform(problem.box_lo, problem.box_hi, size=spec.dim),
                p=rng.normal(scale=3.0, size=spec.dim),
                M=rng.normal(scale=3.0, size=(spec.dim, spec.dim)))
            # the mixed result carries the pure values, bitwise as the pure calls
            mix = hamiltonian_mixed(spec, q)
            worst = max(worst, mix.lower - mix.value, mix.value - mix.upper)
    pennies = build_problem("pennies").spec
    q = HamiltonianQuery(t=0.0, x=np.array([0.0]), p=np.array([1.0]),
                         M=np.array([[0.0]]))
    triple = (hamiltonian_lower(pennies, q).value,
              hamiltonian_mixed(pennies, q).value,
              hamiltonian_upper(pennies, q).value)
    ok = worst <= 1e-8 and triple == (-1.0, 0.0, 1.0)
    announce(f"[criterion 3] {'PASS' if ok else 'FAIL'}: max ordering "
             f"violation {worst:.2e} <= 1e-8 over 5 x {n_queries} queries; "
             f"matched-signs query gives {triple} == (-1.0, 0.0, 1.0)")
    assert worst <= 1e-8
    assert triple == (-1.0, 0.0, 1.0)


def test_criterion_04_game_value_matches_the_lower_field(pennies_value,
                                                         pennies_prod_lower,
                                                         announce):
    report, ladder, _, _, _, elapsed = pennies_value
    field_value = float(pennies_prod_lower.value_at(0.0, np.array([0.0])))
    best = report.best
    gap = abs(best.mean - field_value)
    tol = max(3.0 * best.estimate.std_error, 0.03)
    bands = []
    for a, b in zip(ladder, ladder[1:]):
        ra, rb = report.per_strategy[a.label], report.per_strategy[b.label]
        band = float(np.sqrt(ra.estimate.std_error ** 2
                             + rb.estimate.std_error ** 2))
        bands.append(rb.mean >= ra.mean - band)
    ok = gap <= tol and all(bands) and elapsed < 300.0
    means = {label: f"{rv.mean:.5f}" for label, rv in report.per_strategy.items()}
    announce(f"[criterion 4] {'PASS' if ok else 'FAIL'}: best estimate "
             f"{best.mean:.5f} ({report.best_label}) vs field {field_value:.5f}, "
             f"|gap| {gap:.2e} <= {tol:.2e}; ladder {means} non-decreasing "
             f"within 1 SE; {elapsed:.0f}s < 300s")
    assert gap <= tol
    assert all(bands), means
    assert elapsed < 300.0


def test_criterion_05_enlarging_the_filtration_changes_nothing(pennies_problem,
                                                               pennies_value,
                                                               announce):
    report, ladder, base, enlarged, engine, _ = pennies_value
    best_strategy = {s.label: s for s in ladder}[report.best_label]
    rep = filtration_experiment(pennies_problem.spec, 0.0, np.array([0.0]),
                                best_strategy, base, enlarged,
                                n_paths=N_PATHS, master_seed=MASTER_SEED,
                                engine=engine)
    tol = max(3.0 * rep.se_combined, 0.02)
    ok = abs(rep.delta) <= tol
    announce(f"[criterion 5] {'PASS' if ok else 'FAIL'}: at {report.best_label}, "
             f"base inf {rep.base.mean:.5f} vs enlarged inf {rep.enlarged.mean:.5f}, "
             f"|delta| {abs(rep.delta):.2e} <= max(3*SE, 0.02) = {tol:.2e} "
             f"(worst: {rep.base.worst_id} / {rep.enlarged.worst_id})")
    assert abs(rep.delta) <= tol
    assert rep.delta >= 0.0  # shared noise makes the superset exact


def test_criterion_06_embedding_replays_every_builtin_pair(
        pennies_problem, drift_problem, pennies_fields, drift_fields, announce):
    engine = EngineConfig(n_steps=128)
    trials = mismatches = 0
    for problem, fields in ((pennies_problem, pennies_fields),
                            (drift_problem, drift_fields)):
        spec = problem.spec
        lower, upper = fields
        pairs = builtin_pairs(problem, lower, upper, 0.0, engine)
        times = np.linspace(0.0, spec.horizon, engine.n_steps + 1)
        for j, (alpha, beta) in enumerate(pairs):
            # one row per trial; a mismatch error lists every mismatching row
            noises = [sample_noise(times, derive_seed(MASTER_SEED, 29, k, j),
                                   spec.noise_dim) for k in range(100)]
            trials += len(noises)
            try:
                embed_feedback_as_openloop(spec, alpha, beta, noises,
                                           np.array([0.0]))
            except EmbeddingMismatchError as exc:
                mismatches += len(exc.rows)
    ok = mismatches == 0
    announce(f"[criterion 6] {'PASS' if ok else 'FAIL'}: {mismatches} replay "
             f"mismatches over {trials} trials (100 seeds x 9 built-in pairs "
             f"x 2 benchmarks)")
    assert mismatches == 0


def test_criterion_07_restart_identity_at_stopping_rules(heat_problem,
                                                         drift_problem,
                                                         heat_prod,
                                                         drift_prod_lower,
                                                         announce):
    heat_field, _ = heat_prod
    lines = []
    all_ok = True
    setups = (
        (heat_problem, heat_field, 500, [2], dict(n_random=0,
                                                  include_feedback=False,
                                                  include_best_response=False)),
        (drift_problem, drift_prod_lower, 250, [8], dict(n_random=0)),
    )
    for problem, field, n_steps, counts, fam_kw in setups:
        spec = problem.spec
        engine = EngineConfig(n_steps=n_steps)
        strategies = default_strategy_family(problem, field, counts, 0.0, engine)
        family, _ = default_adversary_families(problem, field, **fam_kw)
        rules = (("fixed_time(T/2)", FixedTimeRule(spec.horizon / 2.0)),
                 ("first_exit(|x|>=1)",
                  CappedRule(HittingRule(AbsRegion(1.0)),
                             FixedTimeRule(spec.horizon))))
        reports = dpp_checks(spec, field, 0.0, np.array([0.0]), strategies,
                             family, rules, n_paths=N_PATHS,
                             master_seed=MASTER_SEED, engine=engine)
        for (rho_label, _), rep in zip(rules, reports):
            tol = max(3.0 * rep.std_error, 2e-2)
            all_ok = all_ok and rep.residual <= tol
            lines.append(f"{problem.id}/{rho_label}: residual "
                         f"{rep.residual:.2e} <= {tol:.2e}")
    announce(f"[criterion 7] {'PASS' if all_ok else 'FAIL'}: " + "; ".join(lines))
    assert all_ok, lines


def test_criterion_08_nonanticipativity_screen(pennies_fields, announce):
    lower, _ = pennies_fields
    pm = lower.feedback_u.control_set
    ladder = make_grid_strategy(lower.feedback_u, np.linspace(0.0, 1.0, 5),
                                label="grid4")
    hitswitch = ElementaryStrategy(
        control_set=pm, start_rule=FixedTimeRule(0.0),
        rules=(HittingRule(AbsRegion(1.0)), FixedTimeRule(1.0)),
        actions=(ConstantAction(0), ConstantAction(1)), label="hitswitch")
    builtins = (
        FixedTimeRule(0.4), GridIndexRule(5), HittingRule(AbsRegion(1.0)),
        CappedRule(HittingRule(AbsRegion(1.0)), FixedTimeRule(1.0)),
        ladder, hitswitch, _constant_strategy(pm, 1, 0.0, 1.0),
        ConstantControl(1), SignControl(1, 0), SignControl(1, 0, source="extra"),
        PiecewiseRandomControl(2, 4, salt=0), ReplayControl((1, 0) * 16),
    )
    trials = failures = 0
    for obj in builtins:
        for k in range(10):
            rep = check_nonanticipative(obj, n_trials=100,
                                        seed=derive_seed(MASTER_SEED, 13, k),
                                        n_steps=32)
            trials += rep.trials
            failures += rep.failures
    peeker = ElementaryStrategy(control_set=pm, start_rule=FixedTimeRule(0.0),
                                rules=(FixedTimeRule(1.0),),
                                actions=(LookaheadAction(1, 0),), label="peek")
    flagged = [not check_nonanticipative(obj, n_trials=100, seed=MASTER_SEED,
                                         n_steps=32).passed
               for obj in (LookaheadRule(), LookaheadControl(1, 0), peeker)]
    ok = failures == 0 and all(flagged)
    announce(f"[criterion 8] {'PASS' if ok else 'FAIL'}: {failures} failures "
             f"in {trials} trials over {len(builtins)} built-ins (1000 each, "
             f"10 seeds); all 3 lookahead fixtures flagged: {all(flagged)}")
    assert failures == 0
    assert all(flagged)


def test_criterion_09_scheme_properties_on_every_benchmark(announce):
    coarse_h = {"constant": 0.25, "heat": 0.25, "pennies": 0.1,
                "drift_control": 0.1, "growth_violator": 0.1}
    checked = []
    for pid in available_problems():
        problem = build_problem(pid)
        spec = problem.spec
        grid = make_grid(spec, problem.grid_lo, problem.grid_hi,
                         coarse_h[pid], dt=problem.grid_dt)
        lower = solve_isaacs(spec, grid, "lower")
        upper = solve_isaacs(spec, grid, "upper")
        assert np.all(lower.values <= upper.values), pid

        g = eval_payoff(spec, grid.nodes())
        g_lo, g_hi = float(g.min()), float(g.max())
        for field in (lower, upper):
            assert field.values.min() >= g_lo - 1e-8, pid
            assert field.values.max() <= g_hi + 1e-8, pid

        bump = dataclasses.replace(
            spec,
            payoff=lambda x, f=spec.payoff: f(x) + 0.25 * (1.0 + np.tanh(x[..., 0])),
            payoff_bound=spec.payoff_bound + 0.5)
        lifted = solve_isaacs(bump, grid, "lower")
        assert np.all(lifted.values >= lower.values), pid

        flat = dataclasses.replace(
            spec, payoff=lambda x: np.full(x.shape[:-1], 0.7), payoff_bound=0.7)
        fixed = solve_isaacs(flat, grid, "lower")
        assert np.all(fixed.values == 0.7), pid
        checked.append(pid)
    announce("[criterion 9] PASS: payoff monotonicity (exact), max principle "
             "(1e-8), lower <= upper (exact), constant fixed point (exact) on "
             + ", ".join(checked))
    assert sorted(checked) == sorted(available_problems())


def test_criterion_10_summaries_are_identical_across_workers(announce):
    cfg = {"problem": {"id": "pennies"}}
    one = run_experiment(cfg, command="run", seed=MASTER_SEED, threads=1)
    eight = run_experiment(cfg, command="run", seed=MASTER_SEED, threads=8)
    same = summary_to_json(one.summary) == summary_to_json(eight.summary)
    ok = same and one.exit_code == eight.exit_code == 0
    announce(f"[criterion 10] {'PASS' if ok else 'FAIL'}: full pipeline at "
             f"1 and 8 workers, summaries byte-identical: {same}; exit codes "
             f"({one.exit_code}, {eight.exit_code})")
    assert same
    assert one.exit_code == 0 and eight.exit_code == 0
