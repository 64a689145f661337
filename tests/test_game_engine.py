"""Monte Carlo game engine: path simulation, batched estimation, and the
strategy/adversary experiments built on top.

The load-bearing tests here are bitwise: the chunked batch engine must
reproduce a per-path reference march written here from the strategy
oracle, and every experiment must be a pure function of (arguments, master
seed) regardless of chunking or threading.  Statistical assertions are kept for the acceptance suite; this
module checks identities that hold path by path.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from robustctl.errors import (ConfigError, ModelEvaluationError,
                              SimulationBlowUpError, StrategyStructureError)
from robustctl.game_engine import (Adversary, AdversaryFamily,
                                   BestResponseTable, EngineConfig,
                                   _fire_batch, _map_chunks, _run_cells,
                                   builtin_pairs,
                                   default_adversary_families,
                                   default_strategy_family, dpp_check,
                                   embed_feedback_as_openloop, estimate_payoff,
                                   filtration_experiment, robust_value,
                                   simulate_feedback_pair, simulate_strong,
                                   value_experiment)
from robustctl.sde_core import (derive_seed_array, eval_payoff, euler_step,
                                sample_noise)
from robustctl.strategies import (AbsRegion, CappedRule, ConstantAction,
                                  ConstantControl, ElementaryStrategy,
                                  FixedTimeRule, GridIndexRule, HittingRule,
                                  LookaheadAction, LookaheadControl,
                                  LookaheadRule, PiecewiseRandomControl,
                                  SignControl, StoppingRule, make_grid_strategy,
                                  realize_open_loop, strategy_control_index,
                                  strategy_control_sequence)


def constant_strategy(control_set, index: int, start: float, end: float,
                      label: str = "") -> ElementaryStrategy:
    return ElementaryStrategy(control_set=control_set,
                              start_rule=FixedTimeRule(start),
                              rules=(FixedTimeRule(end),),
                              actions=(ConstantAction(index),),
                              label=label or f"const{index}")


def hitswitch_strategy(control_set, start: float, end: float,
                       level: float = 1.0) -> ElementaryStrategy:
    return ElementaryStrategy(control_set=control_set,
                              start_rule=FixedTimeRule(start),
                              rules=(HittingRule(AbsRegion(level)),
                                     FixedTimeRule(end)),
                              actions=(ConstantAction(0), ConstantAction(1)),
                              label="hitswitch")


def const_adv(index: int, label: str) -> Adversary:
    return Adversary(id=label, kind="open_loop", control=ConstantControl(index))


# --------------------------------------------------- single-path simulation ---- #


def test_zero_coefficient_path_stays_put(constant_problem):
    spec = constant_problem.spec
    times = np.linspace(0.0, spec.horizon, 17)
    noise = sample_noise(times, 5, spec.noise_dim)
    alpha = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    traj = simulate_strong(spec, alpha, ConstantControl(0), noise, np.array([0.3]))
    assert np.all(traj.states == 0.3)
    assert traj.payoff == 1.0
    assert traj.seed == 5
    assert np.all(traj.u_indices == 0) and np.all(traj.v_indices == 0)


def test_matched_signs_reproduce_drifted_walk_bitwise(pennies_problem):
    # u = v = +1 makes the drift u*v = 1 and sigma = 1, so the path is the
    # hand-rolled recursion x <- (x + dt) + dW, float op for float op
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 33)
    noise = sample_noise(times, 11, spec.noise_dim)
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    traj = simulate_strong(spec, alpha, ConstantControl(1), noise, np.array([0.1]))
    x = 0.1
    for i in range(32):
        x = (x + float(times[i + 1] - times[i])) + float(noise.dW[i, 0])
        assert traj.states[i + 1, 0] == x
    assert traj.payoff == float(np.tanh(x))


def test_zero_noise_drift_integrates_exactly(drift_problem):
    # sigma = 0 and u + v = 0.5 on a binary dt grid: X_T = x0 + 0.5 T exactly
    spec = dataclasses.replace(drift_problem.spec,
                               diffusion=lambda t, x, u, v: np.zeros(x.shape + (1,)))
    times = np.linspace(0.0, spec.horizon, 65)
    noise = sample_noise(times, 0, spec.noise_dim)
    alpha = constant_strategy(spec.controls_u, 2, 0.0, spec.horizon)
    traj = simulate_strong(spec, alpha, ConstantControl(0), noise, np.array([0.0]))
    assert traj.states[-1, 0] == 0.25
    assert np.all(traj.u_indices == 2) and np.all(traj.v_indices == 0)


def test_feedback_pair_freezes_both_players(pennies_problem):
    # two hitting strategies against each other still produce a well-defined
    # path, and both index sequences are piecewise constant
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 33)
    noise = sample_noise(times, 3, spec.noise_dim)
    alpha = hitswitch_strategy(spec.controls_u, 0.0, spec.horizon, level=0.4)
    beta = hitswitch_strategy(spec.controls_v, 0.0, spec.horizon, level=0.6)
    traj = simulate_feedback_pair(spec, alpha, beta, noise, np.array([0.0]))
    for seq in (traj.u_indices, traj.v_indices):
        changes = np.count_nonzero(np.diff(seq))
        assert changes <= 1  # one switch each at most


def test_out_of_range_strategy_reply_is_refused(pennies_problem):
    # index 2 on a two-point set would otherwise decode as another pair
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 9)
    alpha = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    beta = constant_strategy(spec.controls_v, 2, 0.0, spec.horizon)
    with pytest.raises(ModelEvaluationError, match="outside"):
        simulate_feedback_pair(spec, alpha, beta, sample_noise(times, 1, spec.noise_dim),
                               np.array([0.0]))


def test_out_of_range_controller_action_is_refused(pennies_problem):
    # the controller side of the check above, made once before the first step
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 9)
    alpha = constant_strategy(spec.controls_u, 2, 0.0, spec.horizon, label="bad")
    with pytest.raises(ModelEvaluationError,
                       match=r"strategy 'bad' plays index 2 outside \[0, 2\)"):
        simulate_strong(spec, alpha, ConstantControl(0),
                        sample_noise(times, 1, spec.noise_dim), np.array([0.0]))


def test_recorded_index_paths_match_the_oracle(pennies_problem):
    # the u/v paths of a trajectory are what each strategy plays on the
    # recorded states, and replaying v open loop reproduces those states
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 33)
    alpha = hitswitch_strategy(spec.controls_u, 0.0, spec.horizon, level=0.4)
    beta = hitswitch_strategy(spec.controls_v, 0.0, spec.horizon, level=0.6)
    switches = 0
    for seed in range(8):
        noise = sample_noise(times, seed, spec.noise_dim)
        traj = simulate_feedback_pair(spec, alpha, beta, noise, np.array([0.0]))
        for strat, got in ((alpha, traj.u_indices), (beta, traj.v_indices)):
            want, _ = strategy_control_sequence(strat, times, traj.states)
            assert np.array_equal(got, want), (seed, strat.label)
            switches += np.count_nonzero(np.diff(got))
        res = embed_feedback_as_openloop(spec, alpha, beta, noise, np.array([0.0]))
        assert np.array_equal(res.replayed.states, traj.states)
    assert switches > 0


# ------------------------------------------------------- estimate_payoff ---- #


def test_constant_payoff_estimates_one_with_zero_error(constant_problem):
    spec = constant_problem.spec
    alpha = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    est = estimate_payoff(spec, 0.0, np.array([0.0]), alpha, const_adv(0, "c"),
                          n_paths=16, master_seed=1,
                          engine=EngineConfig(n_steps=8))
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.n_paths == 16
    assert est.payoffs is None


def test_deterministic_dynamics_have_zero_standard_error(drift_problem):
    spec = dataclasses.replace(drift_problem.spec,
                               diffusion=lambda t, x, u, v: np.zeros(x.shape + (1,)))
    alpha = constant_strategy(spec.controls_u, 2, 0.0, spec.horizon)
    est = estimate_payoff(spec, 0.0, np.array([0.0]), alpha, const_adv(0, "c"),
                          n_paths=8, master_seed=4,
                          engine=EngineConfig(n_steps=64), keep_payoffs=True)
    assert est.std_error == 0.0
    assert est.mean == float(eval_payoff(spec, np.array([0.25])))
    assert np.all(est.payoffs == est.mean)


def test_same_arguments_reproduce_bitwise(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    adv = Adversary(id="sgn", kind="open_loop",
                    control=SignControl(pos_index=1, neg_index=0))
    kw = dict(n_paths=64, master_seed=12, engine=EngineConfig(n_steps=32),
              keep_payoffs=True)
    a = estimate_payoff(spec, 0.0, np.array([0.0]), alpha, adv, **kw)
    b = estimate_payoff(spec, 0.0, np.array([0.0]), alpha, adv, **kw)
    assert np.array_equal(a.payoffs, b.payoffs)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_chunk_and_thread_layout_is_invisible(pennies_problem, pennies_fields):
    spec = pennies_problem.spec
    lower, _ = pennies_fields
    times = np.linspace(0.0, spec.horizon, 33)
    ladder = make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]],
                                label="grid4")
    adv = Adversary(id="sgn", kind="open_loop",
                    control=SignControl(pos_index=1, neg_index=0))
    runs = []
    for chunk, threads in ((7, 1), (64, 3), (17, 2), (1000, 1)):
        engine = EngineConfig(n_steps=32, chunk_size=chunk, threads=threads)
        runs.append(estimate_payoff(spec, 0.0, np.array([0.0]), ladder, adv,
                                    n_paths=50, master_seed=9, engine=engine,
                                    keep_payoffs=True))
    for other in runs[1:]:
        assert np.array_equal(runs[0].payoffs, other.payoffs)
        assert runs[0].mean == other.mean
        assert runs[0].clamp_count == other.clamp_count

    # worker processes also run the dpp postprocess and every adversary kind
    x0 = np.array([0.0])
    hitter = hitswitch_strategy(spec.controls_u, 0.0, spec.horizon, level=0.8)
    beta = hitswitch_strategy(spec.controls_v, 0.0, spec.horizon, level=0.9)
    family = AdversaryFamily((
        adv, Adversary(id="fb", kind="feedback", feedback=lower.feedback_v),
        Adversary(id="br", kind="best_response",
                  response=BestResponseTable.from_field(lower)),
        Adversary(id="beta", kind="strategy", strategy=beta)))
    strategies = [("grid4", ladder), ("hitswitch", hitter)]
    rho = CappedRule(HittingRule(AbsRegion(0.5)), FixedTimeRule(spec.horizon))

    def tables(chunk, threads):
        engine = EngineConfig(n_steps=32, chunk_size=chunk, threads=threads)
        value = value_experiment(spec, 0.0, x0, strategies, family, n_paths=50,
                                 master_seed=9, engine=engine, keep_payoffs=True)
        dpp = dpp_check(spec, lower, 0.0, x0, strategies, family, rho,
                        n_paths=50, master_seed=9, engine=engine)
        ests = [est for rv in value.per_strategy.values() for est in rv.members.values()]
        return ([est.payoffs for est in ests], [est.clamp_count for est in ests],
                dpp.cells)

    payoffs, clamps, dpp_cells = tables(50, 1)
    for chunk, threads in ((17, 2), (11, 3)):
        other_payoffs, other_clamps, other_cells = tables(chunk, threads)
        assert all(np.array_equal(a, b) for a, b in zip(payoffs, other_payoffs))
        assert clamps == other_clamps
        assert dpp_cells == other_cells


def test_chunks_run_in_worker_processes(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    times = np.linspace(0.0, spec.horizon, 9)
    seeds = derive_seed_array(0, np.arange(8))
    values, _ = _run_cells(spec, times, np.array([0.0]), [(alpha, const_adv(0, "c0"))],
                           seeds, EngineConfig(n_steps=8, chunk_size=4, threads=2),
                           postprocess=lambda t, states: np.full(states.shape[0],
                                                                 os.getpid()))
    pids = values[0].astype(int)
    assert np.all(pids[:4] == pids[0]) and np.all(pids[4:] == pids[4])
    assert pids[0] != pids[4]
    assert os.getpid() not in (pids[0], pids[4])


class _TwoArgError(Exception):
    """Pickles but cannot be rebuilt from its args alone."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def test_worker_process_failures_reach_the_parent():
    engine = EngineConfig(n_steps=1, chunk_size=1, threads=2)
    parent = os.getpid()

    def fails_from_chunk_1(ci, start, stop):
        if ci >= 1:
            raise ValueError(f"chunk {ci}")

    # worker 0 fails on chunk 2 and worker 1 on chunk 1; the lowest chunk
    # wins, as in a single-process run
    with pytest.raises(ValueError, match="chunk 1"):
        _map_chunks(3, engine, fails_from_chunk_1)

    def dies(ci, start, stop):
        if ci == 1 and os.getpid() != parent:
            os._exit(3)

    with pytest.raises(RuntimeError, match="exited with code 3 without reporting"):
        _map_chunks(2, engine, dies)

    def raises_unpicklable(ci, start, stop):
        raise ValueError(lambda: None)

    with pytest.raises(RuntimeError, match="cannot be sent to the parent: ValueError"):
        _map_chunks(2, engine, raises_unpicklable)

    def raises_unrebuildable(ci, start, stop):
        raise _TwoArgError("no rebuild", 7)

    with pytest.raises(RuntimeError, match="cannot be sent to the parent: _TwoArgError"):
        _map_chunks(2, engine, raises_unrebuildable)


def test_worker_processes_need_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert EngineConfig(n_steps=4, threads=1).threads == 1
    with pytest.raises(ConfigError, match="'fork'"):
        EngineConfig(n_steps=4, threads=2)


def test_unused_extra_width_does_not_change_results(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    adv = Adversary(id="sgn", kind="open_loop",
                    control=SignControl(pos_index=1, neg_index=0))
    bare = estimate_payoff(spec, 0.0, np.array([0.0]), alpha, adv, n_paths=32,
                           master_seed=2, engine=EngineConfig(n_steps=16),
                           keep_payoffs=True)
    wide = estimate_payoff(spec, 0.0, np.array([0.0]), alpha, adv, n_paths=32,
                           master_seed=2,
                           engine=EngineConfig(n_steps=16, extra_dim=3),
                           keep_payoffs=True)
    assert np.array_equal(bare.payoffs, wide.payoffs)


def test_narrow_extra_override_is_rejected(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    adv = Adversary(id="sgnE", kind="open_loop",
                    control=SignControl(pos_index=1, neg_index=0, source="extra"))
    with pytest.raises(ConfigError, match="extra_dim"):
        estimate_payoff(spec, 0.0, np.array([0.0]), alpha, adv, n_paths=4,
                        master_seed=0,
                        engine=EngineConfig(n_steps=8, extra_dim=0))


def test_clamped_rules_are_counted_per_path(pennies_problem):
    # second rule fires before the first, so every path clamps exactly once;
    # the count must survive chunk splitting
    spec = pennies_problem.spec
    alpha = ElementaryStrategy(control_set=spec.controls_u,
                               start_rule=FixedTimeRule(0.0),
                               rules=(FixedTimeRule(0.3), FixedTimeRule(0.1),
                                      FixedTimeRule(spec.horizon)),
                               actions=(ConstantAction(1), ConstantAction(0),
                                        ConstantAction(1)),
                               label="clamped")
    for chunk in (5, 64):
        est = estimate_payoff(spec, 0.0, np.array([0.0]), alpha,
                              const_adv(0, "c"), n_paths=30, master_seed=3,
                              engine=EngineConfig(n_steps=32, chunk_size=chunk))
        assert est.clamp_count == 30


def test_estimator_validates_inputs(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    engine = EngineConfig(n_steps=8)
    with pytest.raises(ConfigError, match="n_paths"):
        estimate_payoff(spec, 0.0, np.array([0.0]), alpha, const_adv(0, "c"),
                        n_paths=1, master_seed=0, engine=engine)
    with pytest.raises(ConfigError, match="start time"):
        estimate_payoff(spec, spec.horizon, np.array([0.0]), alpha,
                        const_adv(0, "c"), n_paths=4, master_seed=0, engine=engine)
    with pytest.raises(ConfigError):
        estimate_payoff(spec, 0.0, np.zeros(2), alpha, const_adv(0, "c"),
                        n_paths=4, master_seed=0, engine=engine)


def test_anticipating_objects_are_refused(pennies_problem):
    spec = pennies_problem.spec
    honest = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    engine = EngineConfig(n_steps=8)
    peeking_adv = Adversary(id="peek", kind="open_loop",
                            control=LookaheadControl(1, 0))
    with pytest.raises(StrategyStructureError, match="anticipating"):
        estimate_payoff(spec, 0.0, np.array([0.0]), honest, peeking_adv,
                        n_paths=4, master_seed=0, engine=engine)
    peeking_alpha = ElementaryStrategy(control_set=spec.controls_u,
                                       start_rule=FixedTimeRule(0.0),
                                       rules=(FixedTimeRule(spec.horizon),),
                                       actions=(LookaheadAction(1, 0),),
                                       label="peek")
    with pytest.raises(StrategyStructureError, match="anticipating"):
        estimate_payoff(spec, 0.0, np.array([0.0]), peeking_alpha,
                        const_adv(0, "c"), n_paths=4, master_seed=0, engine=engine)


# -------------------------------------------- batch engine vs. reference ---- #


def _reply_by_hand(times, axes, table, t, iu, x):
    """table[layer, iu, cell...] at the grid node nearest (t, x), clamped."""
    layer = int(round((t - times[0]) / (times[1] - times[0])))
    node = [min(max(layer, 0), times.size - 1), iu]
    for a, axis in enumerate(axes):
        cell = int(np.rint((x[a] - axis[0]) / (axis[1] - axis[0])))
        node.append(min(max(cell, 0), axis.size - 1))
    return int(table[tuple(node)])


def _reference_march(spec, noise, x0, strategy, adv):
    """One path marched step by step, independently of the batch engine.

    Both players' strategies are read through strategy_control_index on the
    path prefix, open-loop controls through realize_open_loop, and the reply
    table at a node snapped by hand.
    """
    times = noise.times
    states = np.empty((times.size, spec.dim))
    states[0] = x0
    if adv.kind == "open_loop":
        v_path = realize_open_loop(adv.control, noise, spec.controls_v.size)
    for i in range(noise.n_steps):
        t = float(times[i])
        prefix = states[: i + 1]
        iu = strategy_control_index(strategy, times[i + 1], times, prefix)
        if adv.kind == "open_loop":
            jv = v_path[i]
        elif adv.kind == "feedback":
            jv = adv.feedback.lookup_index(t, states[i])
        elif adv.kind == "best_response":
            grid = adv.response.grid
            jv = _reply_by_hand(grid.times, grid.axes, adv.response.table, t, iu,
                                states[i])
        else:
            jv = strategy_control_index(adv.strategy, times[i + 1], times, prefix)
        states[i + 1] = euler_step(spec, t, float(times[i + 1] - times[i]), states[i],
                                   spec.controls_u.point(iu),
                                   spec.controls_v.point(jv), noise.dW[i])
    return float(eval_payoff(spec, states[-1]))


def _reference_payoffs(spec, s, x0, strategy, adv, n_paths, master_seed, engine):
    """Per-path re-simulation of what the batch engine computes in chunks."""
    times = np.linspace(s, spec.horizon, engine.n_steps + 1)
    seeds = derive_seed_array(master_seed, np.arange(n_paths))
    out = np.empty(n_paths)
    for p in range(n_paths):
        noise = sample_noise(times, int(seeds[p]), spec.noise_dim, adv.extra_dim)
        out[p] = _reference_march(spec, noise, x0, strategy, adv)
    return out


def test_batch_engine_matches_per_path_reference(pennies_problem, pennies_fields):
    spec = pennies_problem.spec
    lower, _ = pennies_fields
    s, x0 = 0.25, np.array([0.3])
    engine = EngineConfig(n_steps=32, chunk_size=7)
    times = np.linspace(s, spec.horizon, engine.n_steps + 1)
    ladder = make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]],
                                label="grid4")
    const1 = constant_strategy(spec.controls_u, 1, s, spec.horizon)
    hitter = hitswitch_strategy(spec.controls_u, s, spec.horizon, level=0.8)
    beta = hitswitch_strategy(spec.controls_v, s, spec.horizon, level=0.9)
    fb = Adversary(id="fb", kind="feedback", feedback=lower.feedback_v)
    br = Adversary(id="br", kind="best_response",
                   response=BestResponseTable.from_field(lower))
    cases = [
        (ladder, const_adv(0, "c0")),
        (hitter, const_adv(1, "c1")),
        (ladder, Adversary(id="sgn", kind="open_loop",
                           control=SignControl(pos_index=1, neg_index=0))),
        (ladder, Adversary(id="sgnE", kind="open_loop",
                           control=SignControl(pos_index=1, neg_index=0,
                                               source="extra"))),
        (ladder, Adversary(id="pw", kind="open_loop",
                           control=PiecewiseRandomControl(2, 4, salt=9))),
        (const1, fb),
        (const1, br),
        (hitter, fb),
        (hitter, br),
        (ladder, br),
        (ladder, Adversary(id="beta", kind="strategy", strategy=beta)),
    ]
    for strategy, adv in cases:
        est = estimate_payoff(spec, s, x0, strategy, adv, n_paths=24,
                              master_seed=21, engine=engine, keep_payoffs=True)
        ref = _reference_payoffs(spec, s, x0, strategy, adv, 24, 21, engine)
        assert np.array_equal(est.payoffs, ref), (strategy.label, adv.id)


def test_fire_batch_matches_scalar_scan():
    rng = np.random.default_rng(8)
    times = np.linspace(0.0, 1.0, 33)
    states = np.cumsum(rng.normal(scale=0.2, size=(40, 33, 1)), axis=1)
    rules = [
        FixedTimeRule(0.4),
        GridIndexRule(7),
        HittingRule(AbsRegion(0.8)),
        HittingRule(AbsRegion(0.5), from_rule=FixedTimeRule(0.3)),
        CappedRule(HittingRule(AbsRegion(0.8)), FixedTimeRule(0.9)),
        # a path-dependent from_rule: the hit is gated on its own monitor
        HittingRule(AbsRegion(0.5), from_rule=HittingRule(AbsRegion(0.2))),
    ]
    cap = times.size - 1
    for rule in rules:
        got = _fire_batch(rule, times, states)
        for p in range(states.shape[0]):
            f = rule.fire_index(times, states[p], cap)
            assert got[p] == (cap if f is None else f), rule


def test_best_response_lookup_batch_matches_scalar(pennies_fields):
    lower, _ = pennies_fields
    table = BestResponseTable.from_field(lower)
    rng = np.random.default_rng(31)
    x = rng.uniform(-4.5, 4.5, size=(64, 1))
    u_idx = rng.integers(0, 2, size=64)
    for t in (0.0, 0.13, 0.5):
        batch = table.lookup_batch(t, u_idx, x)
        scalar = [_reply_by_hand(lower.grid.times, lower.grid.axes, lower.response_v,
                                 t, int(u_idx[i]), x[i]) for i in range(64)]
        assert np.array_equal(batch, np.asarray(scalar))


class ScanOnlyRule(StoppingRule):
    """Fires at the last grid index, known only through fire_index."""

    def fire_index(self, times, states, upto):
        last = len(times) - 1
        return last if upto >= last else None


def test_rule_without_batch_form_is_refused_by_name(pennies_problem):
    spec = pennies_problem.spec
    alpha = ElementaryStrategy(control_set=spec.controls_u,
                               start_rule=FixedTimeRule(0.0),
                               rules=(ScanOnlyRule(),),
                               actions=(ConstantAction(1),), label="scan")
    with pytest.raises(StrategyStructureError, match="ScanOnlyRule"):
        estimate_payoff(spec, 0.0, np.array([0.0]), alpha, const_adv(0, "c"),
                        n_paths=4, master_seed=0, engine=EngineConfig(n_steps=8))
    noise = sample_noise(np.linspace(0.0, spec.horizon, 9), 3, spec.noise_dim)
    with pytest.raises(StrategyStructureError, match="ScanOnlyRule"):
        simulate_strong(spec, alpha, ConstantControl(0), noise, np.array([0.0]))


# ------------------------------------------------- families and experiments ---- #


def test_adversary_payload_validation():
    with pytest.raises(ConfigError, match="unknown kind"):
        Adversary(id="x", kind="psychic", control=ConstantControl(0))
    with pytest.raises(ConfigError, match="payload missing"):
        Adversary(id="x", kind="feedback")
    with pytest.raises(ConfigError, match="empty"):
        AdversaryFamily((), label="none")
    with pytest.raises(ConfigError, match="duplicate"):
        AdversaryFamily((const_adv(0, "a"), const_adv(1, "a")))


def test_singleton_family_matches_plain_estimate(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    adv = const_adv(0, "only")
    engine = EngineConfig(n_steps=16)
    est = estimate_payoff(spec, 0.0, np.array([0.0]), alpha, adv, n_paths=32,
                          master_seed=5, engine=engine)
    rv = robust_value(spec, 0.0, np.array([0.0]), alpha,
                      AdversaryFamily((adv,)), n_paths=32, master_seed=5,
                      engine=engine)
    assert rv.mean == est.mean
    assert rv.estimate.std_error == est.std_error
    assert rv.worst_id == "only"


def test_opposing_sign_is_the_worst_constant(pennies_problem):
    # alpha plays +1, so v = -1 drifts the path down and lowers tanh payoff
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(1, "up"), const_adv(0, "down")))
    rv = robust_value(spec, 0.0, np.array([0.0]), alpha, family, n_paths=256,
                      master_seed=7, engine=EngineConfig(n_steps=32))
    assert rv.worst_id == "down"
    assert rv.members["down"].mean < rv.members["up"].mean
    assert rv.mean == rv.members["down"].mean


def test_ties_keep_the_earliest_member(pennies_problem):
    # identical controls under distinct ids share noise, so the means tie
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(0, "first"), const_adv(0, "second")))
    rv = robust_value(spec, 0.0, np.array([0.0]), alpha, family, n_paths=32,
                      master_seed=7, engine=EngineConfig(n_steps=16))
    assert rv.members["first"].mean == rv.members["second"].mean
    assert rv.worst_id == "first"


def test_extending_the_family_never_raises_the_value(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    base_members = (const_adv(0, "c0"), const_adv(1, "c1"))
    extra = (Adversary(id="sgn", kind="open_loop",
                       control=SignControl(pos_index=1, neg_index=0)),
             Adversary(id="pw", kind="open_loop",
                       control=PiecewiseRandomControl(2, 4, salt=1)))
    kw = dict(n_paths=64, master_seed=13, engine=EngineConfig(n_steps=16))
    small = robust_value(spec, 0.0, np.array([0.0]), alpha,
                         AdversaryFamily(base_members), **kw)
    big = robust_value(spec, 0.0, np.array([0.0]), alpha,
                       AdversaryFamily(base_members + extra), **kw)
    assert big.mean <= small.mean
    for aid in ("c0", "c1"):  # shared members see identical noise
        assert big.members[aid].mean == small.members[aid].mean


def test_value_experiment_rows_match_standalone_runs(pennies_problem, pennies_fields):
    spec = pennies_problem.spec
    lower, _ = pennies_fields
    engine = EngineConfig(n_steps=32)
    times = np.linspace(0.0, spec.horizon, 33)
    strategies = [
        ("const1", constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)),
        ("grid4", make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]],
                                     label="grid4")),
    ]
    family = AdversaryFamily((const_adv(0, "c0"), const_adv(1, "c1"),
                              Adversary(id="sgn", kind="open_loop",
                                        control=SignControl(pos_index=1,
                                                            neg_index=0))))
    report = value_experiment(spec, 0.0, np.array([0.0]), strategies, family,
                              n_paths=64, master_seed=17, engine=engine)
    for label, strat in strategies:
        alone = robust_value(spec, 0.0, np.array([0.0]), strat, family,
                             n_paths=64, master_seed=17, engine=engine)
        got = report.per_strategy[label]
        assert got.worst_id == alone.worst_id
        for aid in family.ids:
            assert got.members[aid].mean == alone.members[aid].mean
            assert got.members[aid].std_error == alone.members[aid].std_error
    best = max(report.per_strategy.values(), key=lambda rv: rv.mean)
    assert report.best.mean == best.mean
    assert report.per_strategy[report.best_label].mean == best.mean


def test_value_experiment_validates_inputs(pennies_problem):
    spec = pennies_problem.spec
    family = AdversaryFamily((const_adv(0, "c0"),))
    with pytest.raises(ConfigError, match="at least one strategy"):
        value_experiment(spec, 0.0, np.array([0.0]), [], family, n_paths=4,
                         master_seed=0, engine=EngineConfig(n_steps=8))


def test_default_families_have_documented_structure(pennies_problem, pennies_fields):
    lower, _ = pennies_fields
    base, enlarged = default_adversary_families(pennies_problem, lower,
                                                n_random=2, random_segments=4)
    assert base.ids == ("const:-1", "const:1", "signW", "antisignW",
                        "worstfb", "bestresp")
    assert enlarged.ids == base.ids + ("signE", "antisignE", "rand:0", "rand:1")
    assert base.max_extra_dim == 0
    assert enlarged.max_extra_dim == 1
    lean_base, _ = default_adversary_families(pennies_problem, None, n_random=0)
    assert lean_base.ids == ("const:-1", "const:1", "signW", "antisignW")
    no_fb, _ = default_adversary_families(pennies_problem, lower,
                                          include_feedback=False,
                                          include_best_response=False)
    assert "worstfb" not in no_fb.ids and "bestresp" not in no_fb.ids


def test_default_strategy_family_builds_grid_ladders(pennies_problem, pennies_fields):
    lower, _ = pennies_fields
    engine = EngineConfig(n_steps=32)
    family = default_strategy_family(pennies_problem, lower, [2, 4, 8], 0.0, engine)
    assert [label for label, _ in family] == ["grid2", "grid4", "grid8"]
    for _, strat in family:
        assert strat.control_set is lower.feedback_u.control_set
    with pytest.raises(ConfigError, match="decision count"):
        default_strategy_family(pennies_problem, lower, [0], 0.0, engine)


def test_builtin_pairs_cover_the_three_by_three_grid(pennies_problem, pennies_fields):
    lower, upper = pennies_fields
    pairs = builtin_pairs(pennies_problem, lower, upper, 0.0,
                          EngineConfig(n_steps=32))
    assert len(pairs) == 9
    assert sorted({aid for aid, _, _, _ in pairs}) == [
        "alpha:const0", "alpha:grid4", "alpha:grid8"]
    assert sorted({bid for _, _, bid, _ in pairs}) == [
        "beta:const_last", "beta:grid4", "beta:hitswitch"]


# ------------------------------------------------------------- filtration ---- #


def test_filtration_requires_enlarged_superset(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    base = AdversaryFamily((const_adv(0, "c0"), const_adv(1, "c1")))
    enlarged = AdversaryFamily((const_adv(0, "c0"),))
    with pytest.raises(ConfigError, match="missing"):
        filtration_experiment(spec, 0.0, np.array([0.0]), alpha, base, enlarged,
                              n_paths=4, master_seed=0,
                              engine=EngineConfig(n_steps=8))


def test_filtration_delta_is_structurally_nonnegative(pennies_problem, pennies_fields):
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    base, enlarged = default_adversary_families(pennies_problem, lower,
                                                n_random=2, random_segments=4)
    engine = EngineConfig(n_steps=32)
    times = np.linspace(0.0, spec.horizon, 33)
    alpha = make_grid_strategy(lower.feedback_u, times[[0, 16, 32]], label="grid2")
    rep = filtration_experiment(spec, 0.0, np.array([0.0]), alpha, base,
                                enlarged, n_paths=40, master_seed=19,
                                engine=engine)
    assert rep.delta >= 0.0
    assert rep.delta == rep.base.mean - rep.enlarged.mean
    expect_se = np.sqrt(rep.base.estimate.std_error ** 2
                        + rep.enlarged.estimate.std_error ** 2)
    assert rep.se_combined == pytest.approx(expect_se, rel=1e-12)
    # base rows are shared with the enlarged run, so standalone values match
    alone = robust_value(spec, 0.0, np.array([0.0]), alpha, base, n_paths=40,
                         master_seed=19, engine=engine)
    for aid in base.ids:
        assert rep.base.members[aid].mean == alone.members[aid].mean


def test_filtration_delta_zero_for_redundant_enlargement(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    base = AdversaryFamily((const_adv(0, "c0"), const_adv(1, "c1")))
    enlarged = AdversaryFamily((const_adv(0, "c0"), const_adv(1, "c1"),
                                const_adv(0, "c0:again")))
    rep = filtration_experiment(spec, 0.0, np.array([0.0]), alpha, base,
                                enlarged, n_paths=32, master_seed=23,
                                engine=EngineConfig(n_steps=16))
    assert rep.delta == 0.0


# ------------------------------------------------------------------- DPP ---- #


def test_dpp_at_the_start_time_is_exact(pennies_problem, pennies_fields):
    # rho == s reads the field at (s, x0) on every path: zero residual, and a
    # power-of-two path count keeps the mean of identical values exact
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(0, "c0"), const_adv(1, "c1")))
    rep = dpp_check(spec, lower, 0.0, np.array([0.0]), [("const1", alpha)],
                    family, GridIndexRule(0), n_paths=32, master_seed=29,
                    engine=EngineConfig(n_steps=16), rho_label="start")
    assert rep.residual == 0.0
    assert rep.game_value == rep.field_value
    assert rep.std_error == 0.0
    assert rep.rho_label == "start"
    assert set(rep.cells) == {("const1", "c0"), ("const1", "c1")}


def test_dpp_at_the_horizon_matches_the_direct_estimate(pennies_problem,
                                                        pennies_fields):
    # rho == T restarts on the terminal layer; the only gap to the direct
    # Monte Carlo value is spatial interpolation of tanh on the h=0.1 grid
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    engine = EngineConfig(n_steps=32)
    times = np.linspace(0.0, spec.horizon, 33)
    strategies = [
        ("const1", constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)),
        ("grid4", make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]],
                                     label="grid4")),
    ]
    family = AdversaryFamily((const_adv(0, "c0"), const_adv(1, "c1")))
    rep = dpp_check(spec, lower, 0.0, np.array([0.0]), strategies, family,
                    FixedTimeRule(spec.horizon), n_paths=64, master_seed=7,
                    engine=engine)
    direct = value_experiment(spec, 0.0, np.array([0.0]), strategies, family,
                              n_paths=64, master_seed=7, engine=engine)
    assert abs(rep.game_value - direct.best.mean) < 5e-3


def test_dpp_runs_a_capped_first_exit_rule(drift_problem, drift_fields):
    lower, _ = drift_fields
    spec = drift_problem.spec
    engine = EngineConfig(n_steps=32)
    times = np.linspace(0.0, spec.horizon, 33)
    alpha = make_grid_strategy(lower.feedback_u, times[[0, 16, 32]], label="grid2")
    family = AdversaryFamily((const_adv(0, "v-"), const_adv(2, "v+")))
    rho = CappedRule(HittingRule(AbsRegion(1.0)), FixedTimeRule(spec.horizon))
    rep = dpp_check(spec, lower, 0.0, np.array([0.0]), [("grid2", alpha)],
                    family, rho, n_paths=64, master_seed=11, engine=engine)
    assert np.isfinite(rep.residual) and rep.residual < 0.5
    assert rep.std_error > 0.0
    assert rep.best_strategy == "grid2"
    assert rep.worst_adversary in family.ids


def test_dpp_refuses_an_anticipating_rule(pennies_problem, pennies_fields):
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(0, "c0"),))
    with pytest.raises(StrategyStructureError, match="non-anticipativity"):
        dpp_check(spec, lower, 0.0, np.array([0.0]), [("const1", alpha)],
                  family, LookaheadRule(), n_paths=4, master_seed=0,
                  engine=EngineConfig(n_steps=8))


# --------------------------------------------------------------- embedding ---- #


def test_feedback_adversaries_embed_as_replayed_open_loop(pennies_problem,
                                                          drift_problem,
                                                          pennies_fields,
                                                          drift_fields):
    for problem, fields in ((pennies_problem, pennies_fields),
                            (drift_problem, drift_fields)):
        spec = problem.spec
        lower, upper = fields
        times = np.linspace(0.0, spec.horizon, 33)
        alpha = make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]],
                                   label="grid4")
        beta = make_grid_strategy(upper.feedback_v, times[[0, 16, 32]],
                                  label="grid2")
        for seed in range(5):
            noise = sample_noise(times, seed, spec.noise_dim)
            res = embed_feedback_as_openloop(spec, alpha, beta, noise,
                                             np.array([0.1]))
            assert res.control.indices == tuple(res.closed_loop.v_indices)
            assert np.array_equal(res.closed_loop.states, res.replayed.states)
            assert res.replayed.payoff == res.closed_loop.payoff


# ----------------------------------------------------------------- blow-up ---- #


def test_quadratic_drift_blows_up_on_every_entry_point(violator_problem):
    # the engine validates coefficients once per chunk, so the inf reaches
    # the state and trips the blow-up sentinel, for a chunk of paths and for
    # a single simulated path alike
    spec = violator_problem.spec
    alpha = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    with np.errstate(over="ignore"):
        with pytest.raises(SimulationBlowUpError) as err:
            estimate_payoff(spec, 0.0, np.array([8.0]), alpha, const_adv(0, "c"),
                            n_paths=4, master_seed=0,
                            engine=EngineConfig(n_steps=50))
        assert 0.0 < err.value.t <= spec.horizon
        assert not np.all(np.isfinite(err.value.state))

        times = np.linspace(0.0, spec.horizon, 51)
        noise = sample_noise(times, 123, spec.noise_dim)
        with pytest.raises(SimulationBlowUpError) as err_one:
            simulate_strong(spec, alpha, ConstantControl(0), noise,
                            np.array([8.0]))
        assert err_one.value.seed == 123
        assert 0.0 < err_one.value.t <= spec.horizon

        # raised in a worker process, it arrives as at threads=1
        errs = []
        for threads in (1, 2):
            with pytest.raises(SimulationBlowUpError) as err_chunked:
                estimate_payoff(spec, 0.0, np.array([8.0]), alpha, const_adv(0, "c"),
                                n_paths=4, master_seed=0,
                                engine=EngineConfig(n_steps=50, chunk_size=2,
                                                    threads=threads))
            errs.append(err_chunked.value)
        one, two = errs
        assert type(two) is SimulationBlowUpError and str(two) == str(one)
        assert (two.t, two.seed) == (one.t, one.seed)
        assert np.array_equal(two.state, one.state, equal_nan=True)


def test_state_overflow_raises_with_location(violator_problem):
    # a huge but finite constant drift keeps every coefficient evaluation
    # legal while the state itself leaves the doubles, which is exactly the
    # case the blow-up sentinel exists for
    spec = dataclasses.replace(violator_problem.spec,
                               drift=lambda t, x, u, v: np.full_like(x, 1.7e308))
    alpha = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    x0 = np.array([1.5e308])
    with np.errstate(over="ignore"):
        with pytest.raises(SimulationBlowUpError) as err:
            estimate_payoff(spec, 0.0, x0, alpha, const_adv(0, "c"), n_paths=4,
                            master_seed=0, engine=EngineConfig(n_steps=2))
        assert err.value.t == pytest.approx(0.25)
        assert not np.all(np.isfinite(err.value.state))
        assert err.value.seed is not None

        times = np.linspace(0.0, spec.horizon, 3)
        noise = sample_noise(times, 123, spec.noise_dim)
        with pytest.raises(SimulationBlowUpError) as err_one:
            simulate_strong(spec, alpha, ConstantControl(0), noise, x0)
        assert err_one.value.seed == 123
