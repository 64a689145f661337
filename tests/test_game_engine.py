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
import re

import numpy as np
import pytest

import strategy_oracle as oracle
from conftest import estimate_cell
from robustctl import game_engine, strategies
from robustctl.errors import (ConfigError, EmbeddingMismatchError,
                              ModelEvaluationError, SimulationBlowUpError,
                              StrategyIntervalError, StrategyStructureError)
from robustctl.game_engine import (Adversary, AdversaryFamily, EngineConfig,
                                   _adversary_realization, _map_chunks, _run_cells,
                                   builtin_pairs,
                                   default_adversary_families,
                                   default_strategy_family, dpp_check,
                                   dpp_checks, embed_feedback_as_openloop,
                                   filtration_experiment, simulate_feedback_pair,
                                   simulate_strong, value_experiment)
from robustctl.pde_solver import FeedbackMap, SpaceTimeGrid, ValueField, make_grid, solve_isaacs
from robustctl.sde_core import (ControlSet, NoisePath, ProblemSpec,
                                derive_seed, derive_seed_array, eval_payoff,
                                sample_noise, sample_noise_batch)
from robustctl.strategies import (_NOT_YET, UNDEFINED, AbsRegion, CappedRule,
                                  ConstantAction, ConstantControl,
                                  ElementaryStrategy, FixedTimeRule,
                                  GridIndexRule, HittingRule, OpenLoopControl, PiecewiseRandomControl,
                                  ReplayControl, SignControl, StoppingRule,
                                  _track, check_nonanticipative, fire_batch,
                                  make_grid_strategy, realize_checked)
from sde_oracle import euler_step
from working_set import peak_bytes


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
    return Adversary(label, ConstantControl(index))


# ------------------------------------------------------ recorded simulation ---- #


def test_zero_coefficient_path_stays_put(constant_problem):
    spec = constant_problem.spec
    times = np.linspace(0.0, spec.horizon, 17)
    noise = sample_noise(times, 5, spec.noise_dim)
    alpha = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    paths = simulate_strong(spec, alpha, ConstantControl(0), noise, np.array([0.3]))
    assert paths.states.shape == (1, 17, 1) and np.all(paths.states == 0.3)
    assert paths.payoffs.tolist() == [1.0]
    assert paths.seeds.tolist() == [5] and paths.clamp_count == 0
    assert np.all(paths.u_indices == 0) and np.all(paths.v_indices == 0)


def test_matched_signs_reproduce_drifted_walk_bitwise(pennies_problem):
    # u = v = +1 makes the drift u*v = 1 and sigma = 1, so the path is the
    # hand-rolled recursion x <- (x + dt) + dW, float op for float op
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 33)
    noise = sample_noise(times, 11, spec.noise_dim)
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    paths = simulate_strong(spec, alpha, ConstantControl(1), noise, np.array([0.1]))
    x = 0.1
    for i in range(32):
        x = (x + float(times[i + 1] - times[i])) + float(noise.dW[i, 0])
        assert paths.states[0, i + 1, 0] == x
    assert paths.payoffs[0] == float(np.tanh(x))


def test_zero_noise_drift_integrates_exactly(drift_problem):
    # sigma = 0 and u + v = 0.5 on a binary dt grid: X_T = x0 + 0.5 T exactly
    spec = dataclasses.replace(drift_problem.spec,
                               diffusion=lambda t, x, u, v: np.zeros(x.shape + (1,)))
    times = np.linspace(0.0, spec.horizon, 65)
    noise = sample_noise(times, 0, spec.noise_dim)
    alpha = constant_strategy(spec.controls_u, 2, 0.0, spec.horizon)
    paths = simulate_strong(spec, alpha, ConstantControl(0), noise, np.array([0.0]))
    assert paths.states[0, -1, 0] == 0.25
    assert np.all(paths.u_indices == 2) and np.all(paths.v_indices == 0)


def test_feedback_pair_freezes_both_players(pennies_problem):
    # two hitting strategies against each other still produce a well-defined
    # path, and both index sequences are piecewise constant
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 33)
    noise = sample_noise(times, 3, spec.noise_dim)
    alpha = hitswitch_strategy(spec.controls_u, 0.0, spec.horizon, level=0.4)
    beta = hitswitch_strategy(spec.controls_v, 0.0, spec.horizon, level=0.6)
    paths = simulate_feedback_pair(spec, alpha, beta, noise, np.array([0.0]))
    for seq in (paths.u_indices[0], paths.v_indices[0]):
        changes = np.count_nonzero(np.diff(seq))
        assert changes <= 1  # one switch each at most


def test_out_of_range_strategy_reply_is_refused(pennies_problem):
    # index 2 on a two-point set would otherwise decode as another pair; the
    # strategy refuses it against its own set when it is built
    spec = pennies_problem.spec
    with pytest.raises(StrategyStructureError,
                       match=r"^strategy 'const2' plays index 2 outside \[0, 2\)$"):
        constant_strategy(spec.controls_v, 2, 0.0, spec.horizon)


def test_out_of_range_controller_action_is_refused(pennies_problem):
    # the controller side of the check above, with a negative index too
    spec = pennies_problem.spec
    for index in (2, -1):
        with pytest.raises(StrategyStructureError,
                           match=rf"^strategy 'bad' plays index {index} outside \[0, 2\)$"):
            constant_strategy(spec.controls_u, index, 0.0, spec.horizon, label="bad")


def test_feedback_table_on_a_larger_set_is_refused_for_either_side(pennies_problem,
                                                                  drift_fields):
    # a drift_control table plays indices 0..2; pennies' sets have two points,
    # so index 2 would read past them on either side
    spec = pennies_problem.spec
    lower, _ = drift_fields
    times = np.linspace(0.0, spec.horizon, 9)
    wide = make_grid_strategy(lower.feedback_u, times[[0, 4, 8]], label="wide")
    noise = sample_noise(times, 1, spec.noise_dim)
    fits = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    for side, run in (("controller", lambda: simulate_strong(
                          spec, wide, ConstantControl(0), noise, np.array([0.0]))),
                      ("adversary", lambda: simulate_feedback_pair(
                          spec, fits, wide, noise, np.array([0.0])))):
        with pytest.raises(ModelEvaluationError,
                           match=rf"^{side} strategy 'wide' uses control set \{{-1, 0, 1\}}, "
                                 rf"the game's {side} set is \{{-1, 1\}}$"):
            run()


def test_nature_tables_on_another_game_are_refused(pennies_problem, drift_fields,
                                                   heat_field):
    # drift_control's tables reply with v indices 0..2 on {-0.5, 0, 0.5}, and
    # heat's with index 0 on {0}; on pennies each index would decode as
    # another v (heat's 0 as v = -1, a set no larger than pennies'), so the
    # sets themselves are compared, and a reply field's u rows too
    spec = pennies_problem.spec
    lower, _ = drift_fields
    alpha = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    engine = EngineConfig(n_steps=8)
    pm = r"\{-1, 1\}"
    cases = [
        (Adversary("fbwide", lower.feedback_v),
         rf"^adversary strategy 'fbwide' uses control set \{{-0.5, 0, 0.5\}}, "
         rf"the game's adversary set is {pm}$"),
        (Adversary("fbnarrow", heat_field.feedback_v),
         rf"^adversary strategy 'fbnarrow' uses control set \{{0\}}, "
         rf"the game's adversary set is {pm}$"),
        (Adversary("brwide", lower),
         rf"^adversary 'brwide' reply table 'drift_control/lower/v' uses control set "
         rf"\{{-0.5, 0, 0.5\}}, the game's adversary set is {pm}$"),
        (Adversary("brnarrow", heat_field),
         rf"^adversary 'brnarrow' reply table 'heat/lower/v' uses control set "
         rf"\{{0\}}, the game's adversary set is {pm}$"),
    ]
    for adv, named in cases:
        with pytest.raises(ModelEvaluationError, match=named):
            estimate_cell(spec, 0.0, np.array([0.0]), alpha, adv, n_paths=4,
                          master_seed=0, engine=engine)
    # heat's reply on a game with heat's v set but pennies' u set: its one
    # u row would be read for both of pennies' actions
    hybrid = dataclasses.replace(spec, controls_v=heat_field.feedback_v.control_set)
    with pytest.raises(ModelEvaluationError,
                       match=rf"^adversary 'brrows' reply rows 'heat/lower/u' uses control "
                             rf"set \{{0\}}, the game's controller set is {pm}$"):
        estimate_cell(hybrid, 0.0, np.array([0.0]), alpha, Adversary("brrows", heat_field),
                      n_paths=4, master_seed=0, engine=engine)


def test_noise_of_another_width_is_refused(pennies_problem):
    # sigma multiplies the sum of the components, so a width-2 path on a
    # one-noise game would move the state (X_T 2.4709 against 2.3580, seed 5)
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 9)
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    wide = sample_noise(times, 5, 2)
    with pytest.raises(ConfigError, match=r"^noise path seed 5 has dW width 2, "
                                          r"the game's noise_dim is 1$"):
        simulate_strong(spec, alpha, ConstantControl(1), wide, np.array([0.0]))
    mixed = [sample_noise(times, 5, 1), sample_noise(times, 6, 1, extra_dim=1)]
    with pytest.raises(ConfigError, match=r"extra widths \[0, 1\]"):
        simulate_strong(spec, alpha, ConstantControl(1), mixed, np.array([0.0]))


def test_a_strategy_that_runs_out_is_refused_on_either_side(pennies_problem):
    # every built-in strategy ends on FixedTimeRule(T), which fires after the
    # last step; one ending on a bare hitting rule runs out on each path that
    # hits, and the tracker's monitors must mark those rows UNDEFINED from
    # the hitting step on, which the engine refuses at the first such step
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 33)
    noises = [sample_noise(times, seed, spec.noise_dim) for seed in range(16)]
    x0 = np.array([0.0])

    def runs_out(control_set):
        return ElementaryStrategy(control_set=control_set, start_rule=FixedTimeRule(0.0),
                                  rules=(HittingRule(AbsRegion(0.5)),),
                                  actions=(ConstantAction(1),), label="runs_out")

    # until it runs out, the strategy plays index 1, so u = v = +1 on both sides
    played = simulate_strong(spec, constant_strategy(spec.controls_u, 1, 0.0, spec.horizon),
                             ConstantControl(1), noises, x0).states
    got, _ = _track(runs_out(spec.controls_u), times, played)
    out_at = []
    for p in range(len(noises)):
        want, _ = oracle.control_sequence(runs_out(spec.controls_u), times, played[p])
        assert np.array_equal(got[p], want), p
        undefined = np.flatnonzero(want == UNDEFINED)
        if undefined.size:
            assert np.array_equal(undefined, np.arange(undefined[0], times.size - 1)), p
            out_at.append(int(undefined[0]))
    assert 0 < len(out_at) < len(noises) and len(set(out_at)) > 1
    first = min(out_at)
    fits = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    for side, run in (("controller", lambda: simulate_strong(
                          spec, runs_out(spec.controls_u), ConstantControl(1), noises, x0)),
                      ("adversary", lambda: simulate_feedback_pair(
                          spec, fits, runs_out(spec.controls_v), noises, x0))):
        with pytest.raises(StrategyIntervalError,
                           match=rf"^{side} strategy 'runs_out' inactive on step {first} "):
            run()


def test_wide_seeds_record_as_their_64_bit_residues(pennies_problem):
    # sample_noise takes any int seed modulo 2**64, and the recorded entry
    # points read the path's seed into a uint64 array
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 17)
    alpha = hitswitch_strategy(spec.controls_u, 0.0, spec.horizon, level=0.3)
    beta = hitswitch_strategy(spec.controls_v, 0.0, spec.horizon, level=0.3)
    sign = SignControl(pos_index=1, neg_index=0)
    x0 = np.array([0.0])

    def record(seeds):
        noises = [sample_noise(times, seed, spec.noise_dim) for seed in seeds]
        return [simulate_strong(spec, alpha, sign, noises, x0),
                simulate_feedback_pair(spec, alpha, beta, noises, x0),
                embed_feedback_as_openloop(spec, alpha, beta, noises, x0)[0]]

    wide, narrow = record([-1, 2 ** 64 + 5]), record([2 ** 64 - 1, 5])
    for got, want in zip(wide, narrow):
        for name in ("states", "u_indices", "v_indices", "payoffs", "seeds"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.seeds.tolist() == [2 ** 64 - 1, 5]
        assert got.clamp_count == want.clamp_count


def test_hand_built_noise_paths_keep_their_64_bit_seeds(pennies_problem):
    # a NoisePath built by hand takes its seed modulo 2**64 too, so every
    # recorded entry point reads seed -1 as 2**64 - 1 instead of overflowing
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 17)
    alpha = hitswitch_strategy(spec.controls_u, 0.0, spec.horizon, level=0.3)
    beta = hitswitch_strategy(spec.controls_v, 0.0, spec.horizon, level=0.3)
    sign = SignControl(pos_index=1, neg_index=0)
    x0 = np.array([0.0])
    drawn = sample_noise(times, 2 ** 64 - 1, spec.noise_dim)
    by_hand = NoisePath(times=times, dW=drawn.dW, extra=drawn.extra, seed=-1)
    assert by_hand.seed == 2 ** 64 - 1
    for record in (lambda noise: simulate_strong(spec, alpha, sign, noise, x0),
                   lambda noise: simulate_feedback_pair(spec, alpha, beta, noise, x0),
                   lambda noise: embed_feedback_as_openloop(spec, alpha, beta, noise, x0)[0]):
        got, want = record(by_hand), record(drawn)
        assert got.seeds.tolist() == [2 ** 64 - 1]
        assert got.states.tobytes() == want.states.tobytes()


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
        paths = simulate_feedback_pair(spec, alpha, beta, noise, np.array([0.0]))
        for strat, got in ((alpha, paths.u_indices[0]), (beta, paths.v_indices[0])):
            want, _ = oracle.control_sequence(strat, times, paths.states[0])
            assert np.array_equal(got, want), (seed, strat.label)
            switches += np.count_nonzero(np.diff(got))
        pair, _ = embed_feedback_as_openloop(spec, alpha, beta, noise, np.array([0.0]))
        assert np.array_equal(pair.states, paths.states)
    assert switches > 0


# ---------------------------------------------------------- one-cell tables ---- #


def test_constant_payoff_estimates_one_with_zero_error(constant_problem):
    spec = constant_problem.spec
    alpha = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    est = estimate_cell(spec, 0.0, np.array([0.0]), alpha, const_adv(0, "c"),
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
    est = estimate_cell(spec, 0.0, np.array([0.0]), alpha, const_adv(0, "c"),
                        n_paths=8, master_seed=4,
                        engine=EngineConfig(n_steps=64), keep_payoffs=True)
    assert est.std_error == 0.0
    assert est.mean == float(eval_payoff(spec, np.array([0.25])))
    assert np.all(est.payoffs == est.mean)


def _exact_tanh_mean(mean: float, sd: float) -> float:
    """E tanh(mean + sd Z) for a standard normal Z, by 120-node Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(120)
    return float(weights @ np.tanh(mean + sd * np.sqrt(2.0) * nodes) / np.sqrt(np.pi))


@pytest.mark.parametrize("n_steps", [50, 2])
def test_constant_cells_match_the_exact_terminal_law(pennies_problem, drift_problem, n_steps):
    # with constant coefficients the Euler march is exact, X_T = x0 + cT +
    # sigma W_T, so every constant strategy against every constant control
    # has mean E tanh(x0 + cT + sigma W_T), with no field or step error; at
    # two steps a misread noise increment is half the path
    exact = {}
    for problem in (pennies_problem, drift_problem):
        spec = problem.spec
        U, V, T = spec.controls_u, spec.controls_v, spec.horizon
        x0 = np.zeros(spec.dim)
        strategies = [constant_strategy(U, i, 0.0, T) for i in range(U.size)]
        family = AdversaryFamily(tuple(const_adv(j, f"v{j}") for j in range(V.size)))
        report = value_experiment(spec, 0.0, x0, strategies, family, 4000, 7,
                                  EngineConfig(n_steps=n_steps))
        for i, strategy in enumerate(strategies):
            for j in range(V.size):
                u, v = U.point(i), V.point(j)
                c = float(spec.drift(0.0, x0[None], u, v)[0, 0])
                sigma = float(spec.diffusion(0.0, x0[None], u, v)[0, 0, 0])
                want = _exact_tanh_mean(x0[0] + c * T, sigma * np.sqrt(T))
                est = report.per_strategy[strategy.label].members[f"v{j}"]
                assert abs(est.mean - want) <= 3.0 * est.std_error, (spec.label, i, j)
                exact[spec.label, i, j] = want
    assert len(exact) == 13
    # the games' values: pennies' lower (c = -1) and upper (c = +1) fields
    # and drift_control's saddle (c = 1/2), at (0, 0)
    for key, value in ((("pennies", 1, 0), -0.350113), (("pennies", 0, 0), 0.350113),
                       (("drift_control", 2, 0), 0.179905)):
        assert abs(exact[key] - value) < 5e-7, key


def test_same_arguments_reproduce_bitwise(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    adv = Adversary("sgn", SignControl(pos_index=1, neg_index=0))
    kw = dict(n_paths=64, master_seed=12, engine=EngineConfig(n_steps=32),
              keep_payoffs=True)
    a = estimate_cell(spec, 0.0, np.array([0.0]), alpha, adv, **kw)
    b = estimate_cell(spec, 0.0, np.array([0.0]), alpha, adv, **kw)
    assert np.array_equal(a.payoffs, b.payoffs)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_a_sign_control_past_its_streams_width_is_named(pennies_problem):
    # pennies has one noise coordinate: a sign control reading coordinate 1
    # used to escape the table as a bare IndexError from its running sum
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((Adversary("sgn1", SignControl(1, 0, coord=1)),))
    with pytest.raises(ConfigError, match=r"^control 'sign_brownian' reads coordinate 1 of "
                                          r"the brownian stream, which is 1 wide$"):
        value_experiment(spec, 0.0, np.array([0.0]), [alpha], family, n_paths=16,
                         master_seed=3, engine=EngineConfig(n_steps=8))
    with pytest.raises(ConfigError, match="coordinate -1 is negative"):
        SignControl(1, 0, coord=-1)


def test_chunk_and_thread_layout_is_invisible(pennies_problem, pennies_fields):
    spec = pennies_problem.spec
    lower, _ = pennies_fields
    times = np.linspace(0.0, spec.horizon, 33)
    ladder = make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]],
                                label="grid4")
    adv = Adversary("sgn", SignControl(pos_index=1, neg_index=0))
    runs = []
    for chunk, threads in ((7, 1), (64, 3), (17, 2), (1000, 1)):
        engine = EngineConfig(n_steps=32, chunk_size=chunk, threads=threads)
        runs.append(estimate_cell(spec, 0.0, np.array([0.0]), ladder, adv,
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
        adv, Adversary("fb", lower.feedback_v),
        Adversary("br", lower),
        Adversary("beta", beta)))
    strategies = [ladder, hitter]
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
    # the payoff reports the process that evaluates it
    spec = dataclasses.replace(pennies_problem.spec, payoff_bound=float(2 ** 40),
                               payoff=lambda x: np.full(x.shape[:-1], float(os.getpid())))
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    times = np.linspace(0.0, spec.horizon, 9)
    seeds = derive_seed_array(0, np.arange(8))
    values, _ = _run_cells(spec, times, np.array([0.0]), [(alpha, const_adv(0, "c0"))],
                           seeds, EngineConfig(n_steps=8, chunk_size=4, threads=2))
    pids = values[0, 0].astype(int)
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
        est = estimate_cell(spec, 0.0, np.array([0.0]), alpha,
                            const_adv(0, "c"), n_paths=30, master_seed=3,
                            engine=EngineConfig(n_steps=32, chunk_size=chunk))
        assert est.clamp_count == 30


def test_estimator_validates_inputs(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    engine = EngineConfig(n_steps=8)
    with pytest.raises(ConfigError, match="n_paths"):
        estimate_cell(spec, 0.0, np.array([0.0]), alpha, const_adv(0, "c"),
                      n_paths=1, master_seed=0, engine=engine)
    with pytest.raises(ConfigError, match="start time"):
        estimate_cell(spec, spec.horizon, np.array([0.0]), alpha,
                      const_adv(0, "c"), n_paths=4, master_seed=0, engine=engine)
    with pytest.raises(ConfigError):
        estimate_cell(spec, 0.0, np.zeros(2), alpha, const_adv(0, "c"),
                      n_paths=4, master_seed=0, engine=engine)


def test_anticipating_objects_are_refused(pennies_problem):
    # nothing declares itself: the tracker has no batch form for a lookahead
    # action (the screen's refusal of a peeking control is tested below)
    spec = pennies_problem.spec
    honest = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    engine = EngineConfig(n_steps=8)
    peeking_alpha = ElementaryStrategy(control_set=spec.controls_u,
                                       start_rule=FixedTimeRule(0.0),
                                       rules=(FixedTimeRule(spec.horizon),),
                                       actions=(oracle.LookaheadAction(1, 0),),
                                       label="peek")
    with pytest.raises(StrategyStructureError, match="LookaheadAction has no batch form"):
        estimate_cell(spec, 0.0, np.array([0.0]), peeking_alpha,
                      const_adv(0, "c"), n_paths=4, master_seed=0, engine=engine)
    # the recording primitives screen nothing: the tracker still refuses the
    # action, while the peeking control is recorded as it plays
    noise = sample_noise(np.linspace(0.0, spec.horizon, 9), 3, spec.noise_dim)
    with pytest.raises(StrategyStructureError, match="LookaheadAction has no batch form"):
        simulate_strong(spec, peeking_alpha, ConstantControl(0), noise, np.array([0.0]))
    paths = simulate_strong(spec, honest, oracle.LookaheadControl(1, 0), noise,
                            np.array([0.0]))
    assert np.array_equal(paths.v_indices[0], np.where(noise.dW[:, 0] >= 0.0, 1, 0))


def test_an_unflagged_peeking_control_is_refused_by_every_table(pennies_problem,
                                                                 pennies_fields):
    # a control that reads dW[:, i] on step i and declares nothing is refused
    # by behaviour alone, with its id and the screen's failure count
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    engine = EngineConfig(n_steps=16)
    x0 = np.array([0.0])
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    peek = Adversary("peek", oracle.LookaheadControl(1, 0))
    family = AdversaryFamily((const_adv(0, "c0"), peek))
    seed = 11
    screened = check_nonanticipative(peek.plays, n_trials=200,
                                     seed=derive_seed(seed, 23), n_steps=16,
                                     horizon=spec.horizon, noise_dim=spec.noise_dim)
    assert 0 < screened.failures < screened.trials
    message = re.escape(f"adversary 'peek' failed the non-anticipativity screen "
                        f"({screened.failures}/200 trials)")
    kw = dict(n_paths=8, master_seed=seed, engine=engine)
    with pytest.raises(StrategyStructureError, match=message):
        value_experiment(spec, 0.0, x0, [alpha], family, **kw)
    with pytest.raises(StrategyStructureError, match=message):
        estimate_cell(spec, 0.0, x0, alpha, peek, **kw)
    with pytest.raises(StrategyStructureError, match=message):
        filtration_experiment(spec, 0.0, x0, alpha, AdversaryFamily(family.members[:1]),
                              family, **kw)
    with pytest.raises(StrategyStructureError, match=message):
        dpp_checks(spec, lower, 0.0, x0, [alpha], family,
                   [("half", FixedTimeRule(spec.horizon / 2))], **kw)


def test_a_one_step_engine_runs_every_table(pennies_problem, pennies_fields):
    # the screen probes on at least two steps, so a one-step grid still runs
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    engine = EngineConfig(n_steps=1)
    x0 = np.array([0.0])
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(0, "c0"),
                              Adversary("sgn", SignControl(pos_index=1, neg_index=0))))
    kw = dict(n_paths=16, master_seed=3, engine=engine)
    report = value_experiment(spec, 0.0, x0, [alpha], family, **kw)
    assert np.isfinite(report.best.mean) and report.best.estimate.n_paths == 16
    (rep,) = dpp_checks(spec, lower, 0.0, x0, [alpha], family,
                        [("T", FixedTimeRule(spec.horizon))], **kw)
    assert np.isfinite(rep.game_value)
    with pytest.raises(StrategyStructureError, match="adversary 'peek'"):
        value_experiment(spec, 0.0, x0, [alpha],
                         AdversaryFamily((Adversary("peek", oracle.LookaheadControl(1, 0)),)),
                         **kw)


def test_the_screen_probes_at_the_table_step_count(pennies_problem):
    # a one-path replay fixes its length, so it must be probed on the table's
    # own 100 steps; it then plays in the table as it does when recorded, and
    # a lookahead control is still refused at that length
    spec = pennies_problem.spec
    engine = EngineConfig(n_steps=100)
    x0 = np.array([0.0])
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    replay = ReplayControl(np.arange(100) % 2)
    kw = dict(n_paths=16, master_seed=3, engine=engine)
    est = value_experiment(spec, 0.0, x0, [alpha], AdversaryFamily((Adversary("r", replay),)),
                           keep_payoffs=True, **kw).best.estimate
    times = np.linspace(0.0, spec.horizon, 101)
    noises = [sample_noise(times, int(seed), spec.noise_dim)
              for seed in derive_seed_array(3, np.arange(16))]
    assert np.array_equal(est.payoffs, simulate_strong(spec, alpha, replay, noises, x0).payoffs)
    with pytest.raises(StrategyStructureError, match="adversary 'peek'"):
        value_experiment(spec, 0.0, x0, [alpha],
                         AdversaryFamily((Adversary("peek", oracle.LookaheadControl(1, 0)),)),
                         **kw)


def test_a_family_is_screened_once_per_game_grid(pennies_problem, monkeypatch):
    # a member that passed keeps the grid; a new grid or a fresh member is
    # screened again, and feedback members never are
    screened = []
    screen = game_engine.check_nonanticipative

    def counting(obj, **kwargs):
        screened.append((obj, kwargs["n_steps"]))
        return screen(obj, **kwargs)

    monkeypatch.setattr(game_engine, "check_nonanticipative", counting)
    spec = pennies_problem.spec
    x0 = np.array([0.0])
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    sgn = SignControl(pos_index=1, neg_index=0)
    family = AdversaryFamily((const_adv(0, "c0"), Adversary("sgn", sgn),
                              Adversary("fb", constant_strategy(spec.controls_v, 1, 0.0,
                                                                spec.horizon))))
    kw = dict(n_paths=16, master_seed=3)
    first = value_experiment(spec, 0.0, x0, [alpha], family, engine=EngineConfig(16), **kw)
    assert screened == [(family.members[0].plays, 16), (sgn, 16)]
    again = value_experiment(spec, 0.0, x0, [alpha], family, engine=EngineConfig(16), **kw)
    assert len(screened) == 2
    assert again.best.mean == first.best.mean
    value_experiment(spec, 0.0, x0, [alpha], family, engine=EngineConfig(8), **kw)
    assert [n for _, n in screened[2:]] == [8, 8]
    fresh = AdversaryFamily((Adversary("sgn", sgn),))
    value_experiment(spec, 0.0, x0, [alpha], fresh, engine=EngineConfig(16), **kw)
    assert screened[4:] == [(sgn, 16)]


# -------------------------------------------- batch engine vs. reference ---- #


def _reference_march(spec, noise, x0, strategy, adv):
    """One path marched step by step, independently of the batch engine.

    Both players' strategies, open-loop controls and table lookups are
    read through the per-path oracle, on the path prefix.
    """
    times = noise.times
    states = np.empty((times.size, spec.dim))
    states[0] = x0
    plays = adv.plays
    if isinstance(plays, OpenLoopControl):
        v_path = oracle.realize(plays, noise)
    for i in range(noise.n_steps):
        t = float(times[i])
        prefix = states[: i + 1]
        iu, _ = oracle.step_control(strategy, times, prefix, i)
        if isinstance(plays, OpenLoopControl):
            jv = v_path[i]
        elif isinstance(plays, FeedbackMap):
            jv = oracle.snap_lookup(plays.grid.times, plays.grid.axes, plays.indices, t,
                                    states[i])
        elif isinstance(plays, ValueField):
            grid = plays.grid
            jv = oracle.snap_lookup(grid.times, grid.axes, plays.response_v, t, states[i], iu)
        else:
            jv, _ = oracle.step_control(plays, times, prefix, i)
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
    fb = Adversary("fb", lower.feedback_v)
    br = Adversary("br", lower)
    cases = [
        (ladder, const_adv(0, "c0")),
        (hitter, const_adv(1, "c1")),
        (ladder, Adversary("sgn", SignControl(pos_index=1, neg_index=0))),
        (ladder, Adversary("sgnE", SignControl(pos_index=1, neg_index=0,
                                               source="extra"))),
        (ladder, Adversary("pw", PiecewiseRandomControl(2, 4, salt=9))),
        (const1, fb),
        (const1, br),
        (hitter, fb),
        (hitter, br),
        (ladder, br),
        (ladder, Adversary("beta", beta)),
    ]
    for strategy, adv in cases:
        est = estimate_cell(spec, s, x0, strategy, adv, n_paths=24,
                            master_seed=21, engine=engine, keep_payoffs=True)
        ref = _reference_payoffs(spec, s, x0, strategy, adv, 24, 21, engine)
        assert np.array_equal(est.payoffs, ref), (strategy.label, adv.id)


def _coupled_game() -> ProblemSpec:
    """dim 2, noise_dim 2, three u and two v controls; both coefficients read
    (u, v, x)."""

    def drift(t, x, u, v):
        return np.stack([u[0] * v[0] - 0.5 * x[..., 1],
                         v[0] + u[0] * np.sin(x[..., 0])], axis=-1)

    def diffusion(t, x, u, v):
        sig = np.empty(x.shape + (2,))
        sig[..., 0, 0] = 1.0 + 0.25 * u[0]
        sig[..., 0, 1] = 0.1 * v[0] * x[..., 1]
        sig[..., 1, 0] = 0.2 * np.sin(x[..., 0])
        sig[..., 1, 1] = 0.5 + u[0] * v[0] ** 2 + 0.3 * v[0]
        return sig

    return ProblemSpec(label="coupled", dim=2, noise_dim=2, horizon=1.0, drift=drift,
                       diffusion=diffusion,
                       payoff=lambda x: np.tanh(x[..., 0] + 0.5 * x[..., 1]),
                       controls_u=ControlSet([[-1.0], [0.0], [1.0]], label="U3"),
                       controls_v=ControlSet([[-0.5], [0.5]], label="V2"),
                       payoff_bound=1.0)


def _spy_mixed_steps(monkeypatch) -> list:
    """Record each mixed step's (code span hi - lo + 1, live codes), read from ``code``."""
    steps, step = [], game_engine._step_batch

    def spy_step(spec, t, dt, X, code, lo, hi, dWi, rows):
        if hi > lo:
            steps.append((hi - lo + 1, np.unique(code).size))
        return step(spec, t, dt, X, code, lo, hi, dWi, rows)

    monkeypatch.setattr(game_engine, "_step_batch", spy_step)
    return steps


def _three_way(control_set, end: float) -> ElementaryStrategy:
    first = HittingRule(AbsRegion(0.3, coord=0))
    return ElementaryStrategy(control_set=control_set, start_rule=FixedTimeRule(0.0),
                              rules=(first, HittingRule(AbsRegion(0.5, coord=1), from_rule=first),
                                     FixedTimeRule(end)),
                              actions=(ConstantAction(0), ConstantAction(1), ConstantAction(2)),
                              label="threeway")


def _swap(control_set) -> ElementaryStrategy:
    """u = -1 until |x_0| >= 0.3, then u = +1."""
    return ElementaryStrategy(control_set=control_set, start_rule=FixedTimeRule(0.0),
                              rules=(HittingRule(AbsRegion(0.3, coord=0)), FixedTimeRule(1.0)),
                              actions=(ConstantAction(0), ConstantAction(2)), label="swap")


def test_every_mixed_step_form_matches_the_reference_bitwise(monkeypatch):
    spec = _coupled_game()
    engine = EngineConfig(n_steps=24, chunk_size=16)
    x0 = np.array([0.1, -0.2])
    swap = _swap(spec.controls_u)
    middle = constant_strategy(spec.controls_u, 1, 0.0, 1.0)
    sign = Adversary("sgn", SignControl(pos_index=1, neg_index=0))
    cases = {
        # codes spread over three or more pairs
        "three pairs": (_three_way(spec.controls_u, 1.0), sign,
                        lambda span, live: live >= 3),
        # u = -1 and u = +1 against one v: codes 1 and 5, three dead codes between
        "a gap": (swap, const_adv(1, "c1"), lambda span, live: (span, live) == (5, 2)),
        # u = 0 against either v: codes 2 and 3
        "adjacent": (middle, sign, lambda span, live: (span, live) == (2, 2)),
    }
    steps = _spy_mixed_steps(monkeypatch)
    refs = {}
    for name, (strategy, adv, form) in cases.items():
        steps.clear()
        est = estimate_cell(spec, 0.0, x0, strategy, adv, n_paths=40, master_seed=17,
                            engine=engine, keep_payoffs=True)
        assert any(form(*s) for s in steps), (name, steps)
        ref = _reference_payoffs(spec, 0.0, x0, strategy, adv, 40, 17, engine)
        assert np.array_equal(est.payoffs, ref), name
        refs[strategy.label, adv.id] = ref
    # blocks of two strategies on two noise coordinates: each block of 80
    # rows steps once over the range of its slices' codes
    again = constant_strategy(spec.controls_u, 1, 0.0, 1.0, label="again")
    strategies = [strategy for strategy, _, _ in cases.values()] + [again]
    table = value_experiment(spec, 0.0, x0, strategies,
                             AdversaryFamily((sign, const_adv(1, "c1"))), n_paths=40,
                             master_seed=17, engine=EngineConfig(n_steps=24, chunk_size=80),
                             keep_payoffs=True)
    refs["again", "sgn"] = refs[middle.label, "sgn"]
    for (label, aid), ref in refs.items():
        assert np.array_equal(table.per_strategy[label].members[aid].payoffs, ref), label


def test_a_dead_pair_is_evaluated_but_never_read():
    # swap plays u = -1 or u = +1 against v = +0.5: codes 1 and 5, so each
    # mixed step also evaluates codes 2 to 4, which no row plays.  u = 0
    # drifts to NaN after the start time, where the start probe does not
    # look; np.where builds the NaN without a floating-point warning
    finite = _coupled_game()
    dead_calls = []

    def drift(t, x, u, v):
        dead = t > 0.0 and u[0] == 0.0
        dead_calls.append(dead)
        return np.where(dead, np.nan, finite.drift(t, x, u, v))

    family = AdversaryFamily((const_adv(1, "c1"),))
    payoffs = [value_experiment(spec, 0.0, np.array([0.1, -0.2]), [_swap(finite.controls_u)],
                                family, n_paths=40, master_seed=17,
                                engine=EngineConfig(n_steps=24, chunk_size=16),
                                keep_payoffs=True).best.estimate.payoffs
               for spec in (finite, dataclasses.replace(finite, drift=drift))]
    assert any(dead_calls)
    assert payoffs[1].tobytes() == payoffs[0].tobytes()


def test_signed_zeros_step_as_euler_step():
    # drift, diffusion and start state are -0.0.  euler_step's sum over the
    # one noise coordinate turns sigma dW = -0.0 into +0.0, so the state is
    # +0.0 after one step; the engine's single product must do the same
    spec = ProblemSpec(label="signed", dim=1, noise_dim=1, horizon=1.0,
                       drift=lambda t, x, u, v: np.full_like(x, -0.0),
                       diffusion=lambda t, x, u, v: np.full(x.shape + (1,), -0.0),
                       payoff=lambda x: np.zeros(x.shape[:-1]),
                       controls_u=ControlSet([[0.0]]), controls_v=ControlSet([[1.0], [-1.0]]),
                       payoff_bound=0.0)
    times = np.linspace(0.0, 1.0, 9)
    noises = [sample_noise(times, seed, 1) for seed in range(16)]
    alpha = constant_strategy(spec.controls_u, 0, 0.0, 1.0)
    x0 = np.array([-0.0])
    for control in (ConstantControl(0), SignControl(pos_index=1, neg_index=0)):
        paths = simulate_strong(spec, alpha, control, noises, x0)
        if isinstance(control, SignControl):
            assert any(np.unique(paths.v_indices[:, i]).size == 2 for i in range(8))
        for p, noise in enumerate(noises):
            v_path, x = oracle.realize(control, noise), x0
            for i in range(8):
                x = euler_step(spec, float(times[i]), float(times[i + 1] - times[i]), x,
                               spec.controls_u.point(0), spec.controls_v.point(v_path[i]),
                               noise.dW[i])
                assert paths.states[p, i + 1].view(np.uint64) == x.view(np.uint64), \
                    (type(control).__name__, p, i)


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
        got = fire_batch(rule, times, states)
        for p in range(states.shape[0]):
            f = oracle.fire_index(rule, times, states[p], cap)
            assert got[p] == (_NOT_YET if f is None else f), rule


def test_best_response_lookup_batch_matches_scalar(pennies_problem):
    # the best-reply adversary's batch step reads response_v for a whole chunk at
    # once; each row must be the scalar snapped lookup at that (t, x, u).  The
    # table's layers are the march's times and every reply flips with the
    # layer's parity, so a read of any layer but the step's own moves every row
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 9)
    grid = SpaceTimeGrid(times, (np.linspace(-4.0, 4.0, 17),))
    layer = np.arange(times.size)[:, None, None]
    u = np.arange(spec.controls_u.size)[None, :, None]
    right = (grid.axes[0] > 0.0)[None, None, :]
    reply = ((layer + u + right) % spec.controls_v.size).astype(spec.controls_v.index_dtype)
    field = ValueField(which="lower", grid=grid, values=None,
                       feedback_u=FeedbackMap.constant(spec.controls_u, 0, grid, label="u"),
                       feedback_v=FeedbackMap.constant(spec.controls_v, 0, grid, label="v"),
                       response_v=reply, max_update=None)
    rng = np.random.default_rng(31)
    x = rng.uniform(-4.5, 4.5, size=(64, 1))
    u_idx = rng.integers(0, spec.controls_u.size, size=64)
    # a block of two slices of a 32-path chunk, read at once
    step, trackers = _adversary_realization(Adversary("br", field), spec, times, None, None,
                                            np.arange(32))(2)
    assert trackers == []
    for i in range(times.size - 1):
        batch = step(i, x.reshape(2, 32, 1), u_idx.reshape(2, 32)).reshape(-1)
        scalar = [oracle.snap_lookup(times, grid.axes, reply, times[i], x[p], int(u_idx[p]))
                  for p in range(64)]
        assert np.array_equal(batch, np.asarray(scalar)), i


class ScanOnlyRule(StoppingRule):
    """A rule class the engine has no monitor for."""


def test_rule_without_batch_form_is_refused_by_name(pennies_problem):
    spec = pennies_problem.spec
    alpha = ElementaryStrategy(control_set=spec.controls_u,
                               start_rule=FixedTimeRule(0.0),
                               rules=(ScanOnlyRule(),),
                               actions=(ConstantAction(1),), label="scan")
    with pytest.raises(StrategyStructureError, match="ScanOnlyRule"):
        estimate_cell(spec, 0.0, np.array([0.0]), alpha, const_adv(0, "c"),
                      n_paths=4, master_seed=0, engine=EngineConfig(n_steps=8))
    noise = sample_noise(np.linspace(0.0, spec.horizon, 9), 3, spec.noise_dim)
    with pytest.raises(StrategyStructureError, match="ScanOnlyRule"):
        simulate_strong(spec, alpha, ConstantControl(0), noise, np.array([0.0]))


# ------------------------------------------------- families and experiments ---- #


def test_adversary_payload_validation():
    # the payload's type is the kind: anything else has no way to play
    with pytest.raises(ConfigError, match="'x' cannot play a str"):
        Adversary("x", "psychic")
    with pytest.raises(ConfigError, match="'x' cannot play a NoneType"):
        Adversary("x", None)
    with pytest.raises(ConfigError, match="empty"):
        AdversaryFamily((), label="none")
    with pytest.raises(ConfigError, match="duplicate"):
        AdversaryFamily((const_adv(0, "a"), const_adv(1, "a")))


def test_singleton_family_matches_plain_estimate(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    adv = const_adv(0, "only")
    engine = EngineConfig(n_steps=16)
    # the plain estimate: the same 32 noise paths recorded, then averaged
    noises = [sample_noise(np.linspace(0.0, spec.horizon, 17), int(seed), spec.noise_dim)
              for seed in derive_seed_array(5, np.arange(32))]
    payoffs = simulate_strong(spec, alpha, adv.plays, noises, np.array([0.0])).payoffs
    mean = float(np.sum(payoffs) / 32)
    rv = value_experiment(spec, 0.0, np.array([0.0]), [alpha],
                          AdversaryFamily((adv,)), n_paths=32, master_seed=5,
                          engine=engine).best
    assert rv.mean == mean
    assert rv.estimate.std_error == float(np.sqrt(np.sum((payoffs - mean) ** 2) / 31)) \
        / float(np.sqrt(32))
    assert rv.worst_id == "only"


def test_opposing_sign_is_the_worst_constant(pennies_problem):
    # alpha plays +1, so v = -1 drifts the path down and lowers tanh payoff
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(1, "up"), const_adv(0, "down")))
    rv = value_experiment(spec, 0.0, np.array([0.0]), [alpha], family,
                          n_paths=256, master_seed=7, engine=EngineConfig(n_steps=32)).best
    assert rv.worst_id == "down"
    assert rv.members["down"].mean < rv.members["up"].mean
    assert rv.mean == rv.members["down"].mean


def test_ties_keep_the_earliest_member(pennies_problem):
    # identical controls under distinct ids share noise, so the means tie
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(0, "first"), const_adv(0, "second")))
    rv = value_experiment(spec, 0.0, np.array([0.0]), [alpha], family,
                          n_paths=32, master_seed=7, engine=EngineConfig(n_steps=16)).best
    assert rv.members["first"].mean == rv.members["second"].mean
    assert rv.worst_id == "first"
    # and the outer maximum keeps the earliest of two equal strategies
    twin = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon, label="twin")
    report = value_experiment(spec, 0.0, np.array([0.0]), [alpha, twin],
                              family, n_paths=32, master_seed=7,
                              engine=EngineConfig(n_steps=16))
    assert report.per_strategy["const1"].mean == report.per_strategy["twin"].mean
    assert report.best_label == "const1" and report.best is report.per_strategy["const1"]


def test_repeated_strategy_labels_are_refused(pennies_problem):
    # one label on two rows would let per_strategy and best name different rows
    spec = pennies_problem.spec
    down = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon, label="x")
    up = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon, label="x")
    with pytest.raises(ConfigError, match="'x' appears more than once"):
        value_experiment(spec, 0.0, np.array([0.0]), [down, up],
                         AdversaryFamily((const_adv(0, "c"),)), n_paths=8,
                         master_seed=0, engine=EngineConfig(n_steps=8))


def test_extending_the_family_never_raises_the_value(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    base_members = (const_adv(0, "c0"), const_adv(1, "c1"))
    extra = (Adversary("sgn", SignControl(pos_index=1, neg_index=0)),
             Adversary("pw", PiecewiseRandomControl(2, 4, salt=1)))
    kw = dict(n_paths=64, master_seed=13, engine=EngineConfig(n_steps=16))
    small = value_experiment(spec, 0.0, np.array([0.0]), [alpha],
                             AdversaryFamily(base_members), **kw).best
    big = value_experiment(spec, 0.0, np.array([0.0]), [alpha],
                           AdversaryFamily(base_members + extra), **kw).best
    assert big.mean <= small.mean
    for aid in ("c0", "c1"):  # shared members see identical noise
        assert big.members[aid].mean == small.members[aid].mean


def test_value_experiment_rows_match_standalone_runs(pennies_problem, pennies_fields):
    spec = pennies_problem.spec
    lower, _ = pennies_fields
    engine = EngineConfig(n_steps=32)
    times = np.linspace(0.0, spec.horizon, 33)
    strategies = [
        constant_strategy(spec.controls_u, 1, 0.0, spec.horizon),
        make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]], label="grid4"),
    ]
    family = AdversaryFamily((const_adv(0, "c0"), const_adv(1, "c1"),
                              Adversary("sgn", SignControl(pos_index=1, neg_index=0))))
    report = value_experiment(spec, 0.0, np.array([0.0]), strategies, family,
                              n_paths=64, master_seed=17, engine=engine)
    for strat in strategies:
        alone = value_experiment(spec, 0.0, np.array([0.0]), [strat], family,
                                 n_paths=64, master_seed=17, engine=engine).best
        got = report.per_strategy[strat.label]
        assert got.worst_id == alone.worst_id
        for aid in family.ids:
            assert got.members[aid].mean == alone.members[aid].mean
            assert got.members[aid].std_error == alone.members[aid].std_error
    best = max(report.per_strategy.values(), key=lambda rv: rv.mean)
    assert report.best.mean == best.mean
    assert report.per_strategy[report.best_label].mean == best.mean


def test_a_chunk_marches_member_by_member(pennies_problem, pennies_fields, monkeypatch):
    # one realization alive at a time: each chunk realizes a member, marches
    # every strategy against it, and only then realizes the next member;
    # every cell still lands in its own slot, bitwise its 1 x 1 table
    spec = pennies_problem.spec
    lower, _ = pennies_fields
    times = np.linspace(0.0, spec.horizon, 33)
    clamped = ElementaryStrategy(control_set=spec.controls_u, start_rule=FixedTimeRule(0.0),
                                 rules=(FixedTimeRule(0.3), FixedTimeRule(0.1),
                                        FixedTimeRule(spec.horizon)),
                                 actions=(ConstantAction(1), ConstantAction(0),
                                          ConstantAction(1)),
                                 label="clamped")
    strategies = [clamped, make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]],
                                              label="grid4")]
    family = AdversaryFamily((Adversary("sgn", SignControl(pos_index=1, neg_index=0)),
                              Adversary("fb", lower.feedback_v),
                              Adversary("rand", PiecewiseRandomControl(2, 4)),
                              Adversary("br", lower),
                              const_adv(0, "c0")))
    x0, kw = np.array([0.1]), dict(n_paths=96, master_seed=21,
                                   engine=EngineConfig(n_steps=32, chunk_size=40))
    realize, march = game_engine._adversary_realization, game_engine._march_chunk
    log, owner = [], {}

    def logged_realize(adversary, *args):
        log.append(("realize", adversary.id))
        factory = realize(adversary, *args)
        owner[factory] = adversary.id
        return factory

    def logged_march(spec, times, seeds, x0, block, v_factory, *args, **kwargs):
        log.append(("march", owner[v_factory], tuple(s.label for s in block)))
        return march(spec, times, seeds, x0, block, v_factory, *args, **kwargs)

    monkeypatch.setattr(game_engine, "_adversary_realization", logged_realize)
    monkeypatch.setattr(game_engine, "_march_chunk", logged_march)
    report = value_experiment(spec, 0.0, x0, strategies, family, **kw)
    labels = [s.label for s in strategies]
    one_by_one = [entry for aid in family.ids
                  for entry in [("realize", aid)] + [("march", aid, (label,))
                                                     for label in labels]]
    # chunks of 40, 40 and 16 paths: a block holds chunk_size // c strategies
    both = [entry for aid in family.ids
            for entry in (("realize", aid), ("march", aid, tuple(labels)))]
    assert log == one_by_one * 2 + both
    monkeypatch.undo()
    for strat in strategies:
        for adv in family.members:
            got = report.per_strategy[strat.label].members[adv.id]
            alone = estimate_cell(spec, 0.0, x0, strat, adv, **kw)
            bits = [repr((est.mean, est.std_error, est.clamp_count)) for est in (got, alone)]
            assert bits[0] == bits[1], (strat.label, adv.id)
    assert report.per_strategy["clamped"].members["c0"].clamp_count == 96


def test_built_in_realizations_are_built_once_as_time_major_int32(pennies_problem):
    # at c = 2000 paths and N = 250 steps the march's (N, c) int32 paths are
    # the realization's whole working set: no float panel of running sums,
    # no int64 copy, no transposing copy
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 251)
    seeds = derive_seed_array(3, np.arange(2000))
    dW, extra = sample_noise_batch(times, seeds, spec.noise_dim, 1)
    output = 250 * 2000 * np.dtype(np.int32).itemsize
    for plays in (SignControl(1, 0), SignControl(1, 0, source="extra"),
                  PiecewiseRandomControl(2, 8)):
        adversary = Adversary(plays.label, plays)
        factory, peak = peak_bytes(_adversary_realization, adversary, spec, times, dW,
                                   extra, seeds)
        assert peak <= 1.25 * output, (plays.label, peak / output)
        step, _ = factory(1)
        want = realize_checked(plays, times, dW, extra, seeds, spec.controls_v.size)
        assert all(np.array_equal(step(i, None, None), want[:, i]) for i in (0, 124, 249))


def test_a_constant_realization_is_kept_as_its_broadcast(pennies_problem):
    # ConstantControl realizes a zero-stride int32 broadcast, and the march
    # reads its rows as they are: no (N, c) array is written.  A realization
    # whose rows are strided is still copied to time-major int32.
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 251)
    seeds = derive_seed_array(3, np.arange(2000))
    dW, extra = sample_noise_batch(times, seeds, spec.noise_dim, 1)
    output = 250 * 2000 * np.dtype(np.int32).itemsize
    factory, peak = peak_bytes(_adversary_realization, Adversary("c1", ConstantControl(1)),
                               spec, times, dW, extra, seeds)
    assert peak <= 0.01 * output, peak
    step, _ = factory(1)
    assert all(step(i, None, None).dtype == np.int32 and np.all(step(i, None, None) == 1)
               for i in (0, 124, 249))
    rows = np.random.default_rng(0).integers(0, 2, size=(2000, 250)).astype(np.int32)
    step, _ = _adversary_realization(Adversary("replay", ReplayControl(rows)), spec, times,
                                     dW, extra, seeds)(1)
    assert all(step(i, None, None).flags.c_contiguous
               and np.array_equal(step(i, None, None), rows[:, i]) for i in (0, 124, 249))


def test_run_cells_returns_its_shared_table_itself(pennies_problem, monkeypatch):
    # the table the chunks wrote is handed back as it is, not copied
    spec = pennies_problem.spec
    shared_zeros, made = game_engine._shared_zeros, []
    monkeypatch.setattr(game_engine, "_shared_zeros",
                        lambda shape, dtype: made.append(shared_zeros(shape, dtype)) or made[-1])
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    values, _ = _run_cells(spec, np.linspace(0.0, spec.horizon, 9), np.array([0.0]),
                           [(alpha, const_adv(0, "c0"))], derive_seed_array(0, np.arange(8)),
                           EngineConfig(n_steps=8))
    assert values is made[0]


class OutOfRangeControl(OpenLoopControl):
    """Plays index 5 throughout: non-anticipating, so it passes the screen, but
    outside a two-point set, which the engine refuses when it realizes it."""

    label = "five"

    def realize_batch(self, times, dW, extra, seeds):
        return np.full(dW.shape[:2], 5)


def test_a_faulty_strategy_is_refused_before_a_faulty_later_member(pennies_problem):
    # members are realized one at a time, so the first member's cells march,
    # and a strategy that fails there is refused before the faulty second
    # member is realized
    spec = pennies_problem.spec
    fits = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    late = ElementaryStrategy(control_set=spec.controls_u,
                              start_rule=FixedTimeRule(0.5 * spec.horizon),
                              rules=(FixedTimeRule(spec.horizon),),
                              actions=(ConstantAction(1),), label="late")
    family = AdversaryFamily((const_adv(0, "c0"), Adversary("five", OutOfRangeControl())))
    kw = dict(n_paths=8, master_seed=3, engine=EngineConfig(n_steps=16))
    with pytest.raises(StrategyIntervalError,
                       match=r"^controller strategy 'late' inactive on step 0 "):
        value_experiment(spec, 0.0, np.array([0.0]), [fits, late], family, **kw)
    with pytest.raises(ModelEvaluationError,
                       match=r"^control 'five' produced indices outside \[0, 2\)$"):
        value_experiment(spec, 0.0, np.array([0.0]), [fits], family, **kw)


def _spy_step_rows(monkeypatch) -> list:
    """Record the row count of every step the kernel runs."""
    rows, step = [], game_engine._step_batch

    def spy_step(spec, t, dt, X, *args):
        rows.append(len(X))
        return step(spec, t, dt, X, *args)

    monkeypatch.setattr(game_engine, "_step_batch", spy_step)
    return rows


def test_tables_are_bitwise_invariant_to_strategies_per_block(pennies_problem,
                                                              pennies_fields, monkeypatch):
    # one 16-path chunk marched 1, 2, 3 and 4 strategies per block; every
    # strategy opens on u = -1 (the ladder reads it at x0) and the hitting
    # one moves to u = +1 path by path, so a block's slices play different
    # pairs on one step; nature plays every kind of member
    spec = pennies_problem.spec
    lower, _ = pennies_fields
    times = np.linspace(0.0, spec.horizon, 33)
    clamped = ElementaryStrategy(control_set=spec.controls_u, start_rule=FixedTimeRule(0.0),
                                 rules=(FixedTimeRule(0.3), FixedTimeRule(0.1),
                                        FixedTimeRule(spec.horizon)),
                                 actions=(ConstantAction(0), ConstantAction(1),
                                          ConstantAction(0)),
                                 label="clamped")
    strategies = [constant_strategy(spec.controls_u, 0, 0.0, spec.horizon), clamped,
                  hitswitch_strategy(spec.controls_u, 0.0, spec.horizon, level=0.6),
                  make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]],
                                     label="grid4")]
    family = AdversaryFamily((Adversary("sgn", SignControl(pos_index=1, neg_index=0)),
                              Adversary("fb", lower.feedback_v),
                              Adversary("br", lower),
                              Adversary("beta", hitswitch_strategy(spec.controls_v, 0.0,
                                                                   spec.horizon, level=0.7))))
    rules = [("half", FixedTimeRule(spec.horizon / 2)),
             ("exit", CappedRule(HittingRule(AbsRegion(0.5)), FixedTimeRule(spec.horizon))),
             ("hit", HittingRule(AbsRegion(0.8)))]
    x0 = np.array([0.1])
    rows = _spy_step_rows(monkeypatch)

    def tables(per_block):
        kw = dict(n_paths=16, master_seed=13,
                  engine=EngineConfig(n_steps=32, chunk_size=16 * per_block))
        rows.clear()
        value = value_experiment(spec, 0.0, x0, strategies, family, keep_payoffs=True, **kw)
        dpp = dpp_checks(spec, lower, 0.0, x0, strategies, family, rules, **kw)
        cells = [(est.payoffs.tobytes(), est.clamp_count, repr((est.mean, est.std_error)))
                 for rv in value.per_strategy.values() for est in rv.members.values()]
        return cells, repr(list(map(dataclasses.asdict, dpp))), set(rows)

    one = tables(1)
    assert one[2] == {16}
    for per_block in (2, 3, 4):
        cells, dpp, seen = tables(per_block)
        assert cells == one[0], per_block
        assert dpp == one[1], per_block
        # every step runs once on a whole block of the 4 strategies
        blocks = {16 * min(per_block, 4 - b) for b in range(0, 4, per_block)}
        assert seen == blocks, (per_block, seen)
    assert one[0][4][1] == 16  # "clamped" against "sgn": one clamp per path


def _overflowing(spec) -> ProblemSpec:
    """``spec`` whose drift at u = +1 is finite at 0 but overflows one step later."""
    return dataclasses.replace(
        spec, drift=lambda t, x, u, v: 1e300 * (1.0 + x * x) if u[0] > 0 else 0.0 * x)


def _failing_at(spec, how: str, at: float, label: str) -> ElementaryStrategy:
    """u = -1 up to ``at``, then u = +1 (a blow-up) or nothing (exhausted)."""
    rules, actions = (FixedTimeRule(at),), (ConstantAction(0),)
    if how == "blow-up":
        rules, actions = rules + (FixedTimeRule(spec.horizon),), actions + (ConstantAction(1),)
    return ElementaryStrategy(control_set=spec.controls_u, start_rule=FixedTimeRule(0.0),
                              rules=rules, actions=actions, label=label)


@pytest.mark.parametrize("earlier_fails, later_fails", [
    ("blow-up", "blow-up"), ("blow-up", "exhausted"),
    ("exhausted", "blow-up"), ("exhausted", "exhausted")])
def test_a_block_raises_the_earlier_cells_error(pennies_problem, earlier_fails, later_fails):
    # the later strategy of a two-strategy block fails first in the march;
    # the error is the earlier cell's, as a cell-by-cell march raises it
    spec = _overflowing(pennies_problem.spec)
    earlier = _failing_at(spec, earlier_fails, 0.75 * spec.horizon, "earlier")
    later = _failing_at(spec, later_fails, 0.25 * spec.horizon, "later")
    family = AdversaryFamily((const_adv(0, "c0"),))
    x0 = np.array([0.0])
    kw = dict(n_paths=8, master_seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((ModelEvaluationError, StrategyIntervalError)) as alone:
            value_experiment(spec, 0.0, x0, [earlier], family,
                             engine=EngineConfig(n_steps=16), **kw)
        with pytest.raises(type(alone.value)) as blocked:
            value_experiment(spec, 0.0, x0, [earlier, later], family,
                             engine=EngineConfig(n_steps=16, chunk_size=16), **kw)
    assert str(blocked.value) == str(alone.value)
    assert "'earlier'" in str(alone.value) or "(t=0.40625, u=[1.]" in str(alone.value)


def test_a_block_names_the_failing_rows_own_seed(pennies_problem):
    # the later slice of a two-strategy block blows up; the block's march
    # names its first row's path seed, read modulo the chunk's paths
    spec = _overflowing(pennies_problem.spec)
    strategies = [constant_strategy(spec.controls_u, 0, 0.0, spec.horizon),
                  _failing_at(spec, "blow-up", 0.25 * spec.horizon, "later")]
    times = np.linspace(0.0, spec.horizon, 17)
    seeds = derive_seed_array(3, np.arange(8))
    dW, extra = sample_noise_batch(times, seeds, spec.noise_dim)
    v_factory = _adversary_realization(const_adv(0, "c0"), spec, times, dW, extra, seeds)
    dW_tm = np.ascontiguousarray(dW.transpose(1, 0, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ModelEvaluationError, match=rf"on path seed {int(seeds[0])}$"):
            game_engine._march_chunk(spec, times, seeds, np.array([0.0]), strategies,
                                     v_factory, dW_tm)


@dataclasses.dataclass(frozen=True)
class LateHittingRule(HittingRule):
    """A hitting rule whose engine monitor reports each hit one index late."""


class _LateMonitor:
    def __init__(self, inner):
        self.inner = inner
        self.fire = np.full_like(inner.fire, _NOT_YET)

    def observe(self, j, X):
        self.inner.observe(j, X)
        # a hit at j is reported at j + 1, naming index j
        np.copyto(self.fire, self.inner.fire, where=self.inner.fire < j)


def test_a_monitor_reporting_a_past_fire_is_refused_by_name(pennies_problem, pennies_fields,
                                                            monkeypatch):
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    monitor = strategies._rule_monitor

    def late(rule, times, n):
        inner = monitor(rule, times, n)
        return _LateMonitor(inner) if isinstance(rule, LateHittingRule) else inner

    monkeypatch.setattr(strategies, "_rule_monitor", late)
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(0, "c0"),))
    kw = dict(n_paths=16, master_seed=2, engine=EngineConfig(n_steps=32))
    x0 = np.array([0.0])
    on_time = dpp_checks(spec, lower, 0.0, x0, [alpha], family,
                         [("exit", HittingRule(AbsRegion(0.5)))], **kw)
    assert on_time[0].game_value != on_time[0].field_value
    # the screen replays the same RuleWatch, so it refuses the rule before
    # any chunk is marched
    with pytest.raises(StrategyStructureError,
                       match=r"^stopping rule 'late' failed the non-anticipativity screen"):
        dpp_checks(spec, lower, 0.0, x0, [alpha], family,
                   [("exit", HittingRule(AbsRegion(0.5))),
                    ("late", LateHittingRule(AbsRegion(0.5)))], **kw)


def test_value_experiment_validates_inputs(pennies_problem):
    spec = pennies_problem.spec
    family = AdversaryFamily((const_adv(0, "c0"),))
    with pytest.raises(ConfigError, match="at least one strategy"):
        value_experiment(spec, 0.0, np.array([0.0]), [], family, n_paths=4,
                         master_seed=0, engine=EngineConfig(n_steps=8))
    # rows are strategies keyed by their own labels, not (label, strategy) pairs
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    with pytest.raises(ConfigError, match="a table row is a tuple, not a strategy"):
        value_experiment(spec, 0.0, np.array([0.0]), [("alpha", alpha)], family, n_paths=4,
                         master_seed=0, engine=EngineConfig(n_steps=8))


def test_default_families_have_documented_structure(pennies_problem, pennies_fields):
    lower, _ = pennies_fields
    base, enlarged = default_adversary_families(pennies_problem, lower,
                                                n_random=2, random_segments=4)
    assert base.ids == ("const:-1", "const:1", "signW", "antisignW",
                        "worstfb", "bestresp")
    assert enlarged.ids == base.ids + ("signE", "antisignE", "rand:0", "rand:1")
    assert max(m.extra_dim for m in base.members) == 0
    assert max(m.extra_dim for m in enlarged.members) == 1
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
    assert [strat.label for strat in family] == ["grid2", "grid4", "grid8"]
    for strat in family:
        assert strat.control_set is lower.feedback_u.control_set
    with pytest.raises(ConfigError, match="decision count"):
        default_strategy_family(pennies_problem, lower, [0], 0.0, engine)


def test_each_rung_decides_at_its_k_even_splits(pennies_problem, pennies_fields):
    # rung k starts and re-decides at the march indices round(j N / k),
    # j = 0..k, so it has exactly k segments
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    engine = EngineConfig(n_steps=250)
    s = 0.25 * spec.horizon
    times = np.linspace(s, spec.horizon, engine.n_steps + 1)
    counts = (1, 2, 3, 8)
    for k, rung in zip(counts, default_strategy_family(pennies_problem, lower, counts, s, engine)):
        assert len(rung.rules) == len(rung.actions) == k, rung.label
        fires = [rule.fixed_fire_index(times) for rule in (rung.start_rule,) + rung.rules]
        assert fires == [round(j * engine.n_steps / k) for j in range(k + 1)], rung.label


def test_builtin_pairs_cover_the_three_by_three_grid(pennies_problem, pennies_fields):
    lower, upper = pennies_fields
    pairs = builtin_pairs(pennies_problem, lower, upper, 0.0,
                          EngineConfig(n_steps=32))
    assert len(pairs) == 9
    assert [alpha.label for alpha, _ in pairs[::3]] == [
        "alpha:const0", "alpha:grid4", "alpha:grid8"]
    assert [beta.label for _, beta in pairs[:3]] == [
        "beta:const_last", "beta:grid4", "beta:hitswitch"]
    assert all(alpha.control_set is pennies_problem.spec.controls_u
               and beta.control_set is pennies_problem.spec.controls_v for alpha, beta in pairs)


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
    alone = value_experiment(spec, 0.0, np.array([0.0]), [alpha], base,
                             n_paths=40, master_seed=19, engine=engine).best
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


def assert_same_robust(a, b):
    """Two robust values agree bitwise, member by member and in their fold."""
    def fields(est):
        return (est.mean, est.std_error, est.n_paths, est.seed, est.strategy_label,
                est.adversary_id, est.clamp_count)
    assert a.worst_id == b.worst_id
    assert fields(a.estimate) == fields(b.estimate)
    assert list(a.members) == list(b.members)
    for aid in a.members:
        assert fields(a.members[aid]) == fields(b.members[aid])


def test_filtration_report_from_a_table_row_matches_the_experiment(pennies_problem):
    # one 2 x 5 table against the enlarged family: each row, folded over the
    # base members, is the base-family table and the standalone experiment
    spec = pennies_problem.spec
    strategies = [constant_strategy(spec.controls_u, k, 0.0, spec.horizon) for k in (0, 1)]
    # c0 and c0b tie under common noise, so the base fold must keep c0
    base = AdversaryFamily((const_adv(1, "c1"), const_adv(0, "c0"), const_adv(0, "c0b")),
                           label="base")
    enlarged = AdversaryFamily(base.members + (
        Adversary("sgnE", SignControl(pos_index=1, neg_index=0, source="extra")),
        Adversary("pw", PiecewiseRandomControl(2, 4, salt=1))),
        label="enlarged")
    kw = dict(n_paths=64, master_seed=19, engine=EngineConfig(n_steps=16))
    x0 = np.array([0.0])
    table = value_experiment(spec, 0.0, x0, strategies, enlarged, **kw)
    on_base = value_experiment(spec, 0.0, x0, strategies, base, **kw)
    restricted = table.restricted(base)
    assert restricted.best_label == on_base.best_label
    assert restricted.per_strategy["const1"].worst_id == "c0"
    for strat in strategies:
        label = strat.label
        assert_same_robust(restricted.per_strategy[label], on_base.per_strategy[label])
        got = table.filtration(label, base)
        want = filtration_experiment(spec, 0.0, x0, strat, base, enlarged, **kw)
        assert got.strategy_label == want.strategy_label == strat.label
        assert (got.delta, got.se_combined) == (want.delta, want.se_combined)
        assert_same_robust(got.base, want.base)
        assert_same_robust(got.enlarged, want.enlarged)
        alone = value_experiment(spec, 0.0, x0, [strat], base, **kw).best
        assert_same_robust(got.base, alone)
    with pytest.raises(ConfigError, match="missing"):
        on_base.restricted(enlarged)


# ------------------------------------------------------------------- DPP ---- #


def test_dpp_at_the_start_time_is_exact(pennies_problem, pennies_fields):
    # rho == s reads the field at (s, x0) on every path: zero residual, and a
    # power-of-two path count keeps the mean of identical values exact
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(0, "c0"), const_adv(1, "c1")))
    rep = dpp_check(spec, lower, 0.0, np.array([0.0]), [alpha],
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
        constant_strategy(spec.controls_u, 1, 0.0, spec.horizon),
        make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]], label="grid4"),
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
    rep = dpp_check(spec, lower, 0.0, np.array([0.0]), [alpha],
                    family, rho, n_paths=64, master_seed=11, engine=engine)
    assert np.isfinite(rep.residual) and rep.residual < 0.5
    assert rep.std_error > 0.0
    assert rep.best_strategy == "grid2"
    assert rep.worst_adversary in family.ids


def test_dpp_screens_rules_at_the_state_dimension():
    # a rule on coordinate 1 of a plane diffusion: the screen must walk 2-d
    # paths, or the region lookup fails before the march starts
    zero = ControlSet(np.array([[0.0]]))
    spec = ProblemSpec(label="plane", dim=2, noise_dim=2, horizon=0.5,
                       drift=lambda t, x, u, v: np.zeros_like(x),
                       diffusion=lambda t, x, u, v: np.broadcast_to(np.eye(2), x.shape + (2,)),
                       payoff=lambda x: np.exp(-(x ** 2).sum(axis=-1)),
                       controls_u=zero, controls_v=zero, payoff_bound=1.0)
    field = solve_isaacs(spec, make_grid(spec, -3, 3, 0.25), "lower")
    alpha = constant_strategy(zero, 0, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(0, "c0"),))
    kw = dict(n_paths=256, master_seed=3, engine=EngineConfig(n_steps=32))
    x0 = np.array([0.0, 0.2])
    exit1, at_t = dpp_checks(spec, field, 0.0, x0, [alpha], family,
                             [("exit1", HittingRule(AbsRegion(0.5, coord=1))),
                              ("T", FixedTimeRule(spec.horizon))], **kw)
    # no control: the restart identity is the heat martingale, at any rule
    assert exit1.residual < 4 * exit1.std_error + 0.02
    assert exit1.game_value != at_t.game_value


def test_dpp_refuses_an_anticipating_rule(pennies_problem, pennies_fields):
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    family = AdversaryFamily((const_adv(0, "c0"),))
    with pytest.raises(StrategyStructureError, match="non-anticipativity"):
        dpp_check(spec, lower, 0.0, np.array([0.0]), [alpha],
                  family, oracle.LookaheadRule(), n_paths=4, master_seed=0,
                  engine=EngineConfig(n_steps=8))


def test_dpp_checks_fold_every_rule_of_one_table(pennies_problem, pennies_fields):
    # one marched table serves every rule, each report the one-rule check's bit for bit;
    # an uncapped exit restarts at the horizon where it never fires, like the capped one
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    engine = EngineConfig(n_steps=32)
    times = np.linspace(0.0, spec.horizon, 33)
    strategies = [
        constant_strategy(spec.controls_u, 1, 0.0, spec.horizon),
        make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]], label="grid4"),
    ]
    family = AdversaryFamily((const_adv(0, "c0"), const_adv(1, "c1"),
                              Adversary("sgn", SignControl(pos_index=1, neg_index=0))))
    half = FixedTimeRule(spec.horizon / 2)
    exit_ = CappedRule(HittingRule(AbsRegion(0.5)), FixedTimeRule(spec.horizon))
    rules = [("half", half), ("exit", exit_), ("exit", HittingRule(AbsRegion(0.5)))]
    kw = dict(n_paths=64, master_seed=23, engine=engine)
    x0 = np.array([0.0])
    reports = dpp_checks(spec, lower, 0.0, x0, strategies, family, rules, **kw)
    assert [rep.rho_label for rep in reports] == ["half", "exit", "exit"]
    for rep, (label, rho) in zip(reports, rules):
        alone = dpp_check(spec, lower, 0.0, x0, strategies, family, rho,
                          rho_label=label, **kw)
        assert dataclasses.asdict(rep) == dataclasses.asdict(alone)
    assert reports[0].cells != reports[1].cells
    assert dataclasses.asdict(reports[1]) == dataclasses.asdict(reports[2])
    with pytest.raises(StrategyStructureError, match="'peek'"):
        dpp_checks(spec, lower, 0.0, x0, strategies, family,
                   [("half", half), ("peek", oracle.LookaheadRule())], **kw)
    with pytest.raises(ConfigError, match="at least one rule"):
        dpp_checks(spec, lower, 0.0, x0, strategies, family, [], **kw)


def test_restart_states_captured_in_the_march_match_a_replay(pennies_problem,
                                                             pennies_fields):
    # each rule's monitor observes the march and keeps the state at its fire
    # index; the restart value must be the field at the state that a replay
    # of the recorded paths finds there, capped at the horizon
    lower, _ = pennies_fields
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 33)
    strategies = [constant_strategy(spec.controls_u, 1, 0.0, spec.horizon),
                  make_grid_strategy(lower.feedback_u, times[[0, 16, 32]], label="grid2"),
                  hitswitch_strategy(spec.controls_u, 0.0, spec.horizon, level=0.8)]
    members = [Adversary("sgn", SignControl(pos_index=1, neg_index=0)), const_adv(0, "c0"),
               Adversary("beta", hitswitch_strategy(spec.controls_v, 0.0, spec.horizon,
                                                    level=0.9))]
    rules = [("half", FixedTimeRule(spec.horizon / 2)),
             ("exit", HittingRule(AbsRegion(0.5))),
             ("capped", CappedRule(HittingRule(AbsRegion(0.5)),
                                   FixedTimeRule(0.75 * spec.horizon))),
             ("start", GridIndexRule(0)),
             ("never", HittingRule(AbsRegion(100.0)))]
    cells = [(strategy, member) for strategy in strategies for member in members]
    seeds = derive_seed_array(5, np.arange(40))
    x0 = np.array([0.2])
    # chunks of 30 and 10 paths: one strategy per block, then all three
    engine = EngineConfig(n_steps=32, chunk_size=30)
    values, _ = _run_cells(spec, times, x0, cells, seeds, engine, lower, rules)
    # the payoff row is the table marched with no rules, bit for bit
    payoffs, _ = _run_cells(spec, times, x0, cells, seeds, engine)
    assert values.shape[0] == 1 + len(rules) and payoffs.shape[0] == 1
    assert values[0].tobytes() == payoffs[0].tobytes()
    noises = [sample_noise(times, int(seed), spec.noise_dim) for seed in seeds]
    fired = {label: set() for label, _ in rules}
    for ci, (strategy, member) in enumerate(cells):
        record = (simulate_strong if isinstance(member.plays, OpenLoopControl)
                  else simulate_feedback_pair)
        states = record(spec, strategy, member.plays, noises, x0).states
        for k, (label, rule) in enumerate(rules):
            fire = fire_batch(rule, times, states)
            fired[label] |= set(np.where(fire == _NOT_YET, -1, fire).tolist())
            fire = np.minimum(fire, times.size - 1)
            want = lower.value_at(times[fire], states[np.arange(seeds.size), fire])
            assert values[1 + k, ci].tobytes() == want.tobytes(), (label, strategy.label,
                                                                   member.id)
    assert fired["start"] == {0} and fired["never"] == {-1} and fired["half"] == {16}
    assert -1 in fired["exit"] and len(fired["exit"]) > 3
    assert max(fired["capped"]) == 24 and len(fired["capped"]) > 3


# --------------------------------------------------------------- embedding ---- #


def test_feedback_adversaries_embed_as_replayed_open_loop(pennies_problem,
                                                          drift_problem,
                                                          pennies_fields,
                                                          drift_fields):
    # one batched call per pair; every row is the single-path march on its noise
    for problem, fields in ((pennies_problem, pennies_fields),
                            (drift_problem, drift_fields)):
        spec = problem.spec
        lower, upper = fields
        times = np.linspace(0.0, spec.horizon, 33)
        alpha = make_grid_strategy(lower.feedback_u, times[[0, 8, 16, 24, 32]],
                                   label="grid4")
        beta = make_grid_strategy(upper.feedback_v, times[[0, 16, 32]],
                                  label="grid2")
        noises = [sample_noise(times, seed, spec.noise_dim) for seed in range(5)]
        res, control = embed_feedback_as_openloop(spec, alpha, beta, noises,
                                                  np.array([0.1]))
        assert res.states.shape == (5, 33, 1) and res.v_indices.shape == (5, 32)
        assert np.array_equal(control.indices, res.v_indices)
        assert res.seeds.tolist() == list(range(5))
        for k, noise in enumerate(noises):
            one = simulate_feedback_pair(spec, alpha, beta, noise, np.array([0.1]))
            assert np.array_equal(res.states[k], one.states[0])
            assert np.array_equal(res.u_indices[k], one.u_indices[0])
            assert np.array_equal(res.v_indices[k], one.v_indices[0])
            assert res.payoffs[k] == one.payoffs[0]
            alone, _ = embed_feedback_as_openloop(spec, alpha, beta, noise, np.array([0.1]))
            assert np.array_equal(alone.states[0], res.states[k])


def test_a_feedback_table_nature_plays_its_grid_strategy(pennies_problem):
    # nature's table is read at each step's (t, x); the strategy that
    # re-reads it at every grid time must give the same bits.  The index
    # switches with the sign of x and flips halfway in time, and the table's
    # time grid is coarser than the march's, so a read at the wrong time,
    # state or layer moves the v path
    spec = pennies_problem.spec
    times = np.linspace(0.0, spec.horizon, 33)
    axis = np.linspace(-1.0, 1.0, 21)
    layers = np.linspace(0.0, spec.horizon, 9)
    signs = (axis >= 0.0)[None, :] ^ (np.arange(layers.size) >= 4)[:, None]
    fb = FeedbackMap(SpaceTimeGrid(layers, (axis,)), signs.astype(np.int16), spec.controls_v,
                     label="signs")
    alpha = ElementaryStrategy(  # its rule at 0.25 is clamped on rows that hit later
        control_set=spec.controls_u, start_rule=FixedTimeRule(0.0),
        rules=(HittingRule(AbsRegion(0.3)), FixedTimeRule(0.25 * spec.horizon),
               FixedTimeRule(spec.horizon)),
        actions=(ConstantAction(0), ConstantAction(1), ConstantAction(0)), label="clamped")
    noises = [sample_noise(times, seed, spec.noise_dim) for seed in range(16)]
    x0 = np.array([0.05])
    table = game_engine._record(spec, alpha, Adversary("fb", fb), noises, x0)
    ladder = game_engine._record(spec, alpha, Adversary("fb", make_grid_strategy(fb, times)),
                                 noises, x0)
    switching = np.count_nonzero(np.diff(table.v_indices, axis=1), axis=1)
    assert np.all(switching > 0) and np.any(switching > 1)
    assert table.clamp_count > 0
    assert np.array_equal(table.states, ladder.states)
    assert np.array_equal(table.u_indices, ladder.u_indices)
    assert np.array_equal(table.v_indices, ladder.v_indices)
    assert table.clamp_count == ladder.clamp_count


def test_embedding_refuses_noise_on_different_grids(pennies_problem):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    beta = hitswitch_strategy(spec.controls_v, 0.0, spec.horizon)
    noises = [sample_noise(np.linspace(0.0, spec.horizon, 33), 0, spec.noise_dim),
              sample_noise(np.linspace(0.0, 0.5 * spec.horizon, 33), 1, spec.noise_dim)]
    with pytest.raises(ConfigError, match="one time grid"):
        embed_feedback_as_openloop(spec, alpha, beta, noises, np.array([0.0]))


class EmbeddedReply(OpenLoopControl):
    """beta's recorded replies as a map of the noise, through the batched embedding."""

    def __init__(self, spec, alpha, beta):
        self.spec, self.alpha, self.beta = spec, alpha, beta
        self.label = f"{alpha.label}/{beta.label}"

    def realize_batch(self, times, dW, extra, seeds):
        noises = [NoisePath(times=times, dW=dW[p], extra=extra[p], seed=int(seeds[p]))
                  for p in range(seeds.size)]
        pair, _ = embed_feedback_as_openloop(self.spec, self.alpha, self.beta, noises,
                                             np.zeros(self.spec.dim))
        return pair.v_indices


def test_embedded_replies_are_non_anticipating_maps_of_the_noise(
        pennies_problem, drift_problem, pennies_fields, drift_fields):
    # the paper's embedding: nature's feedback reply, played against alpha, is
    # an open-loop control, so v on step i reads the increments before i only.
    # An off-by-one in the engine's noise indexing makes the state, and with it
    # the hitting-time replies, depend on the current increment; each
    # beta:hitswitch pair then fails 6 to 9 of the 1000 trials.
    engine = EngineConfig(n_steps=64)
    for problem, (lower, upper) in ((pennies_problem, pennies_fields),
                                    (drift_problem, drift_fields)):
        spec = problem.spec
        for alpha, beta in builtin_pairs(problem, lower, upper, 0.0, engine):
            rep = check_nonanticipative(EmbeddedReply(spec, alpha, beta), n_trials=1000,
                                        seed=5, n_steps=engine.n_steps,
                                        horizon=spec.horizon, noise_dim=spec.noise_dim)
            assert rep.failures == 0, (problem.id, alpha.label, beta.label, rep.first_failure)


def test_doctored_replay_is_caught_at_the_first_state_it_moves(pennies_problem,
                                                                monkeypatch):
    spec = pennies_problem.spec
    alpha = constant_strategy(spec.controls_u, 1, 0.0, spec.horizon)
    beta = hitswitch_strategy(spec.controls_v, 0.0, spec.horizon, level=0.6)
    honest = ReplayControl.realize_batch

    def doctored(self, *args):
        paths = np.array(honest(self, *args))
        paths[:, 10] = 1 - paths[:, 10]
        return paths

    monkeypatch.setattr(ReplayControl, "realize_batch", doctored)
    # pennies' drift is u * v, so the flipped v on step 10 moves state 11
    noise = sample_noise(np.linspace(0.0, spec.horizon, 33), 4, spec.noise_dim)
    with pytest.raises(EmbeddingMismatchError, match="diverges at step 11") as err:
        embed_feedback_as_openloop(spec, alpha, beta, noise, np.array([0.0]))
    assert err.value.step == 11 and err.value.max_abs_diff > 0.0
    assert err.value.seed == 4 and err.value.rows == [0]


# ----------------------------------------------------------------- blow-up ---- #


def test_quadratic_drift_blows_up_on_every_entry_point(violator_problem):
    # the engine validates coefficients once per march; when the state
    # leaves the finite range, the step's own drift block shows that x**2
    # overflowed first, so the error names the callback, for a chunk of
    # paths and for a recorded path alike
    spec = violator_problem.spec
    alpha = constant_strategy(spec.controls_u, 0, 0.0, spec.horizon)
    named = r"growth_violator\.drift\(t=0\.24, u=\[0\.\], v=\[0\.\]\) returned non-finite"
    with np.errstate(over="ignore"):
        times = np.linspace(0.0, spec.horizon, 51)
        noise = sample_noise(times, 123, spec.noise_dim)
        with pytest.raises(ModelEvaluationError, match=named + ".* path seed 123$"):
            simulate_strong(spec, alpha, ConstantControl(0), noise, np.array([8.0]))

        # raised in a worker process, it arrives as at threads=1
        errs = []
        for threads in (1, 2):
            with pytest.raises(ModelEvaluationError, match=named) as err_chunked:
                estimate_cell(spec, 0.0, np.array([8.0]), alpha, const_adv(0, "c"),
                              n_paths=4, master_seed=0,
                              engine=EngineConfig(n_steps=50, chunk_size=2,
                                                  threads=threads))
            errs.append(err_chunked.value)
        one, two = errs
        assert type(two) is ModelEvaluationError and str(two) == str(one)


def test_a_mixed_step_names_the_pair_whose_drift_failed():
    # from t = 0.5 on, the drift at (u = +1, v = +0.5) is non-finite; the
    # first row on that pair is named through its own pair's block
    healthy = _coupled_game()

    def drift(t, x, u, v):
        out = healthy.drift(t, x, u, v)
        return np.full_like(out, np.inf) if t >= 0.5 and u[0] == 1.0 and v[0] == 0.5 else out

    spec = dataclasses.replace(healthy, drift=drift)
    times = np.linspace(0.0, 1.0, 17)
    noises = [sample_noise(times, 100 + p, spec.noise_dim) for p in range(32)]
    alpha = _three_way(spec.controls_u, 1.0)
    sign = SignControl(pos_index=1, neg_index=0)
    ok = simulate_strong(healthy, alpha, sign, noises, np.array([0.1, -0.2]))
    code = ok.u_indices * 2 + ok.v_indices
    i = next(i for i in range(16) if times[i] >= 0.5 and (code[:, i] == 5).any())
    assert np.unique(code[:, i]).size >= 3
    seed = noises[int(np.argmax(code[:, i] == 5))].seed
    named = (rf"^coupled\.drift\(t={times[i]}, u=\[1\.\], v=\[0\.5\]\) returned "
             rf"non-finite values on path seed {seed}$")
    with pytest.raises(ModelEvaluationError, match=named):
        simulate_strong(spec, alpha, sign, noises, np.array([0.1, -0.2]))


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
            estimate_cell(spec, 0.0, x0, alpha, const_adv(0, "c"), n_paths=4,
                          master_seed=0, engine=EngineConfig(n_steps=2))
        assert err.value.t == pytest.approx(0.25)
        assert not np.all(np.isfinite(err.value.state))
        assert err.value.seed is not None

        times = np.linspace(0.0, spec.horizon, 3)
        noise = sample_noise(times, 123, spec.noise_dim)
        with pytest.raises(SimulationBlowUpError) as err_one:
            simulate_strong(spec, alpha, ConstantControl(0), noise, x0)
        assert err_one.value.seed == 123
