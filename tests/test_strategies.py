"""Stopping rules, elementary strategies, feedback maps, open-loop controls,
and the anticipation screen."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from robustctl.errors import (ConfigError, ModelEvaluationError,
                              StrategyIntervalError, StrategyStructureError)
from robustctl.sde_core import ControlSet, derive_seed, sample_noise, stream_generator
from robustctl.strategies import (UNDEFINED, AbsRegion, CappedRule,
                                  ConstantAction, ConstantControl,
                                  ElementaryStrategy, FeedbackLookupAction,
                                  FeedbackMap, FixedTimeRule, GridIndexRule,
                                  HittingRule, LookaheadAction, LookaheadControl,
                                  LookaheadRule, OpenLoopControl,
                                  OutsideBoxRegion, PiecewiseRandomControl,
                                  ReplayControl, SignControl, StrategyTracker,
                                  ThresholdRegion, check_nonanticipative,
                                  concatenate, evaluate_strategy,
                                  make_grid_strategy, realize_open_loop,
                                  strategy_control_index,
                                  strategy_control_sequence)

PM = ControlSet(np.array([[-1.0], [1.0]]), label="pm")
TIMES = np.linspace(0.0, 1.0, 33)


def random_walk(seed: int, times=TIMES, dim: int = 1) -> np.ndarray:
    rng = stream_generator(derive_seed(seed, 3), 0)
    steps = rng.standard_normal((times.size - 1, dim)) * np.sqrt(np.diff(times))[:, None]
    return np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])


def constant_strategy(index: int, start: float = 0.0, end: float = 1.0,
                      control_set: ControlSet = PM) -> ElementaryStrategy:
    return ElementaryStrategy(control_set=control_set,
                              start_rule=FixedTimeRule(start),
                              rules=(FixedTimeRule(end),),
                              actions=(ConstantAction(index),),
                              label=f"const{index}")


# ---------------------------------------------------------- stopping rules ---- #


def test_fixed_time_rule_snaps_up():
    rule = FixedTimeRule(0.30)
    j = rule.fixed_fire_index(TIMES)
    assert TIMES[j] >= 0.30 - 1e-12
    assert TIMES[j - 1] < 0.30
    assert rule.fire_index(TIMES, None, j) == j
    assert rule.fire_index(TIMES, None, j - 1) is None
    # exactly on a grid point: no spurious shift to the next one
    assert TIMES[FixedTimeRule(0.25).fixed_fire_index(TIMES)] == 0.25
    # beyond the grid: clamps to the last index
    assert FixedTimeRule(9.0).fixed_fire_index(TIMES) == TIMES.size - 1


def test_grid_index_rule_clamps():
    assert GridIndexRule(5).fixed_fire_index(TIMES) == 5
    assert GridIndexRule(-3).fixed_fire_index(TIMES) == 0
    assert GridIndexRule(999).fixed_fire_index(TIMES) == TIMES.size - 1


def test_hitting_rule_finds_first_entry():
    states = np.zeros((TIMES.size, 1))
    states[10:] = 2.0
    rule = HittingRule(AbsRegion(1.5))
    assert rule.fire_index(TIMES, states, TIMES.size - 1) == 10
    assert rule.fire_index(TIMES, states, 9) is None
    calm = np.zeros((TIMES.size, 1))
    assert rule.fire_index(TIMES, calm, TIMES.size - 1) is None


def test_hitting_rule_chained_after_fixed_time():
    # entries before the from_rule's fire index do not count
    states = np.zeros((TIMES.size, 1))
    states[3:6] = 2.0
    states[20:] = 2.0
    chained = HittingRule(AbsRegion(1.5), from_rule=FixedTimeRule(0.5))
    start = FixedTimeRule(0.5).fixed_fire_index(TIMES)
    assert chained.fire_index(TIMES, states, TIMES.size - 1) == 20
    assert start <= 20


def test_capped_rule_is_min():
    states = np.zeros((TIMES.size, 1))
    states[12:] = 5.0
    rule = CappedRule(HittingRule(AbsRegion(1.0)), FixedTimeRule(1.0))
    assert rule.fire_index(TIMES, states, TIMES.size - 1) == 12
    calm = np.zeros((TIMES.size, 1))
    assert rule.fire_index(TIMES, calm, TIMES.size - 1) == TIMES.size - 1
    assert rule.fixed_fire_index(TIMES) is None  # inner part is path-dependent


def test_regions():
    x = np.array([[0.5, -2.0], [0.1, 0.1]])
    assert np.array_equal(AbsRegion(1.5).contains(x), [True, False])
    assert np.array_equal(AbsRegion(1.5, coord=0).contains(x), [False, False])
    assert np.array_equal(ThresholdRegion(0.3).contains(x), [True, False])
    assert np.array_equal(ThresholdRegion(0.3, direction="le").contains(x), [False, True])
    box = OutsideBoxRegion(lo=(-1.0, -1.0), hi=(1.0, 1.0))
    assert np.array_equal(box.contains(x), [True, False])
    with pytest.raises(ConfigError):
        ThresholdRegion(0.0, direction="up")


@given(seed=hs.integers(0, 10_000), level=hs.floats(0.2, 1.5))
@settings(max_examples=60, deadline=None)
def test_fire_index_is_prefix_consistent(seed, level):
    # once a rule fires at j <= upto, growing upto never moves the index
    states = random_walk(seed)
    n = TIMES.size - 1
    for rule in (FixedTimeRule(0.4), GridIndexRule(7), HittingRule(AbsRegion(level)),
                 CappedRule(HittingRule(AbsRegion(level)), FixedTimeRule(0.9))):
        final = rule.fire_index(TIMES, states, n)
        for upto in range(0, n + 1, 5):
            early = rule.fire_index(TIMES, states, upto)
            if early is not None:
                assert early == final
            else:
                assert final is None or final > upto


# ------------------------------------------------------ strategy evaluation ---- #


def test_single_segment_constant_strategy():
    strat = constant_strategy(1)
    path = random_walk(0)
    for t in (0.05, 0.5, 1.0):
        assert strategy_control_index(strat, t, TIMES, path) == 1
        assert evaluate_strategy(strat, t, TIMES, path)[0] == 1.0


def test_two_piece_schedule():
    strat = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(FixedTimeRule(0.5), FixedTimeRule(1.0)),
        actions=(ConstantAction(0), ConstantAction(1)), label="two")
    path = random_walk(1)
    assert strategy_control_index(strat, 0.25, TIMES, path) == 0
    assert strategy_control_index(strat, 0.5, TIMES, path) == 0   # (0, T/2] closes at T/2
    assert strategy_control_index(strat, 0.75, TIMES, path) == 1


def test_queries_outside_the_active_window_raise():
    late_start = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.5),
        rules=(FixedTimeRule(0.75),), actions=(ConstantAction(0),), label="late")
    path = random_walk(2)
    with pytest.raises(StrategyIntervalError):
        strategy_control_index(late_start, 0.25, TIMES, path)
    with pytest.raises(StrategyIntervalError):
        strategy_control_index(late_start, 0.9, TIMES, path)  # exhausted
    with pytest.raises(StrategyIntervalError):
        strategy_control_index(late_start, 1.5, TIMES, path)  # off the grid


def test_structure_validation():
    with pytest.raises(StrategyStructureError):
        ElementaryStrategy(control_set=PM, start_rule=FixedTimeRule(0.0),
                           rules=(), actions=())
    with pytest.raises(StrategyStructureError):
        ElementaryStrategy(control_set=PM, start_rule=FixedTimeRule(0.0),
                           rules=(FixedTimeRule(1.0),),
                           actions=(ConstantAction(0), ConstantAction(1)))


def test_out_of_order_rules_are_clamped_and_counted():
    strat = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(FixedTimeRule(0.75), FixedTimeRule(0.25), FixedTimeRule(1.0)),
        actions=(ConstantAction(0), ConstantAction(1), ConstantAction(0)),
        label="folded")
    path = random_walk(3)
    assert strategy_control_index(strat, 0.5, TIMES, path) == 0
    # after the clamp point both the second rule and its action collapse
    # onto tau_1 = 0.75, so segment 3 is in force on (0.75, 1]
    assert strategy_control_index(strat, 0.9, TIMES, path) == 0
    seq, clamps = strategy_control_sequence(strat, TIMES, path)
    assert clamps == 1
    assert not np.any(seq == UNDEFINED)


def test_sequence_marks_inactive_steps_undefined():
    late = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.5),
        rules=(FixedTimeRule(1.0),), actions=(ConstantAction(1),), label="late")
    seq, _ = strategy_control_sequence(late, TIMES, random_walk(4))
    start = FixedTimeRule(0.5).fixed_fire_index(TIMES)
    assert np.all(seq[:start] == UNDEFINED)
    assert np.all(seq[start:] == 1)


def tracker_cases(feedback: FeedbackMap) -> list:
    """A grid ladder, a hitting switch, a chained hit, a hitting junction,
    and clamps both path-dependent and fixed."""
    two = ConstantAction(0), ConstantAction(1)
    hit = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(HittingRule(AbsRegion(0.6)), FixedTimeRule(1.0)),
        actions=two, label="hitswitch")
    chained = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        # x <= 0 holds at index 0, so only the gate delays the switch; an
        # entry at the gate's own fire index counts
        rules=(HittingRule(ThresholdRegion(0.0, direction="le"),
                           from_rule=HittingRule(AbsRegion(0.3))),
               FixedTimeRule(1.0)),
        actions=two, label="chained")
    junction = HittingRule(AbsRegion(0.4))
    tail = ElementaryStrategy(control_set=PM, start_rule=junction,
                              rules=(FixedTimeRule(0.75), FixedTimeRule(1.0)),
                              actions=(FeedbackLookupAction(feedback), ConstantAction(0)),
                              label="tail")
    glued = concatenate(constant_strategy(1), tail, junction)
    clamped = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(HittingRule(AbsRegion(0.3)), FixedTimeRule(0.25), FixedTimeRule(1.0)),
        actions=two + (ConstantAction(0),), label="clamped")
    folded = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(FixedTimeRule(0.75), FixedTimeRule(0.25), FixedTimeRule(1.0)),
        actions=two + (ConstantAction(0),), label="folded")
    return [make_grid_strategy(feedback, TIMES[::8]), hit, chained, glued, clamped, folded]


def track(strat: ElementaryStrategy, paths: np.ndarray) -> tuple[np.ndarray, int]:
    """StrategyTracker run over stacked paths (n, N+1, dim); indices (n, N)."""
    tracker = StrategyTracker(strat, TIMES, paths.shape[0])
    got = np.empty(paths.shape[:1] + (TIMES.size - 1,), dtype=np.int64)
    for i in range(TIMES.size - 1):
        got[:, i] = tracker.on_state(i, paths[:, i])
    return got, tracker.clamp_count


@pytest.mark.parametrize("seed", range(6))
def test_tracker_agrees_with_recomputation(seed, pennies_fields):
    """On one path the tracker must replay strategy_control_sequence exactly."""
    lower, _ = pennies_fields
    path = random_walk(seed)
    for strat in tracker_cases(lower.feedback_u):
        want, want_clamps = strategy_control_sequence(strat, TIMES, path)
        got, clamps = track(strat, path[None])
        assert np.array_equal(got[0], want), strat.label
        assert clamps == want_clamps, strat.label


def test_tracker_rows_agree_in_one_batch(pennies_fields):
    """Six walks stacked: each row replays its own path, and clamps add up."""
    lower, _ = pennies_fields
    paths = np.stack([random_walk(seed) for seed in range(6)])
    for strat in tracker_cases(lower.feedback_u):
        got, clamps = track(strat, paths)
        want_clamps = 0
        for p in range(paths.shape[0]):
            want, row_clamps = strategy_control_sequence(strat, TIMES, paths[p])
            assert np.array_equal(got[p], want), (strat.label, p)
            want_clamps += row_clamps
        assert clamps == want_clamps, strat.label


# ------------------------------------------------------------ feedback maps ---- #


def random_feedback(seed: int, n_times: int = 5, n_nodes: int = 9) -> FeedbackMap:
    rng = stream_generator(derive_seed(seed, 5), 0)
    times = np.linspace(0.0, 1.0, n_times)
    axes = (np.linspace(-2.0, 2.0, n_nodes),)
    idx = rng.integers(0, PM.size, size=(n_times, n_nodes)).astype(np.int16)
    return FeedbackMap(times=times, axes=axes, indices=idx, control_set=PM)


def test_feedback_lookup_snaps_and_clamps():
    fb = random_feedback(0)
    # dead center of a cell and far outside the box agree with direct indexing
    assert fb.lookup_index(0.0, np.array([-2.0])) == int(fb.indices[0, 0])
    assert fb.lookup_index(1.0, np.array([99.0])) == int(fb.indices[-1, -1])
    assert fb.lookup(0.5, np.array([0.0]))[0] in (-1.0, 1.0)


def test_feedback_batch_matches_scalar():
    fb = random_feedback(1)
    rng = stream_generator(derive_seed(1, 5), 1)
    xs = rng.uniform(-3, 3, size=(200, 1))
    for t in (0.0, 0.37, 1.0):
        batch = fb.lookup_index_batch(t, xs)
        scalar = np.array([fb.lookup_index(t, x) for x in xs])
        assert np.array_equal(batch, scalar)


def test_feedback_validation():
    times = np.linspace(0, 1, 4)
    axes = (np.linspace(-1, 1, 5),)
    good = np.zeros((4, 5), dtype=np.int16)
    FeedbackMap(times=times, axes=axes, indices=good, control_set=PM)
    with pytest.raises(ConfigError):
        FeedbackMap(times=times, axes=axes, indices=np.zeros((3, 5), dtype=np.int16),
                    control_set=PM)
    with pytest.raises(ConfigError):
        FeedbackMap(times=times, axes=axes, indices=good.astype(float), control_set=PM)
    with pytest.raises(ConfigError):
        FeedbackMap(times=times, axes=axes, indices=good + 7, control_set=PM)
    with pytest.raises(ConfigError):
        FeedbackMap(times=times, axes=(np.array([0.0, 0.5, 0.6]),),
                    indices=np.zeros((4, 3), dtype=np.int16), control_set=PM)


def test_constant_feedback_map():
    fb = FeedbackMap.constant(PM, 1, TIMES, (np.linspace(-2, 2, 9),))
    assert fb.lookup_index(0.3, np.array([1.7])) == 1


# --------------------------------------------------------- grid strategies ---- #


def test_grid_strategy_freezes_at_decision_times():
    """On (t_k, t_{k+1}] the ladder plays the table at (t_k, y(t_k))."""
    fb = random_feedback(2, n_times=33)
    decisions = TIMES[::8]
    strat = make_grid_strategy(fb, decisions)
    for seed in range(100):
        path = random_walk(seed)
        for j in (1, 7, 8, 9, 17, 32):
            t = TIMES[j]
            k = np.searchsorted(decisions, t, side="left") - 1
            k = max(k, 0)
            want = fb.lookup_index(float(decisions[k]),
                                   path[int(np.searchsorted(TIMES, decisions[k]))])
            assert strategy_control_index(strat, t, TIMES, path) == want


def test_grid_strategy_refinement_consistency():
    # a table constant in time and space cannot distinguish 4 from 8 splits
    fb = FeedbackMap.constant(PM, 1, TIMES, (np.linspace(-2, 2, 9),))
    s4 = make_grid_strategy(fb, TIMES[::8])
    s8 = make_grid_strategy(fb, TIMES[::4])
    for seed in range(100):
        path = random_walk(seed)
        a, _ = strategy_control_sequence(s4, TIMES, path)
        b, _ = strategy_control_sequence(s8, TIMES, path)
        assert np.array_equal(a, b)


def test_grid_strategy_validation():
    fb = random_feedback(3)
    with pytest.raises(StrategyStructureError):
        make_grid_strategy(fb, [0.5])
    with pytest.raises(StrategyStructureError):
        make_grid_strategy(fb, [0.5, 0.25])


# ------------------------------------------------------------- concatenate ---- #


def test_concatenate_constants_is_two_piece():
    first = constant_strategy(0)
    tail = ElementaryStrategy(control_set=PM, start_rule=FixedTimeRule(0.5),
                              rules=(FixedTimeRule(1.0),),
                              actions=(ConstantAction(1),), label="tail")
    glued = concatenate(first, tail, FixedTimeRule(0.5))
    path = random_walk(5)
    assert strategy_control_index(glued, 0.25, TIMES, path) == 0
    assert strategy_control_index(glued, 0.75, TIMES, path) == 1


def test_concatenate_with_never_firing_junction_plays_first_everywhere():
    first = constant_strategy(0)
    junction = HittingRule(AbsRegion(50.0))  # unreachable level
    tail = ElementaryStrategy(control_set=PM, start_rule=junction,
                              rules=(FixedTimeRule(1.0),),
                              actions=(ConstantAction(1),), label="tail")
    glued = concatenate(first, tail, junction)
    path = random_walk(6)
    seq, _ = strategy_control_sequence(glued, TIMES, path)
    ref, _ = strategy_control_sequence(first, TIMES, path)
    assert np.array_equal(seq, ref)


def test_concatenate_structural_checks():
    first = constant_strategy(0)
    other_set = ControlSet(np.array([[-2.0], [2.0]]))
    tail_wrong_set = constant_strategy(1, start=0.5, control_set=other_set)
    with pytest.raises(StrategyStructureError):
        concatenate(first, tail_wrong_set, FixedTimeRule(0.5))
    tail_wrong_start = constant_strategy(1, start=0.25)
    with pytest.raises(StrategyStructureError):
        concatenate(first, tail_wrong_start, FixedTimeRule(0.5))


def test_concatenate_probe_rejects_tail_firing_early():
    junction = FixedTimeRule(0.5)
    tail = ElementaryStrategy(
        control_set=PM, start_rule=junction,
        rules=(FixedTimeRule(0.1), FixedTimeRule(1.0)),
        actions=(ConstantAction(0), ConstantAction(1)), label="early")
    with pytest.raises(StrategyStructureError):
        concatenate(constant_strategy(0), tail, junction, probe_times=TIMES)


# -------------------------------------------------------- open-loop controls ---- #


def test_constant_control():
    noise = sample_noise(TIMES, 11, 1)
    assert np.all(realize_open_loop(ConstantControl(1), noise, 2) == 1)


def test_sign_control_conventions():
    noise = sample_noise(TIMES, 12, 1)
    ctrl = SignControl(pos_index=1, neg_index=0)
    path = realize_open_loop(ctrl, noise, 2)
    # step 0 sums zero increments, and the convention is sign(0) = +
    assert path[0] == 1
    level = np.concatenate([[0.0], np.cumsum(noise.dW[:-1, 0])])
    assert np.array_equal(path, np.where(level >= 0, 1, 0))
    # the zero-noise path plays pos_index throughout
    flat = dataclasses.replace(noise, dW=np.zeros_like(noise.dW))
    assert np.all(realize_open_loop(ctrl, flat, 2) == 1)


def test_sign_control_batch_matches_scalar():
    n_paths = 16
    dW = np.stack([sample_noise(TIMES, 100 + p, 1).dW for p in range(n_paths)])
    extra = np.zeros((n_paths, TIMES.size - 1, 0))
    ctrl = SignControl(pos_index=1, neg_index=0)
    batch = ctrl.realize_batch(TIMES, dW, extra, np.arange(n_paths))
    for p in range(n_paths):
        noise = sample_noise(TIMES, 100 + p, 1)
        assert np.array_equal(batch[p], realize_open_loop(ctrl, noise, 2))


def test_sign_control_extra_source_ignores_brownian():
    # reads only the auxiliary stream, so perturbing dW changes nothing
    ctrl = SignControl(pos_index=1, neg_index=0, source="extra")
    assert ctrl.info_level == "enlarged"
    assert ctrl.extra_dim == 1
    noise = sample_noise(TIMES, 13, 1, extra_dim=1)
    base = realize_open_loop(ctrl, noise, 2)
    jolted = dataclasses.replace(noise, dW=noise.dW + 3.0)
    assert np.array_equal(base, realize_open_loop(ctrl, jolted, 2))
    flipped = dataclasses.replace(noise, extra=-noise.extra)
    assert not np.array_equal(base, realize_open_loop(ctrl, flipped, 2))


def test_sign_control_requires_extra_stream():
    ctrl = SignControl(pos_index=1, neg_index=0, source="extra")
    noise = sample_noise(TIMES, 14, 1, extra_dim=0)
    with pytest.raises(ConfigError):
        realize_open_loop(ctrl, noise, 2)
    with pytest.raises(ConfigError):
        SignControl(pos_index=0, neg_index=1, source="both")


def test_replay_control():
    noise = sample_noise(TIMES, 15, 1)
    idx = tuple(int(i % 2) for i in range(TIMES.size - 1))
    assert np.array_equal(realize_open_loop(ReplayControl(idx), noise, 2), idx)
    with pytest.raises(ConfigError):
        realize_open_loop(ReplayControl((0, 1)), noise, 2)


def test_piecewise_random_control_draws_from_the_path_seed():
    ctrl = PiecewiseRandomControl(n_choices=2, n_segments=4, salt=1)
    assert ctrl.info_level == "enlarged"
    noise = sample_noise(TIMES, 16, 1, extra_dim=1)
    base = realize_open_loop(ctrl, noise, 2)
    # piecewise constant on 4 blocks
    assert len(np.flatnonzero(np.diff(base))) <= 3
    # private randomness: both noise streams are irrelevant
    jolted = dataclasses.replace(noise, dW=noise.dW * -2.0, extra=noise.extra + 1.0)
    assert np.array_equal(base, realize_open_loop(ctrl, jolted, 2))
    # but the path seed is not
    other = dataclasses.replace(noise, seed=noise.seed + 1)
    salted = PiecewiseRandomControl(n_choices=2, n_segments=4, salt=2)
    assert not np.array_equal(base, realize_open_loop(salted, other, 2)) \
        or not np.array_equal(base, realize_open_loop(ctrl, other, 2))
    with pytest.raises(StrategyStructureError):
        ctrl.control_index(0, TIMES, noise.dW, noise.extra)


def test_piecewise_random_batch_matches_scalar():
    ctrl = PiecewiseRandomControl(n_choices=3, n_segments=5, salt=0)
    seeds = np.array([derive_seed(77, p) for p in range(8)], dtype=np.uint64)
    dW = np.stack([sample_noise(TIMES, int(s), 1).dW for s in seeds])
    batch = ctrl.realize_batch(TIMES, dW, np.zeros((8, TIMES.size - 1, 0)), seeds)
    for p, s in enumerate(seeds):
        noise = sample_noise(TIMES, int(s), 1)
        assert np.array_equal(batch[p], realize_open_loop(ctrl, noise, 3))


def test_realize_open_loop_validates_range():
    class Wild(OpenLoopControl):
        label = "wild"

        def control_index(self, i, times, dW, extra):
            return 99

    with pytest.raises(ModelEvaluationError):
        realize_open_loop(Wild(), sample_noise(TIMES, 17, 1), 2)


# --------------------------------------------------- anticipation checking ---- #


def test_builtin_rules_pass_the_screen():
    for rule in (FixedTimeRule(0.4), GridIndexRule(5), HittingRule(AbsRegion(1.0)),
                 CappedRule(HittingRule(AbsRegion(1.0)), FixedTimeRule(1.0))):
        rep = check_nonanticipative(rule, n_trials=200, seed=0)
        assert rep.passed, rep
        assert rep.trials == 200


def test_builtin_controls_pass_the_screen():
    controls = (ConstantControl(1), SignControl(1, 0),
                SignControl(1, 0, source="extra"),
                PiecewiseRandomControl(2, 4, salt=0), ReplayControl((1, 0) * 16))
    for ctrl in controls:
        rep = check_nonanticipative(ctrl, n_trials=200, seed=0, n_steps=32)
        assert rep.passed, (ctrl.label, rep)


def test_strategies_pass_the_screen(pennies_fields):
    lower, _ = pennies_fields
    ladder = make_grid_strategy(lower.feedback_u, TIMES[::8])
    rep = check_nonanticipative(ladder, n_trials=200, seed=0)
    assert rep.passed


def test_lookahead_fixtures_fail_the_screen():
    assert LookaheadRule().anticipating
    rep_rule = check_nonanticipative(LookaheadRule(), n_trials=200, seed=0)
    assert not rep_rule.passed
    assert rep_rule.first_failure is not None
    rep_ctrl = check_nonanticipative(LookaheadControl(1, 0), n_trials=200, seed=0)
    assert not rep_ctrl.passed
    peeker = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(FixedTimeRule(1.0),), actions=(LookaheadAction(1, 0),),
        label="peeker")
    assert peeker.anticipating
    rep_strat = check_nonanticipative(peeker, n_trials=200, seed=0)
    assert not rep_strat.passed
