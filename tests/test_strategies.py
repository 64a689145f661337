"""Stopping rules, elementary strategies, feedback maps, open-loop controls,
and the anticipation screen.

The package runs every player through its batch form only; the per-path
semantics these tests compare against live in ``strategy_oracle``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import robustctl.strategies as strategies
import strategy_oracle as oracle
from robustctl.errors import (ConfigError, ModelEvaluationError,
                              StrategyIntervalError, StrategyStructureError)
from robustctl.game_engine import simulate_feedback_pair, simulate_strong
from robustctl.sde_core import ControlSet, derive_seed, sample_noise, stream_generator
from robustctl.strategies import (_NOT_YET, UNDEFINED, _track, AbsRegion, CappedRule,
                                  ConstantAction, ConstantControl,
                                  ElementaryStrategy, FeedbackLookupAction,
                                  FeedbackMap, FixedTimeRule, GridIndexRule,
                                  HittingRule, OpenLoopControl,
                                  PiecewiseRandomControl, ReplayControl,
                                  SignControl, check_nonanticipative,
                                  concatenate, fire_batch, make_grid_strategy,
                                  realize_checked)

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


def fire(rule, states: np.ndarray) -> int:
    """fire_batch on one path (N+1, dim)."""
    return int(fire_batch(rule, TIMES, states[None])[0])


# ---------------------------------------------------------- stopping rules ---- #


def test_fixed_time_rule_snaps_up():
    rule = FixedTimeRule(0.30)
    j = rule.fixed_fire_index(TIMES)
    assert TIMES[j] >= 0.30 - 1e-12
    assert TIMES[j - 1] < 0.30
    path = random_walk(0)
    assert fire(rule, path) == j
    assert fire(rule, path[:j]) == _NOT_YET
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
    assert fire(rule, states) == 10
    assert fire(rule, states[:10]) == _NOT_YET
    calm = np.zeros((TIMES.size, 1))
    assert fire(rule, calm) == _NOT_YET


def test_hitting_rule_chained_after_fixed_time():
    # entries before the from_rule's fire index do not count
    states = np.zeros((TIMES.size, 1))
    states[3:6] = 2.0
    states[20:] = 2.0
    chained = HittingRule(AbsRegion(1.5), from_rule=FixedTimeRule(0.5))
    start = FixedTimeRule(0.5).fixed_fire_index(TIMES)
    assert fire(chained, states) == 20
    assert start <= 20


def test_capped_rule_is_min():
    states = np.zeros((TIMES.size, 1))
    states[12:] = 5.0
    rule = CappedRule(HittingRule(AbsRegion(1.0)), FixedTimeRule(1.0))
    assert fire(rule, states) == 12
    calm = np.zeros((TIMES.size, 1))
    assert fire(rule, calm) == TIMES.size - 1
    assert rule.fixed_fire_index(TIMES) is None  # inner part is path-dependent


def test_regions():
    x = np.array([[0.5, -2.0], [0.1, 0.1]])
    assert np.array_equal(AbsRegion(1.5).contains(x), [True, False])
    assert np.array_equal(AbsRegion(1.5, coord=0).contains(x), [False, False])
    assert np.array_equal(AbsRegion(1.5, coord=1).contains(x), [True, False])
    assert AbsRegion(0.0).contains(x).all()  # level 0 holds everywhere


@given(seed=hs.integers(0, 10_000), level=hs.floats(0.2, 1.5))
@settings(max_examples=60, deadline=None)
def test_fire_index_is_prefix_consistent(seed, level):
    # once a rule fires at j <= upto, growing the path past upto never moves the index
    states = random_walk(seed)
    n = TIMES.size - 1
    for rule in (FixedTimeRule(0.4), GridIndexRule(7), HittingRule(AbsRegion(level)),
                 CappedRule(HittingRule(AbsRegion(level)), FixedTimeRule(0.9))):
        final = fire(rule, states)
        for upto in range(0, n + 1, 5):
            early = fire(rule, states[:upto + 1])
            assert early == (final if final <= upto else _NOT_YET)


# ------------------------------------------------------ strategy evaluation ---- #


def track(strat: ElementaryStrategy, paths: np.ndarray) -> tuple[np.ndarray, int]:
    """StrategyTracker run over stacked paths (n, N+1, dim): indices (n, N), clamps."""
    return _track(strat, TIMES, paths)


def test_single_segment_constant_strategy():
    got, _ = track(constant_strategy(1), random_walk(0)[None])
    assert np.all(got == 1)


def test_two_piece_schedule():
    strat = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(FixedTimeRule(0.5), FixedTimeRule(1.0)),
        actions=(ConstantAction(0), ConstantAction(1)), label="two")
    got, _ = track(strat, random_walk(1)[None])
    # step i is the interval (t_i, t_{i+1}]; (0, T/2] closes at T/2
    assert np.all(got[0, :16] == 0)
    assert np.all(got[0, 16:] == 1)


def test_queries_outside_the_active_window_raise(pennies_problem):
    # the tracker leaves such steps UNDEFINED, and the engine refuses to march them
    spec = pennies_problem.spec
    noise = sample_noise(np.linspace(0.0, spec.horizon, 33), 2, spec.noise_dim)
    x0 = np.array([0.0])
    exhausted = constant_strategy(0, start=0.0, end=0.25)
    with pytest.raises(StrategyIntervalError, match="inactive on step 0"):
        simulate_strong(spec, constant_strategy(0, start=0.25, end=0.5),
                        ConstantControl(0), noise, x0)
    with pytest.raises(StrategyIntervalError, match="inactive on step 16"):
        simulate_strong(spec, exhausted, ConstantControl(0), noise, x0)
    with pytest.raises(StrategyIntervalError, match="adversary strategy"):
        simulate_feedback_pair(spec, constant_strategy(0, end=0.5), exhausted, noise, x0)


def test_structure_validation():
    with pytest.raises(StrategyStructureError):
        ElementaryStrategy(control_set=PM, start_rule=FixedTimeRule(0.0),
                           rules=(), actions=())
    with pytest.raises(StrategyStructureError):
        ElementaryStrategy(control_set=PM, start_rule=FixedTimeRule(0.0),
                           rules=(FixedTimeRule(1.0),),
                           actions=(ConstantAction(0), ConstantAction(1)))

    # a lookup table's indices mean controls of its own set; on a strategy
    # declared on another set, of any size, they would decode as other controls
    def reading(control_set):
        table = FeedbackMap.constant(control_set, 0, [0.0, 1.0], [np.zeros(1)], label="t")
        return ElementaryStrategy(control_set=PM, start_rule=FixedTimeRule(0.0),
                                  rules=(FixedTimeRule(0.5), FixedTimeRule(1.0)),
                                  actions=(ConstantAction(0), FeedbackLookupAction(table)),
                                  label="mixed")

    for points, shown in (([0.0], "0"), ([-2.0, 2.0], "-2, 2"), ([-1.0, 0.0, 1.0], "-1, 0, 1")):
        with pytest.raises(StrategyStructureError,
                           match=rf"^strategy 'mixed' reads table 't' on \{{{shown}\}}, "
                                 r"not on its own set \{-1, 1\}$"):
            reading(ControlSet(np.array(points)))
    checked = reading(ControlSet(PM.points.copy()))  # the same points built apart: one set
    with pytest.raises(dataclasses.FrozenInstanceError):  # so the check holds for good
        checked.actions = (ConstantAction(5),)


def test_out_of_order_rules_are_clamped_and_counted():
    strat = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(FixedTimeRule(0.75), FixedTimeRule(0.25), FixedTimeRule(1.0)),
        actions=(ConstantAction(0), ConstantAction(1), ConstantAction(0)),
        label="folded")
    got, clamps = track(strat, random_walk(3)[None])
    # after the clamp point both the second rule and its action collapse
    # onto tau_1 = 0.75, so segment 3 is in force on (0.75, 1]
    assert clamps == 1
    assert np.all(got[0] == 0)


def test_sequence_marks_inactive_steps_undefined():
    late = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.5),
        rules=(FixedTimeRule(0.75),), actions=(ConstantAction(1),), label="late")
    got, _ = track(late, random_walk(4)[None])
    assert np.all(got[0, :16] == UNDEFINED)
    assert np.all(got[0, 16:24] == 1)
    assert np.all(got[0, 24:] == UNDEFINED)  # exhausted


def tracker_cases(feedback: FeedbackMap) -> list:
    """A grid ladder, a hitting switch, a chained hit, a hitting junction,
    clamps both path-dependent and fixed, a zero-length segment and a late
    start."""
    two = ConstantAction(0), ConstantAction(1)
    hit = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(HittingRule(AbsRegion(0.6)), FixedTimeRule(1.0)),
        actions=two, label="hitswitch")
    chained = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        # |x| >= 0 holds at every index, so the switch lands exactly on the
        # gate's fire index: an entry at the gate's own fire index counts
        rules=(HittingRule(AbsRegion(0.0), from_rule=HittingRule(AbsRegion(0.3))),
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
    # two rules fire at 0.5, so action 1 is in force on (0.5, 0.5] only: never
    empty = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(FixedTimeRule(0.5), FixedTimeRule(0.5), FixedTimeRule(1.0)),
        actions=two + (FeedbackLookupAction(feedback),), label="empty")
    # UNDEFINED on the steps before 0.25, where the start rule fires
    late = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.25),
        rules=(FixedTimeRule(0.5), FixedTimeRule(1.0)),
        actions=(ConstantAction(1), FeedbackLookupAction(feedback)), label="late")
    return [make_grid_strategy(feedback, TIMES[::8]), hit, chained, glued, clamped, folded,
            empty, late]


@pytest.mark.parametrize("seed", range(6))
def test_tracker_agrees_with_recomputation(seed, pennies_fields):
    """On one path the tracker must replay the oracle's per-step recomputation."""
    lower, _ = pennies_fields
    path = random_walk(seed)
    for strat in tracker_cases(lower.feedback_u):
        want, want_clamps = oracle.control_sequence(strat, TIMES, path)
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
            want, row_clamps = oracle.control_sequence(strat, TIMES, paths[p])
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
    assert fb.lookup_index_batch(0.0, np.array([[-2.0]]))[0] == fb.indices[0, 0]
    assert fb.lookup_index_batch(1.0, np.array([[99.0]]))[0] == fb.indices[-1, -1]
    # states too far off the grid for an int read the edge nodes, silently
    with np.errstate(all="raise"):
        far = fb.cells_of(np.array([[1e300], [-1e300], [np.inf], [-np.inf]]))
    assert far[0].tolist() == [8, 0, 8, 0]


def test_feedback_batch_matches_scalar():
    fb = random_feedback(1)
    rng = stream_generator(derive_seed(1, 5), 1)
    xs = rng.uniform(-3, 3, size=(200, 1))
    for t in (0.0, 0.37, 1.0):
        batch = fb.lookup_index_batch(t, xs)
        scalar = np.array([oracle.snap_lookup(fb.times, fb.axes, fb.indices, t, x)
                           for x in xs])
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
    assert fb.lookup_index_batch(0.3, np.array([[1.7]]))[0] == 1


def test_a_constant_feedback_map_checks_its_index_before_the_cast():
    # the table's dtype is the set's narrow index dtype, which cannot hold
    # 40000 or -1, so the index is refused by name before the cast
    axes = (np.linspace(-2, 2, 9),)
    for bad in (40000, -1, PM.size):
        with pytest.raises(ConfigError, match="feedback map 'const': control index out of range"):
            FeedbackMap.constant(PM, bad, TIMES, axes)
    fb = FeedbackMap.constant(PM, 1, TIMES, axes)
    assert fb.indices.dtype == PM.index_dtype == np.uint8
    assert np.all(fb.indices == 1)


# --------------------------------------------------------- grid strategies ---- #


def test_grid_strategy_freezes_at_decision_times():
    """On (t_k, t_{k+1}] the ladder plays the table at (t_k, y(t_k))."""
    fb = random_feedback(2, n_times=33)
    decisions = TIMES[::8]
    paths = np.stack([random_walk(seed) for seed in range(100)])
    got, _ = track(make_grid_strategy(fb, decisions), paths)
    for j in (1, 7, 8, 9, 17, 32):
        k = max(np.searchsorted(decisions, TIMES[j], side="left") - 1, 0)
        at = int(np.searchsorted(TIMES, decisions[k]))
        want = [oracle.snap_lookup(fb.times, fb.axes, fb.indices, float(decisions[k]),
                                   path[at]) for path in paths]
        assert np.array_equal(got[:, j - 1], want), j


def test_grid_strategy_refinement_consistency():
    # a table constant in time and space cannot distinguish 4 from 8 splits
    fb = FeedbackMap.constant(PM, 1, TIMES, (np.linspace(-2, 2, 9),))
    paths = np.stack([random_walk(seed) for seed in range(100)])
    a, _ = track(make_grid_strategy(fb, TIMES[::8]), paths)
    b, _ = track(make_grid_strategy(fb, TIMES[::4]), paths)
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
    got, _ = track(glued, random_walk(5)[None])
    assert np.all(got[0, :16] == 0)
    assert np.all(got[0, 16:] == 1)


def test_concatenate_with_never_firing_junction_plays_first_everywhere():
    first = constant_strategy(0)
    junction = HittingRule(AbsRegion(50.0))  # unreachable level
    tail = ElementaryStrategy(control_set=PM, start_rule=junction,
                              rules=(FixedTimeRule(1.0),),
                              actions=(ConstantAction(1),), label="tail")
    glued = concatenate(first, tail, junction)
    path = random_walk(6)[None]
    assert np.array_equal(track(glued, path)[0], track(first, path)[0])


def test_concatenate_structural_checks():
    first = constant_strategy(0)
    other_set = ControlSet(np.array([[-2.0], [2.0]]))
    tail_wrong_set = constant_strategy(1, start=0.5, control_set=other_set)
    with pytest.raises(StrategyStructureError):
        concatenate(first, tail_wrong_set, FixedTimeRule(0.5))
    tail_wrong_start = constant_strategy(1, start=0.25)
    with pytest.raises(StrategyStructureError):
        concatenate(first, tail_wrong_start, FixedTimeRule(0.5))


def test_concatenate_tail_firing_early_counts_one_clamp_per_path():
    # the tail's first rule fires at index 4, before the junction at 16; the
    # tracker clamps it to the junction on every path and counts each clamp,
    # and the tail's second action is in force from the junction on
    junction = FixedTimeRule(0.5)
    tail = ElementaryStrategy(
        control_set=PM, start_rule=junction,
        rules=(FixedTimeRule(0.1), FixedTimeRule(1.0)),
        actions=(ConstantAction(0), ConstantAction(1)), label="early")
    glued = concatenate(constant_strategy(0), tail, junction)
    paths = np.stack([random_walk(seed) for seed in range(5)])
    got, clamps = track(glued, paths)
    assert clamps == 5
    assert np.all(got[:, :16] == 0) and np.all(got[:, 16:] == 1)


# -------------------------------------------------------- open-loop controls ---- #


def realize(ctrl, noise, n_choices: int | None = 2) -> np.ndarray:
    """realize_checked on a one-row batch."""
    seeds = np.array([noise.seed], dtype=np.uint64)
    return realize_checked(ctrl, noise.times, noise.dW[None], noise.extra[None], seeds,
                           n_choices)[0]


def noise_batch(seeds, extra_dim: int = 0):
    rows = [sample_noise(TIMES, int(s), 1, extra_dim) for s in seeds]
    return (rows, np.stack([r.dW for r in rows]), np.stack([r.extra for r in rows]),
            np.asarray(seeds, dtype=np.uint64))


def test_constant_control():
    noise = sample_noise(TIMES, 11, 1)
    assert np.all(realize(ConstantControl(1), noise) == 1)


def test_sign_control_conventions():
    noise = sample_noise(TIMES, 12, 1)
    ctrl = SignControl(pos_index=1, neg_index=0)
    path = realize(ctrl, noise)
    # step 0 sums zero increments, and the convention is sign(0) = +
    assert path[0] == 1
    # the zero-noise path plays pos_index throughout
    flat = dataclasses.replace(noise, dW=np.zeros_like(noise.dW))
    assert np.all(realize(ctrl, flat) == 1)


def test_sign_control_batch_matches_scalar():
    rows, dW, extra, seeds = noise_batch(range(100, 116), extra_dim=1)
    for ctrl in (SignControl(pos_index=1, neg_index=0),
                 SignControl(pos_index=0, neg_index=1, source="extra")):
        batch = ctrl.realize_batch(TIMES, dW, extra, seeds)
        for p, noise in enumerate(rows):
            assert np.array_equal(batch[p], oracle.realize(ctrl, noise)), (ctrl.label, p)


def test_built_in_batch_forms_keep_their_first_bits():
    # the running sum is exactly 0.0 (or -0.0) on many steps of these dyadic
    # increments, where the sign convention decides; the realizations read
    # the engine's time-major noise through a transposed view.  The first
    # forms returned int64; the values are pinned, the dtype is now int32
    rng = np.random.default_rng(4)
    shape = (24, 32, 2)
    dyadic = rng.integers(-2, 3, size=shape) * 0.25
    dyadic[rng.random(shape) < 0.1] = -0.0
    assert np.count_nonzero(np.cumsum(dyadic, axis=1) == 0.0) > 100
    for dW, extra in ((dyadic, dyadic[..., ::-1] * -1.0),
                      (rng.standard_normal(shape), rng.standard_normal(shape))):
        seeds = np.arange(shape[0], dtype=np.uint64)
        dW_view = np.ascontiguousarray(dW.transpose(1, 0, 2)).transpose(1, 0, 2)
        for source in ("brownian", "extra"):
            for coord in (0, 1):
                ctrl = SignControl(pos_index=1, neg_index=0, source=source, coord=coord)
                want = oracle.sign_batch(ctrl, dW, extra)
                for noise in (dW, dW_view):
                    got = ctrl.realize_batch(TIMES, noise, extra, seeds)
                    assert got.dtype == np.int32 and np.array_equal(got, want), source
        ctrl = ConstantControl(1)
        got = ctrl.realize_batch(TIMES, dW_view, extra, seeds)
        want = oracle.constant_batch(ctrl, dW)
        assert got.dtype == np.int32 and np.array_equal(got, want)
        assert not got.flags.writeable


def test_sign_control_extra_source_ignores_brownian():
    # reads only the auxiliary stream, so perturbing dW changes nothing
    ctrl = SignControl(pos_index=1, neg_index=0, source="extra")
    assert ctrl.extra_dim == 1
    noise = sample_noise(TIMES, 13, 1, extra_dim=1)
    base = realize(ctrl, noise)
    jolted = dataclasses.replace(noise, dW=noise.dW + 3.0)
    assert np.array_equal(base, realize(ctrl, jolted))
    flipped = dataclasses.replace(noise, extra=-noise.extra)
    assert not np.array_equal(base, realize(ctrl, flipped))


def test_sign_control_requires_extra_stream():
    ctrl = SignControl(pos_index=1, neg_index=0, source="extra")
    noise = sample_noise(TIMES, 14, 1, extra_dim=0)
    with pytest.raises(ConfigError, match="needs extra_dim >= 1"):
        realize(ctrl, noise)
    with pytest.raises(ConfigError):
        SignControl(pos_index=0, neg_index=1, source="both")


def test_replay_control():
    noise = sample_noise(TIMES, 15, 1)
    idx = tuple(int(i % 2) for i in range(TIMES.size - 1))
    assert np.array_equal(realize(ReplayControl(idx), noise), idx)
    _, dW, extra, seeds = noise_batch(range(3))  # one recorded path on every row
    assert np.array_equal(realize_checked(ReplayControl(idx), TIMES, dW, extra, seeds),
                          [idx] * 3)
    with pytest.raises(ConfigError, match="2 steps, noise has 32"):
        realize(ReplayControl((0, 1)), noise)
    with pytest.raises(ModelEvaluationError, match="realized dtype float64"):
        realize(ReplayControl(np.full(32, 1.9)), noise)


def test_replay_control_plays_one_recorded_path_per_row():
    _, dW, extra, seeds = noise_batch(range(3))
    paths = np.arange(3 * 32).reshape(3, 32) % 2
    assert np.array_equal(realize_checked(ReplayControl(paths), TIMES, dW, extra, seeds),
                          paths)
    with pytest.raises(ConfigError, match="replay control has 2 rows, noise has 3"):
        realize_checked(ReplayControl(paths[:2]), TIMES, dW, extra, seeds)
    with pytest.raises(ConfigError, match="replay control has 31 steps, noise has 32"):
        realize_checked(ReplayControl(paths[:, :31]), TIMES, dW, extra, seeds)


def test_piecewise_random_control_draws_from_the_path_seed():
    ctrl = PiecewiseRandomControl(n_choices=2, n_segments=4, salt=1)
    assert ctrl.extra_dim == 0
    noise = sample_noise(TIMES, 16, 1, extra_dim=1)
    base = realize(ctrl, noise)
    # piecewise constant on 4 blocks
    assert len(np.flatnonzero(np.diff(base))) <= 3
    # private randomness: both noise streams are irrelevant
    jolted = dataclasses.replace(noise, dW=noise.dW * -2.0, extra=noise.extra + 1.0)
    assert np.array_equal(base, realize(ctrl, jolted))
    # but the path seed is not
    other = dataclasses.replace(noise, seed=noise.seed + 1)
    salted = PiecewiseRandomControl(n_choices=2, n_segments=4, salt=2)
    assert not np.array_equal(base, realize(salted, other)) \
        or not np.array_equal(base, realize(ctrl, other))


def test_piecewise_random_batch_matches_scalar():
    ctrl = PiecewiseRandomControl(n_choices=3, n_segments=5, salt=0)
    rows, dW, extra, seeds = noise_batch([derive_seed(77, p) for p in range(8)])
    batch = ctrl.realize_batch(TIMES, dW, extra, seeds)
    for p, noise in enumerate(rows):
        assert np.array_equal(batch[p], oracle.realize(ctrl, noise))


class Fixed(OpenLoopControl):
    """A control that realizes one given array, whatever the noise."""

    def __init__(self, out):
        self.out = out

    def realize_batch(self, times, dW, extra, seeds):
        return self.out


def test_realize_checked_validates_the_batch_form():
    noise = sample_noise(TIMES, 17, 1)
    with pytest.raises(ModelEvaluationError, match="outside"):
        realize(Fixed(np.full((1, 32), 99)), noise)
    with pytest.raises(ModelEvaluationError, match=r"shape \(32,\), expected \(1, 32\)"):
        realize(Fixed(np.zeros(32)), noise)
    with pytest.raises(StrategyStructureError, match="OpenLoopControl has no batch form"):
        realize(OpenLoopControl(), noise)


def test_built_in_controls_refuse_indices_their_int32_paths_cannot_hold():
    for make in (lambda: ConstantControl(2 ** 31), lambda: ConstantControl(-1),
                 lambda: SignControl(pos_index=2 ** 31, neg_index=0)):
        with pytest.raises(ConfigError, match=r"plays index -?\d+, outside \[0, 2\*\*31\)"):
            make()


def test_realize_checked_refuses_indices_that_are_not_integers():
    # a float index would be truncated (1.9 would play index 1) and a bool
    # read as 0 or 1: both are refused by name, after the shape check
    noise = sample_noise(TIMES, 18, 1)
    seeds = np.array([noise.seed], dtype=np.uint64)
    for bad in (np.full((1, 32), 1.9), np.ones((1, 32), dtype=bool)):
        with pytest.raises(ModelEvaluationError,
                           match=rf"realized dtype {bad.dtype}, expected integer indices"):
            realize(Fixed(bad), noise)
    with pytest.raises(ModelEvaluationError, match=r"shape \(32,\), expected \(1, 32\)"):
        realize(Fixed(np.full(32, 1.9)), noise)
    # any integer dtype is kept as it is, without a copy
    for dtype in (np.int16, np.int32, np.int64):
        out = np.ones((1, 32), dtype=dtype)
        got = realize_checked(Fixed(out), TIMES, noise.dW[None], noise.extra[None], seeds, 2)
        assert got.dtype == dtype and np.shares_memory(got, out)


# --------------------------------------------------- anticipation checking ---- #


def test_builtin_rules_pass_the_screen():
    for rule in (FixedTimeRule(0.4), GridIndexRule(5), HittingRule(AbsRegion(1.0)),
                 CappedRule(HittingRule(AbsRegion(1.0)), FixedTimeRule(1.0))):
        rep = check_nonanticipative(rule, n_trials=200, seed=0)
        assert rep.passed, rep
        assert rep.trials == 200


def test_builtin_controls_pass_the_screen():
    # PiecewiseRandomControl passes only because both rows of a pair share a seed
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
    # the fixtures declare nothing; the rule and the action have no batch
    # form: refused by name, every trial failed
    rep_rule = check_nonanticipative(oracle.LookaheadRule(), n_trials=200, seed=0)
    assert not rep_rule.passed and rep_rule.failures == rep_rule.trials == 200
    assert "LookaheadRule has no batch form" in rep_rule.first_failure["refused"]
    peeker = ElementaryStrategy(
        control_set=PM, start_rule=FixedTimeRule(0.0),
        rules=(FixedTimeRule(1.0),), actions=(oracle.LookaheadAction(1, 0),),
        label="peeker")
    rep_strat = check_nonanticipative(peeker, n_trials=200, seed=0)
    assert not rep_strat.passed and rep_strat.failures == 200
    assert "LookaheadAction has no batch form" in rep_strat.first_failure["refused"]
    # the control has a batch form, so the trials themselves catch it
    rep_ctrl = check_nonanticipative(oracle.LookaheadControl(1, 0), n_trials=200, seed=0)
    assert 0 < rep_ctrl.failures < rep_ctrl.trials
    failure = rep_ctrl.first_failure
    assert failure["step"] == failure["cut"] and failure["a"] != failure["b"]


def test_the_screen_needs_two_steps():
    # a cut needs a step on each side of it
    with pytest.raises(ConfigError, match="n_steps >= 2, got 1"):
        check_nonanticipative(SignControl(1, 0), n_steps=1)
    assert check_nonanticipative(SignControl(1, 0), n_steps=2).passed


class UnshiftedSignControl(SignControl):
    """SignControl whose running sum includes the current step's increment."""

    def realize_batch(self, times, dW, extra, seeds):
        level = np.cumsum(dW[..., self.coord], axis=1)
        return np.where(level >= 0.0, self.pos_index, self.neg_index).astype(np.int64)


class RetroMonitor:
    """A rule monitor that dates each fire one index before the state that triggers it."""

    def __init__(self, n):
        self.fire = np.full(n, _NOT_YET)

    def observe(self, j, X):
        self.fire[(self.fire == _NOT_YET) & (X[:, 0] > 0.5)] = j - 1

    def fired_by(self, j):
        return self.fire


def test_screen_runs_the_batch_form_the_engine_runs(monkeypatch):
    # either object's first divergence lies exactly at the cut
    rep = check_nonanticipative(UnshiftedSignControl(1, 0), n_trials=200, seed=0)
    assert not rep.passed and rep.first_failure["step"] == rep.first_failure["cut"]
    monkeypatch.setattr(strategies, "_rule_monitor", lambda rule, times, n: RetroMonitor(n))
    rep = check_nonanticipative(HittingRule(AbsRegion(0.5)), n_trials=200, seed=0)
    assert not rep.passed and rep.first_failure["cut"] in (rep.first_failure["fire_a"],
                                                           rep.first_failure["fire_b"])
