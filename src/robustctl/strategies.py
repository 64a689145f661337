"""Feedback strategies, stopping rules, open-loop controls, feedback tables.

The controller plays an *elementary strategy*: a finite ladder of stopping
rules tau_0 <= tau_1 <= ... <= tau_n together with actions xi_1 .. xi_n,
where xi_k is frozen when tau_{k-1} fires (reading only the path prefix up
to that moment) and stays in force on the interval (tau_{k-1}, tau_k].
Rules are grid-level objects here: a rule maps (time grid, path prefix) to
the first grid index at which it fires.

The adversary plays either another elementary strategy or an *open-loop
control*: a process that reads past noise increments, never the state.
Open-loop controls carry an ``info_level`` tag: ``"brownian_only"`` controls
read only the state-driving increments, ``"enlarged"`` ones may read the
auxiliary stream or private randomness derived from the path seed.

Deliberately anticipating rules, actions and controls are provided as test
fixtures (marked ``anticipating = True``); :func:`check_nonanticipative`
must reject them and accept everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (ConfigError, ModelEvaluationError, StrategyIntervalError,
                     StrategyStructureError)
from .sde_core import (ControlSet, NoisePath, derive_seed, derive_seed_array,
                       stream_generator)

__all__ = [
    "AbsRegion", "ThresholdRegion", "OutsideBoxRegion",
    "StoppingRule", "FixedTimeRule", "GridIndexRule", "HittingRule",
    "CappedRule", "LookaheadRule",
    "Action", "ConstantAction", "FeedbackLookupAction", "LookaheadAction",
    "ElementaryStrategy", "StrategyTracker",
    "evaluate_strategy", "strategy_control_index", "strategy_control_sequence",
    "make_grid_strategy", "concatenate",
    "FeedbackMap",
    "OpenLoopControl", "ConstantControl", "SignControl", "ReplayControl",
    "PiecewiseRandomControl", "LookaheadControl", "realize_open_loop",
    "NonAnticipativityReport", "check_nonanticipative",
    "UNDEFINED",
]

UNDEFINED = -1  # sentinel control index: strategy not active at this step


# -------------------------------------------------------------- regions ---- #


@dataclass(frozen=True)
class AbsRegion:
    """{x : |x_coord| >= level}, or sup-norm over all coordinates if coord is None."""

    level: float
    coord: int | None = None

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.coord is None:
            return np.max(np.abs(x), axis=-1) >= self.level
        return np.abs(x[..., self.coord]) >= self.level


@dataclass(frozen=True)
class ThresholdRegion:
    """{x : x_coord >= level} (direction "ge") or <= (direction "le")."""

    level: float
    coord: int = 0
    direction: str = "ge"

    def __post_init__(self):
        if self.direction not in ("ge", "le"):
            raise ConfigError(f"ThresholdRegion direction must be 'ge' or 'le', got {self.direction!r}")

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.direction == "ge":
            return x[..., self.coord] >= self.level
        return x[..., self.coord] <= self.level


@dataclass(frozen=True)
class OutsideBoxRegion:
    """Complement of an axis-aligned open box (lo, hi)."""

    lo: tuple
    hi: tuple

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        return np.any((x <= lo) | (x >= hi), axis=-1)


# -------------------------------------------------------- stopping rules ---- #


class StoppingRule:
    """Maps (time grid, path prefix) to the first grid index where it fires.

    ``fire_index(times, states, upto)`` may read ``states[: upto + 1]`` only
    and returns the first index j <= upto at which the rule fires, or None if
    it has not fired by ``upto``.  Implementations must be consistent under
    prefix extension: once a fire index is returned it never changes when
    ``upto`` grows.
    """

    anticipating = False

    def fire_index(self, times: np.ndarray, states: np.ndarray, upto: int) -> int | None:
        raise NotImplementedError

    def fixed_fire_index(self, times: np.ndarray) -> int | None:
        """Fire index when it is path-independent, else None."""
        return None


def _snap_time_to_grid(times: np.ndarray, t: float) -> int:
    """First grid index with times[j] >= t, snapping up and clamping to the grid."""
    eps = 1e-9 * max(1.0, abs(t))
    j = int(np.searchsorted(times, t - eps, side="left"))
    return min(j, len(times) - 1)


@dataclass(frozen=True)
class FixedTimeRule(StoppingRule):
    """Fires at the first grid point >= t (clamped into the grid)."""

    t: float

    def fixed_fire_index(self, times):
        return _snap_time_to_grid(times, self.t)

    def fire_index(self, times, states, upto):
        j = _snap_time_to_grid(times, self.t)
        return j if j <= upto else None


@dataclass(frozen=True)
class GridIndexRule(StoppingRule):
    """Fires at a fixed grid index (clamped into the grid)."""

    index: int

    def fixed_fire_index(self, times):
        return int(np.clip(self.index, 0, len(times) - 1))

    def fire_index(self, times, states, upto):
        j = self.fixed_fire_index(times)
        return j if j <= upto else None


@dataclass(frozen=True)
class HittingRule(StoppingRule):
    """Fires at the first entry of the path into ``region``.

    With ``from_rule`` given, only entries at or after that rule's fire index
    count, so hitting rules can be chained after scheduled times.
    """

    region: object
    from_rule: StoppingRule | None = None

    def fire_index(self, times, states, upto):
        start = 0
        if self.from_rule is not None:
            start = self.from_rule.fire_index(times, states, upto)
            if start is None:
                return None
        prefix = np.asarray(states)[start:upto + 1]
        if prefix.shape[0] == 0:
            return None
        mask = self.region.contains(prefix)
        if not mask.any():
            return None
        return start + int(np.argmax(mask))


@dataclass(frozen=True)
class CappedRule(StoppingRule):
    """min(inner, cap): fires when either component fires."""

    inner: StoppingRule
    cap: StoppingRule

    def fixed_fire_index(self, times):
        fi = self.inner.fixed_fire_index(times)
        fc = self.cap.fixed_fire_index(times)
        if fi is None or fc is None:
            return None
        return min(fi, fc)

    def fire_index(self, times, states, upto):
        fi = self.inner.fire_index(times, states, upto)
        fc = self.cap.fire_index(times, states, upto)
        candidates = [f for f in (fi, fc) if f is not None]
        return min(candidates) if candidates else None


@dataclass(frozen=True)
class LookaheadRule(StoppingRule):
    """Test fixture that peeks at the final state. Never use in simulation."""

    threshold: float = 0.0
    coord: int = 0

    anticipating = True

    def fire_index(self, times, states, upto):
        # reads beyond the prefix on purpose
        final = np.asarray(states)[-1]
        if final[self.coord] >= self.threshold:
            return 0 if upto >= 0 else None
        return None


# ---------------------------------------------------------------- actions ---- #


class Action:
    """Produces a control index when its segment starts.

    ``control_index(times, states, upto)`` is called once, at the fire index
    of the previous rule, and may read ``states[: upto + 1]`` only.
    """

    anticipating = False

    def control_index(self, times: np.ndarray, states: np.ndarray, upto: int) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantAction(Action):
    index: int

    def control_index(self, times, states, upto):
        return self.index


@dataclass(frozen=True, eq=False)
class FeedbackLookupAction(Action):
    """Reads the current (t, x) through a feedback table."""

    feedback: "FeedbackMap"

    def control_index(self, times, states, upto):
        return self.feedback.lookup_index(float(times[upto]), np.asarray(states)[upto])


@dataclass(frozen=True)
class LookaheadAction(Action):
    """Test fixture that decides from the final state. Never use in simulation."""

    pos_index: int
    neg_index: int
    coord: int = 0

    anticipating = True

    def control_index(self, times, states, upto):
        final = np.asarray(states)[-1]
        return self.pos_index if final[self.coord] >= 0 else self.neg_index


# ---------------------------------------------------------- feedback map ---- #


def _uniform_step(axis: np.ndarray, what: str) -> float:
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size == 0:
        raise ConfigError(f"{what}: need a non-empty 1-d array")
    if axis.size == 1:
        return 1.0
    steps = np.diff(axis)
    if steps.min() <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ConfigError(f"{what}: grid must be uniform and increasing")
    return float(steps[0])


@dataclass(eq=False)
class FeedbackMap:
    """Control indices tabulated on a uniform space-time grid.

    ``indices`` has shape (len(times), *map(len, axes)).  Lookups snap to the
    nearest grid node in every coordinate and clamp at the edges, so the map
    is total on R^d x R.
    """

    times: np.ndarray
    axes: tuple
    indices: np.ndarray
    control_set: ControlSet
    label: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.indices = np.asarray(self.indices)
        self._dt = _uniform_step(self.times, f"feedback map {self.label!r} times")
        self._steps = tuple(_uniform_step(a, f"feedback map {self.label!r} axis") for a in self.axes)
        want = (self.times.size,) + tuple(a.size for a in self.axes)
        if self.indices.shape != want:
            raise ConfigError(
                f"feedback map {self.label!r}: indices shape {self.indices.shape}, expected {want}")
        if not np.issubdtype(self.indices.dtype, np.integer):
            raise ConfigError(f"feedback map {self.label!r}: indices must be integers")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= self.control_set.size):
            raise ConfigError(f"feedback map {self.label!r}: control index out of range")

    @classmethod
    def constant(cls, control_set: ControlSet, index: int, times, axes, label: str = "const"):
        shape = (len(times),) + tuple(len(a) for a in axes)
        return cls(times=np.asarray(times, dtype=float), axes=tuple(axes),
                   indices=np.full(shape, index, dtype=np.int16),
                   control_set=control_set, label=label)

    @property
    def dim(self) -> int:
        return len(self.axes)

    def layer_of(self, t: float) -> int:
        j = int(round((t - self.times[0]) / self._dt))
        return int(np.clip(j, 0, self.times.size - 1))

    def _cells_of(self, x: np.ndarray) -> tuple:
        x = np.asarray(x, dtype=float)
        cells = []
        for a, (axis, step) in enumerate(zip(self.axes, self._steps)):
            idx = np.rint((x[..., a] - axis[0]) / step).astype(np.intp)
            cells.append(np.clip(idx, 0, axis.size - 1))
        return tuple(cells)

    def lookup_index(self, t: float, x: np.ndarray) -> int:
        cells = self._cells_of(np.asarray(x, dtype=float))
        return int(self.indices[(self.layer_of(t),) + tuple(int(c) for c in cells)])

    def lookup_index_batch(self, t: float, x: np.ndarray) -> np.ndarray:
        """Indices for a batch of states, shape (..., dim) -> (...,)."""
        cells = self._cells_of(x)
        return self.indices[(self.layer_of(t),) + cells]

    def lookup(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.control_set.point(self.lookup_index(t, x))


# ----------------------------------------------------------- strategies ---- #


@dataclass(eq=False)
class ElementaryStrategy:
    """Stopping-rule ladder with one frozen action per segment.

    ``rules[k]`` is tau_{k+1} and ``actions[k]`` its segment's action, in
    force on (tau_k, tau_{k+1}].  ``start_rule`` is tau_0.  Rule order is
    enforced at evaluation time by clamping each fire index below the
    previous one; clamps are counted and reported, since a clamp means the
    declared ladder was inconsistent on that path.
    """

    control_set: ControlSet
    start_rule: StoppingRule
    rules: tuple
    actions: tuple
    label: str = ""

    def __post_init__(self):
        self.rules = tuple(self.rules)
        self.actions = tuple(self.actions)
        if len(self.rules) == 0:
            raise StrategyStructureError(f"strategy {self.label!r}: need at least one segment")
        if len(self.rules) != len(self.actions):
            raise StrategyStructureError(
                f"strategy {self.label!r}: {len(self.rules)} rules vs {len(self.actions)} actions")

    @property
    def n_segments(self) -> int:
        return len(self.rules)

    @property
    def anticipating(self) -> bool:
        parts = (self.start_rule,) + self.rules + self.actions
        return any(getattr(p, "anticipating", False) for p in parts)


def _step_control(strategy: ElementaryStrategy, times: np.ndarray,
                  states: np.ndarray, i: int) -> tuple[int, int]:
    """Control index in force on step i (interval (t_i, t_{i+1}]), plus clamp count.

    Reads states[: i + 1] only.  Raises StrategyIntervalError when the
    strategy has not started by t_i or is exhausted.
    """
    clamps = 0
    fire_prev = strategy.start_rule.fire_index(times, states, i)
    if fire_prev is None or fire_prev > i:
        raise StrategyIntervalError(
            f"strategy {strategy.label!r} not active on step {i}")
    for rule, action in zip(strategy.rules, strategy.actions):
        f = rule.fire_index(times, states, i)
        if f is not None and f < fire_prev:
            f = fire_prev
            clamps += 1
        if f is None or f > i:
            return int(action.control_index(times, states, fire_prev)), clamps
        fire_prev = f
    raise StrategyIntervalError(
        f"strategy {strategy.label!r} exhausted before step {i}")


def strategy_control_index(strategy: ElementaryStrategy, t: float,
                           times: np.ndarray, states: np.ndarray) -> int:
    """Control index in force at time t, from the path prefix alone.

    t must lie in (start time, times[-1]]; the prefix must cover the step
    containing t.
    """
    times = np.asarray(times, dtype=float)
    eps = 1e-9 * max(1.0, abs(float(t)))
    j = int(np.searchsorted(times, t - eps, side="left"))
    if j <= 0 or j >= times.size:
        raise StrategyIntervalError(
            f"query time {t} outside the open-left grid range ({times[0]}, {times[-1]}]")
    idx, _ = _step_control(strategy, times, np.asarray(states), j - 1)
    return idx


def evaluate_strategy(strategy: ElementaryStrategy, t: float,
                      times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Control point in force at time t. See :func:`strategy_control_index`."""
    return strategy.control_set.point(strategy_control_index(strategy, t, times, states))


def strategy_control_sequence(strategy: ElementaryStrategy, times: np.ndarray,
                              states: np.ndarray) -> tuple[np.ndarray, int]:
    """Control index for every step of a full path; UNDEFINED where inactive.

    Recomputes each step from its own prefix, so the result is by
    construction non-anticipative; :class:`StrategyTracker` is tested
    against it.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    n = times.size - 1
    out = np.full(n, UNDEFINED, dtype=np.int64)
    max_clamps = 0
    for i in range(n):
        try:
            out[i], clamps = _step_control(strategy, times, states, i)
        except StrategyIntervalError:
            continue
        max_clamps = max(max_clamps, clamps)
    return out, max_clamps


# ------------------------------------------------- incremental tracking ---- #


_NOT_YET = np.iinfo(np.int64).max // 2  # fire index of a rule that has not fired


class _FixedMonitor:
    """A rule that fires at the same index on every path."""

    def __init__(self, index: int, n: int):
        self.fire = np.full(n, index, dtype=np.int64)

    def observe(self, j, X):
        pass

    def fired_by(self, j):
        return np.where(self.fire <= j, self.fire, _NOT_YET)


class _HittingMonitor:
    """First entry into a region, counting only entries once the gate has fired.

    The gate is the from-rule's own monitor; it observes first, so an entry
    at the from-rule's fire index counts, as in :meth:`HittingRule.fire_index`.
    """

    def __init__(self, region, gate, n: int):
        self.region = region
        self.gate = gate
        self.hit = np.full(n, _NOT_YET, dtype=np.int64)

    def observe(self, j, X):
        fresh = self.hit == _NOT_YET
        if self.gate is not None:
            self.gate.observe(j, X)
            fresh &= self.gate.fired_by(j) <= j
        fresh &= self.region.contains(X)
        self.hit[fresh] = j

    def fired_by(self, j):
        return self.hit


class _MinMonitor:
    """min(inner, cap) of a :class:`CappedRule`."""

    def __init__(self, inner, cap):
        self.inner = inner
        self.cap = cap

    def observe(self, j, X):
        self.inner.observe(j, X)
        self.cap.observe(j, X)

    def fired_by(self, j):
        return np.minimum(self.inner.fired_by(j), self.cap.fired_by(j))


def _rule_monitor(rule: StoppingRule, times: np.ndarray, n: int):
    """Incremental fire indices of one rule on n paths (_NOT_YET until it fires).

    ``observe(j, X)`` takes the (n, dim) states at index j, for j = 0, 1, ...
    in order; ``fired_by(j)`` then gives each path's fire index if it is <= j.
    """
    fixed = rule.fixed_fire_index(times)
    if fixed is not None:
        return _FixedMonitor(fixed, n)
    if isinstance(rule, HittingRule):
        gate = None if rule.from_rule is None else _rule_monitor(rule.from_rule, times, n)
        return _HittingMonitor(rule.region, gate, n)
    if isinstance(rule, CappedRule):
        return _MinMonitor(_rule_monitor(rule.inner, times, n),
                           _rule_monitor(rule.cap, times, n))
    raise StrategyStructureError(f"stopping rule {type(rule).__name__} has no batch form")


class StrategyTracker:
    """Walks one strategy along n growing paths at once, one state index at a time.

    ``on_state(j, X)`` must be called for j = 0, 1, ... in order, with X the
    (n, dim) states at index j.  It returns the (n,) control indices in force
    on step j, UNDEFINED on paths where the strategy has not started or is
    exhausted, and ``all_defined`` says whether no path is UNDEFINED.  The
    returned array is updated in place by later calls.  Row p matches
    :func:`strategy_control_sequence` on path p, and ``clamp_count`` sums
    the clamps over the rows.

    Strategies whose rules all fire at path-independent indices (grid
    ladders, constant strategies) take a precomputed schedule: segments
    change simultaneously on every path, so per-step work is a dictionary
    probe.  Everything else runs one monitor per rule.  A rule or action
    class without a batch form raises :class:`StrategyStructureError` here,
    before any step is tracked.
    """

    def __init__(self, strategy: ElementaryStrategy, times: np.ndarray, n: int):
        for action in strategy.actions:
            if not isinstance(action, (ConstantAction, FeedbackLookupAction)):
                raise StrategyStructureError(
                    f"action {type(action).__name__} has no batch form")
        self.strategy = strategy
        self.times = times
        self.n = n
        self.u_idx = np.full(n, UNDEFINED, dtype=np.int64)
        self.clamp_count = 0
        self.all_defined = False
        self.events = self._fixed_schedule(strategy, times)
        if self.events is not None:
            return
        self.start_monitor = _rule_monitor(strategy.start_rule, times, n)
        self.monitors = [_rule_monitor(r, times, n) for r in strategy.rules]
        self.seg = np.full(n, -1, dtype=np.int64)
        self.fire_prev = np.full(n, -1, dtype=np.int64)

    def _fixed_schedule(self, strategy, times):
        """events[j] = (segment, clamped) pairs entered at step j, for fixed rules."""
        f0 = strategy.start_rule.fixed_fire_index(times)
        if f0 is None:
            return None
        fires = []
        for rule in strategy.rules:
            f = rule.fixed_fire_index(times)
            if f is None:
                return None
            fires.append(f)
        events: dict = {f0: [(0, False)]}
        prev = f0
        for k, f in enumerate(fires):
            clamped = f < prev
            f = max(f, prev)
            events.setdefault(f, []).append((k + 1, clamped))
            prev = f
        return events

    def _apply_action(self, k: int, mask, j: int, X: np.ndarray):
        action = self.strategy.actions[k]
        if isinstance(action, ConstantAction):
            self.u_idx[mask] = action.index
        else:
            self.u_idx[mask] = action.feedback.lookup_index_batch(float(self.times[j]), X[mask])

    def on_state(self, j: int, X: np.ndarray) -> np.ndarray:
        if self.events is not None:
            hits = self.events.get(j)
            if hits is not None:
                for seg, clamped in hits:
                    if clamped:
                        self.clamp_count += self.n
                    if seg < len(self.strategy.actions):
                        self._apply_action(seg, slice(None), j, X)
                    else:
                        self.u_idx[:] = UNDEFINED
                # schedule events hit every path at once, so the last one decides
                self.all_defined = hits[-1][0] < len(self.strategy.actions)
            return self.u_idx
        self.start_monitor.observe(j, X)
        for m in self.monitors:
            m.observe(j, X)
        if np.any(self.seg < 0):
            f0 = self.start_monitor.fired_by(j)
            starting = (self.seg < 0) & (f0 <= j)
            if np.any(starting):
                self.seg[starting] = 0
                self.fire_prev[starting] = f0[starting]
                self._apply_action(0, starting, j, X)
        n_seg = len(self.monitors)
        expired = False
        for k in range(n_seg):
            at_k = self.seg == k
            if not np.any(at_k):
                continue
            f = self.monitors[k].fired_by(j)
            clamped = np.maximum(f, self.fire_prev)
            advancing = at_k & (f != _NOT_YET) & (clamped <= j)
            if not np.any(advancing):
                continue
            self.clamp_count += int(np.count_nonzero(advancing & (f < self.fire_prev)))
            self.fire_prev[advancing] = clamped[advancing]
            self.seg[advancing] = k + 1
            if k + 1 < n_seg:
                self._apply_action(k + 1, advancing, j, X)
            else:
                self.u_idx[advancing] = UNDEFINED
                expired = True
        if expired:
            self.all_defined = False
        elif not self.all_defined:
            self.all_defined = not np.any(self.u_idx == UNDEFINED)
        return self.u_idx


# ----------------------------------------------------------- builders ---- #


def make_grid_strategy(feedback: FeedbackMap, decision_times: Sequence[float],
                       label: str = "") -> ElementaryStrategy:
    """Strategy that re-reads a feedback table at fixed decision times.

    ``decision_times`` = (t_0 < t_1 < ... < t_n): the strategy starts at t_0
    and on each (t_{k-1}, t_k] plays the table value frozen at (t_{k-1},
    y(t_{k-1})).  The last decision time should be the horizon.
    """
    ts = np.asarray(decision_times, dtype=float)
    if ts.ndim != 1 or ts.size < 2:
        raise StrategyStructureError("need at least two decision times")
    if not np.all(np.diff(ts) > 0):
        raise StrategyStructureError("decision times must be strictly increasing")
    action = FeedbackLookupAction(feedback)
    return ElementaryStrategy(
        control_set=feedback.control_set,
        start_rule=FixedTimeRule(float(ts[0])),
        rules=tuple(FixedTimeRule(float(t)) for t in ts[1:]),
        actions=(action,) * (ts.size - 1),
        label=label or f"grid[{ts.size - 1}]")


def concatenate(first: ElementaryStrategy, tail: ElementaryStrategy,
                junction: StoppingRule, probe_times: np.ndarray | None = None,
                probe_seed: int = 0) -> ElementaryStrategy:
    """Play ``first`` with every rule capped at ``junction``, then ``tail``.

    ``tail.start_rule`` must equal ``junction`` structurally.  With
    ``probe_times`` given, a handful of random walks are checked for rule
    order: any tail rule firing strictly before the junction on a probe path
    is a structural error.
    """
    if first.control_set is not tail.control_set and not (
            first.control_set.points.shape == tail.control_set.points.shape
            and np.array_equal(first.control_set.points, tail.control_set.points)):
        raise StrategyStructureError("concatenate: control sets differ")
    if tail.start_rule != junction:
        raise StrategyStructureError(
            f"concatenate: tail starts at {tail.start_rule!r}, junction is {junction!r}")
    if probe_times is not None:
        _probe_rule_order(tail, junction, np.asarray(probe_times, dtype=float),
                          first.control_set, probe_seed)
    capped = tuple(CappedRule(r, junction) for r in first.rules)
    return ElementaryStrategy(
        control_set=first.control_set,
        start_rule=first.start_rule,
        rules=capped + tail.rules,
        actions=first.actions + tail.actions,
        label=f"{first.label}+{tail.label}")


def _probe_rule_order(tail: ElementaryStrategy, junction: StoppingRule,
                      times: np.ndarray, control_set: ControlSet, seed: int,
                      n_paths: int = 8) -> None:
    rng = stream_generator(derive_seed(seed, 11), 0)
    n = times.size - 1
    dim = 1
    for p in range(n_paths):
        steps = rng.standard_normal((n, dim)) * np.sqrt(np.diff(times))[:, None]
        states = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
        fj = junction.fire_index(times, states, n)
        if fj is None:
            continue
        for k, rule in enumerate(tail.rules):
            fr = rule.fire_index(times, states, n)
            if fr is not None and fr < fj:
                raise StrategyStructureError(
                    f"concatenate: tail rule {k} fires at index {fr}, "
                    f"before the junction at {fj}, on probe path {p}")


# ------------------------------------------------------ open-loop controls ---- #


class OpenLoopControl:
    """Adversary control adapted to the noise, blind to the state.

    ``control_index(i, times, dW, extra)`` returns the control index for step
    i and may read increments with index < i only (``dW[:i]``, ``extra[:i]``).
    ``realize`` materializes the whole index path for one noise draw; the
    base implementation calls ``control_index`` with physically truncated
    prefixes, so a subclass cannot accidentally peek ahead unless it
    overrides ``realize`` itself.  ``realize_batch`` does the same for a
    chunk of paths and is what the Monte Carlo engine calls.
    """

    info_level = "brownian_only"
    extra_dim = 0
    anticipating = False
    label = ""

    def control_index(self, i: int, times: np.ndarray,
                      dW: np.ndarray, extra: np.ndarray) -> int:
        raise NotImplementedError

    def realize(self, noise: NoisePath) -> np.ndarray:
        n = noise.n_steps
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            out[i] = self.control_index(i, noise.times, noise.dW[:i], noise.extra[:i])
        return out

    def realize_batch(self, times: np.ndarray, dW: np.ndarray,
                      extra: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Index paths (n_paths, n_steps) for (n_paths, n_steps, dim) noise.

        Row p is the realization for path seed ``seeds[p]``.  The base
        implementation runs :func:`realize_open_loop` row by row; subclasses
        override it with a vectorized form.
        """
        out = np.empty(dW.shape[:2], dtype=np.int64)
        for p in range(out.shape[0]):
            out[p] = realize_open_loop(self, NoisePath(times=times, dW=dW[p], extra=extra[p],
                                                       seed=int(seeds[p])))
        return out


@dataclass(frozen=True)
class ConstantControl(OpenLoopControl):
    index: int
    label: str = "const"

    def control_index(self, i, times, dW, extra):
        return self.index

    def realize_batch(self, times, dW, extra, seeds):
        return np.full((dW.shape[0], dW.shape[1]), self.index, dtype=np.int64)


class SignControl(OpenLoopControl):
    """Plays pos_index when the running noise sum is >= 0, else neg_index.

    The sum at step i is over increments 0..i-1, so the value for step 0 is
    always pos_index.  ``source`` picks the stream: "brownian" reads dW,
    "extra" reads the auxiliary stream and marks the control as enlarged.
    """

    def __init__(self, pos_index: int, neg_index: int, source: str = "brownian",
                 coord: int = 0, label: str = ""):
        if source not in ("brownian", "extra"):
            raise ConfigError(f"SignControl source must be 'brownian' or 'extra', got {source!r}")
        self.pos_index = int(pos_index)
        self.neg_index = int(neg_index)
        self.source = source
        self.coord = int(coord)
        self.label = label or f"sign_{source}"
        if source == "extra":
            self.info_level = "enlarged"
            self.extra_dim = coord + 1

    def _stream(self, dW, extra):
        return dW if self.source == "brownian" else extra

    def control_index(self, i, times, dW, extra):
        src = self._stream(dW, extra)
        total = float(src[:, self.coord].sum()) if i > 0 else 0.0
        return self.pos_index if total >= 0.0 else self.neg_index

    def realize_batch(self, times, dW, extra, seeds):
        src = self._stream(dW, extra)
        cum = np.cumsum(src[..., self.coord], axis=1)
        level = np.concatenate([np.zeros((src.shape[0], 1)), cum[:, :-1]], axis=1)
        return np.where(level >= 0.0, self.pos_index, self.neg_index).astype(np.int64)


@dataclass(frozen=True)
class ReplayControl(OpenLoopControl):
    """Replays a recorded index path verbatim."""

    indices: tuple
    label: str = "replay"

    def control_index(self, i, times, dW, extra):
        return self.indices[i]

    def realize(self, noise):
        if len(self.indices) != noise.n_steps:
            raise ConfigError(
                f"replay control has {len(self.indices)} steps, noise has {noise.n_steps}")
        return np.asarray(self.indices, dtype=np.int64).copy()


class PiecewiseRandomControl(OpenLoopControl):
    """Constant on each of ``n_segments`` blocks, values drawn privately.

    The values come from the path seed and ``salt`` through the seed
    derivation chain, independent of both noise streams.  Private randomness
    is information the Brownian filtration does not carry, hence enlarged.
    """

    info_level = "enlarged"

    def __init__(self, n_choices: int, n_segments: int = 8, salt: int = 0, label: str = ""):
        if n_choices < 1 or n_segments < 1:
            raise ConfigError("PiecewiseRandomControl: need n_choices >= 1, n_segments >= 1")
        self.n_choices = int(n_choices)
        self.n_segments = int(n_segments)
        self.salt = int(salt)
        self.label = label or f"rand{salt}"

    def control_index(self, i, times, dW, extra):
        raise StrategyStructureError(
            "PiecewiseRandomControl draws from the path seed; use realize()")

    def _segment_starts(self, n_steps: int) -> np.ndarray:
        return np.round(np.linspace(0, n_steps, self.n_segments + 1)).astype(np.int64)[:-1]

    def realize(self, noise):
        n = noise.n_steps
        starts = self._segment_starts(n)
        values = np.array([derive_seed(noise.seed, 7 + self.salt, j) % self.n_choices
                           for j in range(self.n_segments)], dtype=np.int64)
        seg_of_step = np.searchsorted(starts, np.arange(n), side="right") - 1
        return values[seg_of_step]

    def realize_batch(self, times, dW, extra, seeds):
        n_paths, n = dW.shape[0], dW.shape[1]
        starts = self._segment_starts(n)
        salted = derive_seed_array(seeds, 7 + self.salt)
        values = np.empty((n_paths, self.n_segments), dtype=np.int64)
        for j in range(self.n_segments):
            values[:, j] = (derive_seed_array(salted, j) % np.uint64(self.n_choices)).astype(np.int64)
        seg_of_step = np.searchsorted(starts, np.arange(n), side="right") - 1
        return values[:, seg_of_step]


@dataclass(frozen=True)
class LookaheadControl(OpenLoopControl):
    """Test fixture that reads the upcoming increment. Never use in estimation."""

    pos_index: int
    neg_index: int
    coord: int = 0
    label: str = "lookahead"

    anticipating = True

    def control_index(self, i, times, dW, extra):
        raise StrategyStructureError("LookaheadControl peeks ahead; use realize()")

    def realize(self, noise):
        return np.where(noise.dW[:, self.coord] >= 0.0,
                        self.pos_index, self.neg_index).astype(np.int64)


def realize_open_loop(control: OpenLoopControl, noise: NoisePath,
                      n_choices: int | None = None) -> np.ndarray:
    """Materialize the control's index path for one noise draw, validated."""
    if control.extra_dim > noise.extra.shape[1]:
        raise ConfigError(
            f"control {control.label!r} needs extra_dim >= {control.extra_dim}, "
            f"noise provides {noise.extra.shape[1]}")
    idx = np.asarray(control.realize(noise), dtype=np.int64)
    if idx.shape != (noise.n_steps,):
        raise ModelEvaluationError(
            f"control {control.label!r} realized shape {idx.shape}, expected ({noise.n_steps},)")
    if n_choices is not None and idx.size and (idx.min() < 0 or idx.max() >= n_choices):
        raise ModelEvaluationError(
            f"control {control.label!r} produced indices outside [0, {n_choices})")
    return idx


# -------------------------------------------------- anticipation checking ---- #


@dataclass(frozen=True)
class NonAnticipativityReport:
    kind: str
    label: str
    trials: int
    failures: int
    first_failure: dict | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def check_nonanticipative(obj, n_trials: int = 200, seed: int = 0,
                          n_steps: int = 32, horizon: float = 1.0,
                          state_dim: int = 1, extra_dim: int = 1,
                          noise_dim: int = 1) -> NonAnticipativityReport:
    """Probe an object with path pairs that agree up to a random cut.

    For each trial two inputs are generated that coincide up to a uniformly
    drawn cut index and differ after it.  Decisions the object makes at or
    before the cut must coincide; any divergence is a failure.  Strategies
    and rules are probed with state paths, open-loop controls with noise
    draws whose tail increments are resampled.
    """
    times = np.linspace(0.0, horizon, n_steps + 1)
    rng = stream_generator(derive_seed(seed, 13), 0)
    failures = 0
    first_failure = None

    def record(trial, cut, detail):
        nonlocal failures, first_failure
        failures += 1
        if first_failure is None:
            first_failure = {"trial": trial, "cut": cut, **detail}

    if isinstance(obj, OpenLoopControl):
        kind, label = "open_loop", obj.label
        d_e = max(extra_dim, obj.extra_dim)
        for trial in range(n_trials):
            cut = int(rng.integers(1, n_steps))
            seed_a = derive_seed(seed, 17, trial)
            noise_a = _noise_for_check(times, seed_a, noise_dim, d_e)
            noise_b = _perturb_tail(noise_a, cut, derive_seed(seed, 19, trial))
            va = realize_open_loop(obj, noise_a)
            vb = realize_open_loop(obj, noise_b)
            if not np.array_equal(va[: cut + 1], vb[: cut + 1]):
                step = int(np.argmax(va[: cut + 1] != vb[: cut + 1]))
                record(trial, cut, {"step": step, "a": int(va[step]), "b": int(vb[step])})
    elif isinstance(obj, ElementaryStrategy):
        kind, label = "strategy", obj.label
        for trial in range(n_trials):
            cut = int(rng.integers(1, n_steps))
            ya, yb = _path_pair(times, rng, cut, state_dim)
            ca, _ = strategy_control_sequence(obj, times, ya)
            cb, _ = strategy_control_sequence(obj, times, yb)
            if not np.array_equal(ca[: cut + 1], cb[: cut + 1]):
                step = int(np.argmax(ca[: cut + 1] != cb[: cut + 1]))
                record(trial, cut, {"step": step, "a": int(ca[step]), "b": int(cb[step])})
    elif isinstance(obj, StoppingRule):
        kind, label = "rule", type(obj).__name__
        for trial in range(n_trials):
            cut = int(rng.integers(1, n_steps))
            ya, yb = _path_pair(times, rng, cut, state_dim)
            fa = obj.fire_index(times, ya, n_steps)
            fb = obj.fire_index(times, yb, n_steps)
            visible_a = fa is not None and fa <= cut
            visible_b = fb is not None and fb <= cut
            if (visible_a or visible_b) and fa != fb:
                record(trial, cut, {"fire_a": fa, "fire_b": fb})
    else:
        raise ConfigError(f"cannot check object of type {type(obj).__name__}")

    return NonAnticipativityReport(kind=kind, label=label, trials=n_trials,
                                   failures=failures, first_failure=first_failure)


def _path_pair(times, rng, cut, dim):
    n = times.size - 1
    scale = np.sqrt(np.diff(times))[:, None]
    inc_a = rng.standard_normal((n, dim)) * scale
    inc_b = inc_a.copy()
    inc_b[cut:] = rng.standard_normal((n - cut, dim)) * scale[cut:]
    ya = np.vstack([np.zeros((1, dim)), np.cumsum(inc_a, axis=0)])
    yb = np.vstack([np.zeros((1, dim)), np.cumsum(inc_b, axis=0)])
    return ya, yb


def _noise_for_check(times, seed, noise_dim, extra_dim):
    from .sde_core import sample_noise
    return sample_noise(times, seed, noise_dim, extra_dim)


def _perturb_tail(noise: NoisePath, cut: int, seed: int) -> NoisePath:
    rng = stream_generator(seed, 0)
    n = noise.n_steps
    scale = np.sqrt(np.diff(noise.times))[:, None]
    dW = noise.dW.copy()
    dW[cut:] = rng.standard_normal((n - cut, dW.shape[1])) * scale[cut:]
    extra = noise.extra.copy()
    if extra.shape[1]:
        extra[cut:] = rng.standard_normal((n - cut, extra.shape[1])) * scale[cut:]
    return NoisePath(times=noise.times, dW=dW, extra=extra, seed=noise.seed)
