"""Feedback strategies, stopping rules and open-loop controls.

The controller plays an *elementary strategy*: a finite ladder of stopping
rules tau_0 <= tau_1 <= ... <= tau_n together with actions xi_1 .. xi_n,
where xi_k is frozen when tau_{k-1} fires (reading only the path prefix up
to that moment) and stays in force on the interval (tau_{k-1}, tau_k].
Rules are monitors here: a rule is shown the states of a batch of paths
one grid index at a time, in order, and keeps each path's fire index in
``fire``, so it never sees a state past the current one; a
:class:`RuleWatch` takes each fire at the index where it is reported.

The adversary plays either another elementary strategy or an *open-loop
control*: a process that reads past noise increments, never the state.
Some controls also read the auxiliary stream (``extra_dim`` > 0) or private
randomness derived from the path seed; they are the members that enlarge
nature's information beyond the Brownian filtration.

Every player has one semantics, the batch form the Monte Carlo engine runs:
:class:`StrategyTracker` with the rule monitors for strategies, and
``realize_batch`` through :func:`realize_checked` for open-loop controls.
Classes without a batch form are refused by name.  The tests check the
batch forms against a per-path oracle of their own.  Objects declare
nothing about what they read: :func:`check_nonanticipative` runs the same
batch forms on input pairs that agree up to a random cut, and it is the
only judge of non-anticipation (the engine screens rules and open-loop
controls with it).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ModelEvaluationError, StrategyStructureError
from .sde_core import ControlSet, derive_seed, derive_seed_array, stream_generator

__all__ = [
    "AbsRegion",
    "StoppingRule", "FixedTimeRule", "GridIndexRule", "HittingRule",
    "CappedRule", "RuleWatch", "fire_batch",
    "Action", "ConstantAction", "FeedbackLookupAction",
    "ElementaryStrategy", "StrategyTracker",
    "make_grid_strategy", "concatenate",
    "OpenLoopControl", "ConstantControl", "SignControl", "ReplayControl",
    "PiecewiseRandomControl", "realize_checked",
    "NonAnticipativityReport", "check_nonanticipative",
    "UNDEFINED",
]

UNDEFINED = -1  # sentinel control index: strategy not active at this step


# --------------------------------------------------------------- region ---- #


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


# -------------------------------------------------------- stopping rules ---- #


class StoppingRule:
    """A stopping rule, run only as a monitor over a batch of growing paths.

    The monitor (see :class:`RuleWatch`) is shown the states at grid indices
    0, 1, ... in order, so its fire index at j depends on the states up to j
    alone.  The built-in rules below have monitors; others are refused by name.
    """

    def fixed_fire_index(self, times: np.ndarray) -> int | None:
        """Fire index when it is path-independent, else None."""
        return None


@dataclass(frozen=True)
class FixedTimeRule(StoppingRule):
    """Fires at the first grid point >= t (clamped into the grid)."""

    t: float

    def fixed_fire_index(self, times):
        eps = 1e-9 * max(1.0, abs(self.t))
        return min(int(np.searchsorted(times, self.t - eps, side="left")), len(times) - 1)


@dataclass(frozen=True)
class GridIndexRule(StoppingRule):
    """Fires at a fixed grid index (clamped into the grid)."""

    index: int

    def fixed_fire_index(self, times):
        return int(np.clip(self.index, 0, len(times) - 1))


@dataclass(frozen=True)
class HittingRule(StoppingRule):
    """Fires at the first entry of the path into ``region``, any object whose
    ``contains`` maps states (..., d) to a boolean mask (..., ), such as
    :class:`AbsRegion`.

    With ``from_rule`` given, only entries at or after that rule's fire index
    count, so hitting rules can be chained after scheduled times.
    """

    region: object
    from_rule: StoppingRule | None = None


@dataclass(frozen=True)
class CappedRule(StoppingRule):
    """min(inner, cap): fires when either component fires."""

    inner: StoppingRule
    cap: StoppingRule

    def fixed_fire_index(self, times):
        fires = (self.inner.fixed_fire_index(times), self.cap.fixed_fire_index(times))
        return None if None in fires else min(fires)


# ---------------------------------------------------------------- actions ---- #


class Action:
    """The control a segment plays, frozen when the segment starts.

    Actions have a batch form only: :class:`StrategyTracker` applies one to
    the paths whose segment starts at grid index j, reading their states at
    j.  It knows :class:`ConstantAction` and :class:`FeedbackLookupAction`
    and refuses any other class by name.
    """


@dataclass(frozen=True)
class ConstantAction(Action):
    index: int


@dataclass(frozen=True, eq=False)
class FeedbackLookupAction(Action):
    """Reads the current (t, x) through a feedback table
    (a :class:`robustctl.pde_solver.FeedbackMap`)."""

    feedback: object


# ----------------------------------------------------------- strategies ---- #


@dataclass(frozen=True, eq=False)
class ElementaryStrategy:
    """Stopping-rule ladder with one frozen action per segment.

    ``rules[k]`` is tau_{k+1} and ``actions[k]`` its segment's action, in
    force on (tau_k, tau_{k+1}].  ``start_rule`` is tau_0.  Rule order is
    enforced at evaluation time by clamping each fire index below the
    previous one; clamps are counted and reported, since a clamp means the
    declared ladder was inconsistent on that path.  Every action is checked
    against ``control_set`` here: a constant index must lie in it and a
    lookup table must be on it, so the engine checks only the set itself;
    the strategy is frozen so the check holds for its lifetime.
    """

    control_set: ControlSet
    start_rule: StoppingRule
    rules: tuple
    actions: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "actions", tuple(self.actions))
        if len(self.rules) == 0:
            raise StrategyStructureError(f"strategy {self.label!r}: need at least one segment")
        if len(self.rules) != len(self.actions):
            raise StrategyStructureError(
                f"strategy {self.label!r}: {len(self.rules)} rules vs {len(self.actions)} actions")
        n = self.control_set.size
        for action in self.actions:
            if isinstance(action, ConstantAction) and not 0 <= action.index < n:
                raise StrategyStructureError(
                    f"strategy {self.label!r} plays index {action.index} outside [0, {n})")
            table = action.feedback if isinstance(action, FeedbackLookupAction) else None
            if table is not None and not table.control_set.matches(self.control_set):
                raise StrategyStructureError(
                    f"strategy {self.label!r} reads table {table.label!r} on "
                    f"{table.control_set}, not on its own set {self.control_set}")


# ------------------------------------------------- incremental tracking ---- #


_NOT_YET = np.iinfo(np.int64).max // 2  # fire index of a rule that has not fired


class _FixedMonitor:
    """A rule that fires at the same index on every path, known from the start
    (one broadcast value, so a long ladder holds no row per rung)."""

    def __init__(self, index: int, n: int):
        self.fire = np.broadcast_to(np.int64(index), (n,))

    def observe(self, j, X):
        pass


class _HittingMonitor:
    """First entry into a region, counting only entries once the gate has fired.

    The gate is the from-rule's own monitor; it observes first, so an entry
    at the from-rule's fire index counts.
    """

    def __init__(self, region, gate, n: int):
        self.region = region
        self.gate = gate
        self.fire = np.full(n, _NOT_YET, dtype=np.int64)

    def observe(self, j, X):
        fresh = self.fire == _NOT_YET
        if self.gate is not None:
            self.gate.observe(j, X)
            fresh &= self.gate.fire <= j
        fresh &= self.region.contains(X)
        self.fire[fresh] = j


class _MinMonitor:
    """min(inner, cap) of a :class:`CappedRule`."""

    def __init__(self, inner, cap):
        self.inner = inner
        self.cap = cap
        self.fire = np.minimum(inner.fire, cap.fire)

    def observe(self, j, X):
        self.inner.observe(j, X)
        self.cap.observe(j, X)
        np.minimum(self.inner.fire, self.cap.fire, out=self.fire)


def _rule_monitor(rule: StoppingRule, times: np.ndarray, n: int):
    """Incremental fire indices of one rule on n paths (_NOT_YET until it fires).

    ``observe(j, X)`` takes the (n, dim) states at index j, for j = 0, 1, ...
    in order, and updates ``fire``; a reader counts a fire at j where ``fire <= j``.
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


class RuleWatch:
    """One rule's fire on each of n rows, taken at the index where it is reported.

    ``observe(j, X)`` takes the (n, dim) states at j = 0, 1, ..., N in order.
    ``fire`` holds each row's fire index (_NOT_YET if none) and ``states``
    the state there, or the last state on a row that has not fired by N.  A
    monitor that reports a past fire index is refused by name.  The screen
    (:func:`fire_batch`) and the engine's dpp capture both take fires so.
    """

    def __init__(self, label: str, rule: StoppingRule, times: np.ndarray, n: int, dim: int):
        self.label = label
        self.last = times.size - 1
        self.monitor = _rule_monitor(rule, times, n)
        self.fire = np.full(n, _NOT_YET, dtype=np.int64)
        self.open = np.ones(n, dtype=bool)  # rows whose fire has not been reported
        self.states = np.empty((n, dim))

    def observe(self, j: int, X: np.ndarray) -> None:
        if not self.open.any():
            return
        self.monitor.observe(j, X)
        new = self.monitor.fire <= j
        new &= self.open
        if new.any():
            first = int(self.monitor.fire[new].min())
            if first < j:
                raise StrategyStructureError(
                    f"stopping rule {self.label!r} reported fire index {first} at index "
                    f"{j}; a fire is taken at the index where it is reported")
            np.copyto(self.states, X, where=new[:, None])
            np.copyto(self.fire, j, where=new)
            self.open &= ~new
        if j == self.last:
            np.copyto(self.states, X, where=self.open[:, None])


def fire_batch(rule: StoppingRule, times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Fire index of a rule on each recorded path, states (c, N+1, dim) -> (c,).

    Replays a :class:`RuleWatch` over the recorded states in order; a path
    on which the rule has not fired gets a value above every grid index.
    """
    watch = RuleWatch(type(rule).__name__, rule, times, states.shape[0], states.shape[2])
    for j in range(states.shape[1]):
        watch.observe(j, states[:, j])
    return watch.fire


class StrategyTracker:
    """Walks one strategy along n growing paths at once, one state index at a time.

    ``on_state(j, X)`` must be called for j = 0, 1, ... in order, with X the
    (n, dim) states at index j.  It returns the (n,) control indices in force
    on step j, UNDEFINED on paths where the strategy has not started or is
    exhausted, and ``all_defined`` says whether no path is UNDEFINED.  The
    returned array is updated in place by later calls.  This is the only
    semantics of a strategy: the tests check row p against a per-step
    recomputation from path p's prefix, clamps included, and
    ``clamp_count`` sums the clamps over the rows.

    Every strategy runs one monitor per rule, the start rule as monitor 0:
    a row in segment k waits for monitor k, and its fire (clamped up to the
    previous fire; the start's previous fire is -1, so a start is never a
    clamp) moves it to segment k + 1, where action k takes over.  When every
    rule fires at a path-independent index (grid ladders, constant
    strategies), segments change only at those indices, since a clamp moves
    a fire onto the previous rule's index; the steps in between return at
    once, so a ladder does array work on its decision steps alone.  A rule or action
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
        self.u_idx = np.full(n, UNDEFINED, dtype=np.int64)
        self.clamp_count = 0
        self.all_defined = False
        rules = (strategy.start_rule,) + strategy.rules
        self.monitors = [_rule_monitor(r, times, n) for r in rules]
        self.seg = np.zeros(n, dtype=np.int64)
        self.fire_prev = np.full(n, -1, dtype=np.int64)
        # read from the rules, not the monitors, so an empty batch needs no row
        fires = [r.fixed_fire_index(times) for r in rules]
        self.decisions = None if None in fires else sorted(set(fires)) + [times.size]
        self.wake = 0 if self.decisions is None else self.decisions[0]

    def _apply_action(self, k: int, mask: np.ndarray, j: int, X: np.ndarray):
        if mask.all():  # a ladder's decision moves every path: no row gathers
            mask = slice(None)
        action = self.strategy.actions[k]
        if isinstance(action, ConstantAction):
            self.u_idx[mask] = action.index
        else:
            self.u_idx[mask] = action.feedback.lookup_index_batch(float(self.times[j]), X[mask])

    def on_state(self, j: int, X: np.ndarray) -> np.ndarray:
        if j < self.wake:
            return self.u_idx
        if self.decisions is not None:
            self.wake = self.decisions[bisect.bisect_right(self.decisions, j)]
        for m in self.monitors:
            m.observe(j, X)
        n_mon = len(self.monitors)
        expired = False
        # only segments lowest..highest occupied can advance; an advance
        # from k occupies k + 1, so the bound rises with it
        top = int(self.seg.max(initial=-1))
        for k in range(int(self.seg.min(initial=n_mon)), n_mon):
            if k > top:
                break
            at_k = self.seg == k
            if not np.any(at_k):
                continue
            f = self.monitors[k].fire
            clamped = np.maximum(f, self.fire_prev)  # _NOT_YET stays above every j
            advancing = at_k & (clamped <= j)
            if not np.any(advancing):
                continue
            self.clamp_count += int(np.count_nonzero(advancing & (f < self.fire_prev)))
            np.copyto(self.fire_prev, clamped, where=advancing)
            np.copyto(self.seg, k + 1, where=advancing)
            top = max(top, k + 1)
            if k + 1 < n_mon:
                self._apply_action(k, advancing, j, X)
            else:
                self.u_idx[advancing] = UNDEFINED
                expired = True
        if expired:
            self.all_defined = False
        elif not self.all_defined:
            self.all_defined = not np.any(self.u_idx == UNDEFINED)
        return self.u_idx


# ----------------------------------------------------------- builders ---- #


def make_grid_strategy(feedback, decision_times: Sequence[float],
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
                junction: StoppingRule) -> ElementaryStrategy:
    """Play ``first`` with every rule capped at ``junction``, then ``tail``.

    ``tail.start_rule`` must equal ``junction`` structurally.  Rule order is
    not checked here: a tail rule that fires before the junction on a path
    is clamped to it when the strategy is tracked, and
    :class:`StrategyTracker` counts the clamp on that path.
    """
    if not first.control_set.matches(tail.control_set):
        raise StrategyStructureError("concatenate: control sets differ")
    if tail.start_rule != junction:
        raise StrategyStructureError(
            f"concatenate: tail starts at {tail.start_rule!r}, junction is {junction!r}")
    capped = tuple(CappedRule(r, junction) for r in first.rules)
    return ElementaryStrategy(
        control_set=first.control_set,
        start_rule=first.start_rule,
        rules=capped + tail.rules,
        actions=first.actions + tail.actions,
        label=f"{first.label}+{tail.label}")


# ------------------------------------------------------ open-loop controls ---- #


class OpenLoopControl:
    """Adversary control adapted to the noise, blind to the state.

    Controls have a batch form only: ``realize_batch(times, dW, extra, seeds)``
    maps a chunk's noise, (c, N, noise_dim) and (c, N, extra_dim), to (c, N)
    index paths of any integer dtype.  Row p is the realization for path
    seed ``seeds[p]``; its step i may read increments with index < i only.
    The engine and the screen call it through :func:`realize_checked`.  The
    engine marches time-major int32 paths, so the built-in controls return
    int32 (c, N) views of time-major (N, c) arrays, which it keeps uncopied.
    """

    extra_dim = 0
    label = ""

    def realize_batch(self, times: np.ndarray, dW: np.ndarray,
                      extra: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        raise StrategyStructureError(
            f"open-loop control {type(self).__name__} has no batch form")


def _played_index(index: int, owner: str) -> int:
    """An index a built-in control plays, checked to fit its int32 index paths."""
    if not 0 <= int(index) < 2 ** 31:
        raise ConfigError(f"{owner} plays index {index}, outside [0, 2**31)")
    return int(index)


@dataclass(frozen=True)
class ConstantControl(OpenLoopControl):
    index: int
    label: str = "const"

    def __post_init__(self):
        object.__setattr__(self, "index", _played_index(self.index, f"control {self.label!r}"))

    def realize_batch(self, times, dW, extra, seeds):
        return np.broadcast_to(np.int32(self.index), dW.shape[:2])


class SignControl(OpenLoopControl):
    """Plays pos_index when the running noise sum is >= 0, else neg_index.

    The sum at step i is over increments 0..i-1, so the value for step 0 is
    always pos_index.  ``source`` picks the stream: "brownian" reads dW,
    "extra" reads coordinate ``coord`` of the auxiliary stream.

    One running-sum row of all the paths is kept, from a first sum of 0.0,
    and step i's signs are written as row i of a time-major int32 array
    before increment i is added: the same additions in the same order as
    ``np.cumsum`` along each path, so the same floats up to the sign of an
    exactly-zero sum, which ``>= 0.0`` reads alike.
    """

    def __init__(self, pos_index: int, neg_index: int, source: str = "brownian",
                 coord: int = 0, label: str = ""):
        if source not in ("brownian", "extra"):
            raise ConfigError(f"SignControl source must be 'brownian' or 'extra', got {source!r}")
        self.label = label or f"sign_{source}"
        self.pos_index = _played_index(pos_index, f"control {self.label!r}")
        self.neg_index = _played_index(neg_index, f"control {self.label!r}")
        self.source = source
        self.coord = int(coord)
        if self.coord < 0:
            raise ConfigError(f"control {self.label!r}: coordinate {coord} is negative")
        if source == "extra":
            self.extra_dim = self.coord + 1

    def realize_batch(self, times, dW, extra, seeds):
        src = dW if self.source == "brownian" else extra
        if self.coord >= src.shape[-1]:
            raise ConfigError(f"control {self.label!r} reads coordinate {self.coord} of the "
                              f"{self.source} stream, which is {src.shape[-1]} wide")
        steps = src[:, :, self.coord].T  # (N, c): row i is every path's increment i
        paths = np.empty(steps.shape, dtype=np.int32)
        level = np.zeros(steps.shape[1])
        for i in range(steps.shape[0]):
            np.greater_equal(level, 0.0, out=paths[i])
            level += steps[i]
        # arithmetic, not np.where: the signs in a time-major row change from
        # path to path, and a branching select mispredicts on them
        paths *= self.pos_index - self.neg_index
        paths += self.neg_index
        return paths.T


class ReplayControl(OpenLoopControl):
    """Replays recorded index paths verbatim: one (N,) path on every row, or (c, N), one per row.

    The paths are kept in their own dtype, so a float path is refused by
    :func:`realize_checked` rather than truncated."""

    def __init__(self, indices, label: str = "replay"):
        self.indices = np.asarray(indices)
        self.label = label

    def realize_batch(self, times, dW, extra, seeds):
        paths = self.indices
        if paths.shape[-1] != dW.shape[1]:
            raise ConfigError(
                f"replay control has {paths.shape[-1]} steps, noise has {dW.shape[1]}")
        if paths.ndim == 2 and paths.shape[0] != dW.shape[0]:
            raise ConfigError(
                f"replay control has {paths.shape[0]} rows, noise has {dW.shape[0]}")
        return np.broadcast_to(paths, dW.shape[:2])


class PiecewiseRandomControl(OpenLoopControl):
    """Constant on each of ``n_segments`` blocks, values drawn privately.

    The values come from the path seed and ``salt`` through the seed
    derivation chain, independent of both noise streams.  Private randomness
    is information the Brownian filtration does not carry.
    """

    def __init__(self, n_choices: int, n_segments: int = 8, salt: int = 0, label: str = ""):
        if n_choices < 1 or n_segments < 1:
            raise ConfigError("PiecewiseRandomControl: need n_choices >= 1, n_segments >= 1")
        self.n_choices = int(n_choices)
        self.n_segments = int(n_segments)
        self.salt = int(salt)
        self.label = label or f"rand{salt}"

    def realize_batch(self, times, dW, extra, seeds):
        n_paths, n = dW.shape[0], dW.shape[1]
        starts = np.round(np.linspace(0, n, self.n_segments + 1)).astype(np.int64)[:-1]
        salted = derive_seed_array(seeds, 7 + self.salt)
        values = np.empty((self.n_segments, n_paths), dtype=np.int32)
        for j in range(self.n_segments):
            values[j] = derive_seed_array(salted, j) % np.uint64(self.n_choices)
        seg_of_step = np.searchsorted(starts, np.arange(n), side="right") - 1
        return values[seg_of_step].T  # gathered time-major, (N, c)


def realize_checked(control: OpenLoopControl, times: np.ndarray, dW: np.ndarray,
                    extra: np.ndarray, seeds: np.ndarray,
                    n_choices: int | None = None) -> np.ndarray:
    """The control's (c, N) index paths for one chunk's noise, validated: the
    auxiliary stream is as wide as the control reads, and the result has shape
    (c, N), an integer dtype (kept as it is, without a copy) and every index
    in [0, n_choices) when ``n_choices`` is given.  A float or bool result is
    refused by name rather than truncated."""
    if control.extra_dim > extra.shape[-1]:
        raise ConfigError(
            f"control {control.label!r} needs extra_dim >= {control.extra_dim}, "
            f"noise provides {extra.shape[-1]}")
    idx = np.asarray(control.realize_batch(times, dW, extra, seeds))
    if idx.shape != dW.shape[:2]:
        raise ModelEvaluationError(
            f"control {control.label!r} realized shape {idx.shape}, expected {dW.shape[:2]}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ModelEvaluationError(
            f"control {control.label!r} realized dtype {idx.dtype}, expected integer indices")
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
                          state_dim: int = 1, noise_dim: int = 1) -> NonAnticipativityReport:
    """Probe an object's batch form with input pairs that agree up to a random cut.

    Trial k draws a cut and two inputs (random walks, or noise for open-loop
    controls) that coincide up to it, as rows 2k and 2k+1 of one batch that
    runs through the engine's code: :func:`realize_checked`,
    :class:`StrategyTracker` or :func:`fire_batch`.  Decisions at or before
    the cut must coincide in both rows.  Both rows share the path seed, so
    private randomness is shared too.  An object without a batch form fails
    every trial, and ``first_failure`` names its class.  A cut needs a step
    on each side, so ``n_steps`` must be at least 2.
    """
    if n_steps < 2:
        raise ConfigError(f"check_nonanticipative needs n_steps >= 2, got {n_steps}")
    times = np.linspace(0.0, horizon, n_steps + 1)
    rng = stream_generator(derive_seed(seed, 13), 0)
    cuts = rng.integers(1, n_steps, size=n_trials)
    if isinstance(obj, OpenLoopControl):
        kind, label = "open_loop", obj.label
        inc = _increment_pairs(times, rng, cuts, noise_dim + max(1, obj.extra_dim))
        seeds = np.repeat(derive_seed_array(derive_seed(seed, 17), np.arange(n_trials)), 2)
        decide = lambda: realize_checked(obj, times, inc[..., :noise_dim],
                                         inc[..., noise_dim:], seeds)
    elif isinstance(obj, (ElementaryStrategy, StoppingRule)):
        walks = np.cumsum(_increment_pairs(times, rng, cuts, state_dim), axis=1)
        states = np.concatenate([np.zeros_like(walks[:, :1]), walks], axis=1)
        if isinstance(obj, StoppingRule):
            kind, label = "rule", type(obj).__name__
            decide = lambda: fire_batch(obj, times, states)
        else:
            kind, label = "strategy", obj.label
            decide = lambda: _track(obj, times, states)[0]
    else:
        raise ConfigError(f"cannot check object of type {type(obj).__name__}")
    try:
        decisions = decide()
    except StrategyStructureError as exc:
        return NonAnticipativityReport(kind=kind, label=label, trials=n_trials,
                                       failures=n_trials,
                                       first_failure={"trial": 0, "refused": str(exc)})
    a, b = decisions[0::2], decisions[1::2]
    if kind == "rule":
        # a fire index seen by the cut in either row must be the same in both
        failed = (np.minimum(a, b) <= cuts) & (a != b)
    else:
        failed = np.any((a != b) & (np.arange(n_steps) <= cuts[:, None]), axis=1)
    first_failure = None
    if failed.any():
        k = int(np.argmax(failed))
        first_failure = {"trial": k, "cut": int(cuts[k])}
        if kind == "rule":
            first_failure.update({key: None if f == _NOT_YET else int(f)
                                  for key, f in (("fire_a", a[k]), ("fire_b", b[k]))})
        else:
            step = int(np.argmax(a[k] != b[k]))
            first_failure.update(step=step, a=int(a[k, step]), b=int(b[k, step]))
    return NonAnticipativityReport(kind=kind, label=label, trials=n_trials,
                                   failures=int(np.count_nonzero(failed)),
                                   first_failure=first_failure)


def _increment_pairs(times, rng, cuts, dim):
    """Increments (2 len(cuts), N, dim); rows 2k and 2k+1 differ from index cuts[k] on."""
    scale = np.sqrt(np.diff(times))[:, None]
    shape = (cuts.size, times.size - 1, dim)
    a = rng.standard_normal(shape) * scale
    tail = np.arange(shape[1])[:, None] >= cuts[:, None, None]
    b = np.where(tail, rng.standard_normal(shape) * scale, a)
    return np.stack([a, b], axis=1).reshape((2 * cuts.size,) + shape[1:])


def _track(strategy: ElementaryStrategy, times: np.ndarray, states: np.ndarray):
    """Control indices (c, N) a tracker plays on recorded states (c, N+1, dim), and clamps."""
    tracker = StrategyTracker(strategy, times, states.shape[0])
    out = np.empty((states.shape[0], times.size - 1), dtype=np.int64)
    for i in range(times.size - 1):
        out[:, i] = tracker.on_state(i, states[:, i])
    return out, tracker.clamp_count
