"""Per-path oracle for the strategy semantics, written apart from the batch forms.

The package runs rules, strategies and open-loop controls in batch form
only.  This module recomputes their semantics one path at a time, straight
from the definitions: where a built-in rule fires on a path prefix, the
control in force on each step from that step's own prefix (with clamps),
and one path's realization of the built-in open-loop controls.  It keeps
the first batch forms of ``ConstantControl`` and ``SignControl`` too, so
that leaner forms can be pinned to their bits.

It also holds three lookahead fixtures that declare nothing about what they
read; the anticipation screen and the strategy tracker must catch each one
by its behaviour alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from robustctl.sde_core import NoisePath, derive_seed
from robustctl.strategies import (UNDEFINED, Action, CappedRule, ConstantAction,
                                  ConstantControl, ElementaryStrategy,
                                  FixedTimeRule, GridIndexRule, HittingRule,
                                  OpenLoopControl, PiecewiseRandomControl,
                                  SignControl, StoppingRule)


@dataclass(frozen=True)
class LookaheadRule(StoppingRule):
    """A rule that would fire at once when the final state is >= 0.

    Deciding from the final state needs the whole path, so the rule has no
    batch form, and the screen and the tracker refuse it by name.
    """


@dataclass(frozen=True)
class LookaheadAction(Action):
    """An action that would play ``pos_index`` when the final state is >= 0.

    Like :class:`LookaheadRule` it has no batch form, so a strategy holding
    it is refused by the tracker.
    """

    pos_index: int
    neg_index: int


@dataclass(frozen=True)
class LookaheadControl(OpenLoopControl):
    """An open-loop control whose step i reads increment i, the one that step drives.

    It has a batch form, so only the screen's trials can catch it.
    """

    pos_index: int
    neg_index: int
    coord: int = 0
    label: str = "lookahead"

    def realize_batch(self, times, dW, extra, seeds):
        return np.where(dW[..., self.coord] >= 0.0,
                        self.pos_index, self.neg_index).astype(np.int64)


def constant_batch(control: ConstantControl, dW) -> np.ndarray:
    """ConstantControl's batch form as first written: a fresh, writable (c, N) block."""
    return np.full((dW.shape[0], dW.shape[1]), control.index, dtype=np.int64)


def sign_batch(control: SignControl, dW, extra) -> np.ndarray:
    """SignControl's batch form as first written: the running sum shifted by one
    step behind a zero column, then the sign test."""
    src = dW if control.source == "brownian" else extra
    cum = np.cumsum(src[..., control.coord], axis=1)
    level = np.concatenate([np.zeros((src.shape[0], 1)), cum[:, :-1]], axis=1)
    return np.where(level >= 0.0, control.pos_index, control.neg_index).astype(np.int64)


def snap_lookup(times, axes, table, t, x, *lead) -> int:
    """table[layer, *lead, cell...] at the grid node nearest (t, x), clamped."""
    layer = int(round((t - times[0]) / (times[1] - times[0])))
    node = [min(max(layer, 0), len(times) - 1), *lead]
    for a, axis in enumerate(axes):
        cell = int(np.rint((x[a] - axis[0]) / (axis[1] - axis[0])))
        node.append(min(max(cell, 0), axis.size - 1))
    return int(table[tuple(node)])


def fire_index(rule, times, states, upto: int) -> int | None:
    """First index j <= upto at which the rule fires, reading states[: upto + 1]."""
    if isinstance(rule, (FixedTimeRule, GridIndexRule)):
        j = rule.fixed_fire_index(times)
        return j if j <= upto else None
    if isinstance(rule, HittingRule):
        start = 0
        if rule.from_rule is not None:
            start = fire_index(rule.from_rule, times, states, upto)
            if start is None:
                return None
        mask = rule.region.contains(np.asarray(states)[start:upto + 1])
        return start + int(np.argmax(mask)) if mask.any() else None
    if isinstance(rule, CappedRule):
        fires = [f for f in (fire_index(rule.inner, times, states, upto),
                             fire_index(rule.cap, times, states, upto)) if f is not None]
        return min(fires) if fires else None
    raise TypeError(f"no oracle for rule {type(rule).__name__}")


def step_control(strategy: ElementaryStrategy, times, states, i: int) -> tuple[int, int]:
    """Control index on step i, (t_i, t_{i+1}], from states[: i + 1], and its clamps.

    UNDEFINED when the strategy has not started by t_i or is exhausted.
    """
    clamps = 0
    fire_prev = fire_index(strategy.start_rule, times, states, i)
    if fire_prev is None:
        return UNDEFINED, 0
    for rule, action in zip(strategy.rules, strategy.actions):
        f = fire_index(rule, times, states, i)
        if f is not None and f < fire_prev:
            f = fire_prev
            clamps += 1
        if f is None or f > i:
            if isinstance(action, ConstantAction):
                return action.index, clamps
            fb = action.feedback
            return snap_lookup(fb.grid.times, fb.grid.axes, fb.indices, float(times[fire_prev]),
                               states[fire_prev]), clamps
        fire_prev = f
    return UNDEFINED, clamps


def control_sequence(strategy: ElementaryStrategy, times, states) -> tuple[np.ndarray, int]:
    """(N,) control indices, each from its own prefix, and the most clamps of any step."""
    steps = [step_control(strategy, times, states, i) for i in range(len(times) - 1)]
    return (np.array([idx for idx, _ in steps], dtype=np.int64),
            max(clamps for _, clamps in steps))


def realize(control, noise: NoisePath) -> np.ndarray:
    """One path's (N,) index path, with step i reading increments before i."""
    n = noise.n_steps
    if isinstance(control, ConstantControl):
        return np.full(n, control.index, dtype=np.int64)
    if isinstance(control, SignControl):
        src = (noise.dW if control.source == "brownian" else noise.extra)[:, control.coord]
        levels = np.array([float(src[:i].sum()) if i > 0 else 0.0 for i in range(n)])
        return np.where(levels >= 0.0, control.pos_index, control.neg_index)
    if isinstance(control, PiecewiseRandomControl):
        starts = np.round(np.linspace(0, n, control.n_segments + 1)).astype(np.int64)[:-1]
        values = np.array([derive_seed(noise.seed, 7 + control.salt, j) % control.n_choices
                           for j in range(control.n_segments)], dtype=np.int64)
        return values[np.searchsorted(starts, np.arange(n), side="right") - 1]
    raise TypeError(f"no oracle for control {type(control).__name__}")
