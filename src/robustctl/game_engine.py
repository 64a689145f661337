"""Monte Carlo engine for the game: strong-formulation simulation and values.

Each player carries its own name and control set.  The controller plays an
elementary feedback strategy; nature is an :class:`Adversary` ``(id,
plays)``, and the type of ``plays`` says how it plays:

:class:`~robustctl.strategies.OpenLoopControl`
    A control reading noise only, realized through ``realize_checked``.
:class:`~robustctl.strategies.ElementaryStrategy`
    Another elementary strategy, for strategy-vs-strategy games.
:class:`~robustctl.strategies.FeedbackMap`
    A table v(t, x), read at each step's time and state.
:class:`~robustctl.pde_solver.ValueField`
    A solved lower field: its per-u reply table ``response_v`` answers the
    controller's current action at (t, x).

State-feedback players are not open-loop objects, but every trajectory they
produce is reproduced exactly by replaying the recorded control paths as an
open-loop control against the same noise (:func:`embed_feedback_as_openloop`
asserts this bitwise), which is what makes them legitimate members of the
adversary families used for inner infima.

One chunked batch engine computes every trajectory.  Every estimate is a
cell of one strategies x adversaries table (strategies in a plain list,
keyed by label) marched on one noise panel and reduced by one sup-inf fold
(:func:`_fold`).  A chunk marches member-major: each member is realized
from the time-major noise, one at a time, and marched against its
strategies a block at a time, each strategy on its own slice of the block's
rows (:func:`_run_cells`, :func:`_march_chunk`).  :func:`value_experiment`
is the only entry point for payoff tables (:func:`filtration_experiment` is
its 1 x m call), and :func:`dpp_checks` folds every rule's restart values
from one table, the restart states captured by the rules' monitors during
the march.  The two games have one recorded entry point each, returning a
:class:`Paths` record of noise paths marched as one chunk:
:func:`simulate_strong` (feedback alpha against an open-loop control)
and :func:`simulate_feedback_pair` (alpha against a feedback beta); the
embedding is the second replayed through the first.  A strategy checks its
actions against its own control set when built, so the engine makes one
set comparison per side (:func:`_check_set`).  Non-anticipation is judged
by behaviour alone, through :func:`_screen`: an open-loop member is
screened by the first table it plays in on each game grid, and
:func:`dpp_checks` screens its rules; the recorded entry points screen
nothing.  With ``EngineConfig.threads > 1`` the chunks are
marched in worker processes started by fork, which write their results
into arrays shared with the parent.  Results are bitwise invariant to chunk
size and worker count: path seeds are derived per path index, chunks only
group work, and all reductions run over fully assembled arrays.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (ConfigError, EmbeddingMismatchError, ModelEvaluationError,
                     SimulationBlowUpError, StrategyIntervalError,
                     StrategyStructureError)
from .pde_solver import ValueField
from .sde_core import (ControlSet, NoisePath, ProblemSpec, derive_seed,
                       derive_seed_array, eval_pairs, eval_payoff, sample_noise_batch)
from .strategies import (AbsRegion, ConstantAction, ConstantControl,
                         ElementaryStrategy, FeedbackMap,
                         FixedTimeRule, HittingRule, OpenLoopControl,
                         PiecewiseRandomControl, ReplayControl, SignControl,
                         StoppingRule, StrategyTracker, _rule_monitor,
                         check_nonanticipative, make_grid_strategy, realize_checked)

__all__ = [
    "Paths", "ValueEstimate", "EngineConfig",
    "Adversary", "AdversaryFamily",
    "simulate_strong", "simulate_feedback_pair", "embed_feedback_as_openloop",
    "RobustValue",
    "ValueExperimentReport", "value_experiment",
    "FiltrationReport", "filtration_experiment",
    "DppReport", "dpp_check", "dpp_checks",
    "default_adversary_families", "default_strategy_family", "builtin_pairs",
]


# ------------------------------------------------------------- data types ---- #


@dataclass(eq=False)
class Paths:
    """One marched chunk, one row per path: states (c, N+1, dim), the u and v
    index paths (c, N) as played, payoffs (c,), path seeds (c,) and the clamp
    count summed over rows.  States and index paths are None when the march
    did not record them.  They are recorded time-major, one contiguous row
    per step, and handed out as transposed views without a copy; a reader
    that walks the paths step by step (``states[:, j]``) reads contiguous
    memory."""

    states: np.ndarray | None
    u_indices: np.ndarray | None
    v_indices: np.ndarray | None
    payoffs: np.ndarray
    seeds: np.ndarray
    clamp_count: int = 0


@dataclass(eq=False)
class ValueEstimate:
    """Monte Carlo estimate of E[g(X_T)] for one strategy/adversary pairing."""

    mean: float
    std_error: float
    n_paths: int
    seed: int
    strategy_label: str
    adversary_id: str
    clamp_count: int = 0
    payoffs: np.ndarray | None = dc_field(default=None, repr=False)


@dataclass(frozen=True)
class EngineConfig:
    """How to discretize and batch a Monte Carlo run.

    ``chunk_size`` bounds the rows marched at once, paths x strategies: a
    chunk holds up to ``chunk_size`` paths, and a chunk of c paths marches
    each adversary against ``chunk_size // c`` strategies at a time (at
    least one).  ``threads`` is the number of worker processes (started by
    fork) that march chunks side by side; 1 marches every chunk in this
    process.  Results are bitwise the same for any ``chunk_size`` and
    ``threads``; they exist for memory and speed only.
    """

    n_steps: int
    chunk_size: int = 8192
    threads: int = 1

    def __post_init__(self):
        if self.n_steps < 1 or self.chunk_size < 1 or self.threads < 1:
            raise ConfigError("EngineConfig: n_steps, chunk_size, threads must be >= 1")
        if self.threads > 1 and "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(f"EngineConfig: threads={self.threads} needs worker processes "
                              "started by 'fork', which this platform does not offer")


@dataclass(frozen=True, eq=False)
class Adversary:
    """An adversary of the inner infimum: a stable id, what it plays (see the module), and
    the game grids on which an open-loop ``plays`` passed the screen (:func:`_march_table`)."""

    id: str
    plays: OpenLoopControl | ElementaryStrategy | FeedbackMap | ValueField
    passed: set = dc_field(default_factory=set, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.plays, (OpenLoopControl, ElementaryStrategy, FeedbackMap,
                                       ValueField)):
            raise ConfigError(f"adversary {self.id!r} cannot play a {type(self.plays).__name__}")

    @property
    def extra_dim(self) -> int:
        return self.plays.extra_dim if isinstance(self.plays, OpenLoopControl) else 0


@dataclass(eq=False)
class AdversaryFamily:
    """Ordered list of adversaries; the inner infimum runs over it in order."""

    members: tuple
    label: str = ""

    def __post_init__(self):
        self.members = tuple(self.members)
        if not self.members:
            raise ConfigError(f"adversary family {self.label!r} is empty")
        ids = [m.id for m in self.members]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"adversary family {self.label!r} has duplicate ids")

    @property
    def ids(self) -> tuple:
        return tuple(m.id for m in self.members)


# ------------------------------------------------------ recorded entry points ---- #


def _record(spec: ProblemSpec, strategy: ElementaryStrategy, adversary: Adversary,
            noise, x0) -> Paths:
    """The game on one :class:`NoisePath` or a sequence of them on one time grid,
    marched as one recorded chunk, one row per path."""
    noises = [noise] if isinstance(noise, NoisePath) else list(noise)
    if any(not np.array_equal(n.times, noises[0].times) for n in noises):
        raise ConfigError("noise paths must share one time grid")
    for n in noises:
        if n.dW.shape[-1] != spec.noise_dim:
            raise ConfigError(f"noise path seed {n.seed} has dW width {n.dW.shape[-1]}, "
                              f"the game's noise_dim is {spec.noise_dim}")
    if len({n.extra.shape[-1] for n in noises}) > 1:
        raise ConfigError(f"noise paths carry extra widths "
                          f"{sorted({n.extra.shape[-1] for n in noises})}; a batch needs one")
    times = noises[0].times
    seeds = np.array([n.seed for n in noises], dtype=np.uint64)
    dW_tm = np.stack([n.dW for n in noises], axis=1)
    v_factory = _adversary_realization(adversary, spec, times, dW_tm.transpose(1, 0, 2),
                                       np.stack([n.extra for n in noises]), seeds)
    paths, _ = _march_chunk(spec, times, seeds, _as_state(spec, x0), [strategy], v_factory,
                            dW_tm, record=True)
    return paths[0]


def simulate_strong(spec: ProblemSpec, strategy: ElementaryStrategy,
                    control: OpenLoopControl, noise, x0) -> Paths:
    """The strong-formulation game: feedback u against open-loop v, on the noise paths.

    The control's index paths are realized from the noise up front (they are
    state-independent by definition) and consumed step by step.
    """
    return _record(spec, strategy, Adversary(control.label, control), noise, x0)


def simulate_feedback_pair(spec: ProblemSpec, alpha: ElementaryStrategy,
                           beta: ElementaryStrategy, noise, x0) -> Paths:
    """The symmetric game: both players run elementary feedback strategies."""
    return _record(spec, alpha, Adversary(beta.label, beta), noise, x0)


def embed_feedback_as_openloop(spec: ProblemSpec, alpha: ElementaryStrategy,
                               beta: ElementaryStrategy, noise, x0) -> tuple:
    """The pair's :class:`Paths` and the :class:`ReplayControl` that reproduces them.

    ``noise`` is one :class:`NoisePath` or a sequence of them on one time
    grid, one row each.  The pair is marched by :func:`simulate_feedback_pair`,
    then alpha against a replay of the recorded v paths by
    :func:`simulate_strong`; states and both index paths must match bitwise
    on every row, or :class:`EmbeddingMismatchError` names the first
    mismatching row and all of them.  This pathwise identity embeds feedback
    adversaries into the open-loop class.
    """
    pair = simulate_feedback_pair(spec, alpha, beta, noise, x0)
    control = ReplayControl(pair.v_indices, label=f"replay[{beta.label}]")
    replay = simulate_strong(spec, alpha, control, noise, x0)
    moved = [("trajectory", np.any(pair.states != replay.states, axis=2)),
             ("u path", pair.u_indices != replay.u_indices),
             ("v path", pair.v_indices != replay.v_indices)]
    rows = np.flatnonzero(np.any([m.any(axis=1) for _, m in moved], axis=0))
    if rows.size:
        p = int(rows[0])
        name, m = next((name, m[p]) for name, m in moved if m[p].any())
        step = int(np.argmax(m))
        seed = int(pair.seeds[p])
        raise EmbeddingMismatchError(
            f"replayed {name} diverges at step {step} on row {p} (seed {seed}); "
            f"mismatching rows {rows.tolist()}",
            step=step, max_abs_diff=float(np.abs(pair.states[p] - replay.states[p]).max()),
            seed=seed, rows=rows.tolist())
    return pair, control


def _as_state(spec: ProblemSpec, x0) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (spec.dim,):
        raise ConfigError(f"start state shape {x0.shape}, expected ({spec.dim},)")
    return x0


# ----------------------------------------------------------- batch engine ---- #


def _check_set(owner: str, plays_on: ControlSet, side: str, game_set: ControlSet) -> None:
    """The one control-set check for either player: the step kernel decodes indices
    unchecked, so a player on another set would play another (u, v) pair."""
    if not plays_on.matches(game_set):
        raise ModelEvaluationError(f"{owner} uses control set {plays_on}, "
                                   f"the game's {side} set is {game_set}")


def _tracker(strategy: ElementaryStrategy, controls: ControlSet, side: str,
             times: np.ndarray, n: int) -> StrategyTracker:
    """The tracker for one side's strategy, its set checked against that side's."""
    _check_set(f"{side} strategy {strategy.label!r}", strategy.control_set, side, controls)
    return StrategyTracker(strategy, times, n)


def _adversary_realization(adversary: Adversary, spec: ProblemSpec, times: np.ndarray,
                           dW: np.ndarray, extra: np.ndarray, seeds: np.ndarray):
    """Strategy-independent batch form of an adversary on one chunk's noise.

    Returns a factory(S) -> (step_fn, trackers) for a block of S strategy
    slices of c rows each (see :func:`_march_chunk`): step_fn(i, X, u) ->
    v indices reads the block's states X as (S, c, dim) and the controller's
    indices u as (S, c).  Open-loop controls are realized here, once per
    chunk, from ``dW``, a (c, N, noise_dim) view of the time-major noise;
    the paths are kept time-major int32 (the built-in controls return them
    so, and they are kept without a copy: a row of stride one item, or of
    stride 0 as in ``ConstantControl``'s broadcast, is read as it is), and
    each step's (c,) row serves every slice by broadcasting.  A feedback
    table or a reply table is read at each step's (t, x) for the whole
    block at once.  A strategy is stateful: ``trackers`` holds a fresh one
    per slice, else it is empty.
    """
    plays = adversary.plays
    if isinstance(plays, OpenLoopControl):
        paths_tm = realize_checked(plays, times, dW, extra, seeds, spec.controls_v.size).T
        if paths_tm.dtype != np.int32 or paths_tm.strides[1] not in (0, paths_tm.itemsize):
            paths_tm = np.ascontiguousarray(paths_tm, dtype=np.int32)
        step = lambda i, X, u: paths_tm[i]
        return lambda n_s: (step, [])
    if isinstance(plays, ValueField):
        grid, table = plays.feedback_v, plays.response_v
        owner = f"adversary {adversary.id!r} reply"
        _check_set(f"{owner} table {grid.label!r}", grid.control_set, "adversary",
                   spec.controls_v)
        _check_set(f"{owner} rows {plays.feedback_u.label!r}", plays.feedback_u.control_set,
                   "controller", spec.controls_u)
        step = lambda i, X, u: table[(grid.layer_of(float(times[i])), u) + grid.cells_of(X)]
        return lambda n_s: (step, [])
    if isinstance(plays, FeedbackMap):
        _check_set(f"adversary strategy {adversary.id!r}", plays.control_set, "adversary",
                   spec.controls_v)
        step = lambda i, X, u: plays.lookup_index_batch(float(times[i]), X)
        return lambda n_s: (step, [])

    def factory(n_s):
        trackers = [_tracker(plays, spec.controls_v, "adversary", times, seeds.size)
                    for _ in range(n_s)]
        v = np.empty((n_s, seeds.size), dtype=np.int64)

        def step(i, X, u):
            for s, tracker in enumerate(trackers):
                v[s] = tracker.on_state(i, X[s])
            return v

        return step, trackers

    return factory


def _noise_term(sig: np.ndarray, dWi: np.ndarray) -> np.ndarray:
    """sigma dW per row, bitwise as the sum ``(sig * dW[..., None, :]).sum(axis=-1)``
    of the reference Euler step in ``tests/sde_oracle.py``.

    ``sig`` holds S * c rows, S slices of the chunk's c paths, and ``dWi``
    the chunk's (c, noise_dim) increments: each slice reads them by
    broadcasting, without a tiled copy.  With one noise coordinate the sum
    is a single product; numpy's sum over a length-1 axis turns -0.0 into
    +0.0, and ``+ 0.0`` does the same.
    """
    n, c = sig.shape[0], dWi.shape[0]
    sig = sig.reshape((n // c, c) + sig.shape[1:])
    if dWi.shape[-1] == 1:
        term = sig[..., 0] * dWi
        term += 0.0
    else:
        term = (sig * dWi[..., None, :]).sum(axis=-1)
    return term.reshape(n, -1)


def _step_batch(spec: ProblemSpec, t: float, dt: float, X: np.ndarray,
                code: np.ndarray, lo: int, hi: int, dWi: np.ndarray,
                rows: np.ndarray) -> tuple:
    """One Euler step in place, each row on its own (u, v) pair.

    ``code`` is each row's pair code ``u * n_v + v`` and [lo, hi] its
    range.  Drift and diffusion are called once on the whole block for
    every code in [lo, hi], also a code that no row plays, which is
    evaluated but never read.  When lo equals hi (every one-path march)
    that block is the step's; otherwise each row reads its own pair with
    one flat ``take`` at ``(code - lo) * len(X) + row`` on the concatenated
    blocks.  The coefficient contract
    (vectorized, row i depends on x[i] alone) makes that the same floats as
    a per-group evaluation; ``rows`` is ``arange(len(X))``, built once per
    march.  In-place ``x += b dt; x += sig dW`` keeps the reference step's
    association, and the noise term follows :func:`_noise_term`, so signed
    zeros come out as in the reference step.

    Returns the drift and diffusion blocks per code in [lo, hi], for the
    blow-up report.
    """
    n_v = spec.controls_v.size
    drifts, diffusions = [], []
    for c in range(lo, hi + 1):
        iu, jv = divmod(c, n_v)
        u, v = spec.controls_u.point(iu), spec.controls_v.point(jv)
        drifts.append(np.asarray(spec.drift(t, X, u, v), dtype=float))
        diffusions.append(np.asarray(spec.diffusion(t, X, u, v), dtype=float))
    if lo == hi:
        b, sig = drifts[0], diffusions[0]
    else:
        flat = code - lo
        flat *= len(X)
        flat += rows
        b = np.concatenate(drifts).take(flat, axis=0)
        sig = np.concatenate(diffusions).take(flat, axis=0)
    X += b * dt
    X += _noise_term(sig, dWi)
    return drifts, diffusions


def _blow_up(spec: ProblemSpec, t: float, t_next: float, X: np.ndarray, seeds: np.ndarray,
             code: np.ndarray, lo: int, blocks: tuple) -> None:
    """Raise for a step that left the finite range, naming the cause.

    ``X`` holds S slices of the chunk's c paths, ``seeds`` the chunk's c
    path seeds, and ``blocks`` what :func:`_step_batch` returned.  The
    offending row is the first non-finite one (else the largest).  When the
    drift or diffusion block of that row's own pair is non-finite on it, the
    callback is at fault: :class:`ModelEvaluationError` names it with t, u,
    v and the path seed.  Otherwise the state overflowed on finite
    coefficients: :class:`SimulationBlowUpError`.
    """
    finite_rows = np.all(np.isfinite(X), axis=-1)
    bad = int(np.argmin(finite_rows)) if not finite_rows.all() \
        else int(np.argmax(np.abs(X).max(axis=-1)))
    seed = int(seeds[bad % seeds.size])
    pair = int(code[bad])
    for name, per_code in zip(("drift", "diffusion"), blocks):
        if not np.all(np.isfinite(per_code[pair - lo][bad])):
            iu, jv = divmod(pair, spec.controls_v.size)
            u, v = spec.controls_u.point(iu), spec.controls_v.point(jv)
            raise ModelEvaluationError(f"{spec.label}.{name}(t={t}, u={u}, v={v}) returned "
                                       f"non-finite values on path seed {seed}")
    raise SimulationBlowUpError(f"state left the finite range at t={t_next} (seed {seed})",
                                t=t_next, state=X[bad].copy(), seed=seed)


class _RestartCapture:
    """One dpp rule's restart states on a marched block, taken as it marches.

    The rule's monitor observes the block's states at every index, in
    order.  Each row keeps its state at the index where the monitor first
    reports its fire, and a row on which the rule has not fired by the last
    index keeps the last state: rho is capped at the horizon.  A fire is
    captured only at the index it is reported, so a monitor that reports
    a fire index below the current one is refused by name.
    """

    def __init__(self, label: str, rule: StoppingRule, times: np.ndarray, n: int, dim: int):
        self.label = label
        self.last = times.size - 1
        self.monitor = _rule_monitor(rule, times, n)
        self.fire = np.full(n, self.last, dtype=np.int64)
        self.open = np.ones(n, dtype=bool)  # rows whose fire has not been reported
        self.states = np.empty((n, dim))

    def observe(self, j: int, X: np.ndarray) -> None:
        if not self.open.any():
            return
        self.monitor.observe(j, X)
        fire = self.monitor.fired_by(j)
        new = fire <= j
        new &= self.open
        if new.any():
            first = int(fire[new].min())
            if first < j:
                raise StrategyStructureError(
                    f"stopping rule {self.label!r} reported fire index {first} at index "
                    f"{j}; a restart state is captured at the index where the fire is "
                    f"reported")
            np.copyto(self.states, X, where=new[:, None])
            np.copyto(self.fire, j, where=new)
            self.open &= ~new
        if j == self.last:
            np.copyto(self.states, X, where=self.open[:, None])

    def values(self, field: ValueField, times: np.ndarray) -> np.ndarray:
        """The field at each row's (rho, X_rho)."""
        return field.value_at(times[self.fire], self.states)


def _march_chunk(spec: ProblemSpec, times: np.ndarray, seeds: np.ndarray,
                 x0: np.ndarray, strategies: list, v_factory, dW_tm: np.ndarray,
                 rules=(), record: bool = False) -> tuple:
    """A block of S strategies marched against one member on one chunk of c paths.

    The block is S * c rows, strategy s on the contiguous slice ``s * c``
    to ``(s + 1) * c``; every slice starts at ``x0`` and reads the same
    noise.  Each strategy's tracker reads its own slice.  ``v_factory`` is
    the member's realization on this chunk (see
    :func:`_adversary_realization`); ``dW_tm`` is the chunk's increments
    time-major (N, c, noise_dim), so step slices are contiguous.  Each step
    runs :func:`_step_batch` once on the whole block.

    Returns one :class:`Paths` per strategy and one :class:`_RestartCapture`
    over the block per ``(label, rule)`` in ``rules``.  With ``record`` (one
    strategy only) the states and both index paths are kept, the indices as
    int32, to keep recorded chunks small.  A step that leaves the finite
    range raises through :func:`_blow_up`, whatever the block's size.
    """
    n = times.size - 1
    c = seeds.size
    n_s = len(strategies)
    n_v = spec.controls_v.size
    u_trackers = [_tracker(s, spec.controls_u, "controller", times, c) for s in strategies]
    v_source, v_trackers = v_factory(n_s)
    # per slice, in the order a one-strategy march checks them
    sides = [[("controller", u_trackers[s])] + ([("adversary", v_trackers[s])]
                                                if v_trackers else [])
             for s in range(n_s)]
    checked = [side for slice_sides in sides for side in slice_sides]
    X = np.broadcast_to(x0, (n_s * c, spec.dim)).copy()
    X_slices = X.reshape(n_s, c, spec.dim)
    # validated once at the start so the step loop can call the raw
    # callbacks; a shape bug is structural and shows on any state
    eval_pairs(spec, float(times[0]), X)
    captures = [_RestartCapture(label, rule, times, n_s * c, spec.dim) for label, rule in rules]
    for capture in captures:
        capture.observe(0, X)
    if record:
        # time-major, so each step writes one contiguous row
        states = np.empty((n + 1, c, spec.dim))
        states[0] = X
        u_paths = np.empty((n, c), dtype=np.int32)
        v_paths = np.empty((n, c), dtype=np.int32)
    u = np.empty((n_s, c), dtype=np.int64)
    code = np.empty((n_s, c), dtype=np.int64)
    flat_code = code.reshape(-1)
    dts = np.diff(times)
    rows = np.arange(n_s * c)
    for i in range(n):
        for s, tracker in enumerate(u_trackers):
            u[s] = tracker.on_state(i, X_slices[s])
        v = v_source(i, X_slices, u)
        for side, tracker in checked:
            if not tracker.all_defined:
                raise StrategyIntervalError(f"{side} strategy {tracker.strategy.label!r} "
                                            f"inactive on step {i} (t={times[i]})")
        np.multiply(u, n_v, out=code)
        code += v
        t, dt = float(times[i]), float(dts[i])
        lo = int(flat_code.min())
        blocks = _step_batch(spec, t, dt, X, flat_code, lo, int(flat_code.max()),
                             dW_tm[i], rows)
        # a single reduce; any nan/inf entry forces a non-finite total
        if not np.isfinite(float(X.sum())):
            _blow_up(spec, t, float(times[i + 1]), X, seeds, flat_code, lo, blocks)
        for capture in captures:
            capture.observe(i + 1, X)
        if record:
            states[i + 1] = X
            u_paths[i] = u[0]
            v_paths[i] = np.broadcast_to(v, code.shape)[0]
    payoffs = eval_payoff(spec, X)
    paths = [Paths(states=None, u_indices=None, v_indices=None,
                   payoffs=payoffs[s * c:(s + 1) * c], seeds=seeds,
                   clamp_count=sum(tracker.clamp_count for _, tracker in sides[s]))
             for s in range(n_s)]
    if record:
        paths[0].states = states.transpose(1, 0, 2)
        paths[0].u_indices, paths[0].v_indices = u_paths.T, v_paths.T
    return paths, captures


def _map_chunks(n_paths: int, engine: EngineConfig, worker) -> int:
    """Run worker(chunk_id, start, stop) over fixed-size chunks; returns chunk count.

    Chunk ``ci`` goes to worker process ``ci % n_workers``, with
    ``n_workers = min(engine.threads, chunks)``; one worker means every
    chunk runs here, in order.  Workers are started by fork, so ``worker``
    and everything it reads (closures included) cross without pickling;
    fork is safe because the package starts no threads.  ``worker`` must
    write its results into memory shared with this process (see
    :func:`_shared_zeros`).  Each worker stops at its first failing chunk
    and reports it; the failure of the lowest chunk is re-raised here with
    its type and attributes, the one a single-worker run raises first.
    """
    bounds = [(s, min(s + engine.chunk_size, n_paths))
              for s in range(0, n_paths, engine.chunk_size)]
    n_workers = min(engine.threads, len(bounds))
    if n_workers == 1:
        for ci, b in enumerate(bounds):
            worker(ci, *b)
        return len(bounds)

    def run(k, conn):
        current = None
        try:
            for current in range(k, len(bounds), n_workers):
                worker(current, *bounds[current])
            report = None
        except Exception as exc:  # sent to the parent, which re-raises it
            report = (current, exc)
        try:
            payload = pickle.dumps(report)
            pickle.loads(payload)
        except Exception:  # the exception cannot cross: send its repr instead
            payload = pickle.dumps((current, RuntimeError(
                f"worker process failed on chunk {current} with an exception "
                f"that cannot be sent to the parent: {report[1]!r}")))
        conn.send_bytes(payload)
        conn.close()
        os._exit(0)

    ctx = multiprocessing.get_context("fork")
    procs, errors = [], []
    try:
        for k in range(n_workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=run, args=(k, writer), daemon=True)
            proc.start()
            # later workers must not inherit this write end, or a dead
            # worker's pipe would never read EOF
            writer.close()
            procs.append((k, proc, reader))
        for k, proc, reader in procs:
            try:
                report = pickle.loads(reader.recv_bytes())
            except EOFError:
                proc.join()
                report = (k, RuntimeError(f"worker process {k} exited with code "
                                          f"{proc.exitcode} without reporting"))
            reader.close()
            proc.join()
            if report is not None:
                errors.append(report)
    finally:
        for _, proc, _ in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return len(bounds)


def _shared_zeros(shape: tuple, dtype) -> np.ndarray:
    """A zero-filled array in anonymous shared memory; forked workers' writes show here."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, count * dtype.itemsize)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def _run_cells(spec: ProblemSpec, times: np.ndarray, x0: np.ndarray, cells,
               seeds: np.ndarray, engine: EngineConfig, field: ValueField | None = None,
               rules=()) -> tuple[np.ndarray, np.ndarray]:
    """March every (strategy, adversary) cell over shared per-chunk noise.

    Noise is generated once per chunk and reused for all cells, which is
    both the common-random-numbers design and the main speedup when an
    experiment sweeps many strategy/adversary pairings.  Members are realized
    one at a time, in order of first appearance, marched against their
    strategies and dropped before the next, so a chunk holds one open-loop
    realization.  A chunk of c paths marches each member against
    ``max(1, chunk_size // c)`` of its strategies at a time, as one block
    of at most ``chunk_size`` rows (:func:`_march_chunk`); a block of
    several that raises is marched again one strategy at a time, so the
    error raised is the one a cell-by-cell march raises first.  Each cell
    writes its own slots.  Returns (values, clamps): with no ``rules``,
    values[0, ci, p] is cell ci's terminal payoff on path p; with ``rules``,
    a list of (label, rule) pairs, values[k, ci, p] is ``field`` at path p's
    (rho_k, X_rho_k), the restart state captured during the march.  Chunks
    write into shared arrays, so worker processes need not return anything,
    and ``values`` is that shared array itself, returned without a copy.
    """
    extra_dim = max(adv.extra_dim for _, adv in cells)
    n_paths = seeds.size
    rules = list(rules)
    values = _shared_zeros((max(len(rules), 1), len(cells), n_paths), np.float64)
    clamp_store = _shared_zeros((len(range(0, n_paths, engine.chunk_size)), len(cells)),
                                np.int64)
    by_adversary: dict = {}
    for ci, (strategy, adversary) in enumerate(cells):
        by_adversary.setdefault(adversary, []).append((ci, strategy))

    def worker(chunk_id, start, stop):
        chunk_seeds = seeds[start:stop]
        c = stop - start
        per_block = max(1, engine.chunk_size // c)
        dW, extra = sample_noise_batch(times, chunk_seeds, spec.noise_dim, extra_dim)
        dW_tm = dW.transpose(1, 0, 2)  # the panel's own time-major storage

        def march(strategies, v_factory):
            paths, captures = _march_chunk(spec, times, chunk_seeds, x0, strategies,
                                           v_factory, dW_tm, rules)
            if not rules:
                return [([p.payoffs], p.clamp_count) for p in paths]
            reads = [capture.values(field, times) for capture in captures]
            return [([read[s * c:(s + 1) * c] for read in reads], p.clamp_count)
                    for s, p in enumerate(paths)]

        for adversary, row in by_adversary.items():
            v_factory = _adversary_realization(adversary, spec, times, dW, extra, chunk_seeds)
            for b in range(0, len(row), per_block):
                block = row[b:b + per_block]
                try:
                    results = march([strategy for _, strategy in block], v_factory)
                except Exception:
                    if len(block) == 1:
                        raise
                    results = [march([strategy], v_factory)[0] for _, strategy in block]
                for (ci, _), (cell_values, clamps) in zip(block, results):
                    values[:, ci, start:stop] = cell_values
                    clamp_store[chunk_id, ci] = clamps
            del v_factory, results  # before the next member is realized

    _map_chunks(n_paths, engine, worker)
    return values, clamp_store.sum(axis=0)


def _mean_se(row: np.ndarray) -> tuple[float, float]:
    n = row.size
    mean = float(np.sum(row) / n)
    sd = float(np.sqrt(np.sum((row - mean) ** 2) / (n - 1)))
    return mean, sd / float(np.sqrt(n))


def _sim_times(spec: ProblemSpec, s: float, engine: EngineConfig) -> np.ndarray:
    if not 0.0 <= s < spec.horizon:
        raise ConfigError(f"start time {s} outside [0, {spec.horizon})")
    return np.linspace(s, spec.horizon, engine.n_steps + 1)


def _screen(what: str, obj, spec: ProblemSpec, engine: EngineConfig,
            master_seed: int) -> None:
    """The one non-anticipation gate: refuse ``obj`` unless it passes
    :func:`check_nonanticipative` (200 trials on the game's horizon and
    dimensions, over the run's own step count, and at least 2, so that a
    control whose realization fixes its length is probed at that length)."""
    report = check_nonanticipative(obj, n_trials=200, seed=derive_seed(master_seed, 23),
                                   n_steps=max(2, engine.n_steps),
                                   horizon=spec.horizon, state_dim=spec.dim,
                                   noise_dim=spec.noise_dim)
    if not report.passed:
        raise StrategyStructureError(f"{what} failed the non-anticipativity screen "
                                     f"({report.failures}/{report.trials} trials)")


def _march_table(spec: ProblemSpec, s: float, x0, strategies: list,
                 family: AdversaryFamily, n_paths: int, master_seed: int,
                 engine: EngineConfig, field: ValueField | None = None,
                 rules=()) -> tuple[np.ndarray, np.ndarray]:
    """The strategies x members table on one noise panel; see :func:`_run_cells`.

    Rows are strategy-major: cell ``si * len(family.members) + mi``.  Path p
    uses the seed derived from (master_seed, p), so two runs with the same
    arguments agree bitwise regardless of chunking or worker count, and
    every cell shares the noise (common random numbers).  Open-loop members
    are screened first, in this process, unless they passed on this grid
    before; feedback players' trackers see only the states up to the
    current index, so they need no screen.
    """
    if n_paths < 2:
        raise ConfigError(f"n_paths must be >= 2, got {n_paths}")
    if not strategies:
        raise ConfigError("a Monte Carlo table needs at least one strategy")
    for k, strategy in enumerate(strategies):
        if not isinstance(strategy, ElementaryStrategy):
            raise ConfigError(f"a table row is a {type(strategy).__name__}, not a strategy")
        if strategy.label in [other.label for other in strategies[:k]]:
            raise ConfigError(f"strategy label {strategy.label!r} appears more than once")
    x0 = _as_state(spec, x0)
    times = _sim_times(spec, s, engine)
    grid = (spec.horizon, spec.dim, spec.noise_dim, engine.n_steps)
    for adversary in family.members:
        if isinstance(adversary.plays, OpenLoopControl) and grid not in adversary.passed:
            _screen(f"adversary {adversary.id!r}", adversary.plays, spec, engine, master_seed)
            adversary.passed.add(grid)
    seeds = derive_seed_array(master_seed, np.arange(n_paths))
    cells = [(strat, adv) for strat in strategies for adv in family.members]
    return _run_cells(spec, times, x0, cells, seeds, engine, field, rules)


# ----------------------------------------------------------- experiments ---- #


@dataclass(eq=False)
class RobustValue:
    """Worst-case estimate over an adversary family (inner infimum)."""

    estimate: ValueEstimate
    worst_id: str
    members: dict

    @property
    def mean(self) -> float:
        return self.estimate.mean


@dataclass(eq=False)
class ValueExperimentReport:
    """Robust values for a ladder of strategies, plus the outer supremum.

    The reported value is a maximum of minima of Monte Carlo means: selection
    noise biases the inner minimum down and the outer maximum up, and the
    finite families only bound the true extrema from one side (the strategy
    ladder under-covers the supremum; the adversary family under-covers the
    infimum).  Compare against tolerances that account for both.
    """

    per_strategy: dict
    best_label: str
    best: RobustValue

    def restricted(self, family: AdversaryFamily) -> "ValueExperimentReport":
        """The same table folded over a sub-family's members, in its order."""
        missing = set(family.ids) - set(self.best.members)
        if missing:
            raise ConfigError(f"family {family.label!r} is not within the table's "
                              f"members; missing {sorted(missing)}")
        return _fold(list(self.per_strategy),
                     [[rv.members[aid] for aid in family.ids]
                      for rv in self.per_strategy.values()])

    def filtration(self, label: str, base: AdversaryFamily) -> "FiltrationReport":
        """Strategy ``label``'s row against the table's family and against ``base``."""
        enlarged = self.per_strategy[label]
        base_rv = self.restricted(base).per_strategy[label]
        se = float(np.sqrt(base_rv.estimate.std_error ** 2
                           + enlarged.estimate.std_error ** 2))
        return FiltrationReport(strategy_label=enlarged.estimate.strategy_label,
                                base=base_rv, enlarged=enlarged,
                                delta=base_rv.mean - enlarged.mean, se_combined=se)


@dataclass(eq=False)
class FiltrationReport:
    """Robust values under the base and an information-enlarged family.

    With common random numbers and enlarged >= base (by membership), delta =
    base - enlarged is exactly nonnegative; filtration independence of the
    robust value means it should also be statistically indistinguishable from
    zero at an optimal strategy.
    """

    strategy_label: str
    base: RobustValue
    enlarged: RobustValue
    delta: float
    se_combined: float


def _fold(labels: list, rows: list) -> ValueExperimentReport:
    """The one sup-inf reduction; ``rows[i][j]`` is strategy i's estimate against member j.

    Each strategy's worst member has the minimum mean, the first on ties;
    the best strategy has the largest worst mean, the first on ties.  So
    results are reproducible, and a family or ladder extended with
    duplicates gives the identical answer.
    """
    robust = []
    for row in rows:
        worst = row[int(np.argmin([est.mean for est in row]))]
        robust.append(RobustValue(estimate=worst, worst_id=worst.adversary_id,
                                  members={est.adversary_id: est for est in row}))
    best = int(np.argmax([rv.mean for rv in robust]))
    return ValueExperimentReport(per_strategy=dict(zip(labels, robust)),
                                 best_label=labels[best], best=robust[best])


def _fold_table(strategies: list, family: AdversaryFamily, values: np.ndarray,
                clamps: np.ndarray, master_seed: int,
                keep_payoffs: bool) -> ValueExperimentReport:
    """Estimate every cell of one marched table (cells x paths) and fold it."""
    n_m = len(family.members)
    rows = [[ValueEstimate(*_mean_se(values[k]), n_paths=values.shape[1],
                           seed=int(master_seed), strategy_label=strat.label,
                           adversary_id=adv.id, clamp_count=int(clamps[k]),
                           payoffs=values[k] if keep_payoffs else None)
             for k, adv in enumerate(family.members, start=si * n_m)]
            for si, strat in enumerate(strategies)]
    return _fold([strat.label for strat in strategies], rows)


def value_experiment(spec: ProblemSpec, s: float, x0, strategies,
                     family: AdversaryFamily, n_paths: int, master_seed: int,
                     engine: EngineConfig, keep_payoffs: bool = False) -> ValueExperimentReport:
    """Robust value per strategy, keeping the strategy ordering; best = max.

    ``strategies`` is a list of elementary strategies, keyed by their labels
    in the report; a label may appear once.  Every strategy/adversary cell
    is marched on the same noise panel, so the whole table is a
    common-random-numbers comparison and the noise cost is paid once per
    chunk rather than once per cell.  Every payoff estimate in
    the package is a cell of such a table.
    """
    strategies = list(strategies)
    values, clamps = _march_table(spec, s, x0, strategies, family, n_paths,
                                  master_seed, engine)
    return _fold_table(strategies, family, values[0], clamps, master_seed, keep_payoffs)


def filtration_experiment(spec: ProblemSpec, s: float, x0,
                          strategy: ElementaryStrategy, base: AdversaryFamily,
                          enlarged: AdversaryFamily, n_paths: int,
                          master_seed: int, engine: EngineConfig) -> FiltrationReport:
    """Compare worst cases over the base family and an enlarged superset.

    One 1 x m table against ``enlarged``, folded once over all of it and
    once over the base members; ``base`` must lie within ``enlarged``.
    """
    report = value_experiment(spec, s, x0, [strategy], enlarged, n_paths, master_seed,
                              engine)
    return report.filtration(strategy.label, base)


# ------------------------------------------------------------------ DPP ---- #


@dataclass(eq=False)
class DppReport:
    """One dynamic-programming check: restart value vs. the field itself."""

    rho_label: str
    field_value: float
    game_value: float
    residual: float
    std_error: float
    best_strategy: str
    worst_adversary: str
    cells: dict


def dpp_checks(spec: ProblemSpec, field: ValueField, s: float, x0, strategies,
               family: AdversaryFamily, rules, n_paths: int, master_seed: int,
               engine: EngineConfig) -> list:
    """Verify v(s, x) = sup inf E[v(rho, X_rho)] at each rule against a solved field.

    ``rules`` is a list of (label, rule) pairs; one :class:`DppReport` comes
    back per pair, in order.  Every rule is screened by :func:`_screen`
    first.  The table is marched once; each rule's monitor observes the
    march and keeps every path's state at its fire index, and the restart
    values (the field interpolated at each path's (rho, X_rho), capped at
    the horizon) are folded like :func:`value_experiment`'s payoffs.
    """
    rules = list(rules)
    if not rules:
        raise ConfigError("dynamic-programming check needs at least one rule")
    for label, rho in rules:
        _screen(f"stopping rule {label!r}", rho, spec, engine, master_seed)
    strategies = list(strategies)
    values, clamps = _march_table(spec, s, x0, strategies, family, n_paths, master_seed,
                                  engine, field, rules)
    field_value = float(field.value_at(np.asarray(s), _as_state(spec, x0)[None])[0])
    reports = []
    for (label, _), table in zip(rules, values):
        report = _fold_table(strategies, family, table, clamps, master_seed, False)
        best = report.best
        reports.append(DppReport(
            rho_label=label, field_value=field_value, game_value=best.mean,
            residual=abs(field_value - best.mean), std_error=best.estimate.std_error,
            best_strategy=report.best_label, worst_adversary=best.worst_id,
            cells={(slabel, aid): (est.mean, est.std_error)
                   for slabel, rv in report.per_strategy.items()
                   for aid, est in rv.members.items()}))
    return reports


def dpp_check(spec: ProblemSpec, field: ValueField, s: float, x0,
              strategies, family: AdversaryFamily, rho: StoppingRule,
              n_paths: int, master_seed: int, engine: EngineConfig,
              rho_label: str = "rho") -> DppReport:
    """The one-rule form of :func:`dpp_checks`."""
    return dpp_checks(spec, field, s, x0, strategies, family, [(rho_label, rho)],
                      n_paths, master_seed, engine)[0]


# ------------------------------------------------------- default families ---- #


def _fmt_point(point: np.ndarray) -> str:
    return "_".join(f"{float(c):g}" for c in np.atleast_1d(point))


def default_adversary_families(problem, lower_field: ValueField | None = None,
                               n_random: int = 3, random_segments: int = 8,
                               include_feedback: bool = True,
                               include_best_response: bool = True
                               ) -> tuple[AdversaryFamily, AdversaryFamily]:
    """The standard (base, enlarged) adversary families for a benchmark.

    Base members read at most the path and the driving noise: the constant
    controls, both polarities of the sign-of-W control, and (when a lower
    field is supplied) its worst-case feedback and per-u best-reply tables.
    The enlarged family extends the base, in order, with controls that read
    the auxiliary stream or private randomness; it is a strict superset, so
    under common random numbers its robust value can only be lower or equal.
    """
    V = problem.spec.controls_v
    members = [Adversary(f"const:{_fmt_point(V.point(j))}", ConstantControl(j))
               for j in range(V.size)]
    j_neg = int(np.argmin(V.points[:, 0]))
    j_pos = int(np.argmax(V.points[:, 0]))
    if V.size >= 2:
        members.append(Adversary("signW", SignControl(pos_index=j_pos, neg_index=j_neg)))
        members.append(Adversary("antisignW", SignControl(pos_index=j_neg, neg_index=j_pos)))
    if lower_field is not None and include_feedback:
        members.append(Adversary("worstfb", lower_field.feedback_v))
    if lower_field is not None and include_best_response:
        members.append(Adversary("bestresp", lower_field))
    base = AdversaryFamily(tuple(members), label="base")

    extras = []
    if V.size >= 2:
        extras.append(Adversary("signE", SignControl(pos_index=j_pos, neg_index=j_neg,
                                                     source="extra")))
        extras.append(Adversary("antisignE", SignControl(pos_index=j_neg, neg_index=j_pos,
                                                         source="extra")))
    for k in range(n_random):
        extras.append(Adversary(f"rand:{k}", PiecewiseRandomControl(V.size, random_segments,
                                                                    salt=k)))
    enlarged = AdversaryFamily(tuple(members) + tuple(extras), label="enlarged")
    return base, enlarged


def _ladder(feedback: FeedbackMap, k: int, spec: ProblemSpec, s: float,
            engine: EngineConfig, label: str) -> ElementaryStrategy:
    """Grid feedback read at the simulation grid points nearest to k even splits of [s, T]."""
    if k < 1:
        raise ConfigError(f"decision count must be >= 1, got {k}")
    idx = np.unique(np.round(np.linspace(0, engine.n_steps, int(k) + 1)).astype(int))
    return make_grid_strategy(feedback, _sim_times(spec, s, engine)[idx], label=label)


def default_strategy_family(problem, lower_field: ValueField, decision_counts,
                            s: float, engine: EngineConfig) -> list:
    """Grid-feedback strategies reading the lower field at k decision times
    (see :func:`_ladder`), in the given order for monotonicity reporting."""
    return [_ladder(lower_field.feedback_u, k, problem.spec, s, engine, f"grid{k}")
            for k in decision_counts]


def _constant_strategy(control_set, index: int, s: float, horizon: float,
                       label: str) -> ElementaryStrategy:
    return ElementaryStrategy(control_set=control_set, start_rule=FixedTimeRule(s),
                              rules=(FixedTimeRule(horizon),),
                              actions=(ConstantAction(index),), label=label)


def builtin_pairs(problem, lower_field: ValueField, upper_field: ValueField,
                  s: float, engine: EngineConfig) -> list:
    """The built-in (alpha, beta) strategy pairs for the embedding suite, alpha-major."""
    spec = problem.spec
    T = spec.horizon
    ladder = lambda feedback, k, label: _ladder(feedback, k, spec, s, engine, label)
    alphas = [_constant_strategy(spec.controls_u, 0, s, T, "alpha:const0"),
              ladder(lower_field.feedback_u, 4, "alpha:grid4"),
              ladder(lower_field.feedback_u, 8, "alpha:grid8")]
    j_last = spec.controls_v.size - 1
    hit_switch = ElementaryStrategy(
        control_set=spec.controls_v, start_rule=FixedTimeRule(s),
        rules=(HittingRule(AbsRegion(1.0)), FixedTimeRule(T)),
        actions=(ConstantAction(0), ConstantAction(j_last)), label="beta:hitswitch")
    betas = [_constant_strategy(spec.controls_v, j_last, s, T, "beta:const_last"),
             ladder(upper_field.feedback_v, 4, "beta:grid4"),
             hit_switch]
    return [(alpha, beta) for alpha in alphas for beta in betas]
