"""Monte Carlo engine for the game: strong-formulation simulation and values.

The controller always plays an elementary feedback strategy.  The adversary
side is an :class:`Adversary` wrapper around one of four kinds:

``open_loop``
    An :class:`~robustctl.strategies.OpenLoopControl`, reading noise only.
``feedback``
    A state-feedback table v(t, x), re-read every step.
``best_response``
    A table v(t, x, u) answering the controller's current action, taken
    from a solved field's per-u best-reply certificate.
``strategy``
    Another elementary strategy, for strategy-vs-strategy games.

State-feedback kinds are not open-loop objects, but every trajectory they
produce is reproduced exactly by replaying the recorded control path as an
open-loop control against the same noise (:func:`embed_feedback_as_openloop`
asserts this bitwise), which is what makes them legitimate members of the
adversary families used for inner infima.

One chunked batch engine computes every trajectory.  :func:`estimate_payoff`
and the experiments march chunks of paths; the single-path entry points
(:func:`simulate_strong`, :func:`simulate_feedback_pair` and, through them,
:func:`embed_feedback_as_openloop`) march a chunk of one.  Strategies are
played by :class:`~robustctl.strategies.StrategyTracker`, which the tests
check against the per-step recomputation in
:func:`~robustctl.strategies.strategy_control_sequence`.  With
``EngineConfig.threads > 1`` the chunks are marched in worker processes
started by fork, which write their results into arrays shared with the
parent.  Results are bitwise invariant to chunk size and worker count: path
seeds are derived per path index, chunks only group work, and all reductions
run over fully assembled arrays.
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
from .sde_core import (NoisePath, ProblemSpec, STREAM_BROWNIAN, STREAM_EXTRA,
                       derive_seed, derive_seed_array, eval_diffusion,
                       eval_drift, eval_payoff)
from .strategies import (_NOT_YET, AbsRegion, ConstantAction, ConstantControl,
                         ElementaryStrategy, FeedbackMap, FixedTimeRule,
                         HittingRule, OpenLoopControl, PiecewiseRandomControl,
                         ReplayControl, SignControl, StoppingRule, StrategyTracker,
                         _rule_monitor, check_nonanticipative, make_grid_strategy)

__all__ = [
    "Trajectory", "ValueEstimate", "EngineConfig",
    "Adversary", "AdversaryFamily", "BestResponseTable",
    "simulate_strong", "simulate_feedback_pair",
    "EmbeddingResult", "embed_feedback_as_openloop",
    "estimate_payoff", "RobustValue", "robust_value",
    "ValueExperimentReport", "value_experiment",
    "FiltrationReport", "filtration_experiment",
    "DppReport", "dpp_check",
    "default_adversary_families", "default_strategy_family", "builtin_pairs",
]


# ------------------------------------------------------------- data types ---- #


@dataclass(eq=False)
class Trajectory:
    """One simulated path with the control indices actually played."""

    times: np.ndarray
    states: np.ndarray
    u_indices: np.ndarray
    v_indices: np.ndarray
    payoff: float
    seed: int
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

    ``threads`` is the number of worker processes (started by fork) that
    march chunks side by side; 1 marches every chunk in this process.
    Results are bitwise the same for any ``chunk_size`` and ``threads``;
    they exist for memory and speed only.  ``extra_dim`` overrides the
    auxiliary noise width (default: whatever the adversary requires).
    """

    n_steps: int
    chunk_size: int = 8192
    threads: int = 1
    extra_dim: int | None = None

    def __post_init__(self):
        if self.n_steps < 1 or self.chunk_size < 1 or self.threads < 1:
            raise ConfigError("EngineConfig: n_steps, chunk_size, threads must be >= 1")
        if self.threads > 1 and "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(f"EngineConfig: threads={self.threads} needs worker processes "
                              "started by 'fork', which this platform does not offer")


@dataclass(eq=False)
class BestResponseTable:
    """Adversary reply v(t, x, u) tabulated per controller action.

    ``table[layer, u_index, cell...]`` holds the reply index on the space-time
    grid of ``grid``, a feedback map that also does the snapping; built from
    the per-u best-reply certificate of a solved lower field.
    """

    grid: FeedbackMap
    table: np.ndarray

    @classmethod
    def from_field(cls, field: ValueField) -> "BestResponseTable":
        return cls(grid=field.feedback_v, table=field.response_v)

    def lookup_batch(self, t: float, u_indices: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.table[(self.grid.layer_of(t), u_indices) + self.grid._cells_of(x)]


_ADVERSARY_KINDS = ("open_loop", "feedback", "best_response", "strategy")


@dataclass(eq=False)
class Adversary:
    """One adversary the inner infimum ranges over, with a stable id."""

    id: str
    kind: str
    control: OpenLoopControl | None = None
    feedback: FeedbackMap | None = None
    response: BestResponseTable | None = None
    strategy: ElementaryStrategy | None = None

    def __post_init__(self):
        if self.kind not in _ADVERSARY_KINDS:
            raise ConfigError(f"adversary {self.id!r}: unknown kind {self.kind!r}")
        payload = {"open_loop": self.control, "feedback": self.feedback,
                   "best_response": self.response, "strategy": self.strategy}[self.kind]
        if payload is None:
            raise ConfigError(f"adversary {self.id!r}: kind {self.kind!r} payload missing")

    @property
    def info_level(self) -> str:
        if self.kind == "open_loop":
            return self.control.info_level
        return "brownian_only"

    @property
    def extra_dim(self) -> int:
        return self.control.extra_dim if self.kind == "open_loop" else 0

    @property
    def anticipating(self) -> bool:
        obj = {"open_loop": self.control, "strategy": self.strategy}.get(self.kind)
        return bool(getattr(obj, "anticipating", False))


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

    @property
    def max_extra_dim(self) -> int:
        return max(m.extra_dim for m in self.members)


# ------------------------------------------------- single-path entry points ---- #


def _refuse_anticipating(cells) -> None:
    for strategy, adversary in cells:
        if strategy.anticipating or adversary.anticipating:
            raise StrategyStructureError(
                "anticipating strategies/controls are test fixtures; refusing to simulate")


def _simulate_path(spec: ProblemSpec, strategy: ElementaryStrategy,
                   adversary: Adversary, noise: NoisePath, x0) -> Trajectory:
    """One path on the given noise, marched by the batch engine as a chunk of one."""
    x0 = _as_state(spec, x0)
    _refuse_anticipating([(strategy, adversary)])
    if adversary.extra_dim > noise.extra.shape[1]:
        raise ConfigError(f"adversary {adversary.id!r} needs extra_dim >= "
                          f"{adversary.extra_dim}, noise provides {noise.extra.shape[1]}")
    seeds = np.array([noise.seed], dtype=np.uint64)
    payoffs, clamps, (states, u_paths, v_paths) = _march_chunk(
        spec, noise.times, seeds, x0, strategy, adversary, noise.dW[None],
        noise.extra[None], record_states=True)
    return Trajectory(times=noise.times, states=states[0],
                      u_indices=u_paths[0].astype(np.int64),
                      v_indices=v_paths[0].astype(np.int64), payoff=float(payoffs[0]),
                      seed=noise.seed, clamp_count=clamps)


def simulate_strong(spec: ProblemSpec, strategy: ElementaryStrategy,
                    control: OpenLoopControl, noise: NoisePath,
                    x0: np.ndarray) -> Trajectory:
    """One path of the strong-formulation game: feedback u against open-loop v.

    The control's index path is realized from the noise up front (it is
    state-independent by definition) and consumed step by step.
    """
    adversary = Adversary(id=control.label, kind="open_loop", control=control)
    return _simulate_path(spec, strategy, adversary, noise, x0)


def simulate_feedback_pair(spec: ProblemSpec, alpha: ElementaryStrategy,
                           beta: ElementaryStrategy, noise: NoisePath,
                           x0: np.ndarray) -> Trajectory:
    """One path with both players running elementary feedback strategies."""
    adversary = Adversary(id=beta.label, kind="strategy", strategy=beta)
    return _simulate_path(spec, alpha, adversary, noise, x0)


@dataclass(eq=False)
class EmbeddingResult:
    """A feedback-vs-feedback path and its open-loop replay, verified equal."""

    closed_loop: Trajectory
    replayed: Trajectory
    control: ReplayControl


def embed_feedback_as_openloop(spec: ProblemSpec, alpha: ElementaryStrategy,
                               beta: ElementaryStrategy, noise: NoisePath,
                               x0: np.ndarray) -> EmbeddingResult:
    """Record beta's moves along the pair trajectory and replay them open loop.

    The replayed trajectory must match the closed-loop one bitwise in
    states and in both control paths; any discrepancy raises
    :class:`EmbeddingMismatchError`.  This is the pathwise mechanism that
    embeds feedback adversaries into the open-loop adversary class.
    """
    closed = simulate_feedback_pair(spec, alpha, beta, noise, x0)
    control = ReplayControl(indices=tuple(int(j) for j in closed.v_indices),
                            label=f"replay[{beta.label}]")
    replayed = simulate_strong(spec, alpha, control, noise, _as_state(spec, x0))
    if not np.array_equal(closed.states, replayed.states):
        diff = np.abs(closed.states - replayed.states)
        step = int(np.argmax(np.any(diff > 0, axis=tuple(range(1, diff.ndim)))))
        raise EmbeddingMismatchError(
            f"replayed trajectory diverges at step {step}",
            step=step, max_abs_diff=float(diff.max()))
    for name, a, b in (("u", closed.u_indices, replayed.u_indices),
                       ("v", closed.v_indices, replayed.v_indices)):
        if not np.array_equal(a, b):
            step = int(np.argmax(a != b))
            raise EmbeddingMismatchError(
                f"replayed {name}-controls diverge at step {step}", step=step)
    return EmbeddingResult(closed_loop=closed, replayed=replayed, control=control)


def _as_state(spec: ProblemSpec, x0) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (spec.dim,):
        raise ConfigError(f"start state shape {x0.shape}, expected ({spec.dim},)")
    return x0


# ----------------------------------------------------------- batch engine ---- #


def _chunk_noise(times: np.ndarray, seeds: np.ndarray, noise_dim: int,
                 extra_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path Philox noise for a chunk; row p matches sample_noise(seeds[p]).

    One bit generator is recycled through all paths by resetting its state
    (key = path seed, counter stream word, empty buffer), which draws the
    exact same numbers as constructing it fresh but skips the construction
    cost.  The scale multiply happens on the full block afterwards;
    elementwise, so still bitwise equal to scaling row by row.
    """
    n = times.size - 1
    scale = np.sqrt(np.diff(times))[:, None]
    dW = np.empty((seeds.size, n, noise_dim))
    extra = np.empty((seeds.size, n, extra_dim))
    bg = np.random.Philox(key=np.uint64(0))
    gen = np.random.Generator(bg)
    state = bg.state
    key = state["state"]["key"]
    counter = state["state"]["counter"]
    buffer = state["buffer"]

    def reset(seed_word, stream):
        key[0] = seed_word
        key[1] = 0
        counter[:] = 0
        counter[3] = stream
        buffer[:] = 0
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        bg.state = state

    for p in range(seeds.size):
        reset(seeds[p], STREAM_BROWNIAN)
        gen.standard_normal(out=dW[p])
        if extra_dim:
            reset(seeds[p], STREAM_EXTRA)
            gen.standard_normal(out=extra[p])
    dW *= scale
    if extra_dim:
        extra *= scale
    return dW, extra


def _adversary_realization(adversary: Adversary, spec: ProblemSpec, times: np.ndarray,
                           dW: np.ndarray, extra: np.ndarray, seeds: np.ndarray):
    """Strategy-independent batch form of an adversary on one chunk's noise.

    Returns a factory() -> (step_fn, tracker_or_None) with step_fn(i, X,
    u_idx) -> (n,) v indices.  Open-loop controls are realized here, once
    per chunk, so every strategy cell marched on this chunk shares the
    realization; strategy-kind adversaries are stateful and get a fresh
    tracker per cell instead.
    """
    n_v = spec.controls_v.size
    if adversary.kind == "open_loop":
        paths = np.asarray(adversary.control.realize_batch(times, dW, extra, seeds),
                           dtype=np.int64)
        if paths.size and (paths.min() < 0 or paths.max() >= n_v):
            raise ModelEvaluationError(
                f"adversary {adversary.id!r} produced indices outside [0, {n_v})")
        # time-major so each step reads one contiguous row
        paths_tm = np.ascontiguousarray(paths.astype(np.int32).T)
        step = lambda i, X, u_idx: paths_tm[i]
        return lambda: (step, None)
    if adversary.kind == "feedback":
        fb = adversary.feedback
        step = lambda i, X, u_idx: fb.lookup_index_batch(float(times[i]), X)
        return lambda: (step, None)
    if adversary.kind == "best_response":
        table = adversary.response
        step = lambda i, X, u_idx: table.lookup_batch(float(times[i]), u_idx, X)
        return lambda: (step, None)
    def factory():
        tracker = StrategyTracker(adversary.strategy, times, seeds.size)

        def from_strategy(i, X, u_idx):
            v = tracker.on_state(i, X)
            if not tracker.all_defined:
                raise StrategyIntervalError(
                    f"adversary strategy {adversary.strategy.label!r} inactive on step {i}")
            # an index past the set would decode as another (u, v) pair in _step_batch
            if v.min() < 0 or v.max() >= n_v:
                raise ModelEvaluationError(
                    f"adversary {adversary.id!r} produced indices outside [0, {n_v}) on step {i}")
            return v

        return from_strategy, tracker

    return factory


def _probe_coefficients(spec: ProblemSpec, t: float, X: np.ndarray) -> None:
    """Validated evaluation of every control pair once, so the step loop can
    call the raw callbacks; a shape bug is structural and shows on any state."""
    for iu in range(spec.controls_u.size):
        for jv in range(spec.controls_v.size):
            u, v = spec.controls_u.point(iu), spec.controls_v.point(jv)
            eval_drift(spec, t, X, u, v)
            eval_diffusion(spec, t, X, u, v)


def _step_uniform(spec: ProblemSpec, t: float, dt: float, X: np.ndarray,
                  iu: int, jv: int, dWi: np.ndarray) -> None:
    # in-place x += b dt; x += sig dW keeps euler_step's association exactly
    u, v = spec.controls_u.point(iu), spec.controls_v.point(jv)
    b = np.asarray(spec.drift(t, X, u, v), dtype=float)
    sig = np.asarray(spec.diffusion(t, X, u, v), dtype=float)
    X += b * dt
    X += (sig * dWi[..., None, :]).sum(axis=-1)


def _step_batch(spec: ProblemSpec, t: float, dt: float, X: np.ndarray,
                u_idx: np.ndarray, v_idx: np.ndarray, dWi: np.ndarray,
                rows: np.ndarray | None = None) -> None:
    """One Euler step in place, with paths grouped by their (u, v) pair.

    Steps where every path shares one pair (the pair code's min equals its
    max, which every one-path march has) take the uniform path before any
    grouping.  Mixed steps are about as common (in a full run of the test
    suite, about half of the batched steps had paths on more than one pair);
    they evaluate each live pair on the full state block and gather per row.
    The coefficient contract (vectorized, row i depends on x[i] alone) makes
    that the same floats as a per-group evaluation, without mask extraction
    and scatter.
    """
    n_u, n_v = spec.controls_u.size, spec.controls_v.size
    if n_u == 1 and n_v == 1:
        return _step_uniform(spec, t, dt, X, 0, 0, dWi)
    code = u_idx * n_v + v_idx
    lo = int(code.min())
    if lo == int(code.max()):
        iu, jv = divmod(lo, n_v)
        return _step_uniform(spec, t, dt, X, iu, jv, dWi)
    codes = np.flatnonzero(np.bincount(code, minlength=n_u * n_v))
    slot = np.empty(n_u * n_v, dtype=np.intp)
    B = np.empty((codes.size,) + X.shape)
    S = np.empty((codes.size,) + X.shape + (dWi.shape[-1],))
    for k, c in enumerate(codes):
        slot[c] = k
        iu, jv = divmod(int(c), n_v)
        u, v = spec.controls_u.point(iu), spec.controls_v.point(jv)
        B[k] = spec.drift(t, X, u, v)
        S[k] = spec.diffusion(t, X, u, v)
    if rows is None:
        rows = np.arange(X.shape[0])
    sel = slot[code]
    X += B[sel, rows] * dt
    X += (S[sel, rows] * dWi[..., None, :]).sum(axis=-1)


def _march_chunk(spec: ProblemSpec, times: np.ndarray, seeds: np.ndarray,
                 x0: np.ndarray, strategy: ElementaryStrategy,
                 adversary: Adversary, dW: np.ndarray, extra: np.ndarray,
                 dW_tm: np.ndarray | None = None, v_factory=None,
                 record_states: bool = False):
    """Payoffs, clamp count and (optionally) recorded paths for one chunk.

    ``dW`` is path-major (c, N, noise_dim); ``dW_tm`` is the same increments
    time-major (N, c, noise_dim) so step slices are contiguous, built here
    when the caller did not share one.  ``v_factory`` is a prebuilt
    adversary realization for this chunk (see :func:`_adversary_realization`),
    also built here when not shared.  With ``record_states`` the third
    result is (states (c, N+1, dim), u indices (c, N), v indices (c, N)),
    else None; the indices are int32 to keep recorded chunks small.
    """
    n = times.size - 1
    c = seeds.size
    n_u = spec.controls_u.size
    for action in strategy.actions:
        # checked once here: the tracker and the step kernel index unchecked
        if isinstance(action, ConstantAction) and not 0 <= action.index < n_u:
            raise ModelEvaluationError(
                f"strategy {strategy.label!r} plays index {action.index} outside [0, {n_u})")
    u_tracker = StrategyTracker(strategy, times, c)
    if v_factory is None:
        v_factory = _adversary_realization(adversary, spec, times, dW, extra, seeds)
    v_source, v_tracker = v_factory()
    if dW_tm is None:
        dW_tm = np.ascontiguousarray(dW.transpose(1, 0, 2))
    X = np.broadcast_to(x0, (c, spec.dim)).copy()
    _probe_coefficients(spec, float(times[0]), X)
    recorded = None
    if record_states:
        states = np.empty((c, n + 1, spec.dim))
        states[:, 0] = X
        u_paths = np.empty((c, n), dtype=np.int32)
        v_paths = np.empty((c, n), dtype=np.int32)
        recorded = (states, u_paths, v_paths)
    dts = np.diff(times)
    rows = np.arange(c)
    for i in range(n):
        u_idx = u_tracker.on_state(i, X)
        if not u_tracker.all_defined:
            raise StrategyIntervalError(
                f"strategy {strategy.label!r} inactive on step {i} (t={times[i]})")
        v_idx = v_source(i, X, u_idx)
        _step_batch(spec, float(times[i]), float(dts[i]), X, u_idx, v_idx,
                    dW_tm[i], rows)
        # a single reduce; any nan/inf entry forces a non-finite total
        if not np.isfinite(float(X.sum())):
            finite_rows = np.all(np.isfinite(X), axis=-1)
            bad = int(np.argmin(finite_rows)) if not finite_rows.all() \
                else int(np.argmax(np.abs(X).max(axis=-1)))
            raise SimulationBlowUpError(
                f"state left the finite range at t={times[i + 1]} (seed {int(seeds[bad])})",
                t=float(times[i + 1]), state=X[bad].copy(), seed=int(seeds[bad]))
        if record_states:
            states[:, i + 1] = X
            u_paths[:, i] = u_idx
            v_paths[:, i] = v_idx
    payoffs = eval_payoff(spec, X)
    clamps = u_tracker.clamp_count + (v_tracker.clamp_count if v_tracker else 0)
    return payoffs, clamps, recorded


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


def _n_chunks(n_paths: int, chunk_size: int) -> int:
    return (n_paths + chunk_size - 1) // chunk_size


def _run_cells(spec: ProblemSpec, times: np.ndarray, x0: np.ndarray, cells,
               seeds: np.ndarray, engine: EngineConfig,
               postprocess=None) -> tuple[np.ndarray, np.ndarray]:
    """March every (strategy, adversary) cell over shared per-chunk noise.

    Noise is generated once per chunk and reused for all cells, which is
    both the common-random-numbers design and the main speedup when an
    experiment sweeps many strategy/adversary pairings.  Returns (values,
    clamps): values[ci, p] is path p's terminal payoff for cell ci, or
    postprocess(times, states) when a postprocess is given (it receives the
    chunk's recorded paths and must return one value per path).  Chunks
    write into shared arrays, so worker processes need not return anything.
    """
    _refuse_anticipating(cells)
    needed = max(adv.extra_dim for _, adv in cells)
    extra_dim = needed if engine.extra_dim is None else engine.extra_dim
    if extra_dim < needed:
        raise ConfigError(f"engine extra_dim {extra_dim} below required {needed}")
    n_paths = seeds.size
    values = _shared_zeros((len(cells), n_paths), np.float64)
    clamp_store = _shared_zeros((_n_chunks(n_paths, engine.chunk_size), len(cells)),
                                np.int64)
    record = postprocess is not None

    def worker(chunk_id, start, stop):
        chunk_seeds = seeds[start:stop]
        dW, extra = _chunk_noise(times, chunk_seeds, spec.noise_dim, extra_dim)
        dW_tm = np.ascontiguousarray(dW.transpose(1, 0, 2))
        factories: dict = {}
        for _, adversary in cells:
            if adversary not in factories:
                factories[adversary] = _adversary_realization(
                    adversary, spec, times, dW, extra, chunk_seeds)
        for ci, (strategy, adversary) in enumerate(cells):
            payoffs, clamps, recorded = _march_chunk(spec, times, chunk_seeds, x0,
                                                     strategy, adversary, dW, extra,
                                                     dW_tm=dW_tm,
                                                     v_factory=factories[adversary],
                                                     record_states=record)
            values[ci, start:stop] = postprocess(times, recorded[0]) if record else payoffs
            clamp_store[chunk_id, ci] = clamps

    _map_chunks(n_paths, engine, worker)
    return values.copy(), clamp_store.sum(axis=0)


def _mean_se(row: np.ndarray) -> tuple[float, float]:
    n = row.size
    mean = float(np.sum(row) / n)
    sd = float(np.sqrt(np.sum((row - mean) ** 2) / (n - 1)))
    return mean, sd / float(np.sqrt(n))


def _sim_times(spec: ProblemSpec, s: float, engine: EngineConfig) -> np.ndarray:
    if not 0.0 <= s < spec.horizon:
        raise ConfigError(f"start time {s} outside [0, {spec.horizon})")
    return np.linspace(s, spec.horizon, engine.n_steps + 1)


def estimate_payoff(spec: ProblemSpec, s: float, x0, strategy: ElementaryStrategy,
                    adversary: Adversary, n_paths: int, master_seed: int,
                    engine: EngineConfig, keep_payoffs: bool = False) -> ValueEstimate:
    """Mean payoff over n_paths independent paths, with its standard error.

    Path p uses the seed derived from (master_seed, p), so two runs with the
    same arguments agree bitwise regardless of chunking or threading, and
    runs with the same master seed share noise across strategies and
    adversaries (common random numbers).
    """
    if n_paths < 2:
        raise ConfigError(f"n_paths must be >= 2, got {n_paths}")
    x0 = _as_state(spec, x0)
    times = _sim_times(spec, s, engine)
    seeds = derive_seed_array(master_seed, np.arange(n_paths))
    values, clamps = _run_cells(spec, times, x0, [(strategy, adversary)], seeds, engine)
    mean, se = _mean_se(values[0])
    return ValueEstimate(mean=mean, std_error=se,
                         n_paths=n_paths, seed=int(master_seed),
                         strategy_label=strategy.label, adversary_id=adversary.id,
                         clamp_count=int(clamps[0]),
                         payoffs=values[0] if keep_payoffs else None)


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


def _collect_robust(strategy: ElementaryStrategy, family: AdversaryFamily,
                    values: np.ndarray, clamps: np.ndarray, n_paths: int,
                    master_seed: int, keep_payoffs: bool) -> RobustValue:
    """Fold one strategy's member rows into a RobustValue (min, first on ties)."""
    members: dict = {}
    worst = None
    for mi, adv in enumerate(family.members):
        mean, se = _mean_se(values[mi])
        est = ValueEstimate(mean=mean, std_error=se, n_paths=n_paths,
                            seed=int(master_seed), strategy_label=strategy.label,
                            adversary_id=adv.id, clamp_count=int(clamps[mi]),
                            payoffs=values[mi] if keep_payoffs else None)
        members[adv.id] = est
        if worst is None or est.mean < worst.mean:
            worst = est
    return RobustValue(estimate=worst, worst_id=worst.adversary_id, members=members)


def robust_value(spec: ProblemSpec, s: float, x0, strategy: ElementaryStrategy,
                 family: AdversaryFamily, n_paths: int, master_seed: int,
                 engine: EngineConfig, keep_payoffs: bool = False) -> RobustValue:
    """min over the family of estimated payoffs, all under the same noise.

    Ties keep the earliest member, so results are reproducible and a family
    extended with duplicates gives the identical answer.
    """
    if n_paths < 2:
        raise ConfigError(f"n_paths must be >= 2, got {n_paths}")
    x0 = _as_state(spec, x0)
    times = _sim_times(spec, s, engine)
    seeds = derive_seed_array(master_seed, np.arange(n_paths))
    cells = [(strategy, adv) for adv in family.members]
    values, clamps = _run_cells(spec, times, x0, cells, seeds, engine)
    return _collect_robust(strategy, family, values, clamps, n_paths,
                           master_seed, keep_payoffs)


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


def value_experiment(spec: ProblemSpec, s: float, x0, strategies,
                     family: AdversaryFamily, n_paths: int, master_seed: int,
                     engine: EngineConfig, keep_payoffs: bool = False) -> ValueExperimentReport:
    """Robust value per strategy, keeping the strategy ordering; best = max.

    Every strategy/adversary cell is marched on the same noise panel, so the
    whole table is a common-random-numbers comparison and the noise cost is
    paid once per chunk rather than once per cell.
    """
    if n_paths < 2:
        raise ConfigError(f"n_paths must be >= 2, got {n_paths}")
    strategies = list(strategies)
    if not strategies:
        raise ConfigError("value experiment needs at least one strategy")
    x0 = _as_state(spec, x0)
    times = _sim_times(spec, s, engine)
    seeds = derive_seed_array(master_seed, np.arange(n_paths))
    cells = [(strat, adv) for _, strat in strategies for adv in family.members]
    values, clamps = _run_cells(spec, times, x0, cells, seeds, engine)
    n_m = len(family.members)
    per: dict = {}
    best_label, best = None, None
    for si, (label, strat) in enumerate(strategies):
        rows = slice(si * n_m, (si + 1) * n_m)
        rv = _collect_robust(strat, family, values[rows], clamps[rows],
                             n_paths, master_seed, keep_payoffs)
        per[label] = rv
        if best is None or rv.mean > best.mean:
            best_label, best = label, rv
    return ValueExperimentReport(per_strategy=per, best_label=best_label, best=best)


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


def filtration_experiment(spec: ProblemSpec, s: float, x0,
                          strategy: ElementaryStrategy, base: AdversaryFamily,
                          enlarged: AdversaryFamily, n_paths: int,
                          master_seed: int, engine: EngineConfig) -> FiltrationReport:
    """Compare worst cases over the base family and an enlarged superset."""
    missing = set(base.ids) - set(enlarged.ids)
    if missing:
        raise ConfigError(
            f"enlarged family must contain the base family; missing {sorted(missing)}")
    if n_paths < 2:
        raise ConfigError(f"n_paths must be >= 2, got {n_paths}")
    x0 = _as_state(spec, x0)
    times = _sim_times(spec, s, engine)
    seeds = derive_seed_array(master_seed, np.arange(n_paths))
    cells = [(strategy, adv) for adv in enlarged.members]
    values, clamps = _run_cells(spec, times, x0, cells, seeds, engine)
    rv_enl = _collect_robust(strategy, enlarged, values, clamps, n_paths,
                             master_seed, False)
    row_of = {adv.id: mi for mi, adv in enumerate(enlarged.members)}
    rows = [row_of[aid] for aid in base.ids]
    rv_base = _collect_robust(strategy, base, values[rows], clamps[rows],
                              n_paths, master_seed, False)
    delta = rv_base.mean - rv_enl.mean
    se = float(np.sqrt(rv_base.estimate.std_error ** 2 + rv_enl.estimate.std_error ** 2))
    return FiltrationReport(strategy_label=strategy.label, base=rv_base,
                            enlarged=rv_enl, delta=delta, se_combined=se)


# ------------------------------------------------------------------ DPP ---- #


def _fire_batch(rule: StoppingRule, times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Fire indices of a rule on recorded paths (c, N+1, d), capped at the horizon.

    Replays the rule's batch monitor, the one :class:`StrategyTracker` runs,
    over the recorded states.
    """
    cap = states.shape[1] - 1
    monitor = _rule_monitor(rule, times, states.shape[0])
    for j in range(cap + 1):
        monitor.observe(j, states[:, j])
    fire = monitor.fired_by(cap)
    return np.where(fire == _NOT_YET, cap, fire)


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


def dpp_check(spec: ProblemSpec, field: ValueField, s: float, x0,
              strategies, family: AdversaryFamily, rho: StoppingRule,
              n_paths: int, master_seed: int, engine: EngineConfig,
              rho_label: str = "rho", gate_trials: int = 200) -> DppReport:
    """Verify v(s, x) = sup inf E[v(rho, X_rho)] against a solved field.

    ``rho`` is screened by :func:`check_nonanticipative` first; an
    anticipating rule is refused outright.  The restart value reads the field
    by interpolation at each path's (rho, X_rho), capped at the horizon.
    """
    gate = check_nonanticipative(rho, n_trials=gate_trials,
                                 seed=derive_seed(master_seed, 23),
                                 n_steps=min(64, engine.n_steps), horizon=spec.horizon)
    if not gate.passed:
        raise StrategyStructureError(
            f"stopping rule {rho_label!r} failed the non-anticipativity screen "
            f"({gate.failures}/{gate.trials} trials)")
    if n_paths < 2:
        raise ConfigError(f"n_paths must be >= 2, got {n_paths}")
    strategies = list(strategies)
    if not strategies:
        raise ConfigError("dynamic-programming check needs at least one strategy")
    x0 = _as_state(spec, x0)
    times = _sim_times(spec, s, engine)
    seeds = derive_seed_array(master_seed, np.arange(n_paths))

    def restart_value(times_, states):
        fire = _fire_batch(rho, times_, states)
        x_fire = states[np.arange(states.shape[0]), fire]
        return field.value_at(times_[fire], x_fire)

    cell_list = [(strat, adv) for _, strat in strategies for adv in family.members]
    values, _ = _run_cells(spec, times, x0, cell_list, seeds, engine,
                           postprocess=restart_value)
    n_m = len(family.members)
    cells: dict = {}
    best_label, best_mean, best_se, worst_of_best = None, None, None, None
    for si, (label, _) in enumerate(strategies):
        worst_id, worst_mean, worst_se = None, None, None
        for mi, adv in enumerate(family.members):
            mean, se = _mean_se(values[si * n_m + mi])
            cells[(label, adv.id)] = (mean, se)
            if worst_mean is None or mean < worst_mean:
                worst_id, worst_mean, worst_se = adv.id, mean, se
        if best_mean is None or worst_mean > best_mean:
            best_label, best_mean, best_se, worst_of_best = label, worst_mean, worst_se, worst_id
    field_value = float(field.value_at(np.asarray(s), x0[None])[0])
    return DppReport(rho_label=rho_label, field_value=field_value,
                     game_value=best_mean, residual=abs(field_value - best_mean),
                     std_error=best_se, best_strategy=best_label,
                     worst_adversary=worst_of_best, cells=cells)


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
    members = [Adversary(id=f"const:{_fmt_point(V.point(j))}", kind="open_loop",
                         control=ConstantControl(j)) for j in range(V.size)]
    if V.size >= 2:
        j_neg = int(np.argmin(V.points[:, 0]))
        j_pos = int(np.argmax(V.points[:, 0]))
        members.append(Adversary(id="signW", kind="open_loop",
                                 control=SignControl(pos_index=j_pos, neg_index=j_neg)))
        members.append(Adversary(id="antisignW", kind="open_loop",
                                 control=SignControl(pos_index=j_neg, neg_index=j_pos)))
    if lower_field is not None and include_feedback:
        members.append(Adversary(id="worstfb", kind="feedback",
                                 feedback=lower_field.feedback_v))
    if lower_field is not None and include_best_response:
        members.append(Adversary(id="bestresp", kind="best_response",
                                 response=BestResponseTable.from_field(lower_field)))
    base = AdversaryFamily(tuple(members), label="base")

    extras = []
    if V.size >= 2:
        j_neg = int(np.argmin(V.points[:, 0]))
        j_pos = int(np.argmax(V.points[:, 0]))
        extras.append(Adversary(id="signE", kind="open_loop",
                                control=SignControl(pos_index=j_pos, neg_index=j_neg,
                                                    source="extra")))
        extras.append(Adversary(id="antisignE", kind="open_loop",
                                control=SignControl(pos_index=j_neg, neg_index=j_pos,
                                                    source="extra")))
    for k in range(n_random):
        extras.append(Adversary(id=f"rand:{k}", kind="open_loop",
                                control=PiecewiseRandomControl(V.size, random_segments,
                                                               salt=k)))
    enlarged = AdversaryFamily(tuple(members) + tuple(extras), label="enlarged")
    return base, enlarged


def default_strategy_family(problem, lower_field: ValueField, decision_counts,
                            s: float, engine: EngineConfig) -> list:
    """Grid-feedback strategies reading the lower field at k decision times.

    Decision times are the simulation grid points nearest to an even split,
    so every strategy is simulatable exactly; counts are kept in the given
    order for monotonicity reporting.
    """
    times = np.linspace(s, problem.spec.horizon, engine.n_steps + 1)
    out = []
    for k in decision_counts:
        if k < 1:
            raise ConfigError(f"decision count must be >= 1, got {k}")
        idx = np.unique(np.round(np.linspace(0, engine.n_steps, int(k) + 1)).astype(int))
        if idx.size < 2:
            raise ConfigError(f"decision count {k} collapses on a {engine.n_steps}-step grid")
        strat = make_grid_strategy(lower_field.feedback_u, times[idx], label=f"grid{k}")
        out.append((f"grid{k}", strat))
    return out


def _constant_strategy(control_set, index: int, s: float, horizon: float,
                       label: str) -> ElementaryStrategy:
    return ElementaryStrategy(control_set=control_set, start_rule=FixedTimeRule(s),
                              rules=(FixedTimeRule(horizon),),
                              actions=(ConstantAction(index),), label=label)


def builtin_pairs(problem, lower_field: ValueField, upper_field: ValueField,
                  s: float, engine: EngineConfig) -> list:
    """The built-in (alpha, beta) strategy pairs for the embedding suite."""
    spec = problem.spec
    T = spec.horizon
    times = np.linspace(s, T, engine.n_steps + 1)

    def ladder(feedback, k, label):
        idx = np.unique(np.round(np.linspace(0, engine.n_steps, k + 1)).astype(int))
        return make_grid_strategy(feedback, times[idx], label=label)

    alphas = [
        ("alpha:const0", _constant_strategy(spec.controls_u, 0, s, T, "alpha:const0")),
        ("alpha:grid4", ladder(lower_field.feedback_u, 4, "alpha:grid4")),
        ("alpha:grid8", ladder(lower_field.feedback_u, 8, "alpha:grid8")),
    ]
    j_last = spec.controls_v.size - 1
    hit_switch = ElementaryStrategy(
        control_set=spec.controls_v, start_rule=FixedTimeRule(s),
        rules=(HittingRule(AbsRegion(1.0)), FixedTimeRule(T)),
        actions=(ConstantAction(0), ConstantAction(j_last)), label="beta:hitswitch")
    betas = [
        ("beta:const_last", _constant_strategy(spec.controls_v, j_last, s, T, "beta:const_last")),
        ("beta:grid4", ladder(upper_field.feedback_v, 4, "beta:grid4")),
        ("beta:hitswitch", hit_switch),
    ]
    return [(aid, alpha, bid, beta) for aid, alpha in alphas for bid, beta in betas]
