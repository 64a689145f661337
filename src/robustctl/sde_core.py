"""Controlled SDE primitives: problem descriptions, coefficients, seeds and noise.

The dynamics handled throughout the package are

    dX_t = b(t, X_t, u_t, v_t) dt + sigma(t, X_t, u_t, v_t) dW_t,

with the controller picking ``u`` from a finite set ``U`` and the adversary
picking ``v`` from a finite set ``V``.  A problem is a plain data object
(:class:`ProblemSpec`) holding the coefficient callbacks plus declared
bounds; nothing in here knows about strategies or PDEs.

Randomness is counter-based: every noise draw is a pure function of
``(seed, stream)`` through a Philox generator, so trajectories are
reproducible regardless of how work is chunked or threaded.  Stream 0
carries the Brownian increments driving the state, stream 1 carries extra
increments that only information-enlarged adversaries may read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

import numpy as np

from .errors import ConfigError, ModelEvaluationError

__all__ = [
    "ControlSet",
    "ProblemSpec",
    "NoisePath",
    "AssumptionReport",
    "eval_pairs",
    "eval_payoff",
    "sample_noise",
    "sample_noise_batch",
    "physical_memory",
    "validate_assumptions",
    "derive_seed",
    "derive_seed_array",
    "stream_generator",
    "STREAM_BROWNIAN",
    "STREAM_EXTRA",
]

# ---------------------------------------------------------------- seeds ---- #

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment

STREAM_BROWNIAN = 0
STREAM_EXTRA = 1


def derive_seed(master: int, *indices: int) -> int:
    """Derive a child seed from a master seed and an index tuple.

    Children of distinct index tuples are statistically independent; the
    derivation is pure, so the same inputs always give the same child.
    Every argument is taken mod 2^64, so negative and wide ints are accepted.
    """
    z = int(master) & _MASK64
    for idx in indices:
        z = int(derive_seed_array(z, int(idx) & _MASK64))
    return z


def derive_seed_array(master, indices) -> np.ndarray:
    """One splitmix64 step of :func:`derive_seed`, vectorized.

    ``master`` and ``indices`` broadcast against each other (scalars or
    uint64 arrays).  Chaining calls reproduces derive_seed(m, i, j, ...)
    elementwise.
    """
    if not isinstance(master, np.ndarray):
        master = np.uint64(int(master) & _MASK64)
    idx = np.asarray(indices, dtype=np.uint64)
    # wraparound mod 2^64 is the point here; numpy flags it as overflow.
    # shifts must be uint64 too, otherwise numpy promotes to float.
    with np.errstate(over="ignore"):
        z = master + (idx + np.uint64(1)) * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Generator for one named stream of one seed.

    Streams of the same seed are independent: they share the Philox key and
    differ in the top counter word.
    """
    bitgen = np.random.Philox(key=np.uint64(int(seed) & _MASK64),
                              counter=[0, 0, 0, int(stream)])
    return np.random.Generator(bitgen)


# ------------------------------------------------------------- problems ---- #


@dataclass(frozen=True, eq=False)
class ControlSet:
    """Finite set of control points, each a vector in R^m.

    ``points`` has shape (n, m).  Order matters: strategies and feedback
    tables refer to controls by index.
    """

    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ConfigError(f"control set {self.label!r}: need a non-empty (n, m) array")
        if not np.all(np.isfinite(pts)):
            raise ConfigError(f"control set {self.label!r}: points must be finite")
        if len(np.unique(pts, axis=0)) != pts.shape[0]:
            raise ConfigError(f"control set {self.label!r}: duplicate points")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def index_dtype(self) -> np.dtype:
        """The smallest unsigned dtype that holds every index into the set,
        the dtype of the feedback tables on it (uint8 up to 256 controls)."""
        return np.min_scalar_type(self.size - 1)

    def point(self, index: int) -> np.ndarray:
        return self.points[index]

    def matches(self, other: "ControlSet") -> bool:
        """Same points in the same order, so an index means the same control in both."""
        return self is other or (self.points.shape == other.points.shape
                                 and np.array_equal(self.points, other.points))

    def __str__(self) -> str:
        pts = [f"{p[0]:g}" if p.size == 1 else "(" + ", ".join(f"{c:g}" for c in p) + ")"
               for p in self.points]
        return "{" + ", ".join(pts) + "}"


Coefficient = Callable[..., np.ndarray]


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A controlled SDE on [0, T] with terminal payoff g(X_T).

    Coefficient callbacks must be vectorized over the state: ``drift(t, x, u, v)``
    maps x of shape (..., dim) to (..., dim), ``diffusion`` to (..., dim, noise_dim),
    and ``payoff(x)`` to (...,).  ``u`` and ``v`` are single control points.

    ``payoff_bound`` is the declared sup norm of g; payoff evaluations are
    checked against it.  ``lipschitz_const`` and ``growth_const`` are the
    declared constants for the regularity checks in
    :func:`validate_assumptions`; they are claims, not guarantees.
    """

    label: str
    dim: int
    noise_dim: int
    horizon: float
    drift: Coefficient
    diffusion: Coefficient
    payoff: Callable[[np.ndarray], np.ndarray]
    controls_u: ControlSet
    controls_v: ControlSet
    payoff_bound: float
    lipschitz_const: float = np.inf
    growth_const: float = np.inf

    def __post_init__(self):
        problems = []
        if self.dim < 1:
            problems.append(f"dim must be >= 1, got {self.dim}")
        if self.noise_dim < 1:
            problems.append(f"noise_dim must be >= 1, got {self.noise_dim}")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            problems.append(f"horizon must be positive and finite, got {self.horizon}")
        if not (self.payoff_bound >= 0 and np.isfinite(self.payoff_bound)):
            problems.append(f"payoff_bound must be finite and >= 0, got {self.payoff_bound}")
        if problems:
            raise ConfigError([f"problem {self.label!r}: {p}" for p in problems])


def _shape_error(name: str, got: tuple, want: tuple, t: float, u: np.ndarray,
                 v: np.ndarray) -> ModelEvaluationError:
    return ModelEvaluationError(
        f"{name}(t={t}, u={u}, v={v}) returned shape {got}, expected {want}")


def _nonfinite_error(name: str, t: float, u: np.ndarray, v: np.ndarray) -> ModelEvaluationError:
    return ModelEvaluationError(f"{name}(t={t}, u={u}, v={v}) returned non-finite values")


def eval_pairs(spec: ProblemSpec, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated drift and diffusion at every (u, v) pair of the control sets.

    Returns ``b`` of shape (n_u, n_v, *x.shape) and ``sigma`` of shape
    (n_u, n_v, *x.shape, noise_dim); entry [i, j] belongs to
    (controls_u.point(i), controls_v.point(j)).

    The package's one checked evaluation of the callbacks, called pair by
    pair with the drift first.  Each output's shape is checked as it returns
    and each stacked block's finiteness once, raising the error a check of
    each output as it returned would raise first.
    """
    x = np.asarray(x, dtype=float)
    U, V = spec.controls_u, spec.controls_v
    b = np.empty((U.size, V.size) + x.shape)
    sigma = np.empty(b.shape + (spec.noise_dim,))
    drift, diffusion = spec.drift, spec.diffusion
    b_shape, sigma_shape = b.shape[2:], sigma.shape[2:]
    filled = 0
    try:
        for i, u in enumerate(U.points):
            for j, v in enumerate(V.points):
                got = np.asarray(drift(t, x, u, v), dtype=float)
                if got.shape != b_shape:
                    raise _shape_error(f"{spec.label}.drift", got.shape, b_shape, t, u, v)
                b[i, j] = got
                filled += 1
                got = np.asarray(diffusion(t, x, u, v), dtype=float)
                if got.shape != sigma_shape:
                    raise _shape_error(f"{spec.label}.diffusion", got.shape, sigma_shape,
                                       t, u, v)
                sigma[i, j] = got
                filled += 1
    except Exception:
        # an output validated before the failure may be non-finite: that came first
        _raise_first_nonfinite(islice(_pair_calls(spec, t, b, sigma), filled))
        raise
    # count_nonzero is one C call, cheaper than .all() on blocks this small
    if np.count_nonzero(np.isfinite(b)) + np.count_nonzero(np.isfinite(sigma)) \
            < b.size + sigma.size:
        _raise_first_nonfinite(_pair_calls(spec, t, b, sigma))
    return b, sigma


def _pair_calls(spec: ProblemSpec, t: float, b: np.ndarray, sigma: np.ndarray):
    """The outputs of :func:`eval_pairs` as (name, output, t, u, v), in call order."""
    U, V = spec.controls_u, spec.controls_v
    for i in range(U.size):
        for j in range(V.size):
            yield f"{spec.label}.drift", b[i, j], t, U.point(i), V.point(j)
            yield f"{spec.label}.diffusion", sigma[i, j], t, U.point(i), V.point(j)


def _sample_calls(spec: ProblemSpec, times: np.ndarray, pairs: np.ndarray, b: np.ndarray,
                  sigma: np.ndarray):
    """The outputs of :func:`validate_assumptions` as (name, output, t, u, v),
    in call order: per sample, drift at x1 and x2, then diffusion."""
    for k, (t, (i, j)) in enumerate(zip(times.tolist(), pairs.tolist())):
        u, v = spec.controls_u.point(i), spec.controls_v.point(j)
        for name, out in (("drift", b), ("diffusion", sigma)):
            for a in (0, 1):
                yield f"{spec.label}.{name}", out[k, a], t, u, v


def _raise_first_nonfinite(calls) -> None:
    """Raise the error a check of each output as it returned would have
    raised first, for the first non-finite output of ``calls``."""
    for name, out, t, u, v in calls:
        if not np.isfinite(out).all():
            raise _nonfinite_error(name, t, u, v) from None


def eval_payoff(spec: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Terminal payoff g(x), checked against the declared bound."""
    x = np.asarray(x, dtype=float)
    out = np.asarray(spec.payoff(x), dtype=float)
    if out.shape != x.shape[:-1]:
        raise ModelEvaluationError(
            f"{spec.label}.payoff returned shape {out.shape}, expected {x.shape[:-1]}")
    if not np.all(np.isfinite(out)):
        raise ModelEvaluationError(f"{spec.label}.payoff returned non-finite values")
    tol = 1e-12 * max(1.0, spec.payoff_bound)
    if out.size and float(np.max(np.abs(out))) > spec.payoff_bound + tol:
        raise ModelEvaluationError(
            f"{spec.label}.payoff exceeds declared bound {spec.payoff_bound}: "
            f"max |g| = {float(np.max(np.abs(out)))}")
    return out


# ---------------------------------------------------------------- noise ---- #


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Brownian and auxiliary increments on a fixed time grid.

    ``dW[i]`` is the state-driving increment over (times[i], times[i+1]);
    ``extra[i]`` the auxiliary one (shape (N, extra_dim), possibly with
    extra_dim = 0).  Both scale like sqrt(dt) per interval.  ``seed`` is
    kept modulo 2**64, the range of a path seed, however the path was built.
    """

    times: np.ndarray
    dW: np.ndarray
    extra: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)

    @property
    def n_steps(self) -> int:
        return self.dW.shape[0]


_NOISE_BLOCK = 64  # paths drawn into one block buffer before they are stored


def sample_noise_batch(times: np.ndarray, seeds: np.ndarray, noise_dim: int,
                       extra_dim: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Noise for uint64 path seeds: ``dW`` (c, N, noise_dim), ``extra`` (c, N, extra_dim).

    The only code that turns seeds into increments: row p is the
    ``stream_generator(seeds[p], STREAM_BROWNIAN)`` (and ``STREAM_EXTRA``)
    draw times sqrt(dt).  One bit generator is recycled through the rows by
    setting a fresh state with the row's key and stream word, which draws
    the same numbers as constructing it anew at a fraction of the cost.

    Both panels are stored time-major, (N, c, dim), and returned as (c, N,
    dim) views, so ``dW.transpose(1, 0, 2)`` is the contiguous panel.  Paths
    are drawn and scaled in blocks of up to 64, then stored into it.
    """
    n = times.size - 1
    scale = np.sqrt(np.diff(times))[None, :, None]
    bg = np.random.Philox(key=np.uint64(0))
    gen = np.random.Generator(bg)
    fresh = bg.state  # zero counter, empty buffer; only key[0] and counter[3] change
    panels = []
    for stream, width in ((STREAM_BROWNIAN, noise_dim), (STREAM_EXTRA, extra_dim)):
        panel = np.empty((n, seeds.size, width))
        panels.append(panel.transpose(1, 0, 2))
        if not width:
            continue
        block = np.empty((min(_NOISE_BLOCK, seeds.size), n, width))
        for start in range(0, seeds.size, _NOISE_BLOCK):
            rows = block[:min(_NOISE_BLOCK, seeds.size - start)]
            for r, seed in enumerate(seeds[start:start + rows.shape[0]]):
                fresh["state"]["key"][0] = seed
                fresh["state"]["counter"][3] = stream
                bg.state = fresh
                gen.standard_normal(out=rows[r])
            # elementwise, so bitwise equal to scaling the whole panel
            rows *= scale
            panel[:, start:start + rows.shape[0]] = rows.transpose(1, 0, 2)
    return panels[0], panels[1]


def sample_noise(time_grid: np.ndarray, seed: int, noise_dim: int,
                 extra_dim: int = 0) -> NoisePath:
    """Draw one noise path for one seed: the one-row case of :func:`sample_noise_batch`.

    Pure in (time_grid, seed, dims): repeated calls agree bitwise.  The
    Brownian and extra increments come from disjoint Philox streams of the
    same seed, so enlarging ``extra_dim`` never changes ``dW``.  Any int
    seed is taken modulo 2**64, and the path keeps that seed.
    """
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ConfigError("time_grid must be 1-d with at least two points")
    if not np.all(np.diff(times) > 0):
        raise ConfigError("time_grid must be strictly increasing")
    seed = int(seed) & _MASK64
    dW, extra = sample_noise_batch(times, np.array([seed], dtype=np.uint64), noise_dim,
                                   extra_dim)
    return NoisePath(times=times, dW=dW[0], extra=extra[0], seed=seed)


def physical_memory() -> int:
    """The machine's physical memory in bytes: the bound that the grid's field,
    the Monte Carlo table and a chunk's noise panel are each refused above."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# ----------------------------------------------------- assumption checks ---- #


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled regularity estimates for a problem on a box.

    ``lipschitz_estimate`` is the largest sampled difference quotient of the
    coefficients in x; ``growth_estimate`` the largest sampled
    (|b| + |sigma|) / (1 + |x|).  Estimates are lower bounds of the true
    constants, so a failed check is conclusive while a pass is evidence only.
    """

    label: str
    radius: float
    sample_count: int
    lipschitz_estimate: float
    growth_estimate: float
    declared_lipschitz: float
    declared_growth: float
    slack: float
    lipschitz_pass: bool
    growth_pass: bool

    @property
    def passed(self) -> bool:
        return self.lipschitz_pass and self.growth_pass


def validate_assumptions(spec: ProblemSpec, box_lo: np.ndarray, box_hi: np.ndarray,
                         n_samples: int = 2000, seed: int = 0,
                         slack: float = 0.05) -> AssumptionReport:
    """Estimate Lipschitz and growth constants by sampling, compare to declared.

    Pairs (t, x1, x2, u, v) are drawn uniformly from [0, T] x box^2 x U x V.
    A declared constant passes when the sampled estimate is at most
    declared * (1 + slack).  Report only; nothing is raised here.
    """
    lo = np.broadcast_to(np.asarray(box_lo, dtype=float), (spec.dim,))
    hi = np.broadcast_to(np.asarray(box_hi, dtype=float), (spec.dim,))
    if not np.all(hi > lo):
        raise ConfigError("assumption box must have hi > lo per axis")
    rng = stream_generator(derive_seed(seed, 2), 0)
    radius = float(np.max(np.abs(np.stack([lo, hi]))))

    # each sample draws (t, x1, x2, u, v) from the stream in that order and
    # calls drift at x1 and x2, then diffusion at x1 and x2; the outputs are
    # checked for shape as they return and for finiteness once per array.
    # t, x1 and x2 come from one uniform draw over [0, T] x box x box, which
    # takes the same numbers from the stream as three draws in turn
    n = int(n_samples)
    U, V = spec.controls_u, spec.controls_v
    low = np.concatenate([[0.0], lo, lo])
    high = np.concatenate([[spec.horizon], hi, hi])
    times = np.empty(n)
    pairs = np.empty((n, 2), dtype=np.intp)
    x = np.empty((n, 2, spec.dim))
    b = np.empty((n, 2, spec.dim))
    sigma = np.empty((n, 2, spec.dim, spec.noise_dim))
    calls = ((f"{spec.label}.drift", spec.drift, b),
             (f"{spec.label}.diffusion", spec.diffusion, sigma))
    filled = 0
    try:
        for k in range(n):
            draw = rng.uniform(low, high)
            t = times[k] = float(draw[0])
            x[k] = draw[1:].reshape(2, spec.dim)
            pairs[k] = int(rng.integers(U.size)), int(rng.integers(V.size))
            u, v = U.point(pairs[k, 0]), V.point(pairs[k, 1])
            for name, fn, out in calls:
                for a in (0, 1):
                    got = np.asarray(fn(t, x[k, a], u, v), dtype=float)
                    if got.shape != out.shape[2:]:
                        raise _shape_error(name, got.shape, out.shape[2:], t, u, v)
                    out[k, a] = got
                    filled += 1
    except Exception:
        # an output checked before the failure may be non-finite: that came first
        _raise_first_nonfinite(islice(_sample_calls(spec, times, pairs, b, sigma), filled))
        raise
    if not (np.isfinite(b).all() and np.isfinite(sigma).all()):
        _raise_first_nonfinite(_sample_calls(spec, times, pairs, b, sigma))

    # the norms of np.linalg.norm, row by row
    def norms(a: np.ndarray) -> np.ndarray:
        a = a.reshape(a.shape[0], -1)
        return np.sqrt(np.vecdot(a, a))

    dx = norms(x[:, 0] - x[:, 1])
    apart = dx > 1e-9
    lip = np.divide(norms(b[:, 0] - b[:, 1]) + norms(sigma[:, 0] - sigma[:, 1]), dx,
                    out=np.zeros(n), where=apart)
    growth = (norms(b.reshape(2 * n, -1)) + norms(sigma.reshape(2 * n, -1))) \
        / (1.0 + norms(x.reshape(2 * n, -1)))
    lip = max([0.0] + lip[apart].tolist())
    growth = max([0.0] + growth.tolist())

    lip_pass = lip <= spec.lipschitz_const * (1.0 + slack)
    growth_pass = growth <= spec.growth_const * (1.0 + slack)
    return AssumptionReport(
        label=spec.label, radius=radius, sample_count=int(n_samples),
        lipschitz_estimate=lip, growth_estimate=growth,
        declared_lipschitz=float(spec.lipschitz_const),
        declared_growth=float(spec.growth_const),
        slack=float(slack), lipschitz_pass=bool(lip_pass), growth_pass=bool(growth_pass))
