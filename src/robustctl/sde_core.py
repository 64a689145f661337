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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ModelEvaluationError

__all__ = [
    "ControlSet",
    "ProblemSpec",
    "NoisePath",
    "AssumptionReport",
    "eval_drift",
    "eval_diffusion",
    "eval_pairs",
    "eval_payoff",
    "sample_noise",
    "sample_noise_batch",
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
    def point_dim(self) -> int:
        return self.points.shape[1]

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


def _check_finite_shape(name: str, out: np.ndarray, want_shape: tuple,
                        t: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.asarray(out, dtype=float)
    if out.shape != want_shape:
        raise _shape_error(name, out.shape, want_shape, t, u, v)
    if not np.all(np.isfinite(out)):
        raise _nonfinite_error(name, t, u, v)
    return out


def eval_drift(spec: ProblemSpec, t: float, x: np.ndarray,
               u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Drift b(t, x, u, v), validated for shape and finiteness.

    ``x`` may carry leading batch axes: shape (..., dim) in, (..., dim) out.
    """
    x = np.asarray(x, dtype=float)
    out = spec.drift(t, x, u, v)
    return _check_finite_shape(f"{spec.label}.drift", out, x.shape, t, u, v)


def eval_diffusion(spec: ProblemSpec, t: float, x: np.ndarray,
                   u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Diffusion sigma(t, x, u, v): (..., dim) in, (..., dim, noise_dim) out."""
    x = np.asarray(x, dtype=float)
    want = x.shape + (spec.noise_dim,)
    out = spec.diffusion(t, x, u, v)
    return _check_finite_shape(f"{spec.label}.diffusion", out, want, t, u, v)


def eval_pairs(spec: ProblemSpec, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated drift and diffusion at every (u, v) pair of the control sets.

    Returns ``b`` of shape (n_u, n_v, *x.shape) and ``sigma`` of shape
    (n_u, n_v, *x.shape, noise_dim); entry [i, j] belongs to
    (controls_u.point(i), controls_v.point(j)).

    Raises the error that :func:`eval_drift` and :func:`eval_diffusion`
    would raise first, called pair by pair with the drift first, but checks
    each output's shape as it returns and each stacked block's finiteness
    once; the culprit of a non-finite block is looked up only on failure.
    """
    x = np.asarray(x, dtype=float)
    U, V = spec.controls_u, spec.controls_v
    b = np.empty((U.size, V.size) + x.shape)
    sigma = np.empty((U.size, V.size) + x.shape + (spec.noise_dim,))
    coefficients = ((f"{spec.label}.drift", spec.drift, b),
                    (f"{spec.label}.diffusion", spec.diffusion, sigma))
    order = [(i, j, name, fn, out) for i in range(U.size) for j in range(V.size)
             for name, fn, out in coefficients]
    filled = 0
    try:
        for i, j, name, fn, out in order:
            got = np.asarray(fn(t, x, U.point(i), V.point(j)), dtype=float)
            if got.shape != out.shape[2:]:
                raise _shape_error(name, got.shape, out.shape[2:], t, U.point(i), V.point(j))
            out[i, j] = got
            filled += 1
    except Exception:
        # an output validated before the failure may be non-finite: that came first
        _raise_first_nonfinite(order[:filled], t, U, V)
        raise
    if not (np.isfinite(b).all() and np.isfinite(sigma).all()):
        _raise_first_nonfinite(order, t, U, V)
    return b, sigma


def _raise_first_nonfinite(order: list, t: float, U: ControlSet, V: ControlSet) -> None:
    for i, j, name, _, out in order:
        if not np.isfinite(out[i, j]).all():
            raise _nonfinite_error(name, t, U.point(i), V.point(j)) from None


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
    extra_dim = 0).  Both scale like sqrt(dt) per interval.
    """

    times: np.ndarray
    dW: np.ndarray
    extra: np.ndarray
    seed: int

    @property
    def n_steps(self) -> int:
        return self.dW.shape[0]


def sample_noise_batch(times: np.ndarray, seeds: np.ndarray, noise_dim: int,
                       extra_dim: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Noise for uint64 path seeds: ``dW`` (c, N, noise_dim), ``extra`` (c, N, extra_dim).

    The only code that turns seeds into increments: row p is the
    ``stream_generator(seeds[p], STREAM_BROWNIAN)`` (and ``STREAM_EXTRA``)
    draw times sqrt(dt).  One bit generator is recycled through the rows by
    setting a fresh state with the row's key and stream word, which draws
    the same numbers as constructing it anew at a fraction of the cost.
    """
    n = times.size - 1
    dW = np.empty((seeds.size, n, noise_dim))
    extra = np.empty((seeds.size, n, extra_dim))
    bg = np.random.Philox(key=np.uint64(0))
    gen = np.random.Generator(bg)
    fresh = bg.state  # zero counter, empty buffer; only key[0] and counter[3] change
    for p in range(seeds.size):
        for stream, out in ((STREAM_BROWNIAN, dW), (STREAM_EXTRA, extra)):
            if out.shape[2]:
                fresh["state"]["key"][0] = seeds[p]
                fresh["state"]["counter"][3] = stream
                bg.state = fresh
                gen.standard_normal(out=out[p])
    # elementwise on the full block, so bitwise equal to scaling row by row
    scale = np.sqrt(np.diff(times))[:, None]
    dW *= scale
    extra *= scale
    return dW, extra


def sample_noise(time_grid: np.ndarray, seed: int, noise_dim: int,
                 extra_dim: int = 0) -> NoisePath:
    """Draw one noise path for one seed: the one-row case of :func:`sample_noise_batch`.

    Pure in (time_grid, seed, dims): repeated calls agree bitwise.  The
    Brownian and extra increments come from disjoint Philox streams of the
    same seed, so enlarging ``extra_dim`` never changes ``dW``.
    """
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ConfigError("time_grid must be 1-d with at least two points")
    if not np.all(np.diff(times) > 0):
        raise ConfigError("time_grid must be strictly increasing")
    dW, extra = sample_noise_batch(times, np.array([int(seed) & _MASK64], dtype=np.uint64),
                                   noise_dim, extra_dim)
    return NoisePath(times=times, dW=dW[0], extra=extra[0], seed=int(seed))


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

    lip = 0.0
    growth = 0.0
    for _ in range(int(n_samples)):
        t = float(rng.uniform(0.0, spec.horizon))
        x1 = rng.uniform(lo, hi)
        x2 = rng.uniform(lo, hi)
        u = spec.controls_u.point(int(rng.integers(spec.controls_u.size)))
        v = spec.controls_v.point(int(rng.integers(spec.controls_v.size)))
        b1 = eval_drift(spec, t, x1, u, v)
        b2 = eval_drift(spec, t, x2, u, v)
        s1 = eval_diffusion(spec, t, x1, u, v)
        s2 = eval_diffusion(spec, t, x2, u, v)
        dx = float(np.linalg.norm(x1 - x2))
        if dx > 1e-9:
            q = (np.linalg.norm(b1 - b2) + np.linalg.norm(s1 - s2)) / dx
            lip = max(lip, float(q))
        for x, b, s in ((x1, b1, s1), (x2, b2, s2)):
            g = (np.linalg.norm(b) + np.linalg.norm(s)) / (1.0 + np.linalg.norm(x))
            growth = max(growth, float(g))

    lip_pass = lip <= spec.lipschitz_const * (1.0 + slack)
    growth_pass = growth <= spec.growth_const * (1.0 + slack)
    return AssumptionReport(
        label=spec.label, radius=radius, sample_count=int(n_samples),
        lipschitz_estimate=lip, growth_estimate=growth,
        declared_lipschitz=float(spec.lipschitz_const),
        declared_growth=float(spec.growth_const),
        slack=float(slack), lipschitz_pass=bool(lip_pass), growth_pass=bool(growth_pass))
