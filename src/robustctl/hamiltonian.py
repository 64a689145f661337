"""Pointwise Hamiltonians of the game and their mixed-strategy value.

For a query point (t, x, p, M) the running term of the game is

    L(u, v) = b(t, x, u, v) . p + 1/2 tr(sigma sigma^T M),

a finite matrix over the control sets.  The lower Hamiltonian is
max_u min_v L, the upper one min_v max_u L, and the mixed value is the
zero-sum matrix-game value of L, wedged between the two.  The gap between
upper and lower is the price of the players' order of commitment; it
vanishes exactly when the matrix has a pure saddle point.  :func:`minimax`
is the package's one pure reduction; the PDE solver applies it to whole
(n_u, n_v, *nodes) layers.

The matrix-game solver tries, in order: a pure saddle point (exact), the
2x2 closed form (exact for completely mixed games), and a pair of linear
programs whose duality gap doubles as the accuracy certificate.  Only
the last needs scipy, so ``scipy.optimize`` is imported when an LP runs.
Games are solved in stacks: one :func:`minimax` over the stack finds every
pure saddle, and only the other games are solved one at a time.
:func:`hamiltonian_mixed_batch` builds one matrix per query, each at its
own t, and :func:`hamiltonian_mixed` is its one-query case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelEvaluationError, NumericalSolveError
from .sde_core import ProblemSpec, eval_pairs

__all__ = [
    "HamiltonianQuery",
    "QueryBatch",
    "MixedSolution",
    "MixedBatch",
    "lagrangian_matrix",
    "minimax",
    "hamiltonian_lower",
    "hamiltonian_upper",
    "hamiltonian_mixed",
    "hamiltonian_mixed_batch",
    "solve_matrix_game",
]


@dataclass(frozen=True, eq=False)
class QueryBatch:
    """n (t, x, p, M) evaluation points stacked along axis 0: ``t`` (n,), ``x``
    and ``p`` (n, d), ``M`` (n, d, d).  Checked and symmetrized on input; a
    non-finite query is named by its index."""

    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        t, x, p, M = (np.asarray(a, dtype=float) for a in (self.t, self.x, self.p, self.M))
        if (t.ndim != 1 or x.ndim != 2 or x.shape[0] != t.size or p.shape != x.shape
                or M.shape != x.shape + x.shape[1:]):
            raise ModelEvaluationError(f"query shapes inconsistent: t {t.shape}, x {x.shape}, "
                                       f"p {p.shape}, M {M.shape}")
        finite = (np.isfinite(t) & np.isfinite(x).all(axis=1) & np.isfinite(p).all(axis=1)
                  & np.isfinite(M).all(axis=(1, 2)))
        if not finite.all():
            raise ModelEvaluationError(
                f"query {int(np.argmin(finite))} contains non-finite entries")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "M", 0.5 * (M + np.swapaxes(M, 1, 2)))


@dataclass(frozen=True, eq=False)
class HamiltonianQuery:
    """One (t, x, p, M) evaluation point, checked and symmetrized as the
    one-row :class:`QueryBatch`; ``t`` is kept as given."""

    t: float
    x: np.ndarray
    p: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        one = QueryBatch(t=[self.t], x=np.atleast_1d(self.x)[None],
                         p=np.atleast_1d(self.p)[None], M=np.atleast_2d(self.M)[None])
        for name in ("x", "p", "M"):
            object.__setattr__(self, name, getattr(one, name)[0])


def _running_term(spec: ProblemSpec, t: float, x: np.ndarray, p: np.ndarray,
                  M: np.ndarray) -> np.ndarray:
    b, sig = eval_pairs(spec, t, x)             # (n_u, n_v, d), (n_u, n_v, d, k)
    a = sig @ np.swapaxes(sig, -1, -2)
    return b @ p + 0.5 * np.trace(a @ M, axis1=-2, axis2=-1)


def lagrangian_matrix(spec: ProblemSpec, q: HamiltonianQuery) -> np.ndarray:
    """The (n_u, n_v) matrix of running terms b . p + 1/2 tr(sigma sigma^T M)."""
    return _running_term(spec, q.t, q.x, q.p, q.M)


def minimax(L: np.ndarray, which: str):
    """Pure game value over the first two axes of L, shape (n_u, n_v, ...).

    "lower" is max_u min_v (the controller commits first) and
    ``inner_best[i]`` is v's best reply to u_i; "upper" is min_v max_u and
    ``inner_best[j]`` is u's best reply to v_j.  Ties go to the lowest
    index.  Returns (value, u_star, v_star, inner_best); all but
    ``inner_best`` have the trailing shape of L, and ``inner_best`` has the
    outer player's control axis in front of it.
    """
    if which not in ("lower", "upper"):
        raise ConfigError(f"which must be 'lower' or 'upper', got {which!r}")
    L = np.ascontiguousarray(L)
    n_u, n_v, rest = L.shape[0], L.shape[1], L.shape[2:]
    m = math.prod(rest)
    # the inner player's replies, then their values gathered by flat
    # position: entry (i, j, c) of L sits at (i n_v + j) m + c
    cols = np.arange(m).reshape(rest)
    lead = (1,) * len(rest)
    if which == "lower":
        inner = L.argmin(axis=1)                    # v's reply to each u, (n_u, *rest)
        at = inner * m
        at += np.arange(0, n_u * n_v * m, n_v * m).reshape((n_u,) + lead) + cols
        inner_vals = L.take(at)
        outer = inner_vals.argmax(axis=0)
    else:
        inner = L.argmax(axis=0)                    # u's reply to each v, (n_v, *rest)
        at = inner * (n_v * m)
        at += np.arange(0, n_v * m, m).reshape((n_v,) + lead) + cols
        inner_vals = L.take(at)
        outer = inner_vals.argmin(axis=0)
    # entry (k, c) of inner_vals and of inner sits at k m + c
    at = outer * m
    at += cols
    reply = inner.take(at)
    u_star, v_star = (outer, reply) if which == "lower" else (reply, outer)
    return inner_vals.take(at), u_star, v_star, inner


def hamiltonian_lower(spec: ProblemSpec, q: HamiltonianQuery) -> float:
    """max_u min_v of the running term; :func:`minimax` gives the optimizers."""
    return float(minimax(lagrangian_matrix(spec, q), "lower")[0])


def hamiltonian_upper(spec: ProblemSpec, q: HamiltonianQuery) -> float:
    """min_v max_u of the running term; :func:`minimax` gives the optimizers."""
    return float(minimax(lagrangian_matrix(spec, q), "upper")[0])


# ----------------------------------------------------------- matrix games ---- #

_LP_TOL = 1e-8  # an LP solution's duality gap, relative to the matrix magnitude


@dataclass(frozen=True, eq=False)
class MixedSolution:
    """Mixed-strategy value of a matrix game with its accuracy certificate.

    ``residual`` bounds the distance to the exact value: how far the
    returned (mu, nu) pair is from closing the duality gap.  ``method`` is
    "saddle", "2x2" or "lp".  ``lower`` and ``upper`` are the pure values
    max_u min_v and min_v max_u that wedge ``value``.
    """

    value: float
    mu: np.ndarray
    nu: np.ndarray
    residual: float
    method: str
    lower: float
    upper: float


@dataclass(eq=False)
class MixedBatch:
    """The :class:`MixedSolution` fields of n matrix games, game k at index k:
    ``value``, ``residual``, ``lower`` and ``upper`` of shape (n,), ``mu``
    (n, n_u), ``nu`` (n, n_v) and ``method`` a list of n names."""

    value: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    residual: np.ndarray
    method: list
    lower: np.ndarray
    upper: np.ndarray

    def solution(self, k: int) -> MixedSolution:
        return MixedSolution(value=float(self.value[k]), mu=self.mu[k], nu=self.nu[k],
                             residual=float(self.residual[k]), method=self.method[k],
                             lower=float(self.lower[k]), upper=float(self.upper[k]))


def solve_matrix_game(A: np.ndarray) -> MixedSolution:
    """Value and optimal mixed strategies of the zero-sum game max_mu min_nu mu^T A nu.

    The row player maximizes.  Exact shortcuts handle pure saddle points and
    2x2 games; everything else goes through two linear programs whose gap is
    checked against 1e-8 times the matrix magnitude.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ModelEvaluationError(f"game matrix must be 2-d and non-empty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ModelEvaluationError("game matrix contains non-finite entries")
    return _solve_games(A[:, :, None], _LP_TOL).solution(0)


def _solve_games(L: np.ndarray, tol: float) -> MixedBatch:
    """The finite games L[:, :, k]: every pure saddle at once, then each other
    game by the 2x2 closed form or the LPs."""
    n_u, n_v, n = L.shape
    lower, u_star, _, _ = minimax(L, "lower")
    upper, _, v_star, _ = minimax(L, "upper")
    # a pure saddle point is exact: degenerate weights, lowest-index ties.
    # Every game gets them; a game with no saddle overwrites its own.
    games = np.arange(n)
    value = lower.copy()
    mu = np.zeros((n, n_u))
    mu[games, u_star] = 1.0
    nu = np.zeros((n, n_v))
    nu[games, v_star] = 1.0
    residual = np.zeros(n)
    method = ["saddle"] * n
    for k in (upper > lower).nonzero()[0].tolist():
        value[k], mu[k], nu[k], residual[k], method[k] = _mixed_game(
            np.ascontiguousarray(L[:, :, k]), tol)
    return MixedBatch(value=value, mu=mu, nu=nu, residual=residual, method=method,
                      lower=lower, upper=upper)


def _mixed_game(A: np.ndarray, tol: float) -> tuple:
    """(value, mu, nu, residual, method) of a game with no pure saddle point."""
    if A.shape == (2, 2):
        # completely mixed 2x2 game: closed form
        a, b = A[0]
        c, d = A[1]
        denom = a + d - b - c  # nonzero, else a saddle would exist
        return ((a * d - b * c) / denom, [(d - c) / denom, (a - b) / denom],
                [(d - b) / denom, (a - c) / denom], 0.0, "2x2")

    scale = max(1.0, float(np.max(np.abs(A))))
    v_row, mu = _lp_value(A)            # max_mu min_j (mu^T A)_j
    v_col, nu = _lp_value(-A.T)         # nu optimal for the column player
    v_col = -v_col
    # worst-case payoffs under the returned strategies certify the value
    guaranteed_row = float((mu @ A).min())
    guaranteed_col = float((A @ nu).max())
    residual = max(abs(v_row - v_col), guaranteed_col - guaranteed_row)
    if residual > tol * scale:
        raise NumericalSolveError(
            f"matrix game LP residual {residual:.3e} exceeds {tol:.1e} * {scale:.3g}",
            residual=residual)
    return 0.5 * (guaranteed_row + guaranteed_col), mu, nu, residual, "lp"


def _lp_value(A: np.ndarray) -> tuple[float, np.ndarray]:
    """max over weights mu of min_j (mu^T A)_j via one LP (HiGHS)."""
    # imported here: it is most of the package's import time, and saddles and
    # 2x2 games never need it
    from scipy.optimize import linprog

    n, m = A.shape
    # variables (w, mu): maximize w  s.t.  w <= (mu^T A)_j, sum mu = 1, mu >= 0
    c = np.zeros(n + 1)
    c[0] = -1.0
    A_ub = np.hstack([np.ones((m, 1)), -A.T])
    b_ub = np.zeros(m)
    A_eq = np.zeros((1, n + 1))
    A_eq[0, 1:] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(None, None)] + [(0.0, 1.0)] * n, method="highs")
    if not res.success:
        raise NumericalSolveError(f"matrix game LP failed: {res.message}")
    mu = np.clip(res.x[1:], 0.0, None)
    mu /= mu.sum()
    return float(res.x[0]), mu


def hamiltonian_mixed_batch(spec: ProblemSpec, queries: QueryBatch,
                            tol: float = _LP_TOL) -> MixedBatch:
    """Mixed-strategy values of the running-term games at a batch of queries.

    Each query's matrix is built at its own t, as :func:`lagrangian_matrix`
    builds it; the matrices are then solved together (:func:`minimax` over
    the stack finds every pure saddle) and only the games without one are
    solved one by one.  A query whose matrix is not finite is named.
    """
    L = np.empty((spec.controls_u.size, spec.controls_v.size, queries.t.size))
    for k, (t, x, p, M) in enumerate(zip(queries.t.tolist(), queries.x, queries.p, queries.M)):
        L[:, :, k] = _running_term(spec, t, x, p, M)
    return _solve_games(_finite_games(L), tol)


def hamiltonian_mixed(spec: ProblemSpec, q: HamiltonianQuery) -> MixedSolution:
    """Mixed-strategy value of the running-term game at one query point: the
    one-query case of :func:`hamiltonian_mixed_batch`, on a query that its
    one-row :class:`QueryBatch` checked and symmetrized.

    Always wedged between the lower and upper Hamiltonians (up to the
    solution's residual), with equality on both sides iff a saddle exists.
    """
    L = lagrangian_matrix(spec, q)[:, :, None]
    return _solve_games(_finite_games(L), _LP_TOL).solution(0)


def _finite_games(L: np.ndarray) -> np.ndarray:
    """L of shape (n_u, n_v, n), refused if a query's matrix is not finite."""
    if np.count_nonzero(np.isfinite(L)) < L.size:
        finite = np.isfinite(L).all(axis=(0, 1))
        raise ModelEvaluationError(
            f"game matrix of query {int(np.argmin(finite))} contains non-finite entries")
    return L
