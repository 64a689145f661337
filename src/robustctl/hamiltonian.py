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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelEvaluationError, NumericalSolveError
from .sde_core import ProblemSpec, eval_pairs

__all__ = [
    "HamiltonianQuery",
    "MixedSolution",
    "lagrangian_matrix",
    "minimax",
    "hamiltonian_lower",
    "hamiltonian_upper",
    "hamiltonian_mixed",
    "solve_matrix_game",
]


@dataclass(frozen=True, eq=False)
class HamiltonianQuery:
    """One (t, x, p, M) evaluation point; M is symmetrized on input."""

    t: float
    x: np.ndarray
    p: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        if p.shape != x.shape or M.shape != (x.size, x.size):
            raise ModelEvaluationError(
                f"query shapes inconsistent: x {x.shape}, p {p.shape}, M {M.shape}")
        if not (np.isfinite(self.t) and np.all(np.isfinite(x))
                and np.all(np.isfinite(p)) and np.all(np.isfinite(M))):
            raise ModelEvaluationError("query contains non-finite entries")
        M = 0.5 * (M + M.T)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "M", M)


def lagrangian_matrix(spec: ProblemSpec, q: HamiltonianQuery) -> np.ndarray:
    """The (n_u, n_v) matrix of running terms b . p + 1/2 tr(sigma sigma^T M)."""
    b, sig = eval_pairs(spec, q.t, q.x)         # (n_u, n_v, d), (n_u, n_v, d, k)
    a = sig @ np.swapaxes(sig, -1, -2)
    return b @ q.p + 0.5 * np.trace(a @ q.M, axis1=-2, axis2=-1)


def minimax(L: np.ndarray, which: str):
    """Pure game value over the first two axes of L, shape (n_u, n_v, ...).

    "lower" is max_u min_v (the controller commits first) and
    ``inner_best[i]`` is v's best reply to u_i; "upper" is min_v max_u and
    ``inner_best[j]`` is u's best reply to v_j.  Ties go to the lowest
    index.  Returns (value, u_star, v_star, inner_best); all but
    ``inner_best`` have the trailing shape of L, and ``inner_best`` has the
    outer player's control axis in front of it.
    """
    if which == "upper":
        # min_v max_u L = -(max_v min_u -L^T); negation is exact and keeps ties
        value, v_star, u_star, inner = minimax(-np.swapaxes(L, 0, 1), "lower")
        return -value, u_star, v_star, inner
    if which != "lower":
        raise ConfigError(f"which must be 'lower' or 'upper', got {which!r}")
    n_u, n_v, rest = L.shape[0], L.shape[1], L.shape[2:]
    flat = L.reshape(n_u, n_v, -1)                  # one column per trailing index
    cols = np.arange(flat.shape[2])
    inner = flat.argmin(axis=1)                     # (n_u, cols)
    inner_vals = flat[np.arange(n_u)[:, None], inner, cols]
    u_star = inner_vals.argmax(axis=0)
    return (inner_vals[u_star, cols].reshape(rest), u_star.reshape(rest),
            inner[u_star, cols].reshape(rest), inner.reshape((n_u,) + rest))


def hamiltonian_lower(spec: ProblemSpec, q: HamiltonianQuery) -> float:
    """max_u min_v of the running term; :func:`minimax` gives the optimizers."""
    return float(minimax(lagrangian_matrix(spec, q), "lower")[0])


def hamiltonian_upper(spec: ProblemSpec, q: HamiltonianQuery) -> float:
    """min_v max_u of the running term; :func:`minimax` gives the optimizers."""
    return float(minimax(lagrangian_matrix(spec, q), "upper")[0])


# ----------------------------------------------------------- matrix games ---- #


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


def solve_matrix_game(A: np.ndarray, tol: float = 1e-8) -> MixedSolution:
    """Value and optimal mixed strategies of the zero-sum game max_mu min_nu mu^T A nu.

    The row player maximizes.  Exact shortcuts handle pure saddle points and
    2x2 games; everything else goes through two linear programs whose gap is
    checked against ``tol`` (scaled by the matrix magnitude).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ModelEvaluationError(f"game matrix must be 2-d and non-empty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ModelEvaluationError("game matrix contains non-finite entries")
    n_u, n_v = A.shape

    v_low, u_star, _, _ = minimax(A, "lower")
    v_up, _, v_star, _ = minimax(A, "upper")
    pure = {"lower": float(v_low), "upper": float(v_up)}
    if v_up <= v_low:
        # pure saddle point: exact, degenerate weights, lowest-index ties
        mu = np.zeros(n_u)
        mu[u_star] = 1.0
        nu = np.zeros(n_v)
        nu[v_star] = 1.0
        return MixedSolution(value=float(v_low), mu=mu, nu=nu, residual=0.0, method="saddle",
                             **pure)

    if A.shape == (2, 2):
        # completely mixed 2x2 game (no saddle): closed form
        a, b = A[0]
        c, d = A[1]
        denom = a + d - b - c  # nonzero, else a saddle would exist
        value = (a * d - b * c) / denom
        mu = np.array([(d - c) / denom, (a - b) / denom])
        nu = np.array([(d - b) / denom, (a - c) / denom])
        return MixedSolution(value=float(value), mu=mu, nu=nu, residual=0.0, method="2x2",
                             **pure)

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
    return MixedSolution(value=0.5 * (guaranteed_row + guaranteed_col),
                         mu=mu, nu=nu, residual=residual, method="lp", **pure)


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


def hamiltonian_mixed(spec: ProblemSpec, q: HamiltonianQuery,
                      tol: float = 1e-8) -> MixedSolution:
    """Mixed-strategy value of the running-term game at one query point.

    Always wedged between the lower and upper Hamiltonians (up to the
    solution's residual), with equality on both sides iff a saddle exists.
    """
    return solve_matrix_game(lagrangian_matrix(spec, q), tol=tol)
