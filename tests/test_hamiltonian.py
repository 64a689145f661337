"""Hamiltonians, matrix games, and the ordering between them.

The oracle here is deliberately independent of the module under test: it
calls the problem's raw coefficient callbacks and runs explicit double
loops, so an indexing or transposition bug in the library cannot cancel
itself out of the comparison.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from conftest import coupled_plane_spec
import robustctl.hamiltonian as hamiltonian
from robustctl.errors import ModelEvaluationError, NumericalSolveError
from robustctl.hamiltonian import (HamiltonianQuery, QueryBatch, hamiltonian_lower,
                                   hamiltonian_mixed, hamiltonian_mixed_batch,
                                   hamiltonian_upper, lagrangian_matrix, minimax,
                                   solve_matrix_game)
from robustctl.problems import available_problems, build_problem
from robustctl.sde_core import derive_seed, stream_generator


# ------------------------------------------------------------- the oracle ---- #


def oracle_lagrangian(spec, t, x, u, v, p, M):
    """b . p + 0.5 tr(sigma sigma^T M), straight from the callbacks."""
    b = np.asarray(spec.drift(t, x, u, v), dtype=float)
    sig = np.asarray(spec.diffusion(t, x, u, v), dtype=float)
    return float(b @ p + 0.5 * np.trace(sig @ sig.T @ M))


def oracle_matrix(spec, t, x, p, M):
    U, V = spec.controls_u, spec.controls_v
    out = np.empty((U.size, V.size))
    for i in range(U.size):
        for j in range(V.size):
            out[i, j] = oracle_lagrangian(spec, t, x, U.point(i), V.point(j), p, M)
    return out


def oracle_lower(A):
    """sup_u inf_v by exhaustive search (controller commits first)."""
    return max(min(row) for row in A)


def oracle_upper(A):
    return min(max(A[:, j]) for j in range(A.shape[1]))


def query(spec, t, x, p, M):
    return HamiltonianQuery(t=t, x=np.atleast_1d(x), p=np.atleast_1d(p),
                            M=np.atleast_2d(M))


# --------------------------------------------------------- pinned examples ---- #


def test_lagrangian_pinned_values(pennies_problem, heat_problem, drift_problem):
    x = np.array([0.0])
    # pennies: b = u v, sigma = 1; p=2, M=4, u=1 (index 1), v=-1 (index 0) -> -2 + 0.5*4 = 0
    q = query(pennies_problem.spec, 0.0, x, 2.0, 4.0)
    assert lagrangian_matrix(pennies_problem.spec, q)[1, 0] == 0.0
    # heat: b = 0, sigma = sqrt(2); M=1 -> 0.5 * 2 * 1 = 1
    q = query(heat_problem.spec, 0.0, x, 0.7, 1.0)
    assert lagrangian_matrix(heat_problem.spec, q)[0, 0] == pytest.approx(1.0, abs=1e-12)
    # drift control: b = u + v, sigma = 1; p=1, M=0, u=1 (index 2), v=-0.5 (index 0) -> 0.5
    q = query(drift_problem.spec, 0.0, x, 1.0, 0.0)
    assert lagrangian_matrix(drift_problem.spec, q)[2, 0] == 0.5


def test_lagrangian_matrix_matches_the_oracle_in_two_dimensions():
    spec = coupled_plane_spec()
    rng = stream_generator(derive_seed(13, 31), 0)
    for _ in range(100):
        t = float(rng.uniform(0.0, spec.horizon))
        x = rng.uniform(-2.0, 2.0, size=2)
        p = rng.normal(0.0, 3.0, size=2)
        B = rng.normal(0.0, 3.0, size=(2, 2))
        M = B + B.T
        q = query(spec, t, x, p, M)
        A = oracle_matrix(spec, t, x, p, M)
        L = lagrangian_matrix(spec, q)
        assert L.shape == (3, 2)
        np.testing.assert_allclose(L, A, rtol=0.0, atol=1e-12)
        assert hamiltonian_lower(spec, q) == pytest.approx(oracle_lower(A), abs=1e-12)
        assert hamiltonian_upper(spec, q) == pytest.approx(oracle_upper(A), abs=1e-12)


def test_lower_hamiltonian_pinned(pennies_problem, drift_problem):
    x = np.array([0.0])
    # pennies, p=1, M=0: sup_u inf_v u v = -1
    lo = hamiltonian_lower(pennies_problem.spec, query(pennies_problem.spec, 0.0, x, 1.0, 0.0))
    assert type(lo) is float and lo == -1.0
    # drift control, p=-2: sup_u inf_v (u+v)(-2) at u=-1, v=+0.5 -> 1.0
    q = query(drift_problem.spec, 0.0, x, -2.0, 0.0)
    assert hamiltonian_lower(drift_problem.spec, q) == 1.0
    _, u_star, _, _ = minimax(lagrangian_matrix(drift_problem.spec, q), "lower")
    assert drift_problem.spec.controls_u.point(u_star)[0] == -1.0


def test_upper_hamiltonian_pinned(pennies_problem, drift_problem):
    x = np.array([0.0])
    up = hamiltonian_upper(pennies_problem.spec, query(pennies_problem.spec, 0.0, x, 1.0, 0.0))
    assert type(up) is float and up == 1.0
    # drift control has a saddle: upper equals lower equals |p| - |p|/2
    assert hamiltonian_upper(drift_problem.spec, query(drift_problem.spec, 0.0, x, 1.0, 0.0)) == 0.5


def test_singleton_sets_bypass_optimization(heat_problem):
    q = query(heat_problem.spec, 0.1, np.array([0.3]), 1.7, 2.0)
    lo = hamiltonian_lower(heat_problem.spec, q)
    up = hamiltonian_upper(heat_problem.spec, q)
    assert lo == up == pytest.approx(2.0, abs=1e-12)


def test_isaacs_gap_pinned(pennies_problem, drift_problem):
    # the gap upper - lower of the pure values of one running-term matrix
    def gap(spec, p, M):
        L = lagrangian_matrix(spec, query(spec, 0.0, np.array([0.0]), p, M))
        return float(minimax(L, "upper")[0]) - float(minimax(L, "lower")[0])

    assert gap(pennies_problem.spec, 1.0, 0.0) == 2.0
    assert gap(pennies_problem.spec, 0.0, 0.0) == 0.0
    assert gap(drift_problem.spec, 1.3, -0.4) == 0.0


def test_matching_pennies_mixed_game(pennies_problem):
    # L-matrix [[1,-1],[-1,1]]: value 0, both mixes (1/2, 1/2)
    q = query(pennies_problem.spec, 0.0, np.array([0.0]), 1.0, 0.0)
    A = lagrangian_matrix(pennies_problem.spec, q)
    assert np.array_equal(A, [[-1.0, 1.0], [1.0, -1.0]]) or \
        np.array_equal(A, [[1.0, -1.0], [-1.0, 1.0]])
    sol = solve_matrix_game(A)
    assert sol.value == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(sol.mu, [0.5, 0.5], atol=1e-9)
    assert np.allclose(sol.nu, [0.5, 0.5], atol=1e-9)


def test_mixed_between_pure_pinned(pennies_problem):
    q = query(pennies_problem.spec, 0.0, np.array([0.0]), 1.0, 0.0)
    mixed = hamiltonian_mixed(pennies_problem.spec, q)
    assert -1.0 <= mixed.value <= 1.0
    assert mixed.value == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------- matrix games ---- #


def test_matrix_game_1x1():
    sol = solve_matrix_game(np.array([[3.7]]))
    assert sol.value == 3.7
    assert sol.mu[0] == 1.0 and sol.nu[0] == 1.0


def test_matrix_game_pure_saddle():
    A = np.array([[1.0, 2.0], [0.0, 5.0]])  # saddle at (0, 0): row max-min = col min-max = 1
    sol = solve_matrix_game(A)
    assert sol.value == 1.0
    assert sol.method == "saddle"


def test_matrix_game_lp_path():
    # 3x3 with no pure saddle: rock-paper-scissors, value 0, uniform mixes
    A = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    sol = solve_matrix_game(A)
    assert sol.method == "lp"
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(sol.mu, 1.0 / 3.0, atol=1e-8)
    assert sol.mu.min() >= 0 and sol.nu.min() >= 0
    assert sol.mu.sum() == pytest.approx(1.0, abs=1e-10)


def test_bad_lp_certificate_trips_the_residual_check(monkeypatch):
    # pure first-row/column weights on rock-paper-scissors guarantee -1 and concede +1
    A = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    monkeypatch.setattr(hamiltonian, "_lp_value", lambda M: (0.0, np.eye(3)[0]))
    with pytest.raises(NumericalSolveError, match="LP residual") as err:
        solve_matrix_game(A)
    assert err.value.residual == 2.0


def test_scipy_is_imported_only_when_an_lp_runs():
    # a fresh interpreter: this one may have loaded scipy.optimize already
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import robustctl, robustctl.cli, robustctl.config
        from robustctl.hamiltonian import solve_matrix_game
        assert "scipy.optimize" not in sys.modules, "loaded on import"
        for A in ([[1.0, 2.0], [0.0, 3.0]], [[1.0, -1.0], [-1.0, 1.0]]):
            solve_matrix_game(np.array(A))          # a saddle, then a 2x2
        assert "scipy.optimize" not in sys.modules, "loaded without an LP"
        sol = solve_matrix_game(np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0],
                                          [-1.0, 1.0, 0.0]]))
        assert sol.method == "lp" and abs(sol.value) < 1e-9, sol
        assert "scipy.optimize" in sys.modules
    """)
    src = str(Path(hamiltonian.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr


@given(a=hs.lists(hs.floats(-5, 5), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_matrix_game_wedge_property(a):
    # the mixed value always sits between the two pure values
    A = np.array(a).reshape(2, 2)
    sol = solve_matrix_game(A)
    lo = oracle_lower(A)
    up = oracle_upper(A)
    assert lo - 1e-9 <= sol.value <= up + 1e-9


def lowest_index_picks(A, which):
    """(u_star, v_star, inner_best) of one matrix by first-match scans."""
    n_u, n_v = A.shape
    if which == "lower":
        inner = [next(j for j in range(n_v) if A[i, j] == min(A[i])) for i in range(n_u)]
        vals = [A[i, inner[i]] for i in range(n_u)]
        u = next(i for i in range(n_u) if vals[i] == max(vals))
        return u, inner[u], inner
    inner = [next(i for i in range(n_u) if A[i, j] == max(A[:, j])) for j in range(n_v)]
    vals = [A[inner[j], j] for j in range(n_v)]
    v = next(j for j in range(n_v) if vals[j] == min(vals))
    return inner[v], v, inner


@given(L=hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3, max_side=4),
                    elements=hs.integers(-2, 2)))
@settings(max_examples=200, deadline=None)
def test_minimax_on_stacked_matrices(L):
    # small integers make ties common; each slice must reduce like the 2-d call
    for which, oracle in (("lower", oracle_lower), ("upper", oracle_upper)):
        value, u_star, v_star, inner = minimax(L, which)
        outer_axis = 0 if which == "lower" else 1
        assert value.shape == u_star.shape == v_star.shape == L.shape[2:]
        assert inner.shape == (L.shape[outer_axis],) + L.shape[2:]
        for k in range(L.shape[2]):
            A = L[:, :, k]
            value_k, u_k, v_k, inner_k = minimax(A, which)
            assert value[k] == value_k == oracle(A) == A[u_k, v_k]
            assert (u_star[k], v_star[k]) == (u_k, v_k)
            assert np.array_equal(inner[:, k], inner_k)
            assert (u_k, v_k, list(inner_k)) == lowest_index_picks(A, which)


# ----------------------------------------------- ordering on random queries ---- #


@pytest.mark.parametrize("pid", sorted(available_problems()))
def test_ordering_and_oracle_agreement(pid):
    """H- and H+ agree with brute force; H- <= Hmix <= H+ on random queries."""
    prob = build_problem(pid)
    spec = prob.spec
    rng = stream_generator(derive_seed(11, 31), 0)
    for _ in range(300):
        t = float(rng.uniform(0.0, spec.horizon))
        x = rng.uniform(prob.grid_lo, prob.grid_hi, size=spec.dim)
        p = rng.normal(0.0, 3.0, size=spec.dim)
        M = np.diag(rng.normal(0.0, 3.0, size=spec.dim))
        q = query(spec, t, x, p, M)
        A = oracle_matrix(spec, t, x, p, M)
        lo = hamiltonian_lower(spec, q)
        up = hamiltonian_upper(spec, q)
        mixed = hamiltonian_mixed(spec, q)
        assert lo == pytest.approx(oracle_lower(A), abs=1e-12)
        assert up == pytest.approx(oracle_upper(A), abs=1e-12)
        assert lo <= mixed.value + 1e-8
        assert mixed.value <= up + 1e-8
        # the optimizers minimax reports reproduce the pure values
        L = lagrangian_matrix(spec, q)
        for which, value in (("lower", lo), ("upper", up)):
            _, u_star, v_star, _ = minimax(L, which)
            assert A[u_star, v_star] == pytest.approx(value, abs=1e-12)


def test_query_validation(pennies_problem):
    with pytest.raises(ModelEvaluationError):
        HamiltonianQuery(t=0.0, x=np.zeros(1), p=np.zeros(2), M=np.zeros((1, 1)))
    with pytest.raises(ModelEvaluationError):
        HamiltonianQuery(t=np.nan, x=np.zeros(1), p=np.zeros(1), M=np.zeros((1, 1)))
    # M is symmetrized on input
    q = HamiltonianQuery(t=0.0, x=np.zeros(2), p=np.zeros(2),
                         M=np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(q.M, q.M.T)


def test_mixed_weights_are_a_distribution(drift_problem):
    q = query(drift_problem.spec, 0.2, np.array([0.5]), -1.1, 0.7)
    mixed = hamiltonian_mixed(drift_problem.spec, q)
    for w in (mixed.mu, mixed.nu):
        assert w.min() >= -1e-12
        assert w.sum() == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------ query batches ---- #


def batch_case(name):
    """A spec, its query box, a query count and the scales of p and M.  The
    2-d game has a pure saddle at most queries; a large M and a small p make
    a few of them LP games."""
    if name == "coupled_plane":
        return coupled_plane_spec(), -2.0, 2.0, 120, 1.0, 30.0
    prob = build_problem(name)
    return prob.spec, prob.box_lo, prob.box_hi, 300, 3.0, 3.0


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(available_problems()) + ["coupled_plane"])
def test_the_batch_is_the_one_query_path_bit_for_bit(name):
    # M is drawn unsymmetric, so both paths symmetrize it; the 2-d 3x2 game
    # takes the LP route, pennies the 2x2 closed form, the rest saddles
    spec, lo, hi, n, p_scale, m_scale = batch_case(name)
    rng = stream_generator(derive_seed(17, 31), 0)
    t = rng.uniform(0.0, spec.horizon, n)
    x = rng.uniform(lo, hi, (n, spec.dim))
    p = rng.normal(0.0, p_scale, (n, spec.dim))
    M = rng.normal(0.0, m_scale, (n, spec.dim, spec.dim))
    batch = hamiltonian_mixed_batch(spec, QueryBatch(t=t, x=x, p=p, M=M))
    assert len(batch.method) == n
    for k in range(n):
        q = HamiltonianQuery(t=float(t[k]), x=x[k], p=p[k], M=M[k])
        one = hamiltonian_mixed(spec, q)
        got = batch.solution(k)
        for field in ("lower", "value", "upper", "residual", "mu", "nu"):
            assert bits(getattr(got, field)) == bits(getattr(one, field)), (k, field)
        assert got.method == one.method
        assert (bits(got.lower), bits(got.upper)) == (bits(hamiltonian_lower(spec, q)),
                                                      bits(hamiltonian_upper(spec, q)))
    methods = set(batch.method)
    if name == "coupled_plane":
        assert "lp" in methods
    elif name == "pennies":
        assert "2x2" in methods
    else:
        assert methods == {"saddle"}


def test_a_batch_refuses_a_bad_query_by_name(pennies_problem):
    spec = pennies_problem.spec
    t, x, p = np.zeros(3), np.zeros((3, 1)), np.ones((3, 1))
    M = np.zeros((3, 1, 1))
    for bad in ("t", "x", "p", "M"):
        arrays = {"t": t.copy(), "x": x.copy(), "p": p.copy(), "M": M.copy()}
        arrays[bad][1] = np.nan
        with pytest.raises(ModelEvaluationError, match="query 1 contains non-finite entries"):
            QueryBatch(**arrays)
    with pytest.raises(ModelEvaluationError, match="query shapes inconsistent"):
        QueryBatch(t=t, x=x, p=np.ones((3, 2)), M=M)
    with pytest.raises(ModelEvaluationError, match="query shapes inconsistent"):
        QueryBatch(t=t[:2], x=x, p=p, M=M)
    # a finite query whose running term overflows: b p + M / 2 = 1.7e308 + 0.4e308
    huge = QueryBatch(t=t, x=x, p=np.array([[1.0], [1.0], [1.7e308]]),
                      M=np.array([[[0.0]], [[0.0]], [[0.8e308]]]))
    with np.errstate(over="ignore"):
        with pytest.raises(ModelEvaluationError, match="game matrix of query 2 contains "
                                                       "non-finite entries"):
            hamiltonian_mixed_batch(spec, huge)
