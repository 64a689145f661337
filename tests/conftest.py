"""Shared fixtures: built benchmarks and small solved fields.

Everything here is deterministic, so the expensive pieces (PDE solves) are
session-scoped and shared across modules.  The grids are coarser than the
production defaults; tests that need production resolution build their own
and pay for it locally.
"""

from __future__ import annotations

import numpy as np
import pytest

from robustctl.game_engine import AdversaryFamily, EngineConfig, value_experiment
from robustctl.pde_solver import make_grid, solve_isaacs
from robustctl.problems import build_problem
from robustctl.sde_core import ControlSet, ProblemSpec


@pytest.fixture(scope="session")
def constant_problem():
    return build_problem("constant")


@pytest.fixture(scope="session")
def heat_problem():
    return build_problem("heat")


@pytest.fixture(scope="session")
def pennies_problem():
    return build_problem("pennies")


@pytest.fixture(scope="session")
def drift_problem():
    return build_problem("drift_control")


@pytest.fixture(scope="session")
def violator_problem():
    return build_problem("growth_violator")


def solve_both(problem, h):
    grid = make_grid(problem.spec, problem.grid_lo, problem.grid_hi, h)
    return solve_isaacs(problem.spec, grid, ("lower", "upper"))


@pytest.fixture(scope="session")
def pennies_fields(pennies_problem):
    """Lower and upper fields at h=0.1 (coarse but honest CFL-tight dt)."""
    return solve_both(pennies_problem, 0.1)


@pytest.fixture(scope="session")
def drift_fields(drift_problem):
    return solve_both(drift_problem, 0.1)


@pytest.fixture(scope="session")
def heat_field(heat_problem):
    grid = make_grid(heat_problem.spec, heat_problem.grid_lo,
                     heat_problem.grid_hi, 0.25)
    return solve_isaacs(heat_problem.spec, grid, "lower")


@pytest.fixture(scope="session")
def engine64():
    """Small engine for unit-level simulation tests."""
    return EngineConfig(n_steps=64, chunk_size=256, threads=1)


@pytest.fixture
def announce(capsys):
    """Print a line straight to the terminal, bypassing pytest capture."""

    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def times_grid(s: float, horizon: float, n_steps: int) -> np.ndarray:
    return np.linspace(s, horizon, n_steps + 1)


def estimate_cell(spec, s, x0, strategy, adversary, n_paths, master_seed, engine,
                  keep_payoffs=False):
    """The 1 x 1 table of ``value_experiment``: one strategy's estimate against one member."""
    return value_experiment(spec, s, x0, [strategy], AdversaryFamily((adversary,)), n_paths,
                            master_seed, engine, keep_payoffs).best.estimate


def coupled_plane_spec() -> ProblemSpec:
    """A 2-D game whose running term exercises every axis of the kernel.

    The drift couples the coordinates, sigma is a full non-normal 2x2 matrix
    (so sigma sigma^T and sigma^T sigma differ), and the 3x2 control set has
    vector-valued u.
    """
    U = ControlSet(np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.5]]), label="u3")
    V = ControlSet(np.array([[-0.5], [0.5]]), label="v2")

    def drift(t, x, u, v):
        return np.stack([u[0] + v[0] * np.tanh(x[..., 1]),
                         u[1] - 0.3 * v[0] * x[..., 0] + t], axis=-1)

    def diffusion(t, x, u, v):
        sig = np.empty(x.shape + (2,))
        sig[..., 0, 0] = 1.0 + 0.2 * v[0]
        sig[..., 0, 1] = 0.7 * u[0] + 0.1 * x[..., 1]
        sig[..., 1, 0] = -0.4 + 0.2 * x[..., 0]
        sig[..., 1, 1] = 0.8 + 0.3 * u[1] * v[0]
        return sig

    return ProblemSpec(label="coupled_plane", dim=2, noise_dim=2, horizon=1.0,
                       drift=drift, diffusion=diffusion,
                       payoff=lambda x: np.tanh(x[..., 0] - x[..., 1]),
                       controls_u=U, controls_v=V, payoff_bound=1.0)
