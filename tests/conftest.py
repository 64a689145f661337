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
