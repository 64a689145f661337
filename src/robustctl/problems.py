"""Built-in benchmark problems and the problem registry.

Every benchmark is one-dimensional with finite control sets, small enough
that the PDE solver, the Monte Carlo engine and closed forms can all be
compared on it:

``constant``
    No dynamics, payoff identically ``value``.  Everything downstream must
    reproduce the constant exactly.
``heat``
    Pure diffusion dX = sigma dW with singleton controls and Gaussian payoff,
    so the value function has a closed form.
``pennies``
    dX = u v dt + dW with u, v in {-1, +1}.  The Hamiltonian has no saddle
    point in pure controls, so lower and upper PDE values differ.
``drift_control``
    dX = (u + v) dt + dW with separable drift; pure saddle point, lower and
    upper values coincide.
``growth_violator``
    b = x^2 with a deliberately false declared growth constant; exists only
    to exercise the assumption gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .sde_core import ControlSet, ProblemSpec

__all__ = [
    "BenchmarkProblem",
    "build_problem",
    "available_problems",
]


@dataclass(frozen=True, eq=False)
class BenchmarkProblem:
    """A problem spec bundled with defaults for grids, boxes and simulation.

    ``reference(t, x)`` is the closed-form value function when one exists
    (x batched as (..., dim), returns (...,)), else None.  ``isaacs_holds``
    declares whether lower and upper Hamiltonians coincide.
    """

    id: str
    spec: ProblemSpec
    parameters: dict
    isaacs_holds: bool
    reference: Callable[[float, np.ndarray], np.ndarray] | None
    grid_lo: float
    grid_hi: float
    grid_h: float
    grid_dt: float | None
    interior_lo: float
    interior_hi: float
    box_lo: float
    box_hi: float
    sim_steps: int


def available_problems() -> list[str]:
    return sorted(_REGISTRY)


def build_problem(problem_id: str, parameters: dict | None = None) -> BenchmarkProblem:
    """Instantiate a built-in problem with optional parameter overrides."""
    if problem_id not in _REGISTRY:
        raise ConfigError(
            f"unknown problem {problem_id!r}; known: {', '.join(available_problems())}")
    return _REGISTRY[problem_id](dict(parameters or {}))


def _take_params(problem_id: str, params: dict, defaults: dict) -> dict:
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigError(
            f"problem {problem_id!r}: unknown parameters {sorted(unknown)}; "
            f"accepted: {sorted(defaults)}")
    out = dict(defaults)
    out.update(params)
    return out


def _const_diffusion(value: float, noise_dim: int = 1):
    def diffusion(t, x, u, v):
        return np.full(x.shape + (noise_dim,), value)
    return diffusion


def _zero_drift(t, x, u, v):
    return np.zeros_like(x)


def _tanh_payoff(x):
    return np.tanh(x[..., 0])


def _gauss_payoff(x):
    return np.exp(-x[..., 0] ** 2)


# ------------------------------------------------------------- builders ---- #


def _build_constant(params: dict) -> BenchmarkProblem:
    p = _take_params("constant", params, {"value": 1.0, "horizon": 1.0})
    c, horizon = float(p["value"]), float(p["horizon"])
    singleton = ControlSet(np.array([[0.0]]), label="singleton")
    spec = ProblemSpec(
        label="constant", dim=1, noise_dim=1, horizon=horizon,
        drift=_zero_drift, diffusion=_const_diffusion(0.0),
        payoff=lambda x: np.full(x.shape[:-1], c),
        controls_u=singleton, controls_v=singleton,
        payoff_bound=abs(c), lipschitz_const=0.0, growth_const=1.0)
    return BenchmarkProblem(
        id="constant", spec=spec, parameters=p,
        isaacs_holds=True,
        reference=lambda t, x: np.full(np.asarray(x).shape[:-1], c),
        grid_lo=-1.0, grid_hi=1.0, grid_h=0.25, grid_dt=horizon / 20.0,
        interior_lo=-1.0, interior_hi=1.0, box_lo=-5.0, box_hi=5.0,
        sim_steps=20)


def _build_heat(params: dict) -> BenchmarkProblem:
    p = _take_params("heat", params, {"diffusion": float(np.sqrt(2.0)), "horizon": 0.5})
    sig, horizon = float(p["diffusion"]), float(p["horizon"])
    if sig <= 0:
        raise ConfigError("problem 'heat': diffusion must be positive")
    singleton = ControlSet(np.array([[0.0]]), label="singleton")
    spec = ProblemSpec(
        label="heat", dim=1, noise_dim=1, horizon=horizon,
        drift=_zero_drift, diffusion=_const_diffusion(sig),
        payoff=_gauss_payoff,
        controls_u=singleton, controls_v=singleton,
        payoff_bound=1.0, lipschitz_const=0.0, growth_const=sig + 0.1)

    def reference(t: float, x: np.ndarray) -> np.ndarray:
        # E[exp(-X_T^2) | X_t = x] with X Gaussian of variance sig^2 (T - t)
        s2 = 1.0 + 2.0 * sig ** 2 * (horizon - t)
        x = np.asarray(x, dtype=float)
        return np.exp(-x[..., 0] ** 2 / s2) / np.sqrt(s2)

    return BenchmarkProblem(
        id="heat", spec=spec, parameters=p,
        isaacs_holds=True, reference=reference,
        grid_lo=-6.0, grid_hi=6.0, grid_h=0.05, grid_dt=None,
        interior_lo=-3.0, interior_hi=3.0, box_lo=-6.0, box_hi=6.0,
        sim_steps=max(1, round(horizon / 1e-3)))


def _build_pennies(params: dict) -> BenchmarkProblem:
    p = _take_params("pennies", params, {"horizon": 0.5})
    horizon = float(p["horizon"])
    pm_one = ControlSet(np.array([[-1.0], [1.0]]), label="pm_one")

    def drift(t, x, u, v):
        return np.full(x.shape, u[0] * v[0])

    spec = ProblemSpec(
        label="pennies", dim=1, noise_dim=1, horizon=horizon,
        drift=drift, diffusion=_const_diffusion(1.0), payoff=_tanh_payoff,
        controls_u=pm_one, controls_v=pm_one,
        payoff_bound=1.0, lipschitz_const=0.0, growth_const=2.0)
    return BenchmarkProblem(
        id="pennies", spec=spec, parameters=p,
        isaacs_holds=False, reference=None,
        grid_lo=-4.0, grid_hi=4.0, grid_h=0.02, grid_dt=None,
        interior_lo=-1.5, interior_hi=1.5, box_lo=-5.0, box_hi=5.0,
        sim_steps=max(1, round(horizon / 2e-3)))


def _build_drift_control(params: dict) -> BenchmarkProblem:
    p = _take_params("drift_control", params, {"horizon": 0.5})
    horizon = float(p["horizon"])

    def drift(t, x, u, v):
        return np.full(x.shape, u[0] + v[0])

    spec = ProblemSpec(
        label="drift_control", dim=1, noise_dim=1, horizon=horizon,
        drift=drift, diffusion=_const_diffusion(1.0), payoff=_tanh_payoff,
        controls_u=ControlSet(np.array([[-1.0], [0.0], [1.0]]), label="u3"),
        controls_v=ControlSet(np.array([[-0.5], [0.0], [0.5]]), label="v3"),
        payoff_bound=1.0, lipschitz_const=0.0, growth_const=2.5)
    return BenchmarkProblem(
        id="drift_control", spec=spec, parameters=p,
        isaacs_holds=True, reference=None,
        grid_lo=-4.0, grid_hi=4.0, grid_h=0.02, grid_dt=None,
        interior_lo=-1.5, interior_hi=1.5, box_lo=-5.0, box_hi=5.0,
        sim_steps=max(1, round(horizon / 2e-3)))


def _build_growth_violator(params: dict) -> BenchmarkProblem:
    p = _take_params("growth_violator", params, {"horizon": 0.5})
    horizon = float(p["horizon"])
    singleton = ControlSet(np.array([[0.0]]), label="singleton")

    def drift(t, x, u, v):
        return x ** 2

    # declared growth constant 1.0 is false: (|b| + |sigma|)/(1 + |x|) = x^2/(1+|x|)
    # reaches 100/11 at x = 10, so the assumption gate must reject this problem
    spec = ProblemSpec(
        label="growth_violator", dim=1, noise_dim=1, horizon=horizon,
        drift=drift, diffusion=_const_diffusion(0.0), payoff=_gauss_payoff,
        controls_u=singleton, controls_v=singleton,
        payoff_bound=1.0, lipschitz_const=25.0, growth_const=1.0)
    return BenchmarkProblem(
        id="growth_violator", spec=spec, parameters=p,
        isaacs_holds=True, reference=None,
        grid_lo=-1.0, grid_hi=1.0, grid_h=0.1, grid_dt=None,
        interior_lo=-1.0, interior_hi=1.0, box_lo=-10.0, box_hi=10.0,
        sim_steps=50)


_REGISTRY: dict[str, Callable[[dict], BenchmarkProblem]] = {
    "constant": _build_constant,
    "heat": _build_heat,
    "pennies": _build_pennies,
    "drift_control": _build_drift_control,
    "growth_violator": _build_growth_violator,
}
