"""Benchmark library: registry, parameter handling, references."""

from __future__ import annotations

import numpy as np
import pytest

from robustctl.errors import ConfigError
from robustctl.problems import available_problems, build_problem
from robustctl.sde_core import eval_payoff


def test_registry_contents():
    assert set(available_problems()) == {
        "constant", "heat", "pennies", "drift_control", "growth_violator"}


def test_unknown_problem_is_rejected():
    with pytest.raises(ConfigError) as err:
        build_problem("heatt")
    assert "heatt" in str(err.value)


def test_unknown_parameter_is_rejected():
    with pytest.raises(ConfigError) as err:
        build_problem("heat", {"sigma": 1.0, "horizn": 0.5})
    msg = str(err.value)
    assert "horizn" in msg and "horizon" in msg  # names the accepted keys


def test_parameter_override_reaches_the_spec():
    prob = build_problem("heat", {"horizon": 0.25})
    assert prob.spec.horizon == 0.25
    assert prob.parameters["horizon"] == 0.25


def test_heat_reference_formula(heat_problem):
    # E[g(x + sqrt(2) W_{T-t})] for g = exp(-x^2):
    # 1/sqrt(1 + 4(T-t)) * exp(-x^2 / (1 + 4(T-t)))
    T = heat_problem.spec.horizon
    ref = heat_problem.reference
    assert ref(T, np.array([[0.7]]))[0] == pytest.approx(np.exp(-0.49), abs=1e-12)
    s2 = 1.0 + 4.0 * T
    assert ref(0.0, np.array([[0.0]]))[0] == pytest.approx(1.0 / np.sqrt(s2), abs=1e-12)
    x = np.array([[1.3]])
    want = np.exp(-1.3 ** 2 / s2) / np.sqrt(s2)
    assert ref(0.0, x)[0] == pytest.approx(want, abs=1e-12)


def test_constant_reference_is_flat(constant_problem):
    ref = constant_problem.reference
    pts = np.array([[-1.0], [0.0], [0.5]])
    assert np.array_equal(ref(0.0, pts), np.ones(3))
    assert np.array_equal(ref(constant_problem.spec.horizon / 2, pts), np.ones(3))


def test_payoffs_respect_declared_bounds():
    for pid in available_problems():
        prob = build_problem(pid)
        xs = np.linspace(prob.box_lo, prob.box_hi, 101)[:, None]
        g = eval_payoff(prob.spec, xs)
        assert np.all(np.abs(g) <= prob.spec.payoff_bound + 1e-12), pid


def test_flags_and_grids_are_coherent():
    pennies = build_problem("pennies")
    drift = build_problem("drift_control")
    assert pennies.isaacs_holds is False
    assert drift.isaacs_holds is True
    for pid in available_problems():
        prob = build_problem(pid)
        assert prob.grid_lo < prob.grid_hi
        assert prob.interior_lo >= prob.grid_lo
        assert prob.interior_hi <= prob.grid_hi
        assert prob.sim_steps >= 1


def test_control_sets_match_the_narrative(pennies_problem, drift_problem):
    assert np.array_equal(pennies_problem.spec.controls_u.points, [[-1.0], [1.0]])
    assert np.array_equal(pennies_problem.spec.controls_v.points, [[-1.0], [1.0]])
    assert np.array_equal(drift_problem.spec.controls_u.points, [[-1.0], [0.0], [1.0]])
    assert np.array_equal(drift_problem.spec.controls_v.points, [[-0.5], [0.0], [0.5]])


def test_built_in_drifts_fill_their_block_with_the_old_bits():
    # one np.full of the pair's value, the same bits as the value times
    # ones_like(x): multiplying by 1.0 is exact and keeps signed zeros
    x = np.array([0.0, -0.0, 1e300, -1e300, 1.0] * 3).reshape(3, 5, 1)
    for pid, pair in (("pennies", lambda u, v: u[0] * v[0]),
                      ("drift_control", lambda u, v: u[0] + v[0])):
        spec = build_problem(pid).spec
        for u in spec.controls_u.points:
            for v in spec.controls_v.points:
                got = spec.drift(0.0, x, u, v)
                old = pair(u, v) * np.ones_like(x)
                assert got.dtype == old.dtype and got.shape == old.shape, (pid, u, v)
                assert got.tobytes() == old.tobytes(), (pid, u, v)
