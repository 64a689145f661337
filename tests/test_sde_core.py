"""Seed derivation, noise sampling, model evaluation, and the assumption gate."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import sde_oracle as oracle
from robustctl.errors import ConfigError, ModelEvaluationError
from robustctl.sde_core import (STREAM_BROWNIAN, STREAM_EXTRA, ControlSet,
                                ProblemSpec, derive_seed, derive_seed_array,
                                eval_diffusion, eval_drift, eval_pairs,
                                eval_payoff, sample_noise, sample_noise_batch,
                                stream_generator, validate_assumptions)
from robustctl.problems import available_problems, build_problem
from sde_oracle import euler_step

SQRT2 = float(np.sqrt(2.0))


# ------------------------------------------------------- seed derivation ---- #


def test_derive_seed_is_pure_and_spread():
    a = derive_seed(0, 37)
    assert a == derive_seed(0, 37)
    # distinct tuples land far apart; a handful of collisions would mean the
    # mixer is broken, not bad luck
    children = {derive_seed(0, i) for i in range(10_000)}
    assert len(children) == 10_000
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)


# negative and >= 2^64 ints too: every argument is taken mod 2^64
WIDE_INTS = hs.integers(min_value=-2**66, max_value=2**66)


@given(master=WIDE_INTS, idx=hs.lists(WIDE_INTS, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_derive_seed_array_matches_scalar_chain(master, idx):
    want = oracle.derive_seed(master, *idx)
    assert derive_seed(master, *idx) == want
    chained = np.uint64(master & oracle.MASK64)
    for i in idx:
        chained = derive_seed_array(chained, np.uint64(i & oracle.MASK64))
    assert int(chained) == want


def test_derive_seed_pinned():
    # summaries and every Monte Carlo table hang off these values
    assert derive_seed(0) == 0
    assert derive_seed(0, 37) == 4340416312237048737
    assert derive_seed(7, 29, 3, 1234) == 12209946944707921864
    assert derive_seed(-1, 5) == 15212506146343009075
    assert derive_seed(2**64 + 5, -3, 2**70) == 14836330394352925190
    assert derive_seed(123456789, 0, 1, 2, 3) == 12274957022287804460
    assert derive_seed(2**64 - 1, 2**64 - 1) == 13029008266876403067


def test_derive_seed_array_broadcasts():
    idx = np.arange(64, dtype=np.uint64)
    batch = derive_seed_array(123, idx)
    assert batch.shape == (64,)
    assert batch.dtype == np.uint64
    for i in (0, 1, 63):
        assert int(batch[i]) == derive_seed(123, i)


def test_stream_generator_streams_are_distinct():
    g0 = stream_generator(7, STREAM_BROWNIAN).standard_normal(100)
    g1 = stream_generator(7, STREAM_EXTRA).standard_normal(100)
    again = stream_generator(7, STREAM_BROWNIAN).standard_normal(100)
    assert np.array_equal(g0, again)
    assert not np.array_equal(g0, g1)


# ------------------------------------------------------------ noise paths ---- #


def test_sample_noise_is_pure():
    times = np.linspace(0.0, 0.5, 33)
    a = sample_noise(times, 42, 2, extra_dim=1)
    b = sample_noise(times, 42, 2, extra_dim=1)
    assert np.array_equal(a.dW, b.dW)
    assert np.array_equal(a.extra, b.extra)
    assert a.n_steps == 32
    assert a.dW.shape == (32, 2)
    assert a.extra.shape == (32, 1)


def test_sample_noise_extra_stream_is_disjoint():
    # enlarging the auxiliary stream must not touch the state-driving one
    times = np.linspace(0.0, 1.0, 17)
    bare = sample_noise(times, 9, 1, extra_dim=0)
    wide = sample_noise(times, 9, 1, extra_dim=2)
    assert bare.extra.shape == (16, 0)
    assert np.array_equal(bare.dW, wide.dW)


def test_sample_noise_increment_variance():
    # N = 1e4 steps of dt = 1e-4: sample variance within 10% of dt for seed 0
    n, dt = 10_000, 1e-4
    times = np.linspace(0.0, n * dt, n + 1)
    noise = sample_noise(times, 0, 1)
    var = float(np.var(noise.dW[:, 0]))
    assert dt * 0.9 <= var <= dt * 1.1


def test_noise_panel_rows_are_fresh_stream_draws():
    # the independent oracle for the engine's noise: row p of the panel is a
    # freshly constructed generator's draw for seeds[p], times sqrt(dt)
    times = np.cumsum(np.r_[0.0, np.linspace(0.01, 0.05, 24)])
    scale = np.sqrt(np.diff(times))[:, None]
    seeds = derive_seed_array(17, np.arange(64))
    for noise_dim, extra_dim in ((1, 0), (2, 3)):
        dW, extra = sample_noise_batch(times, seeds, noise_dim, extra_dim)
        assert dW.shape == (64, 24, noise_dim) and extra.shape == (64, 24, extra_dim)
        for p, seed in enumerate(seeds):
            want = stream_generator(int(seed), STREAM_BROWNIAN).standard_normal((24, noise_dim))
            assert np.array_equal(dW[p], want * scale)
            want = stream_generator(int(seed), STREAM_EXTRA).standard_normal((24, extra_dim))
            assert np.array_equal(extra[p], want * scale)
    # sample_noise is the one-row case, seed masked to 64 bits
    for seed in (3, -3, 2 ** 64 + 3):
        one = sample_noise(times, seed, 2, extra_dim=3)
        row = np.array([seed & (2 ** 64 - 1)], dtype=np.uint64)
        dW, extra = sample_noise_batch(times, row, 2, 3)
        assert np.array_equal(one.dW, dW[0]) and np.array_equal(one.extra, extra[0])
        assert one.seed == seed


def test_sample_noise_rejects_bad_grid():
    with pytest.raises(ConfigError):
        sample_noise(np.array([0.0]), 0, 1)
    with pytest.raises(ConfigError):
        sample_noise(np.array([0.0, 1.0, 0.5]), 0, 1)


# ------------------------------------------------------------ control sets ---- #


def test_control_set_basics():
    cs = ControlSet(np.array([[-1.0], [1.0]]), label="pm")
    assert cs.size == 2
    assert cs.point_dim == 1
    assert cs.point(1)[0] == 1.0
    with pytest.raises(ValueError):
        cs.points[0, 0] = 5.0  # read-only view


def test_control_set_validation():
    with pytest.raises(ConfigError):
        ControlSet(np.zeros((0, 1)))
    with pytest.raises(ConfigError):
        ControlSet(np.array([[1.0], [1.0]]))
    with pytest.raises(ConfigError):
        ControlSet(np.array([[np.inf]]))


# --------------------------------------------------------- model evaluation ---- #


def test_drift_oracles(pennies_problem, heat_problem, drift_problem):
    x = np.array([0.0])
    u1 = np.array([1.0])
    vm1 = np.array([-1.0])
    assert eval_drift(pennies_problem.spec, 0.0, x, u1, vm1)[0] == -1.0
    assert eval_drift(heat_problem.spec, 0.3, np.array([2.0]), np.array([0.0]),
                      np.array([0.0]))[0] == 0.0
    assert eval_drift(drift_problem.spec, 0.0, x, u1, np.array([-0.5]))[0] == 0.5


def test_diffusion_oracles(pennies_problem, heat_problem, violator_problem):
    x = np.array([0.7])
    z = np.array([0.0])
    assert eval_diffusion(heat_problem.spec, 0.1, x, z, z)[0, 0] == pytest.approx(SQRT2, abs=1e-8)
    assert eval_diffusion(pennies_problem.spec, 0.1, x, np.array([1.0]),
                          np.array([1.0]))[0, 0] == 1.0
    assert eval_diffusion(violator_problem.spec, 0.1, x, z, z)[0, 0] == 0.0


def test_eval_shapes_are_enforced(pennies_problem):
    spec = pennies_problem.spec
    bad = dataclasses.replace(spec, drift=lambda t, x, u, v: np.zeros(3))
    with pytest.raises(ModelEvaluationError):
        eval_drift(bad, 0.0, np.zeros(1), spec.controls_u.point(0), spec.controls_v.point(0))
    nan = dataclasses.replace(spec, diffusion=lambda t, x, u, v: np.full((1, 1), np.nan))
    with pytest.raises(ModelEvaluationError):
        eval_diffusion(nan, 0.0, np.zeros(1), spec.controls_u.point(0), spec.controls_v.point(0))


def pairs_oracle(spec, t, x):
    """eval_pairs the slow way: eval_drift then eval_diffusion, pair by pair."""
    U, V = spec.controls_u, spec.controls_v
    b, sig = [], []
    for i in range(U.size):
        for j in range(V.size):
            b.append(eval_drift(spec, t, x, U.point(i), V.point(j)))
            sig.append(eval_diffusion(spec, t, x, U.point(i), V.point(j)))
    x = np.asarray(x, dtype=float)
    return (np.array(b).reshape((U.size, V.size) + x.shape),
            np.array(sig).reshape((U.size, V.size) + x.shape + (spec.noise_dim,)))


def outcome(fn, *args):
    """The result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("problem_id", available_problems())
def test_eval_pairs_matches_the_per_pair_oracle_bitwise(problem_id):
    spec = build_problem(problem_id).spec
    for x in (np.array([0.3]), np.linspace(-3.0, 3.0, 41)[:, None],
              np.full((2, 3, 1), -0.0)):
        got, want = eval_pairs(spec, 0.2, x), pairs_oracle(spec, 0.2, x)
        for a, w in zip(got, want):
            assert a.shape == w.shape and a.dtype == w.dtype
            assert a.tobytes() == w.tobytes()


def faulty_spec(faults, noise_dim=1):
    """A 2 x 2 game whose (i, j) drift/diffusion returns the fault named in
    ``faults[(i, j, "drift" | "diffusion")]`` (default: a correct output)."""
    def callback(coef):
        def fn(t, x, u, v):
            key = (int(u[0] > 0), int(v[0] > 0), coef)
            shape = x.shape + ((noise_dim,) if coef == "diffusion" else ())
            kind = faults.get(key, "ok")
            if kind == "raise":
                raise ValueError(f"callback failed at {key}")
            if kind == "scalar":
                return np.float64(0.5)     # would broadcast into the stacked block
            if kind == "shape":
                return np.zeros(shape[:-1])
            out = np.full(shape, u[0] + 2.0 * v[0])
            if kind in ("nan", "inf"):
                out.flat[-1] = np.nan if kind == "nan" else -np.inf
            return out
        return fn

    pm = ControlSet(np.array([[-1.0], [1.0]]))
    return ProblemSpec(label="faulty", dim=1, noise_dim=noise_dim, horizon=1.0,
                       drift=callback("drift"), diffusion=callback("diffusion"),
                       payoff=lambda x: np.zeros(x.shape[:-1]),
                       controls_u=pm, controls_v=pm, payoff_bound=1.0)


@pytest.mark.parametrize("faults, message", [
    # an earlier non-finite output wins over a later shape fault
    ({(0, 1, "diffusion"): "nan", (1, 0, "drift"): "shape"},
     "faulty.diffusion(t=0.25, u=[-1.], v=[1.]) returned non-finite values"),
    # on one pair the drift is checked before the diffusion
    ({(1, 1, "drift"): "inf", (1, 1, "diffusion"): "shape"},
     "faulty.drift(t=0.25, u=[1.], v=[1.]) returned non-finite values"),
    # a scalar is a shape fault, not a value spread over the block
    ({(0, 1, "drift"): "scalar"},
     "faulty.drift(t=0.25, u=[-1.], v=[1.]) returned shape (), expected (5, 1)"),
    # a callback that raises after an earlier non-finite output is never reached
    ({(0, 0, "diffusion"): "nan", (0, 1, "drift"): "raise"},
     "faulty.diffusion(t=0.25, u=[-1.], v=[-1.]) returned non-finite values"),
])
def test_eval_pairs_raises_the_per_pair_oracles_first_error(faults, message):
    spec = faulty_spec(faults)
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    want = outcome(pairs_oracle, spec, 0.25, x)
    assert want == (ModelEvaluationError, message)
    assert outcome(eval_pairs, spec, 0.25, x) == want


FAULT_KEYS = [(i, j, coef) for i in range(2) for j in range(2)
              for coef in ("drift", "diffusion")]


@given(kinds=hs.lists(hs.sampled_from(["ok", "ok", "nan", "inf", "shape", "scalar", "raise"]),
                      min_size=len(FAULT_KEYS), max_size=len(FAULT_KEYS)),
       noise_dim=hs.integers(1, 2))
@settings(max_examples=200, deadline=None)
def test_eval_pairs_errors_agree_with_the_oracle_on_any_fault_mix(kinds, noise_dim):
    spec = faulty_spec(dict(zip(FAULT_KEYS, kinds)), noise_dim)
    x = np.linspace(-1.0, 1.0, 4)[:, None]
    got, want = outcome(eval_pairs, spec, 0.5, x), outcome(pairs_oracle, spec, 0.5, x)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert all(a.tobytes() == w.tobytes() for a, w in zip(got, want))


def test_payoff_bound_is_enforced(pennies_problem):
    spec = pennies_problem.spec
    assert eval_payoff(spec, np.array([0.0])) == 0.0  # tanh(0)
    liar = dataclasses.replace(spec, payoff=lambda x: 5.0 + 0.0 * x[..., 0])
    with pytest.raises(ModelEvaluationError):
        eval_payoff(liar, np.array([0.0]))


def test_problem_spec_collects_all_errors():
    cs = ControlSet(np.array([[0.0]]))
    with pytest.raises(ConfigError) as err:
        ProblemSpec(label="bad", dim=0, noise_dim=0, horizon=-1.0,
                    drift=lambda t, x, u, v: x, diffusion=lambda t, x, u, v: x,
                    payoff=lambda x: x, controls_u=cs, controls_v=cs,
                    payoff_bound=-2.0)
    assert len(err.value.errors) >= 3


# -------------------------------------------------------------- euler step ---- #


def test_euler_step_oracles(drift_problem, heat_problem, violator_problem):
    z = np.array([0.0])
    # frozen dynamics: b = 0, sigma = 0 leaves x alone
    frozen = euler_step(violator_problem.spec, 0.0, 0.25, np.array([3.0]), z, z,
                        np.array([0.4]))
    # violator drift is x^2, so freeze it at x=0 instead
    assert euler_step(violator_problem.spec, 0.0, 0.25, z, z, z, np.array([0.4]))[0] == 0.0
    assert frozen[0] == 3.0 + 0.25 * 9.0  # x^2 drift, sigma = 0
    # pure drift: b = u + v = 1, dt = 0.1
    pure_drift = euler_step(drift_problem.spec, 0.0, 0.1, z, np.array([1.0]),
                            np.array([0.0]), np.array([0.0]))
    assert pure_drift[0] == pytest.approx(0.1, abs=0.0)
    # pure diffusion: sigma = sqrt(2), dW = 0.5
    pure_diff = euler_step(heat_problem.spec, 0.0, 0.1, z, z, z, np.array([0.5]))
    assert pure_diff[0] == pytest.approx(0.70710678, abs=1e-8)


@given(x=hs.floats(-3, 3), dw=hs.floats(-2, 2), dt=hs.floats(0.001, 0.5))
@settings(max_examples=100, deadline=None)
def test_euler_step_is_affine_in_state_free_coefficients(drift_problem, x, dw, dt):
    # b = u + v and sigma = 1 do not read x, so the step is x plus a shift
    spec = drift_problem.spec
    u, v = np.array([1.0]), np.array([0.5])
    base = euler_step(spec, 0.0, dt, np.array([0.0]), u, v, np.array([dw]))
    shifted = euler_step(spec, 0.0, dt, np.array([x]), u, v, np.array([dw]))
    assert shifted[0] == pytest.approx(x + base[0], rel=1e-12, abs=1e-12)


# --------------------------------------------------------- assumption gate ---- #


def test_assumptions_pass_on_state_free_coefficients(drift_problem):
    rep = validate_assumptions(drift_problem.spec, drift_problem.box_lo,
                               drift_problem.box_hi, n_samples=500, seed=0)
    assert rep.lipschitz_estimate == 0.0
    assert rep.passed


def test_assumptions_pass_on_heat(heat_problem):
    rep = validate_assumptions(heat_problem.spec, heat_problem.box_lo,
                               heat_problem.box_hi, n_samples=500, seed=0)
    assert rep.passed


def test_assumptions_reject_growth_violator(violator_problem):
    # |x^2| / (1 + |x|) reaches 100/11 > 1 at the box edge; a sampled
    # estimate is a lower bound, so the failure is conclusive
    rep = validate_assumptions(violator_problem.spec, violator_problem.box_lo,
                               violator_problem.box_hi, n_samples=2000, seed=0)
    assert not rep.growth_pass
    assert not rep.passed
    assert rep.growth_estimate > 1.05
    assert rep.growth_estimate <= 100.0 / 11.0 + 1e-9


def test_assumptions_report_is_deterministic(heat_problem):
    a = validate_assumptions(heat_problem.spec, -6, 6, n_samples=200, seed=3)
    b = validate_assumptions(heat_problem.spec, -6, 6, n_samples=200, seed=3)
    assert a.lipschitz_estimate == b.lipschitz_estimate
    assert a.growth_estimate == b.growth_estimate
