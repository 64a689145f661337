"""Grid construction, the monotone backward march, and field interrogation."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from robustctl.errors import (CflViolationError, ConfigError, ModelEvaluationError,
                              NumericalSolveError)
from robustctl.pde_solver import (SpaceTimeGrid, ValueField, cfl_max_dt,
                                  compare_to_reference, make_grid, solve_isaacs)
from robustctl.problems import available_problems, build_problem
from robustctl.sde_core import ControlSet, ProblemSpec, eval_payoff
from working_set import peak_bytes


def simple_spec(drift_value: float, sigma_value: float, dim: int = 1,
                payoff=None, bound: float = 1.0) -> ProblemSpec:
    cs = ControlSet(np.array([[0.0]]))
    if payoff is None:
        payoff = lambda x: np.tanh(x[..., 0])
    return ProblemSpec(
        label=f"b{drift_value}s{sigma_value}", dim=dim, noise_dim=dim, horizon=0.5,
        drift=lambda t, x, u, v: np.full_like(x, drift_value),
        diffusion=lambda t, x, u, v: sigma_value * np.broadcast_to(np.eye(dim), x.shape + (dim,)),
        payoff=payoff, controls_u=cs, controls_v=cs, payoff_bound=bound)


# ------------------------------------------------------------------- grids ---- #


def test_cfl_bound_oracles(heat_problem):
    axes = (np.arange(-6.0, 6.0 + 1e-9, 0.1),)
    # sigma^2 = 2, h = 0.1, b = 0 -> 1 / (2 / 0.01) = 0.005
    assert cfl_max_dt(heat_problem.spec, axes) == pytest.approx(0.005, rel=1e-9)
    transport = simple_spec(1.0, 0.0)
    assert cfl_max_dt(transport, axes) == pytest.approx(0.1, rel=1e-9)
    frozen = simple_spec(0.0, 0.0)
    assert cfl_max_dt(frozen, axes) == np.inf


def test_make_grid_tightens_dt_to_the_horizon(heat_problem):
    grid = make_grid(heat_problem.spec, -6, 6, 0.1)
    assert grid.times[0] == 0.0
    assert grid.times[-1] == heat_problem.spec.horizon
    assert grid.dt <= 0.005 * (1 + 1e-9)
    assert abs(grid.n_steps * grid.dt - heat_problem.spec.horizon) < 1e-12
    assert grid.axes[0][0] == -6.0 and grid.axes[0][-1] == 6.0


def test_a_grid_refuses_axes_it_cannot_snap_on():
    # dt and spacing are read off the first step, so every axis, time
    # included, must be 1-d, non-empty, uniform and increasing
    times, axis = np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 5)
    for bad in (np.array([0.0, 0.5, 0.6]), axis[::-1], np.array([]), np.zeros((2, 2))):
        with pytest.raises(ConfigError, match="grid axis 1"):
            SpaceTimeGrid(times, (axis, bad))
        with pytest.raises(ConfigError, match="grid times"):
            SpaceTimeGrid(bad, (axis,))
    grid = SpaceTimeGrid([0.0, 0.25, 0.5], (axis, [0.3]))
    assert grid.dt == 0.25 and grid.spacing.tolist() == [0.5, 1.0]
    assert [f.name for f in dataclasses.fields(grid)] == ["times", "axes"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.axes = (axis, axis)


def test_a_grid_rebuilt_from_its_times_and_axes_solves_to_the_same_bits(pennies_problem):
    spec = pennies_problem.spec
    grid = make_grid(spec, -2.0, 2.0, 0.1)
    rebuilt = SpaceTimeGrid([float(t) for t in grid.times], tuple(list(a) for a in grid.axes))
    assert rebuilt.dt == grid.dt and np.array_equal(rebuilt.spacing, grid.spacing)
    for made, built in zip(solve_isaacs(spec, grid, ("lower", "upper")),
                           solve_isaacs(spec, rebuilt, ("lower", "upper"))):
        assert built.feedback_u.grid is built.feedback_v.grid is built.grid is rebuilt
        for name in ("values", "response_v", "max_update"):
            assert np.array_equal(getattr(made, name), getattr(built, name)), name
        for name in ("feedback_u", "feedback_v"):
            assert np.array_equal(getattr(made, name).indices, getattr(built, name).indices)


def test_make_grid_rejects_non_dividing_h(heat_problem):
    with pytest.raises(ConfigError):
        make_grid(heat_problem.spec, -6, 6, 0.07)


def test_make_grid_rejects_dt_above_the_bound(heat_problem):
    with pytest.raises(CflViolationError) as err:
        make_grid(heat_problem.spec, -6, 6, 0.1, dt=0.01)
    assert err.value.dt == 0.01
    assert err.value.dt_max == pytest.approx(0.005, rel=1e-9)


def test_make_grid_requires_dt_when_coefficients_vanish():
    frozen = simple_spec(0.0, 0.0)
    with pytest.raises(ConfigError):
        make_grid(frozen, -1, 1, 0.25)
    grid = make_grid(frozen, -1, 1, 0.25, dt=0.05)
    assert grid.dt == pytest.approx(0.05, rel=1e-12)


def test_solve_rechecks_cfl_against_its_own_spec(heat_problem):
    # a grid built for sigma^2 = 2 is too coarse in time for sigma = 2
    grid = make_grid(heat_problem.spec, -6, 6, 0.25)
    hot = simple_spec(0.0, 2.0, payoff=lambda x: np.exp(-x[..., 0] ** 2))
    with pytest.raises(CflViolationError):
        solve_isaacs(hot, grid, "lower")


def test_off_diagonal_diffusion_is_rejected():
    cs = ControlSet(np.array([[0.0]]))
    spec = ProblemSpec(
        label="skew", dim=2, noise_dim=2, horizon=0.5,
        drift=lambda t, x, u, v: np.zeros_like(x),
        diffusion=lambda t, x, u, v: np.broadcast_to(
            np.array([[1.0, 0.5], [0.5, 1.0]]), x.shape + (2,)),
        payoff=lambda x: np.tanh(x[..., 0]), controls_u=cs, controls_v=cs,
        payoff_bound=1.0)
    # the CFL sampler touches the coefficients, so the grid builder already rejects
    with pytest.raises(ModelEvaluationError):
        grid = make_grid(spec, (-1, -1), (1, 1), 0.5)
        solve_isaacs(spec, grid, "lower")


def test_which_is_validated(heat_problem):
    grid = make_grid(heat_problem.spec, -6, 6, 0.25)
    with pytest.raises(ConfigError):
        solve_isaacs(heat_problem.spec, grid, "middle")


# ---------------------------------------------------------------- the march ---- #


def test_terminal_layer_is_the_payoff_exactly(pennies_fields, pennies_problem):
    lower, upper = pennies_fields
    nodes = lower.grid.nodes()
    g = eval_payoff(pennies_problem.spec, nodes)
    assert np.array_equal(lower.values[-1], g)
    assert np.array_equal(upper.values[-1], g)


def test_constant_payoff_problem_is_a_fixed_point(constant_problem):
    grid = make_grid(constant_problem.spec, constant_problem.grid_lo,
                     constant_problem.grid_hi, constant_problem.grid_h,
                     dt=constant_problem.grid_dt)
    field = solve_isaacs(constant_problem.spec, grid, "lower")
    assert np.all(field.values == 1.0)
    # ties break to the first control index on every cell
    assert np.all(field.feedback_u.indices == 0)
    assert np.all(field.feedback_v.indices == 0)


def test_heat_matches_the_closed_form(heat_problem, heat_field):
    rep = compare_to_reference(heat_field, heat_problem.reference, lo=-3, hi=3)
    assert rep.sup_error < 1e-2
    # refining the grid pays: h=0.05 is far better than h=0.25
    fine = solve_isaacs(heat_problem.spec,
                        make_grid(heat_problem.spec, -6, 6, 0.05), "lower")
    rep_fine = compare_to_reference(fine, heat_problem.reference, lo=-3, hi=3)
    assert rep_fine.sup_error < rep.sup_error / 4
    assert rep_fine.sup_error < 1e-3


def test_two_dimensional_heat_matches_the_product_closed_form():
    # sigma = sqrt(2) I, g = exp(-|x|^2): v is the product of two 1-d heat solutions
    sigma2 = 2.0
    spec = simple_spec(0.0, np.sqrt(sigma2), dim=2,
                       payoff=lambda x: np.exp(-(x ** 2).sum(axis=-1)))
    assert spec.horizon == 0.5

    def reference(t, x):
        s2 = 1.0 + 2.0 * sigma2 * (spec.horizon - t)
        return np.exp(-(x ** 2).sum(axis=-1) / s2) / s2

    grid = make_grid(spec, -6, 6, 0.1)
    assert grid.shape == (121, 121)
    field = solve_isaacs(spec, grid, "lower")
    rep = compare_to_reference(field, reference, lo=-3, hi=3)
    assert rep.sup_error < 1e-3
    # the scheme treats both axes alike, so the symmetric data stays symmetric bitwise
    assert np.array_equal(field.values, field.values.swapaxes(1, 2))


def test_lower_is_below_upper_with_a_real_gap(pennies_fields):
    lower, upper = pennies_fields
    diff = upper.values - lower.values
    assert np.all(diff >= 0.0)
    # tanh payoff: the pennies game has a genuine Isaacs gap at time zero
    assert diff[0].max() > 1e-3


def test_lower_equals_upper_when_isaacs_holds(drift_fields):
    lower, upper = drift_fields
    # the saddle makes both equations identical; the marches are bitwise equal
    assert np.array_equal(lower.values, upper.values)


@pytest.mark.parametrize("problem_id, drifts", [("pennies", {"lower": -1.0, "upper": 1.0}),
                                                ("drift_control", {"lower": 0.5, "upper": 0.5})])
def test_both_shipped_games_converge_to_their_exact_values(problem_id, drifts):
    # g = tanh is increasing and the coefficients are constant, so each
    # player's optimal control is constant and V(t, x) = E tanh(x + c (T - t)
    # + W_{T-t}): c is the drift the optimal pair plays.  Upwinding adds
    # diffusion |b| h / 2, which pulls E tanh toward 0, so the field lies
    # strictly between 0 and V, and the error is first order in h.
    spec = build_problem(problem_id).spec
    nodes, weights = np.polynomial.hermite.hermgauss(120)
    errors = {eq: [] for eq in drifts}
    for h in (0.08, 0.04):
        fields = solve_isaacs(spec, make_grid(spec, -4, 4, h), ("lower", "upper"))
        for eq, field in zip(("lower", "upper"), fields):
            exact = float(weights @ np.tanh(drifts[eq] * spec.horizon
                                            + np.sqrt(2.0 * spec.horizon) * nodes)
                          / np.sqrt(np.pi))
            value = float(field.value_at(0.0, np.array([[0.0]]))[0])
            assert 0.0 < value / exact < 1.0, (eq, h, value, exact)
            errors[eq].append(value - exact)
    for eq, (coarse, fine) in errors.items():
        assert abs(fine) <= 3e-3, (eq, fine)
        assert 1.8 <= coarse / fine <= 2.2, (eq, coarse, fine)


def test_monotone_in_terminal_data(pennies_problem):
    spec = pennies_problem.spec
    lifted = dataclasses.replace(
        spec,
        payoff=lambda x: np.tanh(x[..., 0]) + 0.25 * (1.0 + np.tanh(x[..., 0])),
        payoff_bound=spec.payoff_bound + 0.5)
    grid = make_grid(spec, -4, 4, 0.1)
    low = solve_isaacs(spec, grid, "lower")
    high = solve_isaacs(lifted, grid, "lower")
    assert np.all(high.values >= low.values)


def test_max_principle(pennies_fields, pennies_problem):
    lower, upper = pennies_fields
    g = eval_payoff(pennies_problem.spec, lower.grid.nodes())
    for field in (lower, upper):
        assert field.values.min() >= g.min() - 1e-8
        assert field.values.max() <= g.max() + 1e-8


def test_max_update_certificate_is_consistent(pennies_fields):
    lower, _ = pennies_fields
    steps = np.abs(np.diff(lower.values, axis=0)).max(axis=1)
    assert np.allclose(lower.max_update, steps, atol=1e-15)


def test_overflowing_layer_trips_the_non_finite_guard():
    # a huge but finite payoff passes every model check; its second
    # difference overflows on the first layer the march produces
    spec = simple_spec(0.0, 1.0, payoff=lambda x: np.full(x.shape[:-1], 1e308), bound=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalSolveError, match=r"at t=0.49, node index \(0,\) while"):
            solve_isaacs(spec, make_grid(spec, -1.0, 1.0, 0.1), "lower")


# ----------------------------------------------------- feedback certificates ---- #


def test_heat_feedback_is_constant(heat_field):
    assert np.all(heat_field.feedback_u.indices == 0)
    assert np.all(heat_field.feedback_v.indices == 0)


def test_drift_control_feedback_follows_the_gradient(drift_fields):
    """Where both one-sided slopes of the next layer are positive, the
    controller pushes right (u = +1) and nature pulls left (v = -1/2)."""
    lower, _ = drift_fields
    V = lower.values
    for i in range(V.shape[0] - 1):
        nxt = V[i + 1]
        dp = np.diff(nxt)          # forward differences at cells 0..n-2
        inner_up = (dp[:-1] > 1e-12) & (dp[1:] > 1e-12)  # both slopes at node j+1
        cells = np.flatnonzero(inner_up) + 1
        assert np.all(lower.feedback_u.indices[i, cells] == 2)
        assert np.all(lower.feedback_v.indices[i, cells] == 0)


def test_pennies_best_reply_fights_the_controller(pennies_fields):
    # with an increasing layer, the reply to u makes the product drift negative
    lower, _ = pennies_fields
    V = lower.values
    for i in range(0, V.shape[0] - 1, 5):
        dp = np.diff(V[i + 1])
        cells = np.flatnonzero((dp[:-1] > 1e-12) & (dp[1:] > 1e-12)) + 1
        assert np.all(lower.response_v[i, 1, cells] == 0)  # u=+1 -> v=-1
        assert np.all(lower.response_v[i, 0, cells] == 1)  # u=-1 -> v=+1


# ------------------------------------------------------------ interpolation ---- #


def test_value_at_nodes_is_exact(pennies_fields):
    lower, _ = pennies_fields
    axis = lower.grid.axes[0]
    t = float(lower.grid.times[3])
    got = lower.value_at(t, axis[:, None])
    assert np.allclose(got, lower.values[3], atol=1e-13)


def test_value_at_interpolates_between_nodes(pennies_fields):
    lower, _ = pennies_fields
    axis = lower.grid.axes[0]
    mid = 0.5 * (axis[10] + axis[11])
    t = float(lower.grid.times[0])
    got = float(lower.value_at(t, np.array([[mid]]))[0])
    a, b = lower.values[0, 10], lower.values[0, 11]
    assert min(a, b) - 1e-13 <= got <= max(a, b) + 1e-13
    assert got == pytest.approx(0.5 * (a + b), abs=1e-12)


def test_value_at_clamps_outside_the_box(pennies_fields):
    lower, _ = pennies_fields
    t = float(lower.grid.times[2])
    edge = float(lower.values[2, -1])
    outside = float(lower.value_at(t, np.array([[lower.grid.axes[0][-1] + 50.0]]))[0])
    far = float(lower.value_at(t, np.array([[1e12]]))[0])
    assert outside == pytest.approx(edge, rel=1e-12)
    assert far == outside


def test_value_at_time_interpolation(heat_field):
    times = heat_field.grid.times
    tm = 0.5 * (times[4] + times[5])
    x = np.array([[0.3]])
    v4 = float(heat_field.value_at(float(times[4]), x)[0])
    v5 = float(heat_field.value_at(float(times[5]), x)[0])
    vm = float(heat_field.value_at(float(tm), x)[0])
    assert vm == pytest.approx(0.5 * (v4 + v5), abs=1e-12)
    # beyond the horizon clamps onto the terminal layer
    assert float(heat_field.value_at(float(times[-1]) + 1.0, x)[0]) == \
        float(heat_field.value_at(float(times[-1]), x)[0])


def _multilinear(times: np.ndarray, axes: tuple, values: np.ndarray, t: float,
                 x: np.ndarray) -> float:
    """v(t, x) by the textbook formula: clamp each coordinate into its uniform
    axis, weight the 2**(d + 1) corners of its cell; a singleton axis reads its
    one node."""

    def cell(grid, p):
        if grid.size == 1:
            return [(0, 1.0)]
        p = min(max(p, grid[0]), grid[-1])
        i = min(int((p - grid[0]) // (grid[1] - grid[0])), grid.size - 2)
        f = (p - grid[i]) / (grid[i + 1] - grid[i])
        return [(i, 1.0 - f), (i + 1, f)]

    total = 0.0
    for corner in itertools.product(cell(times, t), *map(cell, axes, x)):
        weight = np.prod([w for _, w in corner])
        total += weight * values[tuple(i for i, _ in corner)]
    return total


@pytest.mark.parametrize("axes", [
    (np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 3)),
    (np.array([0.3]), np.linspace(-1.0, 1.0, 4)),
    (np.linspace(-1.0, 1.0, 5), np.array([-0.7]))], ids=["box", "x-singleton", "y-singleton"])
def test_value_at_in_two_dimensions_is_multilinear(axes):
    rng = np.random.default_rng(4)
    times = np.linspace(0.0, 0.5, 4)
    values = rng.uniform(-1.0, 1.0, (times.size,) + tuple(a.size for a in axes))
    lo, hi = np.array([a[0] for a in axes]), np.array([a[-1] for a in axes])
    grid = SpaceTimeGrid(times, axes)
    field = ValueField(which="lower", grid=grid, values=values, feedback_u=None,
                       feedback_v=None, response_v=None, max_update=None)
    # inside the box and up to one unit outside it, in time and space; a
    # singleton axis is read at any coordinate
    t = rng.uniform(-0.2, 0.7, 200)
    x = rng.uniform(lo - 1.0, hi + 1.0, (200, 2))
    inside = np.all((x >= lo) & (x <= hi) | (lo == hi), axis=1) & (t >= 0.0) & (t <= 0.5)
    assert inside.any() and not inside.all()
    want = [_multilinear(times, axes, values, tp, xp) for tp, xp in zip(t, x)]
    assert np.allclose(field.value_at(t, x), want, rtol=0.0, atol=1e-13)


# --------------------------------------------------------------- comparison ---- #


def test_compare_to_reference_zero_cases(constant_problem):
    grid = make_grid(constant_problem.spec, -1, 1, 0.25, dt=constant_problem.grid_dt)
    field = solve_isaacs(constant_problem.spec, grid, "lower")
    rep = compare_to_reference(field, lambda t, x: np.ones(x.shape[0]))
    assert rep.sup_error == 0.0
    assert rep.rms_error == 0.0
    self_rep = compare_to_reference(field, field.value_at)
    assert self_rep.sup_error == 0.0


def test_compare_to_reference_empty_region(heat_field):
    with pytest.raises(ConfigError):
        compare_to_reference(heat_field, lambda t, x: np.zeros(x.shape[0]),
                             lo=100.0, hi=101.0)


# ------------------------------------------------------------ joint march ---- #


def test_a_joint_march_gives_the_bits_of_separate_solves():
    # both equations share each layer's coefficients in one march, and each
    # keeps its own differences, reduction and tables: the same bits as two
    # one-equation solves, with every index table in its set's narrow dtype
    coarse_h = {"constant": 0.25, "heat": 0.25, "pennies": 0.1,
                "drift_control": 0.1, "growth_violator": 0.1}
    for pid in available_problems():
        problem = build_problem(pid)
        spec = problem.spec
        grid = make_grid(spec, problem.grid_lo, problem.grid_hi, coarse_h[pid],
                         dt=problem.grid_dt)
        joint = solve_isaacs(spec, grid, ("lower", "upper"))
        assert [field.which for field in joint] == ["lower", "upper"], pid
        assert solve_isaacs(spec, grid, ("upper", "lower"))[0].which == "upper", pid
        for field in joint:
            alone = solve_isaacs(spec, grid, field.which)
            for name in ("values", "max_update", "response_v"):
                a, b = getattr(field, name), getattr(alone, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (pid, name)
            for name in ("feedback_u", "feedback_v"):
                a, b = getattr(field, name), getattr(alone, name)
                assert np.array_equal(a.indices, b.indices), (pid, name)
                assert a.indices.dtype == a.control_set.index_dtype == np.uint8, (pid, name)
            assert field.response_v.dtype == spec.controls_v.index_dtype, pid


def test_unknown_or_repeated_equations_are_refused_by_name(heat_problem):
    grid = make_grid(heat_problem.spec, -6, 6, 0.25)
    for which, named in ((("lower", "middle"), "'middle'"),
                         (("upper", "lower", "upper"), "equation 'upper' is named twice"),
                         ((), "names no equation")):
        with pytest.raises(ConfigError, match=named):
            solve_isaacs(heat_problem.spec, grid, which)


def test_a_joint_solve_holds_little_beyond_its_fields(heat_problem):
    # each layer's work is a few node-sized temporaries that end with its
    # step, so the solve's peak is the two fields it returns: one more
    # array the size of a field's values would break this
    spec = heat_problem.spec
    grid = make_grid(spec, heat_problem.grid_lo, heat_problem.grid_hi, 0.1,
                     dt=heat_problem.grid_dt)
    fields, peak = peak_bytes(solve_isaacs, spec, grid, ("lower", "upper"))
    own = sum(a.nbytes for f in fields
              for a in (f.values, f.feedback_u.indices, f.feedback_v.indices,
                        f.response_v, f.max_update))
    assert peak <= 1.15 * own, peak / own
