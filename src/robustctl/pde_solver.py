"""Monotone explicit finite-difference solver for the Isaacs equations.

Solves, backward from the terminal payoff on a box with reflecting
(zero-gradient) faces,

    -v_t - H(t, x, Dv, D^2 v) = 0,   v(T, .) = g,

where H is the lower Hamiltonian max_u min_v L for ``which="lower"`` and
the upper one min_v max_u L for ``which="upper"``, both reduced by
:func:`robustctl.hamiltonian.minimax`.  First derivatives are upwinded per
control pair against the drift sign, second derivatives are central, and
ghost cells replicate the boundary value, so every node update is a convex
combination of neighbors whenever the time step respects the stability
bound of :func:`cfl_max_dt`.  That makes the march monotone in
the terminal data and confines values to the payoff range; the solved
field converges to the (unique bounded continuous) viscosity solution as
the grid refines.

Only diagonal diffusion is supported: cross terms of sigma sigma^T break
the monotone stencil, so they are rejected rather than mishandled.  (The
pointwise running term in :mod:`robustctl.hamiltonian` takes any sigma.)

Both equations can be marched in one loop that evaluates each layer's
coefficients once for both.  The field stores what the Monte Carlo engine
reads from the march: per-layer controller and adversary feedback indices
and the per-u adversary best-reply table, each in its control set's
``index_dtype`` (uint8 on every built-in game).  Every table is read
through one :class:`SpaceTimeGrid`, which checks itself and owns the snap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolationError, ConfigError, ModelEvaluationError, NumericalSolveError
from .hamiltonian import minimax
from .sde_core import ControlSet, ProblemSpec, eval_pairs, eval_payoff, physical_memory

__all__ = [
    "SpaceTimeGrid",
    "FeedbackMap",
    "ValueField",
    "FieldErrorReport",
    "cfl_max_dt",
    "make_grid",
    "solve_isaacs",
    "compare_to_reference",
]


def _uniform_step(axis: np.ndarray, what: str) -> float:
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size == 0:
        raise ConfigError(f"{what}: need a non-empty 1-d array")
    if axis.size == 1:
        return 1.0
    steps = np.diff(axis)
    if steps.min() <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ConfigError(f"{what}: grid must be uniform and increasing")
    return float(steps[0])


def _spacing(axes: tuple) -> np.ndarray:
    return np.array([_uniform_step(a, f"grid axis {k}") for k, a in enumerate(axes)])


@dataclass(frozen=True, eq=False)
class SpaceTimeGrid:
    """Uniform box grid in space plus a uniform time grid, each 1-d, non-empty
    and increasing; ``dt`` and ``spacing`` are their steps (1.0 on a singleton)."""

    times: np.ndarray
    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "axes", tuple(np.asarray(a, dtype=float) for a in self.axes))
        object.__setattr__(self, "dt", _uniform_step(self.times, "grid times"))
        object.__setattr__(self, "spacing", _spacing(self.axes))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def nodes(self) -> np.ndarray:
        """All grid nodes, shape (*shape, dim)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def layer_of(self, t: float) -> int:
        j = int(round((t - self.times[0]) / self.dt))
        return min(max(j, 0), self.times.size - 1)

    def cells_of(self, x: np.ndarray) -> tuple:
        """The grid snap: per axis, the index of the node nearest to each state.

        States of shape (..., dim) map to one index array per axis, each of
        shape (...) and clipped to the axis, so a state off the grid reads
        the nearest edge node.  Ties round half to even.  The clip is taken
        in floats, before the cast to ints, so a state too far off the grid
        for an int still reads its edge node.
        """
        x = np.asarray(x, dtype=float)
        cells = []
        for a, (axis, step) in enumerate(zip(self.axes, self.spacing)):
            node = np.fmax(np.rint((x[..., a] - axis[0]) / step), 0.0)
            cells.append(np.asarray(np.fmin(node, axis.size - 1), dtype=np.intp))
        return tuple(cells)


def _node_counts(lo: np.ndarray, hi: np.ndarray, h: np.ndarray) -> list:
    """Nodes per axis of the box at spacing h, checked without building an axis
    (inf where the count overflows a float)."""
    counts = []
    for a, (l, r, step) in enumerate(zip(lo, hi, h)):
        if not (r > l and step > 0):
            raise ConfigError(f"axis {a}: need lo < hi and h > 0, got [{l}, {r}] with h={step}")
        n = (r - l) / step
        if np.isfinite(n) and abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
            raise ConfigError(f"axis {a}: spacing {step} does not divide [{l}, {r}]")
        counts.append(round(n) + 1 if np.isfinite(n) else np.inf)
    return counts


def _diffusion_diag(spec: ProblemSpec, sig: np.ndarray) -> np.ndarray:
    """Diagonal of sigma sigma^T from sigma of shape (..., d, k); rejects cross terms."""
    aa = np.einsum("...ik,...jk->...ij", sig, sig)
    d = sig.shape[-2]
    if d > 1:
        off = aa * (1.0 - np.eye(d))
        if float(np.max(np.abs(off))) > 1e-12:
            raise ModelEvaluationError(
                f"{spec.label}: sigma sigma^T has off-diagonal entries up to "
                f"{float(np.max(np.abs(off))):.3e}; only diagonal diffusion is supported")
    return np.einsum("...ii->...i", aa)


def cfl_max_dt(spec: ProblemSpec, axes: tuple) -> float:
    """Largest stable explicit time step on these axes.

    The bound is 1 / max_nodes max_pairs (sum_a |b_a|/h_a + sum_a aa_a/h_a^2),
    sampled at the times {0, T/2, T}; infinite when all coefficients vanish.
    For time-independent coefficients the sampling is exact.
    """
    h = _spacing(axes)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    worst = 0.0
    for t in (0.0, 0.5 * spec.horizon, spec.horizon):
        b, sig = eval_pairs(spec, t, nodes)
        aa = _diffusion_diag(spec, sig)
        rate = (np.abs(b) / h).sum(axis=-1) + (aa / h ** 2).sum(axis=-1)
        worst = max(worst, float(rate.max()))
    return np.inf if worst == 0.0 else 1.0 / worst


def make_grid(spec: ProblemSpec, lo, hi, h, dt: float | None = None,
              cfl_safety: float = 1.0) -> SpaceTimeGrid:
    """Build a grid whose time step divides [0, T] and respects stability.

    ``dt`` is an upper bound on the time step; when omitted the CFL bound
    (times ``cfl_safety``) is used directly.  A requested ``dt`` above the
    bound raises, quoting the bound.  A grid whose node mesh exceeds
    physical memory is refused before any array sized by its nodes is built,
    and one whose float64 field, (n_steps + 1) x nodes x 8 bytes, does
    before its time grid is.
    """
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (spec.dim,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (spec.dim,))
    h = np.broadcast_to(np.asarray(h, dtype=float), (spec.dim,))
    counts = _node_counts(lo, hi, h)
    nodes, memory = math.prod(counts), physical_memory()
    # the stability bound's node mesh is the first array sized by the nodes
    if nodes * spec.dim * 8 > memory:
        raise ConfigError(f"h={h.tolist()}: the grid's {nodes} nodes need {nodes * spec.dim * 8} "
                          f"bytes, above the {memory} bytes of physical memory")
    axes = tuple(np.linspace(l, r, n) for l, r, n in zip(lo, hi, counts))
    if not (0 < cfl_safety <= 1.0):
        raise ConfigError(f"cfl_safety must be in (0, 1], got {cfl_safety}")
    bound = cfl_max_dt(spec, axes) * cfl_safety
    if dt is not None:
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        if dt > bound:
            raise CflViolationError(
                f"requested dt={dt} exceeds the stability bound cfl_max_dt={bound:.6g}",
                dt=dt, dt_max=bound)
        target = dt
    elif np.isinf(bound):
        raise ConfigError(
            "all coefficients vanish on this grid (stability bound is infinite); "
            "pass dt explicitly")
    else:
        target = bound
    n_steps = max(1, int(np.ceil(spec.horizon / target - 1e-12)))
    if spec.horizon / n_steps > bound * (1.0 + 1e-12):
        n_steps += 1
    field_bytes = (n_steps + 1) * nodes * 8
    if field_bytes > memory:
        raise ConfigError(f"h={h.tolist()}: one field of {n_steps + 1} layers needs "
                          f"{field_bytes} bytes, above the {memory} bytes of physical memory")
    return SpaceTimeGrid(np.linspace(0.0, spec.horizon, n_steps + 1), axes)


@dataclass(eq=False)
class FeedbackMap:
    """Control indices tabulated on a :class:`SpaceTimeGrid`.

    ``indices`` has shape (len(grid.times), *grid.shape).  Lookups snap to
    the nearest grid node in every coordinate and clamp at the edges, so the
    map is total on R^d x R.
    """

    grid: SpaceTimeGrid
    indices: np.ndarray
    control_set: ControlSet
    label: str = ""

    def __post_init__(self):
        self.indices = np.asarray(self.indices)
        want = (self.grid.times.size,) + self.grid.shape
        if self.indices.shape != want:
            raise ConfigError(
                f"feedback map {self.label!r}: indices shape {self.indices.shape}, expected {want}")
        if not np.issubdtype(self.indices.dtype, np.integer):
            raise ConfigError(f"feedback map {self.label!r}: indices must be integers")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= self.control_set.size):
            raise ConfigError(f"feedback map {self.label!r}: control index out of range")

    @classmethod
    def constant(cls, control_set: ControlSet, index: int, grid: SpaceTimeGrid,
                 label: str = "const"):
        # checked before the cast, which would overflow on an index the dtype cannot hold
        if not 0 <= index < control_set.size:
            raise ConfigError(f"feedback map {label!r}: control index out of range")
        return cls(grid=grid, indices=np.full((grid.times.size,) + grid.shape, index,
                                              dtype=control_set.index_dtype),
                   control_set=control_set, label=label)

    def lookup_index_batch(self, t: float, x: np.ndarray) -> np.ndarray:
        """Indices for a batch of states, shape (..., dim) -> (...,)."""
        grid = self.grid
        return self.indices[(grid.layer_of(t),) + grid.cells_of(x)]


# ------------------------------------------------------------- the march ---- #


@dataclass(eq=False)
class ValueField:
    """A solved Isaacs field with the feedback tables of its own march.

    ``values[i]`` approximates v(times[i], .) on the grid nodes.
    ``feedback_u``/``feedback_v`` tabulate the optimizing control indices per
    layer; ``response_v[i, k]`` is the adversary's best reply to u_k at layer
    i.  The three index tables are read through ``grid`` and stored in their
    control set's ``index_dtype``.  ``max_update[i]`` is the largest
    |values[i] - values[i+1]| of the step that produced layer i.
    """

    which: str
    grid: SpaceTimeGrid
    values: np.ndarray
    feedback_u: FeedbackMap
    feedback_v: FeedbackMap
    response_v: np.ndarray
    max_update: np.ndarray

    def value_at(self, t, x) -> np.ndarray:
        """Multilinear interpolation in time and space; clamps outside the box.

        ``t`` scalar or broadcastable against the batch shape of ``x``
        (shape (..., dim)); returns that batch shape.
        """
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        t = np.broadcast_to(np.asarray(t, dtype=float), batch)
        times = self.grid.times
        it1 = np.clip(np.searchsorted(times, t, side="right"), 1, times.size - 1)
        it0 = it1 - 1
        wt = np.clip((t - times[it0]) / (times[it1] - times[it0]), 0.0, 1.0)

        cells, fracs = [], []
        for a, axis in enumerate(self.grid.axes):
            if axis.size == 1:
                cells.append((np.zeros(batch, dtype=np.intp), np.zeros(batch, dtype=np.intp)))
                fracs.append(np.zeros(batch))
                continue
            pos = (x[..., a] - axis[0]) / (axis[1] - axis[0])
            i0 = np.clip(np.floor(pos).astype(np.intp), 0, axis.size - 2)
            fracs.append(np.clip(pos - i0, 0.0, 1.0))
            cells.append((i0, i0 + 1))

        out = np.zeros(batch)
        dim = self.grid.dim
        for corner in range(1 << (dim + 1)):
            t_hi = corner & 1
            weight = wt if t_hi else 1.0 - wt
            idx = (it1 if t_hi else it0,)
            for a in range(dim):
                hi_a = (corner >> (a + 1)) & 1
                weight = weight * (fracs[a] if hi_a else 1.0 - fracs[a])
                idx = idx + (cells[a][1] if hi_a else cells[a][0],)
            out += weight * self.values[idx]
        return out


def _coefficients(spec: ProblemSpec, t: float, nodes: np.ndarray) -> tuple:
    """One layer's upwind split of the drift and half the diffusion diagonal,
    each (n_u, n_v, *shape, dim), shared by every equation of the march."""
    b, sig = eval_pairs(spec, t, nodes)
    half_aa = 0.5 * _diffusion_diag(spec, sig)
    return np.maximum(b, 0.0), np.minimum(b, 0.0), half_aa


def _running_terms(V: np.ndarray, coefficients: tuple, h: np.ndarray,
                   neighbors: list) -> np.ndarray:
    """The upwinded running term of every equation's next layer at every
    control pair, shape (n_u, n_v, E, *shape), from the stacked layers V of
    shape (E, *shape).  Its temporaries end with the call."""
    b_up, b_down, half_aa = coefficients
    L = None
    for a, (up, down) in enumerate(neighbors):
        Dp = V.take(up, axis=a + 1)
        Dm = V.take(down, axis=a + 1)
        D2 = Dp - 2.0 * V
        D2 += Dm
        D2 /= h[a] ** 2
        Dp -= V
        Dp /= h[a]
        np.subtract(V, Dm, out=Dm)
        Dm /= h[a]
        term = b_up[:, :, None, ..., a] * Dp
        term += b_down[:, :, None, ..., a] * Dm
        term += half_aa[:, :, None, ..., a] * D2
        if L is None:
            # the axes' terms are summed in order onto 0.0, as a sum over a
            # trailing axis adds them; 0.0 + -0.0 is 0.0
            term += 0.0
            L = term
        else:
            L += term
    return L


def solve_isaacs(spec: ProblemSpec, grid: SpaceTimeGrid, which="lower") -> ValueField | tuple:
    """March the explicit monotone scheme backward from the payoff.

    ``which`` picks the Hamiltonian: "lower" = max_u min_v (controller
    commits first), "upper" = min_v max_u.  A tuple such as ("lower",
    "upper") marches its equations in one loop, sharing each layer's
    coefficients, diffusion diagonal and upwind split, and returns their
    fields in its order, with the bits of separate solves.  Argmax/argmin
    ties break to the lowest control index.  Coefficients are evaluated at
    the layer being produced.

    Each step works on the equations' layers stacked as one (E, *shape)
    array: one running-term block, one lower reduction (whose reply table
    is every field's), the upper reduction on the upper slice alone, and
    one finiteness check.  Each field's arrays are its own, filled a layer
    at a time.
    """
    equations = (which,) if isinstance(which, str) else tuple(which)
    if not equations:
        raise ConfigError("which names no equation")
    for k, eq in enumerate(equations):
        if eq not in ("lower", "upper"):
            raise ConfigError(f"which must be 'lower' or 'upper', got {eq!r}")
        if eq in equations[:k]:
            raise ConfigError(f"equation {eq!r} is named twice in {which!r}")
    times = grid.times
    n_layers = times.size
    shape = grid.shape
    h = grid.spacing
    nodes = grid.nodes()
    n_u = spec.controls_u.size

    bound = cfl_max_dt(spec, grid.axes)
    if grid.dt > bound * (1.0 + 1e-9):
        raise CflViolationError(
            f"grid dt={grid.dt} exceeds the stability bound {bound:.6g}",
            dt=grid.dt, dt_max=bound)

    # each axis's neighbour indices with edge replication (ghost cells)
    neighbors = [(np.clip(np.arange(n) + 1, 0, n - 1), np.clip(np.arange(n) - 1, 0, n - 1))
                 for n in shape]
    payoff = eval_payoff(spec, nodes)
    u_dtype, v_dtype = spec.controls_u.index_dtype, spec.controls_v.index_dtype
    # per equation: values, feedback_u, feedback_v, response_v, max_update
    marches = []
    for _ in equations:
        values = np.empty((n_layers,) + shape)
        values[-1] = payoff
        marches.append((values, np.empty((n_layers,) + shape, dtype=u_dtype),
                        np.empty((n_layers,) + shape, dtype=v_dtype),
                        np.empty((n_layers, n_u) + shape, dtype=v_dtype),
                        np.empty(n_layers - 1)))
    upper = equations.index("upper") if "upper" in equations else None

    V = np.stack([payoff] * len(equations))
    for i in range(n_layers - 2, -1, -1):
        t = float(times[i])
        L = _running_terms(V, _coefficients(spec, t, nodes), h, neighbors)
        H, u_star, v_star, reply = minimax(L, "lower")
        if upper is not None:
            H[upper], u_star[upper], v_star[upper], _ = minimax(L[:, :, upper], "upper")
        new = V + grid.dt * H
        if not np.isfinite(new).all():
            eq = next(k for k in range(len(equations)) if not np.isfinite(new[k]).all())
            flat = int(np.argmin(np.isfinite(new[eq])))
            bad = tuple(int(k) for k in np.unravel_index(flat, shape))
            raise NumericalSolveError(f"non-finite value at t={t}, node index {bad} "
                                      f"while solving {equations[eq]} field")
        update = np.abs(new - V).reshape(len(equations), -1).max(axis=1)
        for k, (values, fb_u, fb_v, resp_v, max_update) in enumerate(marches):
            values[i] = new[k]
            fb_u[i] = u_star[k]
            fb_v[i] = v_star[k]
            resp_v[i] = reply[:, k]
            max_update[i] = update[k]
        V = new

    fields = []
    for eq, (values, fb_u, fb_v, resp_v, max_update) in zip(equations, marches):
        # terminal layer has no step of its own; replicate the last computed one
        fb_u[-1] = fb_u[-2]
        fb_v[-1] = fb_v[-2]
        resp_v[-1] = resp_v[-2]
        label = f"{spec.label}/{eq}"
        fields.append(ValueField(
            which=eq, grid=grid, values=values,
            feedback_u=FeedbackMap(grid, fb_u, spec.controls_u, label=f"{label}/u"),
            feedback_v=FeedbackMap(grid, fb_v, spec.controls_v, label=f"{label}/v"),
            response_v=resp_v, max_update=max_update))
    return fields[0] if isinstance(which, str) else tuple(fields)


@dataclass(frozen=True)
class FieldErrorReport:
    """Discrepancy between a solved field and a reference value function."""

    sup_error: float
    rms_error: float


def compare_to_reference(field: ValueField, reference, lo=None, hi=None) -> FieldErrorReport:
    """Sup and RMS error against ``reference(t, x)`` on [lo, hi] (default all nodes), all layers."""
    grid = field.grid
    nodes = grid.nodes()
    mask = np.all((nodes >= (-np.inf if lo is None else lo))
                  & (nodes <= (np.inf if hi is None else hi)), axis=-1)
    if not mask.any():
        raise ConfigError("comparison region contains no grid nodes")
    pts = nodes[mask]
    sup = 0.0
    sq_sum = 0.0
    count = 0
    for i, t in enumerate(grid.times):
        err = np.abs(field.values[i][mask] - reference(float(t), pts))
        sup = max(sup, float(err.max()))
        sq_sum += float((err ** 2).sum())
        count += err.size
    return FieldErrorReport(sup_error=sup, rms_error=float(np.sqrt(sq_sum / count)))
