"""Reference forms of the coefficient calls, the Euler step and the seed
mixer, written apart from the package.

The package evaluates every control pair's coefficients as one checked block
(``sde_core.eval_pairs``), steps whole blocks in place
(``game_engine._step_batch``) and mixes seeds on uint64 arrays
(``derive_seed_array``).  This module keeps the textbook forms those must
reproduce bit for bit, errors and their messages included: one checked
coefficient call at a time, one explicit Euler step through them, and
splitmix64 on Python ints.
"""

from __future__ import annotations

import numpy as np

from robustctl.errors import ModelEvaluationError
from robustctl.sde_core import ProblemSpec

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment


def _checked(name: str, out, want: tuple, t: float, u: np.ndarray,
             v: np.ndarray) -> np.ndarray:
    """One callback output, refused unless it has shape ``want`` and is finite."""
    out = np.asarray(out, dtype=float)
    if out.shape != want:
        raise ModelEvaluationError(
            f"{name}(t={t}, u={u}, v={v}) returned shape {out.shape}, expected {want}")
    if not np.all(np.isfinite(out)):
        raise ModelEvaluationError(f"{name}(t={t}, u={u}, v={v}) returned non-finite values")
    return out


def eval_drift(spec: ProblemSpec, t: float, x: np.ndarray,
               u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Drift b(t, x, u, v), checked: (..., dim) in, (..., dim) out."""
    x = np.asarray(x, dtype=float)
    return _checked(f"{spec.label}.drift", spec.drift(t, x, u, v), x.shape, t, u, v)


def eval_diffusion(spec: ProblemSpec, t: float, x: np.ndarray,
                   u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Diffusion sigma(t, x, u, v), checked: (..., dim) in, (..., dim, noise_dim) out."""
    x = np.asarray(x, dtype=float)
    return _checked(f"{spec.label}.diffusion", spec.diffusion(t, x, u, v),
                    x.shape + (spec.noise_dim,), t, u, v)


def euler_step(spec: ProblemSpec, t: float, dt: float, x: np.ndarray,
               u: np.ndarray, v: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """One explicit Euler step: x + b dt + sigma dW.

    Batched like the coefficient callbacks; ``dW`` has shape (..., noise_dim).
    The update is affine in (x-independent coefficients, dW), which the tests
    exploit.
    """
    x = np.asarray(x, dtype=float)
    dW = np.asarray(dW, dtype=float)
    b = eval_drift(spec, t, x, u, v)
    sig = eval_diffusion(spec, t, x, u, v)
    return x + b * dt + (sig * dW[..., None, :]).sum(axis=-1)


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int, result in [0, 2^64)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(master: int, *indices: int) -> int:
    """The seed chain: each index adds (index + 1) golden steps, then mixes."""
    z = int(master) & MASK64
    for idx in indices:
        z = mix64((z + (int(idx) + 1) * GOLDEN) & MASK64)
    return z
