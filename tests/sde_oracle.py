"""Reference forms of the Euler step and the seed mixer, written apart from the package.

The package steps whole chunks in place (``game_engine._step_uniform`` and
``_step_batch``) and mixes seeds on uint64 arrays (``derive_seed_array``).
This module keeps the textbook forms those must reproduce bit for bit: one
explicit Euler step through the validated coefficient calls, and splitmix64
on Python ints.
"""

from __future__ import annotations

import numpy as np

from robustctl.sde_core import ProblemSpec, eval_diffusion, eval_drift

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment


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
