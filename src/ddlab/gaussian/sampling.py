"""Draw blocks of sample paths of the initial Gaussian history measures.

`sample_gaussian_paths` returns ``n`` paths on the grid
``s_j = -tau + j tau / m`` as one ``(n, m+1)`` array, drawn from one
generator in vectorized calls.  Each named kernel has an
explicit pathwise construction (amplitude-phase cosine, cumulative-sum
Wiener, time-changed Wiener), so sampling is exact in distribution at the
grid nodes; kernels without structure fall back to a Cholesky factor of the
node Gram matrix.  Blocks are deterministic per seed.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import KernelPositivityError
from .kernels import (CosineKernel, DegenerateCosineKernel,
                      ProductSeparableKernel, ShiftedWienerKernel)

__all__ = ["sample_gaussian_paths"]


_SLAB = 1024  # rows of normals drawn per call; bounds the scratch buffer


def _cumsum_paths(rng, n, scale):
    """Rows ``0, cumsum(scale * z)`` for ``(n, m)`` standard normals ``z``.

    The normals are drawn in slabs of rows straight into one small buffer;
    generator draws are sequential, so the block equals a one-shot
    ``(n, m)`` draw bit for bit without holding that temporary.
    """
    out = np.empty((n, scale.size + 1))
    out[:, 0] = 0.0
    buf = np.empty((min(n, _SLAB), scale.size))
    for a in range(0, n, _SLAB):
        z = buf[:min(_SLAB, n - a)]
        rng.standard_normal(out=z)
        np.multiply(z, scale, out=out[a:a + z.shape[0], 1:])
    np.cumsum(out, axis=1, out=out)
    return out


def sample_gaussian_paths(kernel, n: int, m: int, tau: float,
                          seed) -> np.ndarray:
    """``n`` paths of the centered Gaussian measure with covariance ``kernel``.

    Returns an ``(n, m+1)`` block; row ``i`` holds path ``i`` at the nodes
    ``s_j``.  ``seed`` is anything ``np.random.default_rng`` accepts.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one path")
    if m < 2:
        raise ValueError("need at least two history intervals")
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError("tau must be positive")
    own_tau = getattr(kernel, "tau", None)
    if own_tau is not None and abs(own_tau - tau) > 1e-12 * tau:
        raise ValueError(f"kernel window {own_tau} != requested tau {tau}")
    rng = np.random.default_rng(seed)
    s = -tau + np.arange(m + 1) * (tau / m)

    if isinstance(kernel, CosineKernel):
        # amplitude from the Rayleigh law by inverse CDF, phase uniform
        u = rng.random(n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        amp = np.sqrt(-2.0 * np.log(1.0 - u))
        return amp[:, None] * np.cos(s[None, :] - theta[:, None])
    if isinstance(kernel, DegenerateCosineKernel):
        return rng.standard_normal(n)[:, None] * np.cos(s)
    if isinstance(kernel, ShiftedWienerKernel):
        return _cumsum_paths(rng, n, np.full(m, math.sqrt(tau / m)))
    if isinstance(kernel, ProductSeparableKernel):
        v = np.asarray(kernel.v(s), dtype=float)
        d = np.diff(np.asarray(kernel.u(s), dtype=float) / v)
        if np.any(d < -1e-12):
            raise ValueError("u/v must be nondecreasing on the window")
        out = _cumsum_paths(rng, n, np.sqrt(np.maximum(d, 0.0)))
        out *= v
        return out
    gram = np.asarray(kernel.value(s[:, None], s[None, :]), dtype=float)
    gram = 0.5 * (gram + gram.T)
    try:
        chol = np.linalg.cholesky(gram + 1e-12 * np.eye(m + 1))
    except np.linalg.LinAlgError as exc:
        raise KernelPositivityError(
            "Gram matrix is not positive semidefinite "
            "(Cholesky failed after jitter)") from exc
    return rng.standard_normal((n, m + 1)) @ chol.T
