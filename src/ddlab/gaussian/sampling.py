"""Draw sample paths of the initial Gaussian history measures.

`gaussian_path_slabs` yields ``n`` paths on the grid
``s_j = -tau + j tau / m`` as consecutive row slabs of at most ``_SLAB``
rows, drawn from one generator in vectorized calls, so a consumer that
reduces each slab as it arrives never holds the whole ensemble.
`sample_gaussian_paths` writes those slabs into one ``(n, m+1)`` block.
Each named kernel has an explicit pathwise construction (amplitude-phase
cosine, cumulative-sum Wiener, time-changed Wiener), so sampling is exact
in distribution at the grid nodes; kernels without structure fall back to
a Cholesky factor of the node Gram matrix.  Paths are deterministic per
seed and do not depend on the slab size.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import KernelPositivityError
from .kernels import (CosineKernel, DegenerateCosineKernel,
                      ProductSeparableKernel, ShiftedWienerKernel,
                      check_window)

__all__ = ["gaussian_path_slabs", "sample_gaussian_paths"]


# Rows per slab.  A slab of m = 512 paths is about 1 MiB, as is the
# normal buffer behind it, so both stay in a 2 MiB L2 cache, and a
# consumer that reduces each slab keeps its memory flat in n.
_SLAB = 256


def _slabs(n, m, fill, rows=_SLAB):
    """Yield ``n`` rows as views of one ``(rows, m+1)`` buffer.

    ``fill(out, a)`` writes rows ``a, a+1, ...`` of the ensemble into
    ``out``; every slab overwrites the previous one.
    """
    buf = np.empty((min(n, rows), m + 1))
    for a in range(0, n, rows):
        out = buf[:min(rows, n - a)]
        fill(out, a)
        yield out


def _cumsum_fill(rng, scale, v=None):
    """Rows ``v * (0, cumsum(scale * z))`` for fresh standard normals ``z``.

    The normals come from the generator slab by slab in row order;
    generator draws are sequential, so the rows equal a one-shot ``(n, m)``
    draw bit for bit.
    """
    zbuf = np.empty((_SLAB, scale.size))

    def fill(out, a):
        z = zbuf[:out.shape[0]]
        rng.standard_normal(out=z)
        out[:, 0] = 0.0
        np.multiply(z, scale, out=out[:, 1:])
        np.cumsum(out, axis=1, out=out)
        if v is not None:
            out *= v

    return fill


def gaussian_path_slabs(kernel, n: int, m: int, tau: float, seed):
    """``n`` paths of the centered Gaussian measure with covariance
    ``kernel``, as consecutive row slabs.

    Returns an iterator over ``(k, m+1)`` arrays with ``k <= _SLAB`` whose
    rows, in order, are paths ``0 ... n-1`` at the nodes ``s_j``.  Each
    slab is a view of one buffer that the next slab overwrites: copy what
    you keep.  ``seed`` is anything ``np.random.default_rng`` accepts.
    The arguments are checked here, before any draw, not at the first
    slab.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one path")
    if m < 2:
        raise ValueError("need at least two history intervals")
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError("tau must be positive")
    check_window(kernel, tau)
    rng = np.random.default_rng(seed)
    s = -tau + np.arange(m + 1) * (tau / m)

    if isinstance(kernel, CosineKernel):
        # amplitude from the Rayleigh law by inverse CDF, phase uniform
        u = rng.random(n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        amp = np.sqrt(-2.0 * np.log(1.0 - u))

        def fill(out, a):
            k = out.shape[0]
            np.subtract(s, theta[a:a + k, None], out=out)
            np.cos(out, out=out)
            out *= amp[a:a + k, None]

        return _slabs(n, m, fill)
    if isinstance(kernel, DegenerateCosineKernel):
        z, cos_s = rng.standard_normal(n), np.cos(s)
        return _slabs(n, m, lambda out, a: np.multiply(
            z[a:a + out.shape[0], None], cos_s, out=out))
    if isinstance(kernel, ShiftedWienerKernel):
        return _slabs(n, m, _cumsum_fill(rng, np.full(m, math.sqrt(tau / m))))
    if isinstance(kernel, ProductSeparableKernel):
        v = np.asarray(kernel.v(s), dtype=float)
        d = np.diff(np.asarray(kernel.u(s), dtype=float) / v)
        if np.any(d < -1e-12):
            raise ValueError("u/v must be nondecreasing on the window")
        return _slabs(n, m, _cumsum_fill(rng, np.sqrt(np.maximum(d, 0.0)), v))
    gram = np.asarray(kernel.value(s[:, None], s[None, :]), dtype=float)
    gram = 0.5 * (gram + gram.T)
    try:
        chol = np.linalg.cholesky(gram + 1e-12 * np.eye(m + 1))
    except np.linalg.LinAlgError as exc:
        raise KernelPositivityError(
            "Gram matrix is not positive semidefinite "
            "(Cholesky failed after jitter)") from exc

    # one slab: a BLAS product's bytes depend on how its rows are split
    def fill(out, a):
        out[...] = rng.standard_normal((n, m + 1)) @ chol.T

    return _slabs(n, m, fill, rows=n)


def sample_gaussian_paths(kernel, n: int, m: int, tau: float,
                          seed) -> np.ndarray:
    """``n`` paths of the centered Gaussian measure with covariance ``kernel``.

    Returns an ``(n, m+1)`` block; row ``i`` holds path ``i`` at the nodes
    ``s_j``.  It holds the slabs of `gaussian_path_slabs`, in order.
    """
    slabs = gaussian_path_slabs(kernel, n, m, tau, seed)
    out = np.empty((int(n), m + 1))
    a = 0
    for slab in slabs:
        out[a:a + slab.shape[0]] = slab
        a += slab.shape[0]
    return out
