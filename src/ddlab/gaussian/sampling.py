"""Draw sample paths of the initial Gaussian history measures.

`gaussian_path_slabs` yields ``n`` paths on the grid
``s_j = -tau + j tau / m`` as consecutive row slabs of at most ``_SLAB``
rows, drawn from one generator in vectorized calls, so a consumer that
reduces each slab as it arrives never holds the whole ensemble.
`sample_gaussian_paths` writes those slabs into one ``(n, m+1)`` block.
Every kernel is drawn through its factors, so sampling is exact in
distribution at the grid nodes: a finite-rank kernel (cosine, degenerate
cosine, tabulated) as ``sum_k y_k f_k(s)`` with independent standard
normals ``y_k``, the product kernel ``u(min) v(max)`` (the running
minimum among them) as cumulative sums of independent increments of
``u/v``, scaled by v.  Each slab is formed elementwise from the normals
drawn for its rows, so the paths are deterministic per seed and do not
depend on the slab size.
"""
from __future__ import annotations

import math

import numpy as np

from .kernels import check_kernel

__all__ = ["gaussian_path_slabs", "sample_gaussian_paths"]


# Rows per slab.  A slab of m = 512 paths is about 1 MiB, as is the
# normal buffer behind it, so both stay in a 2 MiB L2 cache, and a
# consumer that reduces each slab keeps its memory flat in n.
_SLAB = 256


def _slabs(n, m, fill):
    """Yield ``n`` rows as views of one ``(_SLAB, m+1)`` buffer.

    ``fill(out)`` writes the next rows of the ensemble into ``out``; every
    slab overwrites the previous one.
    """
    buf = np.empty((min(n, _SLAB), m + 1))
    for a in range(0, n, _SLAB):
        out = buf[:min(_SLAB, n - a)]
        fill(out)
        yield out


def _cumsum_fill(rng, scale, v=None):
    """Rows ``v * (0, cumsum(scale * z))`` for fresh standard normals ``z``.

    The normals come from the generator slab by slab in row order;
    generator draws are sequential, so the rows equal a one-shot ``(n, m)``
    draw bit for bit.
    """
    zbuf = np.empty((_SLAB, scale.size))

    def fill(out):
        z = zbuf[:out.shape[0]]
        rng.standard_normal(out=z)
        out[:, 0] = 0.0
        np.multiply(z, scale, out=out[:, 1:])
        np.cumsum(out, axis=1, out=out)
        if v is not None:
            out *= v

    return fill


def _finite_rank_fill(rng, factors):
    """Rows ``sum_k y_k factors[k]`` for fresh standard normals ``y``,
    summed elementwise in factor order.

    Each slab draws its ``(rows, rank)`` normals in row order, so the rows
    equal a one-shot ``(n, rank)`` draw bit for bit.
    """
    ybuf = np.empty((_SLAB, len(factors)))

    def fill(out):
        y = ybuf[:out.shape[0]]
        rng.standard_normal(out=y)
        np.multiply(y[:, :1], factors[0], out=out)
        for k in range(1, len(factors)):
            out += y[:, k:k + 1] * factors[k]

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
    check_kernel(kernel, tau)
    rng = np.random.default_rng(seed)
    s = -tau + np.arange(m + 1) * (tau / m)

    sep = kernel.separable_terms()
    if sep is not None:
        return _slabs(n, m, _finite_rank_fill(rng, [f(s) for f in sep]))
    v = np.asarray(kernel.v(s), dtype=float)
    d = np.diff(np.asarray(kernel.u(s), dtype=float) / v)
    if np.any(d < -1e-12):
        raise ValueError("u/v must be nondecreasing on the window")
    # v = 1 (the running minimum) takes no scaling pass over each slab
    return _slabs(n, m, _cumsum_fill(rng, np.sqrt(np.maximum(d, 0.0)),
                                     None if np.all(v == 1.0) else v))


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
