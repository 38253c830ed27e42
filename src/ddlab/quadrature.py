"""Adaptive and panel quadrature used by the covariance machinery.

The workhorse is :func:`adaptive_simpson`, a vectorized interval-stack
implementation of adaptive composite Simpson with Richardson extrapolation.
Integrands must accept numpy arrays.  Known kink locations are passed as
``breakpoints`` so each panel sees a smooth integrand; the error allocation is
proportional to interval length, so the final absolute error is close to
``tol`` for the whole integral.

For dense curve evaluation (thousands of nearby integrals of panel-smooth
integrands) adaptivity in pure Python is too slow; :func:`panel_gauss` applies
a fixed 24-point Gauss-Legendre rule to a batch of panels in one vectorized
pass.  Rows of a batch may hold fewer panels than the widest one: they are
padded on the right with zero-width panels at their upper limit, which add
exactly zero.  Tests cross-check it against the adaptive engine.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureError

MAX_INTERVALS = 200_000  # cap on simultaneously active Simpson subintervals
MIN_WIDTH_FACTOR = 1e-14  # subintervals narrower than this share are final
PANEL_ORDER = 24  # Gauss-Legendre nodes per panel in `panel_gauss`


@functools.cache
def _leggauss(n: int):
    # at first use: numpy.polynomial is not loaded with numpy itself
    return np.polynomial.legendre.leggauss(n)


def adaptive_simpson(f, a, b, *, tol=1e-9, breakpoints=()):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Parameters
    ----------
    f : callable
        Vectorized integrand: maps an ndarray of abscissae to an ndarray.
    a, b : float
        Integration limits, ``a <= b``.
    tol : float
        Absolute error target for the whole integral.
    breakpoints : iterable of float
        Points where the integrand (or a derivative) kinks; the initial
        panels are split at those strictly inside ``(a, b)``, in sorted
        order, and the rest are ignored.

    Raises
    ------
    QuadratureError
        If the tolerance cannot be met within `MAX_INTERVALS` active
        subintervals.
    """
    a = float(a)
    b = float(b)
    if b < a:
        raise ValueError("require a <= b")
    if b == a:
        return 0.0
    total = b - a
    edges = [a]
    for x in sorted(float(p) for p in breakpoints):
        if edges[-1] + 1e-15 * total < x < b - 1e-15 * total:
            edges.append(x)
    edges.append(b)
    edges = np.asarray(edges)

    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    mid = 0.5 * (lo + hi)
    flo = np.asarray(f(lo), dtype=float)
    fmid = np.asarray(f(mid), dtype=float)
    fhi = np.asarray(f(hi), dtype=float)
    simp = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    accepted = []
    min_width = MIN_WIDTH_FACTOR * total
    unresolved = 0.0
    while lo.size:
        if lo.size > MAX_INTERVALS:
            raise QuadratureError(
                f"interval stack exceeded {MAX_INTERVALS} subintervals")
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        fnew = np.asarray(f(np.concatenate([lm, rm])), dtype=float)
        flm = fnew[: lo.size]
        frm = fnew[lo.size:]
        h6 = (mid - lo) / 6.0
        s_left = h6 * (flo + 4.0 * flm + fmid)
        s_right = h6 * (fmid + 4.0 * frm + fhi)
        s2 = s_left + s_right
        err = (s2 - simp) / 15.0
        done = np.abs(err) <= tol * (hi - lo) / total
        tiny = (hi - lo) < min_width
        if np.any(tiny & ~done):
            unresolved += float(np.sum(np.abs(err[tiny & ~done])))
            done = done | tiny
        if np.any(done):
            accepted.extend((s2[done] + err[done]).tolist())
        keep = ~done
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([flm[keep], frm[keep]])
        simp = np.concatenate([s_left[keep], s_right[keep]])
    if unresolved > 10.0 * tol:
        raise QuadratureError(
            f"unresolved error {unresolved:.3e} on vanishing subintervals")
    return math.fsum(accepted)


def adaptive_simpson_2d(f, ax, bx, ay, by, *, tol=1e-9, x_breaks=(),
                        y_breaks=None):
    """Iterated adaptive Simpson for a double integral over a rectangle.

    ``f(x, y)`` must broadcast over ndarrays.  ``y_breaks``, if given, maps a
    scalar ``x`` to inner-integrand kink locations.  The absolute error is
    roughly ``tol * (1 + bx - ax)``; callers that need better shrink ``tol``.
    """
    if bx <= ax or by <= ay:
        return 0.0

    def outer(xs):
        out = np.empty_like(xs, dtype=float)
        for i, x in enumerate(np.atleast_1d(xs)):
            brk = y_breaks(x) if y_breaks is not None else ()
            out[i] = adaptive_simpson(
                lambda ys, x=x: f(np.full_like(ys, x), ys),
                ay, by, tol=tol, breakpoints=brk)
        return out

    return adaptive_simpson(outer, ax, bx, tol=tol * max(bx - ax, 1.0),
                            breakpoints=x_breaks)


def panel_gauss(f, edges):
    """Gauss-Legendre integral of ``f`` over panels with shared batching.

    Parameters
    ----------
    f : callable
        Vectorized integrand; receives the node array of shape
        ``(..., P, PANEL_ORDER)`` and must broadcast elementwise.
    edges : ndarray, shape (..., P+1)
        Panel edges, nondecreasing along the last axis.  Zero-width panels
        contribute exactly zero, so a row with fewer panels than the widest
        is padded on the right by repeating its upper limit.

    Returns
    -------
    ndarray of shape ``edges.shape[:-1]``: the sum of the panel integrals.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(PANEL_ORDER)
    lo = edges[..., :-1]
    hi = edges[..., 1:]
    half = 0.5 * (hi - lo)
    nodes = lo[..., None] + half[..., None] * (x + 1.0)
    vals = np.asarray(f(nodes), dtype=float)
    panel = half * (vals * w).sum(axis=-1)
    return panel.sum(axis=-1)
