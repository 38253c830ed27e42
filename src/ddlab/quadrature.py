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
pass, and :func:`panel_tails` gives the integral from each of its nodes to
the end, for an integrand that is itself a running integral.  Rows of a
batch may hold fewer panels than the widest one: they are padded on the
right with zero-width panels at their upper limit, which add exactly zero.
Tests cross-check both against the adaptive engine.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError

MAX_INTERVALS = 200_000  # cap on simultaneously active Simpson subintervals
MIN_WIDTH_FACTOR = 1e-14  # subintervals narrower than this share are final
PANEL_ORDER = 24  # Gauss-Legendre nodes per panel in `panel_gauss`

# The positive half of the symmetric 24-point Gauss-Legendre rule on
# [-1, 1], bit for bit as numpy.polynomial.legendre.leggauss(24) gives it.
# numpy.polynomial is not loaded with numpy itself; importing it would cost
# each process about 66 ms and 1.1 MiB.
_HALF_NODES = (
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
    0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
    0.7401241915785544, 0.820001985973903, 0.8864155270044011,
    0.9382745520027328, 0.9747285559713095, 0.9951872199970213)
_HALF_WEIGHTS = (
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
    0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
    0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
    0.04427743881741941, 0.02853138862893356, 0.01234122979998869)
_NODES = np.concatenate([-np.array(_HALF_NODES[::-1]), _HALF_NODES])
_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])


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
    nodes, half, w = _panel_nodes(edges)
    vals = np.asarray(f(nodes), dtype=float)
    panel = half * (vals * w).sum(axis=-1)
    return panel.sum(axis=-1)


def _panel_nodes(edges):
    """The Gauss nodes of the panels ``edges``, their half-widths and the
    rule's weights."""
    edges = np.asarray(edges, dtype=float)
    lo = edges[..., :-1]
    half = 0.5 * (edges[..., 1:] - lo)
    return lo[..., None] + half[..., None] * (_NODES + 1.0), half, _WEIGHTS


def panel_tails(f, edges):
    """Integrals of ``f`` from each `panel_gauss` node to the last edge.

    ``f`` and ``edges`` are as in `panel_gauss`, and the nodes are the ones
    `panel_gauss` passes to its integrand for the same edges.  The rest of
    a node's own panel takes a nested rule of its own, and the panels after
    it add their `panel_gauss` sums, accumulated from the right.

    Returns
    -------
    tails : ndarray of shape ``edges.shape[:-1] + (P, PANEL_ORDER)``
        the integral from each node to the last edge;
    after : ndarray of shape ``edges.shape``
        the integral from each edge to the last edge.
    """
    nodes, half, w = _panel_nodes(edges)
    rest = 0.5 * (np.asarray(edges, dtype=float)[..., 1:, None] - nodes)
    inner = nodes[..., None] + rest[..., None] * (_NODES + 1.0)
    own = rest * (np.asarray(f(inner), dtype=float) * w).sum(axis=-1)
    panel = half * (np.asarray(f(nodes), dtype=float) * w).sum(axis=-1)
    after = np.zeros(np.shape(edges))
    after[..., :-1] = np.cumsum(panel[..., ::-1], axis=-1)[..., ::-1]
    return own + after[..., 1:, None], after
