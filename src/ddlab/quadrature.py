"""Fixed-order panel quadrature used by the covariance machinery.

Dense curve evaluation needs thousands of nearby integrals of
panel-smooth integrands.  :func:`panel_gauss` applies a fixed 24-point
Gauss-Legendre rule to a batch of panels in one vectorized pass, and
:func:`panel_tails` gives the integral from each of its nodes to the end,
for an integrand that is itself a running integral: within a panel it
reads each node's integral to the panel's end through one 24 x 24
spectral integration matrix applied to the integrand's values at the
panel's own nodes, so the integrand is evaluated once per node.  Rows of
a batch may hold fewer panels than the widest one: they are padded on the
right with zero-width panels at their upper limit, which add exactly
zero.  Tests cross-check both against an adaptive reference.
"""
from __future__ import annotations

import functools

import numpy as np

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


@functools.cache
def _tail_matrix():
    """T[i, j] = integral_{x_i}^{1} l_j(x) dx, for the rule's nodes x_i and
    the Lagrange polynomials l_j through them.

    The rule integrates P_k P_l exactly for k, l < `PANEL_ORDER`, so
    l_j = sum_k (k + 1/2) P_k(x_j) w_j P_k, and the Legendre polynomials
    integrate to 1 - x (k = 0) and (P_{k-1}(x) - P_{k+1}(x)) / (2k + 1).
    Built at first use, and with einsum, so no bit depends on BLAS; every
    caller shares it, read-only.
    """
    x = _NODES
    p = [np.ones_like(x), x]  # P_0 .. P_{PANEL_ORDER} at the nodes
    for k in range(1, PANEL_ORDER):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    p = np.array(p)
    k = np.arange(PANEL_ORDER)
    coef = (k + 0.5)[:, None] * p[:-1] * _WEIGHTS
    tails = np.concatenate([[1.0 - x],
                            (p[:-2] - p[2:]) / (2 * k[1:, None] + 1)])
    matrix = np.einsum("ki,kj->ij", tails, coef)
    matrix.setflags(write=False)
    return matrix


def panel_tails(f, edges):
    """Integrals of ``f`` from each `panel_gauss` node to the last edge.

    ``f`` and ``edges`` are as in `panel_gauss`, and ``f`` sees the same
    nodes, once.  The rest of a node's own panel is read through the
    matrix `_tail_matrix` from the values at that panel's nodes, and the
    panels after it add their `panel_gauss` sums, accumulated from the
    right.

    Returns
    -------
    tails : ndarray of shape ``edges.shape[:-1] + (P, PANEL_ORDER)``
        the integral from each node to the last edge;
    after : ndarray of shape ``edges.shape``
        the integral from each edge to the last edge.
    """
    nodes, half, w = _panel_nodes(edges)
    vals = np.asarray(f(nodes), dtype=float)
    own = half[..., None] * np.einsum("...j,ij->...i", vals, _tail_matrix())
    panel = half * (vals * w).sum(axis=-1)
    after = np.zeros(np.shape(edges))
    after[..., :-1] = np.cumsum(panel[..., ::-1], axis=-1)[..., ::-1]
    return own + after[..., 1:, None], after
