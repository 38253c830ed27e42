"""Linear delay equation parameters and the fundamental solution.

For ``x'(t) = a x(t) + b x(t - tau)`` the fundamental solution X (zero
history, unit jump at zero) is what every covariance formula in this
subpackage is built from.  It is evaluated by the method of steps.  On
each delay interval ``y(t) = e^{-a t} X(t)``, which solves
``y' = b e^{-a tau} y(t - tau)``, is a polynomial whose Taylor
coefficients at ``k tau`` are earlier node values; multiplied back by
``e^{a t}`` this gives, for ``t = k tau + s`` with ``0 <= s < tau``,

    X(k tau + s) = e^{a s} sum_{j=0}^{k} (b s)^j / j! * X((k - j) tau),

and the node values ``X(k tau)`` come from the same sum at ``s = tau`` on
the interval before.  A call builds the nodes up to its largest t (at most
51 under the horizon cap) and then runs the sum by Horner's rule.  Only
values of X itself are formed, so nothing leaves the float range unless X
does (y grows like ``e^{-a t} X``, which for strongly negative a
overflows where X is still representable).

The closed form ``sum_k b^k (t - k tau)^k e^{a (t - k tau)} / k!`` is the
same function, but for ``b < 0`` its terms alternate and grow like
``e^{|b| t}`` whatever X does, so far out they cancel to noise.  Here each
term is an earlier node value times a Taylor weight.  Within one interval
the weights sum to at most ``e^{(|a| + |b|) tau}``, whatever t is; and a
rounding error d made at node k adds exactly d times the equation's own
fundamental solution, started at ``k tau``, to every later value.  So the
rounding grows no faster than the solutions themselves.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from ..quadrature import _leggauss

MAX_HORIZON_DELAYS = 50.0  # evaluation cap for t, in units of tau
PREFIX_RESOLUTION = 256  # `fundamental_prefix` table nodes per delay


@dataclass(frozen=True)
class LinearDdeParams:
    """Coefficients of ``x' = a x + b x(t - tau)``."""

    a: float
    b: float
    tau: float

    def __post_init__(self):
        for name in ("a", "b", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")


def check_horizon(p: LinearDdeParams, t) -> None:
    """Reject any ``t`` that is NaN or past `MAX_HORIZON_DELAYS` tau."""
    cap = MAX_HORIZON_DELAYS * p.tau + 1e-9 * p.tau
    if not np.all(np.asarray(t) <= cap):
        raise ValueError(f"fundamental solution capped at t <= "
                         f"{MAX_HORIZON_DELAYS} tau; got a later or NaN time")


def _taylor(y, k, c, depth):
    """``sum_{j=0}^{depth} c^j / j! * y[k - j]``, by Horner's rule."""
    acc = 0.0
    for j in range(depth, 0, -1):
        acc = (acc + y[k - j]) * c / j
    return acc + y[k]


def fundamental_solution(p: LinearDdeParams, t):
    """Evaluate ``X(t)``; vectorized over ``t``, zero for ``t < 0``."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    check_horizon(p, t_arr)
    # t < 0 falls on interval k = -1, whose nodes are all zero; clamping
    # first keeps the offset s in [0, tau) for any t
    s = np.maximum(t_arr, -p.tau)
    k = np.floor(s / p.tau).astype(int)
    s -= k * p.tau
    kmax = int(k.max(initial=0))
    # x[kmax + 1 + i] = X(i tau); the kmax + 1 zeros in front are the history
    x = [0.0] * (kmax + 1) + [1.0]
    for i in range(1, kmax + 1):
        x.append(math.exp(p.a * p.tau)
                 * _taylor(x, kmax + i, p.b * p.tau, i - 1))
    out = _taylor(np.array(x), k + kmax + 1, p.b * s, kmax) * np.exp(p.a * s)
    return float(out[0]) if scalar else out


class _PrefixTable:
    """Cumulative integral of X at nodes ``j * tau / PREFIX_RESOLUTION``."""

    __slots__ = ("params", "h", "nodes", "cumulative")

    def __init__(self, p: LinearDdeParams, n_delays: int):
        self.params = p
        self.h = p.tau / PREFIX_RESOLUTION
        n = n_delays * PREFIX_RESOLUTION
        self.nodes = self.h * np.arange(n + 1)
        x, w = _leggauss(8)
        mid = self.nodes[:-1, None] + 0.5 * self.h * (x + 1.0)
        vals = fundamental_solution(p, mid)
        panel = 0.5 * self.h * (vals * w).sum(axis=1)
        self.cumulative = np.concatenate([[0.0], np.cumsum(panel)])


_PREFIX_CACHE: dict[tuple, _PrefixTable] = {}


def fundamental_prefix(p: LinearDdeParams, z):
    """Integral of the fundamental solution over ``[0, z]``, vectorized.

    Negative ``z`` clips to zero (X vanishes there).  Values at cached
    node points are shared; the sub-node remainder is an 8-point
    Gauss-Legendre tail, exact to rounding for these analytic pieces.
    """
    z_arr = np.maximum(np.asarray(z, dtype=float), 0.0)
    check_horizon(p, z_arr)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    zmax = float(z_arr.max()) if z_arr.size else 0.0
    n_delays = max(1, int(np.ceil(zmax / p.tau - 1e-12)))
    key = (p.a, p.b, p.tau)
    table = _PREFIX_CACHE.get(key)
    if table is None or table.nodes[-1] < zmax - 1e-12:
        table = _PrefixTable(p, n_delays)
        _PREFIX_CACHE[key] = table
    idx = np.minimum((z_arr / table.h).astype(int), table.nodes.size - 2)
    base = table.cumulative[idx]
    lo = table.nodes[idx]
    x, w = _leggauss(8)
    half = 0.5 * (z_arr - lo)
    pts = lo[..., None] + half[..., None] * (x + 1.0)
    tail = half * (fundamental_solution(p, pts) * w).sum(axis=-1)
    out = base + tail
    return float(out[0]) if scalar else out
