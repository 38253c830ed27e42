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

MAX_HORIZON_DELAYS = 50.0  # evaluation cap for t, in units of tau


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


def _steps(p: LinearDdeParams, t):
    """Split ``t = k tau + s`` and build the node values ``X(k tau)``.

    Returns ``(idx, s, x, kmax)``: ``x`` holds ``kmax + 1`` zeros of
    history, then ``X(0), X(tau), ..., X(kmax tau)`` for the largest k,
    and ``idx = k + kmax + 1`` is where each t's ``X(k tau)`` sits in it.
    """
    # t < 0 falls on interval k = -1, whose nodes are all zero; clamping
    # first keeps the offset s in [0, tau) for any t
    s = np.maximum(t, -p.tau)
    k = np.floor(s / p.tau).astype(int)
    s -= k * p.tau
    kmax = int(k.max(initial=0))
    x = [0.0] * (kmax + 1) + [1.0]
    for i in range(1, kmax + 1):
        x.append(math.exp(p.a * p.tau)
                 * _taylor(x, kmax + i, p.b * p.tau, i - 1))
    return k + kmax + 1, s, np.array(x), kmax


def fundamental_solution(p: LinearDdeParams, t):
    """Evaluate ``X(t)``; vectorized over ``t``, zero for ``t < 0``."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    check_horizon(p, t_arr)
    idx, s, x, kmax = _steps(p, t_arr)
    out = _taylor(x, idx, p.b * s, kmax) * np.exp(p.a * s)
    return float(out[0]) if scalar else out
