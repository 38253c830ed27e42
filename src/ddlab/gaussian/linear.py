"""Linear delay equation parameters and the fundamental solution.

For ``x'(t) = a x(t) + b x(t - tau)`` the fundamental solution (zero history,
unit jump at zero) is the finite sum

    X(t) = sum_{k=0}^{floor(t/tau)} (b^k / k!) (t - k tau)^k e^{a (t - k tau)}

which is what every covariance formula in this subpackage is built from.
Terms alternate in sign for ``b < 0`` and can cancel badly, so the sum is
accumulated with Kahan compensation and each term is formed in log magnitude.

The log k! in each term comes from ``_LOG_FACTORIAL``, a literal table of
``scipy.special.gammaln(k + 1)`` for k = 0..51 (the horizon cap allows
k <= 50), written as ``float.hex`` so that it carries every bit.
``math.lgamma`` differs from it in the last bit at 29 of the 52 entries,
which would move the printed variance curves; the table keeps scipy off the
import path without changing an output byte.  A test checks it against
scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from ..quadrature import _leggauss

MAX_HORIZON_DELAYS = 50.0  # evaluation cap for t, in units of tau
PREFIX_RESOLUTION = 256  # `fundamental_prefix` table nodes per delay

_LOG_FACTORIAL = tuple(map(float.fromhex, (
    "0x0.0p+0", "0x0.0p+0", "0x1.62e42fefa39efp-1",
    "0x1.cab0bfa2a2002p+0", "0x1.96ca77c922cf9p+1", "0x1.326643c4479c9p+2",
    "0x1.a51273acf01cap+2", "0x1.10ce1f32dcc30p+3", "0x1.5358e82fcb70dp+3",
    "0x1.99a8921a7f7cfp+3", "0x1.e357590954d15p+3", "0x1.180973f3a8d74p+4",
    "0x1.3fcba16d50143p+4", "0x1.68d5a9c3b32cdp+4", "0x1.930f3df162a43p+4",
    "0x1.be636a63fd347p+4", "0x1.eabff061f1a85p+4", "0x1.0c0a63f2f353ap+5",
    "0x1.2329df2d5ee52p+5", "0x1.3ab8153363985p+5", "0x1.52af57aed77bep+5",
    "0x1.6b0a8643472a9p+5", "0x1.83c4faba84f06p+5", "0x1.9cda78b856a45p+5",
    "0x1.b6472034e8d14p+5", "0x1.d007622cd65e7p+5", "0x1.ea17f717c6794p+5",
    "0x1.023aeb67e4feep+6", "0x1.0f8f18d330240p+6", "0x1.1d07353917230p+6",
    "0x1.2aa208b59d0e5p+6", "0x1.385e6fd9e5a40p+6", "0x1.463b59b942083p+6",
    "0x1.5437c633ace4bp+6", "0x1.6252c474896b9p+6", "0x1.708b719e11657p+6",
    "0x1.7ee0f79b26758p+6", "0x1.8d528c1243d94p+6", "0x1.9bdf6f75257a3p+6",
    "0x1.aa86ec2969811p+6", "0x1.b94855c702ba2p+6", "0x1.c8230869ca104p+6",
    "0x1.d7166813e12edp+6", "0x1.e621e01eeba4fp+6", "0x1.f544e2ba69cf0p+6",
    "0x1.023f743addda0p+7", "0x1.09e7b7ea41ea8p+7", "0x1.119afe762626cp+7",
    "0x1.19590c853a559p+7", "0x1.2121a930c6ec2p+7", "0x1.28f49ddeb1f31p+7",
    "0x1.30d1b61e86336p+7",
)))


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


def fundamental_solution(p: LinearDdeParams, t):
    """Evaluate ``X(t)``; vectorized over ``t``, zero for ``t < 0``."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    check_horizon(p, t_arr)
    out = np.zeros_like(t_arr)
    comp = np.zeros_like(t_arr)
    kmax = 0 if p.b == 0.0 else int(np.floor(t_arr.max() / p.tau)) if t_arr.size else 0
    log_b = -np.inf if p.b == 0.0 else math.log(abs(p.b))
    sign_b = 1.0 if p.b >= 0.0 else -1.0
    for k in range(max(kmax, 0) + 1):
        dt = t_arr - k * p.tau
        live = dt >= 0.0
        if not live.any():
            break
        if k == 0:
            term = np.where(live, np.exp(p.a * dt), 0.0)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                logmag = (k * log_b - _LOG_FACTORIAL[k]
                          + k * np.log(np.maximum(dt, 0.0)) + p.a * dt)
            term = np.where(live & (dt > 0.0),
                            sign_b ** k * np.exp(logmag), 0.0)
        # Kahan step
        y = term - comp
        s = out + y
        comp = (s - out) - y
        out = s
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
