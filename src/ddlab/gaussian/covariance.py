"""Covariance propagation for the linear delay equation.

Everything follows from the solution representation

    x(t) = X(t) xi(0) + b * integral_{-tau}^{0} X(t - r - tau) xi(r) dr

with X the fundamental solution, which carries the initial kernel forward
as R_t = S_t R_0 S_t*.  If R_0(s1, s2) is a sum or an integral of products
g(s1) g(s2), each factor g evolves to g(c) in the history (c <= 0) and to
X(c) g(0) + b * integral X(c - r - tau) g(r) dr after, and R(A, B) at the
absolute times A <= B is the same sum or integral of the evolved products.
One batched evaluator, `_cov_block`, does this for every kernel:

* a finite-rank kernel (cosine, degenerate cosine, tabulated) has finitely
  many factors, and R is the sum of their products;
* the product kernel u(min) v(max), the running minimum min(s1, s2) + tau
  among them (u = s + tau, v = 1), is the integral over q in [-tau, 0]
  of 1{q <= s1} 1{q <= s2} time-changed by rho = u/v and scaled by v: its
  factors v(s) 1{q <= s} are integrated against d rho(q), and by parts
  against rho's values only.

Every integral runs on fixed 24-point Gauss-Legendre panels split at one
knot list: the delay knots r = c - k tau, where X(c - r - tau) crosses a
multiple of tau, plus the kernel's kinks.  Neither is filtered to an
interval; each row keeps the knots strictly inside its own limits.  The
lag curve reads R(s - tau, s), the variance curve reads
sigma^2(t) = R(t, t) forming each factor once, so sigma^2 is a sum or an
integral of squares and never negative, and `r_t` is one read at
A = t + s1, B = t + s2.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from ..quadrature import panel_gauss, panel_tails
from ..tabular import write_csv
from .kernels import CovKernel, check_kernel
from .linear import LinearDdeParams, check_horizon, fundamental_solution

__all__ = [
    "GaussianState", "r_t", "lag_cov_curve", "sigma2_curve", "sigma2_grid",
    "SigmaCurve", "propagate_state", "wiener_closed_form",
]

_CHUNK = 256  # times per batched block of `_cov_curve`


# ---------------------------------------------------------------------------
# knots and panels


def _delay_knots(p: LinearDdeParams, c):
    """r = c - k tau for k = 1 .. ceil(max c / tau) + 1, shape (..., k).

    X(c - r - tau) is smooth in r between these knots.  They are not
    filtered: the ones at or below -tau are simply not inside any window.
    """
    c = np.asarray(c, dtype=float)
    kmax = math.ceil(float(c.max(initial=0.0)) / p.tau)
    return c[..., None] - np.arange(1, kmax + 2) * p.tau


def _panel_edges(lo, hi, knots):
    """Per-row panel edges over [lo, hi], split at the knots.

    A row's edges are lo, its distinct knots strictly inside (lo, hi) in
    order, then hi, repeated on the right up to the widest row's panel
    count.
    """
    lo = lo[:, None]
    hi = hi[:, None]
    knots = np.where((knots > lo) & (knots < hi), knots, hi)
    knots.sort(axis=1)
    knots[:, 1:] = np.where(knots[:, 1:] == knots[:, :-1], hi, knots[:, 1:])
    knots.sort(axis=1)
    width = int((knots < hi).sum(axis=1).max(initial=0))
    return np.concatenate([lo, knots[:, :width], hi], axis=1)


def _x_weighted_integral(fn, p: LinearDdeParams, c, kinks):
    """Vectorized integral_{-tau}^{min(0, c-tau)} X(c - r - tau) fn(r) dr,
    split also at the ``kinks`` of ``fn``.

    ``fn`` may stack several integrands on a leading axis; the result
    carries the same axis.
    """
    lo = np.full_like(c, -p.tau)
    hi = np.maximum(np.minimum(0.0, c - p.tau), lo)
    cc = c[:, None, None]
    kinks = np.broadcast_to(kinks, c.shape + np.shape(kinks)[-1:])
    edges = _panel_edges(lo, hi, np.concatenate([_delay_knots(p, c), kinks],
                                                axis=1))
    return panel_gauss(
        lambda r: fundamental_solution(p, cc - r - p.tau) * fn(r), edges)


# ---------------------------------------------------------------------------
# the batched evaluator


def _finite_rank_factors(kernel: CovKernel, p: LinearDdeParams, c):
    """g_f(c) for the factors f of a finite-rank kernel, evolved; shape
    ``(len(sep),) + c.shape``.

    f(c) in the history (c <= 0), then
    X(c) f(0) + b * integral X(c - r - tau) f(r) dr, split also at the
    factors' kinks.
    """
    sep = kernel.separable_terms()

    def fs(r):
        return np.stack([f(r) for f in sep])

    evolved = (fundamental_solution(p, c) * fs(0.0)[:, None]
               + p.b * _x_weighted_integral(fs, p, c, kernel.kinks(c)))
    return np.where(c <= 0.0, fs(c), evolved)


def _product_cov(kernel, p: LinearDdeParams, A, B):
    """R(A, B) for the product kernel u(min) v(max), integrated by parts.

    R = integral G_q(A) G_q(B) d rho(q) over q <= h = min(A, 0), with
    rho = u/v (rho(-tau) = 0) and the factor G_q(c) = v(c) 1{q <= c}: in
    the history it is v(c), and evolved it is
    X(c) v(0) + b integral_q^0 X(c - r - tau) v(r) dr, whose q-derivative
    is -b X(c - q - tau) v(q).  By parts,
    R = rho(h) G_h(A) G_h(B) - integral rho(q) d/dq [G_q(A) G_q(B)] dq,
    so rho enters through its values only.  The running integral inside
    G comes from `panel_tails` on the panels of [-tau, 0], split at both
    times' delay knots and at h; the outer integral keeps the panels
    below h.  Rows with both times in the history read the kernel.
    """
    h = np.minimum(A, 0.0)
    edges = _panel_edges(np.full_like(A, -p.tau), np.zeros_like(A),
                         np.concatenate([h[:, None], _delay_knots(p, A),
                                         _delay_knots(p, B)], axis=1))
    below = (edges[:, 1:] <= h[:, None])[..., None]
    at_h = below.sum(axis=1)
    v0 = kernel.v(0.0)

    def factor(c):
        """G_q(c) and d/dq G_q(c) at the panel nodes, and G_h(c)."""
        c3 = c[:, None, None]
        slope = []  # X(c - q - tau) v(q) = -d/dq G_q(c) / b at the nodes

        def running(r):
            slope.append(fundamental_solution(p, c3 - r - p.tau)
                         * kernel.v(r))
            return slope[0]

        tails, after = panel_tails(running, edges)
        x = fundamental_solution(p, c3) * v0
        g = np.where(c3 <= 0.0, kernel.v(c3), x + p.b * tails)
        tail_h = np.take_along_axis(after, at_h, axis=1)[..., None]
        g_h = np.where(c3 <= 0.0, kernel.v(c3), x + p.b * tail_h)
        return g, g_h[:, 0, 0], np.where(c3 <= 0.0, 0.0, -p.b * slope[0])

    ga, ga_h, da = factor(A)
    gb, gb_h, db = (ga, ga_h, da) if B is A else factor(B)

    def rho(q):
        return kernel.u(q) / kernel.v(q)

    def integrand(q):  # panel_gauss hands it the nodes panel_tails used
        return np.where(below, rho(q) * (da * gb + ga * db), 0.0)

    r = rho(h) * ga_h * gb_h - panel_gauss(integrand, edges)
    return np.where(B <= 0.0, kernel.value(A, B), r)


def _cov_block(kernel: CovKernel, p: LinearDdeParams, A, B):
    """R at the absolute times A <= B, as the inner product <g(A), g(B)>.

    g is the kernel's factor evolved by the solution operator: a sum over
    the factors of a finite-rank kernel, and an integral against d rho for
    the product kernel (`_product_cov`).  ``B is A`` reads the variance and
    forms each factor once.  The kernel has passed `check_kernel`.
    """
    if kernel.separable_terms() is not None:
        ga = _finite_rank_factors(kernel, p, A)
        gb = ga if B is A else _finite_rank_factors(kernel, p, B)
        return (ga * gb).sum(axis=0)
    return _product_cov(kernel, p, A, B)


def _cov_curve(kernel: CovKernel, p: LinearDdeParams, A, B):
    """`_cov_block` in blocks of `_CHUNK` times: the batched panel integrals
    broadcast times x panels x nodes, and bounding the leading axis keeps
    the transient arrays small even for horizons of many delay intervals.
    """
    out = np.empty_like(B)
    for i in range(0, len(B), _CHUNK):
        a = A[i:i + _CHUNK]
        out[i:i + _CHUNK] = _cov_block(kernel, p, a,
                                       a if B is A else B[i:i + _CHUNK])
    return out


def _canonical_window_args(p, t, s1, s2):
    if s2 < s1:
        s1, s2 = s2, s1
    eps = 1e-12 * p.tau
    if t < -eps:
        raise ValueError("t must be nonnegative")
    if s1 < -p.tau - eps or s2 > eps:
        raise ValueError("s1, s2 must lie in [-tau, 0]")
    s1 = min(max(s1, -p.tau), 0.0)
    s2 = min(max(s2, -p.tau), 0.0)
    return max(t, 0.0), s1, s2


def r_t(kernel: CovKernel, p: LinearDdeParams, t: float, s1: float,
        s2: float) -> float:
    """Covariance of the evolved Gaussian process at window offsets s1, s2:
    one read of the batched evaluator at t + s1 and t + s2."""
    check_kernel(kernel, p.tau)
    t, s1, s2 = _canonical_window_args(p, t, s1, s2)
    a = np.array([t + s1])
    return float(_cov_block(kernel, p, a,
                            a if s1 == s2 else np.array([t + s2]))[0])


def lag_cov_curve(kernel: CovKernel, p: LinearDdeParams,
                  s_values) -> np.ndarray:
    """R_s(-tau, 0) for an array of times."""
    s = np.asarray(s_values, dtype=float)
    if s.ndim != 1:
        raise ValueError("s_values must be 1-d")
    if np.any(s < -1e-12):
        raise ValueError("times must be nonnegative")
    check_horizon(p, s)
    check_kernel(kernel, p.tau)
    return _cov_curve(kernel, p, s - p.tau, s)


@dataclass
class SigmaCurve:
    """Variance curve with the evolution-equation residual at each node."""

    t: np.ndarray
    sigma2: np.ndarray
    residual: np.ndarray

    def to_csv(self, path):
        write_csv(path, ["t", "sigma2", "residual"],
                  [self.t, self.sigma2, self.residual])

    def at(self, t_query: float) -> float:
        i = int(np.argmin(np.abs(self.t - t_query)))
        if abs(self.t[i] - t_query) > 1e-9 + 1e-9 * abs(t_query):
            raise ValueError(f"t = {t_query} not on the curve grid")
        return float(self.sigma2[i])


def sigma2_grid(p: LinearDdeParams, T: float, dt: float) -> np.ndarray:
    """The time grid of `sigma2_curve`, checked before any quadrature."""
    if not (math.isfinite(T) and math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"need a finite T and dt > 0, got {T!r} and {dt!r}")
    n = int(round(T / dt)) if math.isfinite(T / dt) else 0
    if n < 2 or abs(n * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("T must be a multiple of dt (at least 2 steps)")
    check_horizon(p, n * dt)
    return dt * np.arange(n + 1)


def sigma2_curve(kernel: CovKernel, p: LinearDdeParams, T: float,
                 dt: float) -> SigmaCurve:
    """Variance sigma^2(t) = R_t(0, 0) of x(t) on a uniform grid.

    The variance and the lag covariance R_t(-tau, 0) are two independent
    reads of the batched evaluator, and the variance equation

        d sigma^2/dt = 2a sigma^2 + 2b R_t(-tau, 0)

    serves only as a check: the residual |d sigma^2/dt - 2a sigma^2 -
    2b R_t(-tau, 0)| uses centered differences, switching to one-sided
    second-order stencils at the endpoints and at the breakpoints t = k tau
    where the curve is only C^1 (one-sided grids are exact when tau is a
    grid multiple).
    """
    t_grid = sigma2_grid(p, T, dt)
    check_kernel(kernel, p.tau)
    n = len(t_grid) - 1
    sigma2 = _cov_curve(kernel, p, t_grid, t_grid)
    r_grid = _cov_curve(kernel, p, t_grid - p.tau, t_grid)

    deriv = np.empty_like(sigma2)
    deriv[1:-1] = (sigma2[2:] - sigma2[:-2]) / (2.0 * dt)
    deriv[0] = (-3.0 * sigma2[0] + 4.0 * sigma2[1] - sigma2[2]) / (2.0 * dt)
    deriv[-1] = (3.0 * sigma2[-1] - 4.0 * sigma2[-2] + sigma2[-3]) / (2.0 * dt)
    per = p.tau / dt
    if abs(round(per) - per) < 1e-9:
        m = int(round(per))
        for i in range(m, n - 1, m):
            if i >= 2:
                deriv[i] = (3.0 * sigma2[i] - 4.0 * sigma2[i - 1]
                            + sigma2[i - 2]) / (2.0 * dt)
    residual = np.abs(deriv - 2.0 * p.a * sigma2 - 2.0 * p.b * r_grid)
    return SigmaCurve(t=t_grid, sigma2=sigma2, residual=residual)


# ---------------------------------------------------------------------------
# two-time state and closed forms


@dataclass(frozen=True)
class GaussianState:
    """Second moments of (x(t), x(t - tau)) for the evolved process."""

    t: float
    sigma2_t: float
    sigma2_lag: float
    cross: float

    def __post_init__(self):
        if self.sigma2_t < -1e-10 or self.sigma2_lag < -1e-10:
            raise ValueError("negative variance")
        bound = math.sqrt(max(self.sigma2_t, 0.0)
                          * max(self.sigma2_lag, 0.0))
        if abs(self.cross) > bound + 1e-10:
            raise ValueError("covariance violates Cauchy-Schwarz")

    @property
    def det(self) -> float:
        return self.sigma2_t * self.sigma2_lag - self.cross ** 2


def propagate_state(kernel: CovKernel, p: LinearDdeParams,
                    t: float) -> GaussianState:
    """Assemble the joint Gaussian state of (x(t), x(t - tau)) from one
    read of the batched evaluator."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    check_kernel(kernel, p.tau)
    lag = t - p.tau
    s_t, cross, s_lag = _cov_block(kernel, p, np.array([t, lag, lag]),
                                   np.array([t, t, lag])).tolist()
    return GaussianState(t=float(t), sigma2_t=max(s_t, 0.0),
                         sigma2_lag=max(s_lag, 0.0), cross=cross)


_A_SWITCH = 1e-6


def _expm1_minus_x(x: float) -> float:
    """e^x - 1 - x without cancellation."""
    if abs(x) < 1e-4:
        return 0.5 * x * x * (1.0 + x / 3.0 + x * x / 12.0 + x ** 3 / 60.0)
    return math.expm1(x) - x


def _sq_expm1_residue(x: float) -> float:
    """(e^x - 1)^2 - 2(e^x - 1 - x); leading order (2/3) x^3."""
    if abs(x) < 1e-3:
        return x ** 3 * (2.0 / 3.0 + 0.5 * x + (7.0 / 30.0) * x * x
                         + x ** 3 / 12.0)
    em = math.expm1(x)
    return em * em - 2.0 * (em - x)


def wiener_closed_form(p: LinearDdeParams, t: float):
    """Closed-form (R_t(-tau, 0), sigma^2(t)) for the running-minimum kernel.

    Valid on ``0 <= t <= tau``.  The a != 0 expressions divide
    exponential differences by a^2 and a^3; those differences are
    evaluated by expm1/series helpers so the branch stays accurate
    arbitrarily close to a = 0.  Below |a| < 1e-6 the a = 0 polynomial is
    used outright; the seam mismatch is the genuine a-dependence of the
    curve, of order |a| (about 1e-6 here), not a rounding artifact.
    """
    if not 0.0 <= t <= p.tau * (1.0 + 1e-12):
        raise ValueError("closed form valid on [0, tau] only")
    a, b = p.a, p.b
    if abs(a) < _A_SWITCH:
        r_lag = t + 0.5 * b * t * t
        sigma2 = p.tau + b * t * t + (b * b / 3.0) * t ** 3
    else:
        ea = math.exp(a * t)
        core = _expm1_minus_x(a * t)
        r_lag = ea * t + (b / a ** 2) * core
        sigma2 = (ea * ea * p.tau + (2.0 * b / a ** 2) * ea * core
                  + (b * b / (2.0 * a ** 3)) * _sq_expm1_residue(a * t))
    return r_lag, sigma2

