"""Pointwise covariance by adaptive quadrature: the tests' reference.

This is an independent evaluation of R_t(s1, s2) = E[x(t + s1) x(t + s2)]
from the solution representation

    x(t) = X(t) xi(0) + b * integral_{-tau}^{0} X(t - r - tau) xi(r) dr,

which the batched evaluator in `ddlab.gaussian.covariance` must agree with.
It writes A = t + s1 <= B = t + s2 and splits the covariance into three
regimes:

* both times still in the history window (B <= 0): the initial kernel,
  R_0(A, B);
* straddling (A <= 0 < B): one application of the representation,
  X(B) R_0(A, 0) + b * integral X(B - r - tau) R_0(r, A) dr;
* both evolved (0 < A): the X-weighted single and double integrals over the
  initial kernel.

The regimes agree at their boundaries (the straddling integral collapses as
B -> 0+, and the double integral dies as A -> 0+).  Every integral is split
at the delay knots r = c - k tau, where X(c - r - tau) crosses a multiple
of tau, plus the kernel's kinks, and runs adaptive Simpson on those panels
to the absolute tolerance ``tol``.
"""
import math

import numpy as np

from ddlab.errors import QuadratureError
from ddlab.gaussian.covariance import _canonical_window_args, _delay_knots
from ddlab.gaussian.kernels import (CovKernel, ShiftedWienerKernel,
                                    TabulatedKernel, check_kernel)
from ddlab.gaussian.linear import (LinearDdeParams, fundamental_prefix,
                                   fundamental_solution)
from ddlab.quadrature import adaptive_simpson


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


def _weighted_single(fn, p: LinearDdeParams, c: float, tol: float,
                     kinks=()) -> float:
    """integral_{-tau}^{min(0, c - tau)} X(c - r - tau) fn(r) dr."""
    hi = min(0.0, c - p.tau)
    lo = -p.tau
    if hi <= lo:
        return 0.0

    def f(r):
        return fundamental_solution(p, c - r - p.tau) * fn(r)

    return adaptive_simpson(f, lo, hi, tol=tol,
                            breakpoints=np.append(_delay_knots(p, c), kinks))


def _xx_double(kernel: CovKernel, p: LinearDdeParams, A: float, B: float,
               tol: float) -> float:
    """Double integral of X(A-r1-tau) X(B-r2-tau) K(r1, r2) over the window."""
    hi1 = min(0.0, A - p.tau)
    hi2 = min(0.0, B - p.tau)
    if hi1 <= -p.tau or hi2 <= -p.tau:
        return 0.0
    # the table's factors come from the evaluator's own eigendecomposition,
    # so the table takes the double integral of its bilinear values
    sep = kernel.separable_terms()
    if sep is not None and not isinstance(kernel, TabulatedKernel):
        return math.fsum(
            _weighted_single(f, p, A, tol) * _weighted_single(f, p, B, tol)
            for f in sep)
    if isinstance(kernel, ShiftedWienerKernel):
        # min(r1, r2) + tau = measure of {q <= r1} cap {q <= r2} over [-tau, 0]
        # turns the double integral into a single one over q of the product
        # of two running integrals of X, which kink at both times' knots.
        iA = fundamental_prefix(p, A - p.tau)
        iB = fundamental_prefix(p, B - p.tau)

        def g(q):
            ga = fundamental_prefix(p, A - p.tau - q) - iA
            gb = fundamental_prefix(p, B - p.tau - q) - iB
            return ga * gb

        return adaptive_simpson(
            g, -p.tau, 0.0, tol=tol,
            breakpoints=np.append(_delay_knots(p, A), _delay_knots(p, B)))

    def f2(r1, r2):
        return (fundamental_solution(p, A - r1 - p.tau)
                * fundamental_solution(p, B - r2 - p.tau)
                * kernel.value(r1, r2))

    def y_breaks(r1):
        return np.append(_delay_knots(p, B), kernel.kinks(r1))

    return adaptive_simpson_2d(
        f2, -p.tau, hi1, -p.tau, hi2, tol=tol,
        x_breaks=_delay_knots(p, A), y_breaks=y_breaks)


def _evolved(p: LinearDdeParams, xa, xb, k00, i_a, i_b, dbl):
    """R_t(s1, s2) with both times evolved, from X(A), X(B), K(0, 0), the
    single integrals at A and B and the double integral."""
    return xa * xb * k00 + p.b * xa * i_b + p.b * xb * i_a + p.b ** 2 * dbl


def r_t(kernel: CovKernel, p: LinearDdeParams, t: float, s1: float, s2: float,
        *, tol: float = 1e-9) -> float:
    """Covariance of the evolved Gaussian process at window offsets s1, s2."""
    check_kernel(kernel, p.tau)
    t, s1, s2 = _canonical_window_args(p, t, s1, s2)
    A = t + s1
    B = t + s2
    if B <= 0.0:
        return float(kernel.value(A, B))

    def single(c, fixed):
        return _weighted_single(lambda r: kernel.value(r, fixed), p, c, tol,
                                kernel.kinks(fixed))

    try:
        if A <= 0.0:
            return float(fundamental_solution(p, B) * kernel.value(A, 0.0)
                         + p.b * single(B, A))
        return float(_evolved(p, fundamental_solution(p, A),
                              fundamental_solution(p, B),
                              kernel.value(0.0, 0.0), single(A, 0.0),
                              single(B, 0.0), _xx_double(kernel, p, A, B, tol)))
    except QuadratureError as err:
        raise QuadratureError(
            f"R_t at t = {t:g}, s1 = {s1:g}, s2 = {s2:g}: {err}") from err
