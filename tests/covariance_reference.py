"""Adaptive quadrature and closed forms: the tests' independent reference.

Nothing here runs on a shipped run path.  It holds

* `adaptive_simpson`, a vectorized interval-stack implementation of
  adaptive composite Simpson with Richardson extrapolation, and its
  iterated 2-D form;
* `fundamental_prefix`, the running integral Z of the fundamental solution
  in closed form by the method of steps;
* `r_t`, the covariance R_t(s1, s2) = E[x(t + s1) x(t + s2)] pointwise by
  adaptive quadrature;
* `conditional_mean_check`, the joint density's regression line by
  adaptive quadrature.

`r_t` evaluates the covariance from the solution representation

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
to the absolute tolerance ``tol``.  The Wiener kernel's double integral is
a single one over products of differences of Z.

The running integral ``Z(t) = integral_0^t X``, which the Wiener branch
needs, comes from the Taylor pieces of X (`ddlab.gaussian.linear`)
integrated term by term:

    Z(k tau + s) = Z(k tau)
                   + s sum_{j=0}^{k} (b s)^j / j! phi_j(a s) X((k - j) tau),

with ``phi_j(z) = integral_0^1 e^{z u} u^j du`` and the nodes ``Z(k tau)``
the running sums of whole-delay pieces.  Nothing divides by a or b; at
``a = 0``, ``phi_j = 1 / (j + 1)`` and the sum is one Horner pass.  For
``a > 0`` each phi_j is a series of positive terms, and for ``a < 0`` a
recursion in j that adds positive terms (`_phi_series`,
`_phi_recursion`), so no digits cancel in phi for any a.
"""
import math

import numpy as np

from ddlab.errors import DdlabError, DegenerateCovarianceError
from ddlab.gaussian.covariance import _canonical_window_args, _delay_knots
from ddlab.gaussian.densities import (_DEGENERATE_TOL, joint_density,
                                      marginal_density)
from ddlab.gaussian.kernels import (CovKernel, ShiftedWienerKernel,
                                    TabulatedKernel, check_kernel)
from ddlab.gaussian.linear import (LinearDdeParams, _steps, check_horizon,
                                   fundamental_solution)

MAX_INTERVALS = 200_000  # cap on simultaneously active Simpson subintervals
MIN_WIDTH_FACTOR = 1e-14  # subintervals narrower than this share are final


class QuadratureError(DdlabError):
    """Adaptive quadrature could not meet the requested tolerance."""


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


def _phi_series(z, depth):
    """Yield ``phi_j(z)`` for ``j = depth, ..., 0``, for ``z >= 0``.

    ``phi_j(z) = sum_n z^n / (n! (n + j + 1))``: positive terms, summed to
    the last one that counts.  At ``z = 0`` only ``n = 0`` is left.
    """
    powers = [1.0]  # z^n / n!
    total = 1.0
    while True:
        term = powers[-1] * z / len(powers)
        if not np.any(term > 2.0 ** -56 * total):
            break
        powers.append(term)
        total = total + term
    for j in range(depth, -1, -1):
        yield sum(zn / (n + j + 1) for n, zn in enumerate(powers))


def _phi_recursion(x, depth):
    """Yield ``phi_j(-x)`` for ``j = depth, ..., 0``, for ``x >= 0``.

    ``phi_{j-1}(-x) = (e^{-x} + x phi_j(-x)) / j`` adds two positive
    terms, so it never loses digits; it starts from ``phi_depth``, summed
    as ``e^{-x} sum_n x^n depth! / (n + depth + 1)!`` up to
    ``x = depth + 1`` and taken from ``depth! x^{-depth-1} (1 - e^{-x}
    sum_{m <= depth} x^m / m!)`` beyond, where that sum is at most about
    half of ``e^x`` and the series would need ever more terms.
    """
    ex = np.exp(-x)
    near = np.minimum(x, depth + 1.0)
    term = np.full_like(near, 1.0 / (depth + 1))
    series = term
    n = 0
    while np.any(term > 2.0 ** -56 * series):
        n += 1
        term = term * near / (n + depth + 1)
        series = series + term
    far = np.maximum(x, depth + 1.0)
    term = tail = np.exp(-far)
    scale = 1.0 / far
    for m in range(1, depth + 1):
        term = term * far / m
        tail = tail + term
        scale = scale * m / far
    phi = np.where(x <= depth + 1.0, np.exp(-near) * series,
                   scale * (1.0 - tail))
    yield phi
    for j in range(depth, 0, -1):
        phi = (ex + x * phi) / j
        yield phi


def _piece(p: LinearDdeParams, y, idx, s, depth):
    """``integral_0^s X(k tau + u) du``, where ``y[idx] = X(k tau)`` as
    `_steps` lays them out: ``s sum_j (b s)^j / j! phi_j(a s) y[idx - j]``,
    by Horner's rule."""
    phi = (_phi_series(p.a * s, depth) if p.a >= 0.0
           else _phi_recursion(-p.a * s, depth))
    c = p.b * s
    acc = 0.0
    for j in range(depth, 0, -1):
        acc = (acc + y[idx - j] * next(phi)) * c / j
    return s * (acc + y[idx] * next(phi))


def fundamental_prefix(p: LinearDdeParams, z):
    """``Z(z)``, the integral of X over ``[0, z]``; vectorized.

    Negative ``z`` clips to zero (X vanishes there).  ``Z(k tau + s)`` is
    the node ``Z(k tau)``, a running sum of whole-delay pieces, plus the
    piece over ``[k tau, k tau + s]``.
    """
    z_arr = np.maximum(np.asarray(z, dtype=float), 0.0)
    check_horizon(p, z_arr)
    scalar = z_arr.ndim == 0
    idx, s, x, kmax = _steps(p, np.atleast_1d(z_arr))
    whole = _piece(p, x, np.arange(kmax) + kmax + 1, np.full(kmax, p.tau),
                   kmax)
    nodes = np.concatenate([[0.0], np.cumsum(whole)])
    out = nodes[idx - kmax - 1] + _piece(p, x, idx, s, kmax)
    return float(out[0]) if scalar else out


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


def conditional_mean_check(state, x, *, tol=1e-10):
    """|integral of y f(x, y) dy - (cross / sigma2_t) x f_marginal(x)|.

    The first moment of the lagged coordinate at fixed x must reduce to the
    regression line; this integrates the left side numerically and returns
    the absolute deviation, a direct check that the joint density, the
    marginal, and the covariance entries are assembled consistently.
    """
    det = state.det
    if det <= _DEGENERATE_TOL or state.sigma2_t <= _DEGENERATE_TOL:
        raise DegenerateCovarianceError("conditional mean needs a "
                                        "non-degenerate state")
    x = float(x)
    mean_y = state.cross / state.sigma2_t * x
    sd_y = math.sqrt(det / state.sigma2_t)
    width = 12.0 * sd_y
    integral = adaptive_simpson(
        lambda y: y * joint_density(state, x, y),
        mean_y - width, mean_y + width, tol=tol)
    expected = mean_y * marginal_density(state, x)
    return abs(integral - expected)
