"""Stability of ``x'(t) = a x(t) + b x(t - tau)`` by the inequality test.

All characteristic roots of ``lambda = a + b e^{-lambda tau}`` lie strictly
in the left half-plane exactly when

    a tau < 1,
    a tau + b tau < 0,
    b tau + a tau cos(kappa) + kappa sin(kappa) > 0,

where kappa is the root of ``kappa = a tau tan(kappa)`` in (0, pi)
(kappa = pi/2 for a = 0).  The third left-hand side equals
``b tau + sqrt(a^2 tau^2 + kappa^2)``, so the conditions carve the familiar
cusp in the (a, b) plane.

``rightmost_root`` gives the independent check: the characteristic root with
the largest real part is ``a + W_0(b tau e^{-a tau}) / tau`` on the
principal Lambert-W branch.

Both scalar solvers are plain Python, so importing this module pulls in no
scipy.  ``_bisect`` is scipy's C bisection (``scipy.optimize.bisect``)
ported step for step, so kappa keeps every bit.  ``_lambertw0`` is Halley's
iteration on ``w e^w = z`` from a start value on the principal branch
(Corless, Gonnet, Hare, Jeffrey and Knuth, "On the Lambert W function",
Adv. Comput. Math. 5, 1996); tests hold both to scipy.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = ["StabilityClass", "hayes_stable", "rightmost_root"]

_BOUNDARY_TOL = 1e-10
_BISECT_RTOL = 4 * 2.220446049250313e-16  # scipy.optimize.bisect's default
_BISECT_MAXITER = 100


@dataclass(frozen=True)
class StabilityClass:
    """Classification plus the raw inequality values.

    ``conditions`` holds the three left-hand sides oriented so that a
    positive value means the inequality is satisfied:
    ``(1 - a tau, -(a tau + b tau), b tau + a tau cos k + k sin k)``.
    The third entry is NaN when kappa is undefined (a tau >= 1, where the
    first condition already fails).
    """

    label: str
    conditions: tuple[float, float, float]
    kappa: float

    @property
    def stable(self) -> bool:
        return self.label == "Stable"

    @property
    def boundary(self) -> bool:
        return self.label == "Boundary"

    @property
    def margin(self) -> float:
        """Signed distance to failure: min over the defined conditions."""
        return min(c for c in self.conditions if not math.isnan(c))


def _bisect(f, xa: float, xb: float, xtol: float) -> float:
    """Root of ``f`` in ``[xa, xb]``, step for step as scipy's C bisection.

    The caller has checked that ``f(xa)`` and ``f(xb)`` differ in sign.
    """
    fa = f(xa)
    if fa == 0.0:
        return xa
    if f(xb) == 0.0:
        return xb
    dm = xb - xa
    for _ in range(_BISECT_MAXITER):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm
    raise ArithmeticError(
        f"bisection did not converge in {_BISECT_MAXITER} steps")


def _lambertw0(z: float) -> complex:
    """Principal branch ``W_0(z)`` for real ``z``: Halley's iteration on
    ``w e^w = z``.

    The start value decides the branch and whether the iteration converges
    at all (started at ``log z``, z = 0.352 runs off past w = 1e4): the
    branch-point series near ``-1/e``, ``log(1 + z)`` for ``0 < z <= 3``,
    else ``log z`` less ``log log z`` for ``|z| > 3``.  These starts are
    chosen for real ``z``; complex ``z`` is refused (``float`` raises
    ``TypeError``).  It stops as scipy's ``lambertw`` does, one step after
    the change falls below 1e-8 relative, which cubic convergence leaves at
    rounding level; it returns early when the residual is zero or at the
    branch point ``w = -1``, where the step would divide by zero.
    """
    z = float(z)
    if z == 0.0:
        return 0j
    if abs(z + math.exp(-1.0)) <= 0.5:
        p = cmath.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
    elif 0.0 < z <= 3.0:
        w = complex(math.log1p(z))
    else:
        w = cmath.log(z)
        if abs(z) > 3.0:
            w -= cmath.log(w)
    for _ in range(100):
        # f = w - z e^{-w} is (w e^w - z) / e^w, which keeps the step
        # finite where e^w alone would overflow.
        f = w - z * cmath.exp(-w)
        if f == 0 or w == -1.0:
            return w
        wn = w - f / (w + 1.0 - (w + 2.0) * f / (2.0 * w + 2.0))
        if abs(wn - w) <= 1e-8 * abs(wn):
            return wn
        w = wn
    raise ArithmeticError(f"Lambert W iteration did not converge at z = {z!r}")


def _kappa_root(atau: float) -> float:
    """Root of kappa = atau * tan(kappa) in (0, pi); NaN when atau >= 1."""
    if atau == 0.0:
        return 0.5 * math.pi
    if atau >= 1.0:
        return math.nan

    def g(k):
        return k - atau * math.tan(k)

    # For 0 < atau < 1 the root sits left of the tangent pole; for atau < 0
    # it sits right of it.  Shrinking the bracket off the pole keeps g finite.
    if atau > 0.0:
        lo, hi = 1e-12, 0.5 * math.pi - 1e-12
    else:
        lo, hi = 0.5 * math.pi + 1e-12, math.pi - 1e-12
    if g(lo) * g(hi) > 0.0:
        raise ArithmeticError(
            f"kappa bracket failed for a*tau = {atau!r}")
    return _bisect(g, lo, hi, xtol=1e-12)


def hayes_stable(p) -> StabilityClass:
    """Classify the zero solution as Stable, Unstable, or Boundary."""
    atau = p.a * p.tau
    btau = p.b * p.tau
    kappa = _kappa_root(atau)
    c1 = 1.0 - atau
    c2 = -(atau + btau)
    if math.isnan(kappa):
        c3 = math.nan
    else:
        c3 = btau + atau * math.cos(kappa) + kappa * math.sin(kappa)
    conditions = (c1, c2, c3)
    defined = [c for c in conditions if not math.isnan(c)]
    if min(abs(c) for c in defined) <= _BOUNDARY_TOL:
        label = "Boundary"
    elif len(defined) == 3 and all(c > 0.0 for c in defined):
        label = "Stable"
    else:
        label = "Unstable"
    return StabilityClass(label=label, conditions=conditions, kappa=kappa)


def rightmost_root(p) -> complex:
    """Characteristic root with the largest real part.

    Substituting mu = (lambda - a) tau turns the characteristic equation
    into mu e^mu = b tau e^{-a tau}, solved by Lambert W; the principal
    branch maximizes the real part.  For b = 0 the single root is a.
    """
    if p.b == 0.0:
        return complex(p.a)
    z = p.b * p.tau * math.exp(-p.a * p.tau)
    w = _lambertw0(z)
    return complex(p.a + w / p.tau)
