"""Covariance kernels on the delay window ``[-tau, 0]``.

A kernel is an evaluable symmetric function ``R(s1, s2)``; symmetry is exact
by construction because evaluation canonicalizes the argument order.  Each
kernel may advertise structure the covariance propagator can exploit:

* ``separable_terms`` — factors ``f_m`` with ``R = sum_m f_m(s1) f_m(s2)``
  (finite rank); the batched covariance evolves each factor and sums the
  products, and the sampler draws ``sum_m y_m f_m(s)`` with independent
  standard normals ``y_m``.  The product kernel ``u(min) v(max)`` is the
  continuous analogue, ``R = integral 1{q <= s1} 1{q <= s2} drho(q)``
  times ``v(s1) v(s2)`` with ``rho = u/v``; the running minimum is the
  product kernel with ``u(s) = s + tau`` and ``v = 1``;
* ``kinks`` — candidate ``r`` locations where ``r -> R(r, c)`` may not be
  smooth, as an array broadcasting against ``np.shape(c) + (k,)``.  They
  are not filtered to any interval: each quadrature keeps the ones strictly
  inside its own limits and splits its panels there.  A finite-rank
  kernel's kinks are those of its factors.

Every entry point of the covariance and the sampler runs `check_kernel`
first: it rejects a kernel with neither structure, and a kernel that
carries its own window (``tau``) used with any other window.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from ..density import locate
from ..errors import KernelPositivityError


def _window(tau) -> float:
    """The window length ``tau`` as a float, checked finite and positive."""
    tau = float(tau)
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    return tau


def check_kernel(kernel, tau) -> None:
    """Reject a kernel with no factor structure, or whose own window is
    not the requested ``tau``."""
    if kernel.separable_terms() is None and not isinstance(
            kernel, ProductSeparableKernel):
        raise ValueError(
            f"{type(kernel).__name__} has no factor structure: give it "
            "separable_terms(), or derive it from ProductSeparableKernel")
    own = getattr(kernel, "tau", None)
    if own is not None and abs(own - tau) > 1e-12 * tau:
        raise ValueError(f"kernel window {own} != requested tau {tau}")


class CovKernel:
    """Base class: symmetric positive-semidefinite function on [-tau, 0]^2."""

    def value(self, s1, s2):
        s1 = np.asarray(s1, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        lo = np.minimum(s1, s2)
        hi = np.maximum(s1, s2)
        return self._value(lo, hi)

    def _value(self, lo, hi):  # pragma: no cover - abstract
        raise NotImplementedError

    # ---- optional structure ------------------------------------------------

    def separable_terms(self):
        """Finite-rank factorization, or None."""
        return None

    def kinks(self, c):
        """Kink candidates of ``r -> value(r, c)``, shape ``(..., k)``."""
        return np.empty(0)


class CosineKernel(CovKernel):
    """R(s1, s2) = cos(s2 - s1): stationary, rank two."""

    def _value(self, lo, hi):
        return np.cos(hi - lo)

    def separable_terms(self):
        return (np.cos, np.sin)


class DegenerateCosineKernel(CovKernel):
    """R(s1, s2) = cos(s1) cos(s2): rank one, supported on a line."""

    def _value(self, lo, hi):
        return np.cos(lo) * np.cos(hi)

    def separable_terms(self):
        return (np.cos,)


class ProductSeparableKernel(CovKernel):
    """R(s1, s2) = u(min) v(max) with u(-tau) = 0, v > 0, u/v nondecreasing.

    This is the covariance of v(s) W(u(s)/v(s)) for a standard Wiener
    process W, so it is PSD exactly when those conditions hold.  The
    constructor checks them on `_CHECK_NODES` nodes of the window and
    raises `KernelPositivityError` where they fail.
    """

    _CHECK_NODES = 257

    def __init__(self, u, v, tau):
        self.u = u
        self.v = v
        self.tau = _window(tau)
        if abs(float(u(-self.tau))) > 1e-12:
            raise ValueError("u must vanish at -tau")
        s = np.linspace(-self.tau, 0.0, self._CHECK_NODES)
        us = np.broadcast_to(np.asarray(u(s), dtype=float), s.shape)
        vs = np.broadcast_to(np.asarray(v(s), dtype=float), s.shape)
        if not (np.isfinite(us).all() and np.isfinite(vs).all()):
            raise KernelPositivityError("u and v must be finite on the window")
        if not np.all(vs > 0.0):
            raise KernelPositivityError("v must be positive on the window")
        fall = np.diff(us / vs).min()
        if fall < -1e-12:
            raise KernelPositivityError(
                f"u/v must be nondecreasing on the window; it falls by "
                f"{-fall:.3g} between two of {self._CHECK_NODES} nodes")

    def _value(self, lo, hi):
        # an array lo is value()'s own temporary, so the product overwrites
        # it instead of taking a Gram-block-sized temporary of its own
        return np.multiply(self.u(lo), self.v(hi),
                           out=lo if isinstance(lo, np.ndarray) else None)

    def kinks(self, c):
        return np.asarray(c, dtype=float)[..., None]


class ShiftedWienerKernel(ProductSeparableKernel):
    """R(s1, s2) = min(s1, s2) + tau: Wiener path started at ``-tau``, the
    product kernel with u(s) = s + tau and v = 1."""

    def __init__(self, tau):
        tau = _window(tau)
        super().__init__(lambda s: s + tau, lambda s: 1.0, tau)


class TabulatedKernel(CovKernel):
    """Bilinear interpolation of values on a uniform grid over [-tau, 0]^2.

    The table must be symmetric and positive semidefinite; the constructor
    raises `KernelPositivityError` for an indefinite one.  The interpolant
    is ``sum_ij V_ij phi_i(s1) phi_j(s2)`` over the grid's hat functions
    ``phi_i``, so with ``V = Q L Q^T`` its factors are the piecewise-linear
    interpolants of the columns of ``Q sqrt(max(L, 0))``, one per grid
    node, which kink at the grid nodes.
    """

    def __init__(self, values, tau):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("need a square value grid")
        if values.shape[0] < 2:
            raise ValueError("need at least a 2x2 grid")
        if not np.isfinite(values).all():
            raise ValueError("tabulated kernel values must be finite")
        if np.abs(values - values.T).max() > 1e-12:
            raise ValueError("tabulated kernel must be symmetric")
        # the hat functions are independent, so the interpolant is PSD
        # exactly when the table is
        eig, vec = np.linalg.eigh(values)
        if eig[0] < -1e-12 * np.abs(eig).max():
            raise KernelPositivityError(
                "tabulated kernel is not positive semidefinite: smallest "
                f"eigenvalue {eig[0]:.3g} of the table")
        self.values = values
        self.tau = _window(tau)
        self.grid = np.linspace(-self.tau, 0.0, values.shape[0])
        factors = vec * np.sqrt(np.maximum(eig, 0.0))
        self._terms = tuple(functools.partial(np.interp, xp=self.grid, fp=f)
                            for f in factors.T)

    def _value(self, lo, hi):
        return self._bilinear(lo, hi)

    def _bilinear(self, s1, s2):
        n = self.values.shape[0] - 1
        h = self.tau / n
        i1, f1 = locate(-self.tau, h, n, s1)
        i2, f2 = locate(-self.tau, h, n, s2)
        f1 = f1 / h
        f2 = f2 / h
        v = self.values
        return ((1 - f1) * (1 - f2) * v[i1, i2] + f1 * (1 - f2) * v[i1 + 1, i2]
                + (1 - f1) * f2 * v[i1, i2 + 1] + f1 * f2 * v[i1 + 1, i2 + 1])

    def separable_terms(self):
        return self._terms

    def kinks(self, c):
        return self.grid
