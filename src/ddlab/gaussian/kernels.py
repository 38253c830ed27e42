"""Covariance kernels on the delay window ``[-tau, 0]``.

A kernel is an evaluable symmetric function ``R(s1, s2)``; symmetry is exact
by construction because evaluation canonicalizes the argument order.  Each
kernel may advertise structure the covariance propagator can exploit:

* ``separable_terms`` — factors ``f_m`` with ``R = sum_m f_m(s1) f_m(s2)``
  (finite rank); the batched covariance evolves each factor and sums the
  products.  The running-minimum kernel is the continuous analogue,
  ``R = integral_{-tau}^{0} 1{q <= s1} 1{q <= s2} dq``, which the
  propagator recognizes by its class;
* ``kinks`` — candidate ``r`` locations where ``r -> R(r, c)`` may not be
  smooth, as an array broadcasting against ``np.shape(c) + (k,)``.  They
  are not filtered to any interval: each quadrature keeps the ones strictly
  inside its own limits and splits its panels there.

A kernel that carries its own window (``tau``) must be used with that
window; `check_window` rejects any other.
"""
from __future__ import annotations

import math

import numpy as np

from ..density import locate
from ..errors import KernelPositivityError
from ..tabular import read_csv, write_csv


def _window(tau) -> float:
    """The window length ``tau`` as a float, checked finite and positive."""
    tau = float(tau)
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    return tau


def check_window(kernel, tau) -> None:
    """Reject a kernel whose own window is not the requested ``tau``."""
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


class ShiftedWienerKernel(CovKernel):
    """R(s1, s2) = min(s1, s2) + tau: Wiener path started at ``-tau``."""

    def __init__(self, tau):
        self.tau = _window(tau)

    def _value(self, lo, hi):
        return lo + self.tau

    def kinks(self, c):
        return np.asarray(c, dtype=float)[..., None]


class ProductSeparableKernel(CovKernel):
    """R(s1, s2) = u(min) v(max) with u(-tau) = 0, v > 0, u/v nondecreasing.

    This is the covariance of v(s) W(u(s)/v(s)) for a standard Wiener
    process W.
    """

    def __init__(self, u, v, tau):
        self.u = u
        self.v = v
        self.tau = _window(tau)
        if abs(float(u(-self.tau))) > 1e-12:
            raise ValueError("u must vanish at -tau")

    def _value(self, lo, hi):
        return np.asarray(self.u(lo)) * np.asarray(self.v(hi))

    def kinks(self, c):
        return np.asarray(c, dtype=float)[..., None]


class TabulatedKernel(CovKernel):
    """Bilinear interpolation of values on a uniform grid over [-tau, 0]^2.

    The table must be symmetric and positive semidefinite; the constructor
    raises `KernelPositivityError` for an indefinite one.
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
        # the interpolant is sum_ij V_ij phi_i(s1) phi_j(s2) over the grid's
        # independent hat functions, so it is PSD exactly when the table is
        eig = np.linalg.eigvalsh(values)
        if eig[0] < -1e-12 * np.abs(eig).max():
            raise KernelPositivityError(
                "tabulated kernel is not positive semidefinite: smallest "
                f"eigenvalue {eig[0]:.3g} of the table")
        self.values = values
        self.tau = _window(tau)
        self.grid = np.linspace(-self.tau, 0.0, values.shape[0])

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

    def kinks(self, c):
        return self.grid

    @classmethod
    def from_csv(cls, path):
        header, (s1, s2, r) = read_csv(path)
        if header != ["s1", "s2", "R"]:
            raise ValueError("expected header s1,s2,R")
        grid = np.unique(s1)
        n = grid.size
        if n * n != s1.size:
            raise ValueError("rows do not form a full square grid")
        tau = -float(grid[0])
        values = np.full((n, n), np.nan)
        h = tau / (n - 1)
        i = np.rint((s1 - grid[0]) / h).astype(int)
        j = np.rint((s2 - grid[0]) / h).astype(int)
        values[i, j] = r
        if np.isnan(values).any():
            raise ValueError("rows do not form a full square grid")
        return cls(values, tau)

    def to_csv(self, path):
        n = self.grid.size
        s1 = np.repeat(self.grid, n)
        s2 = np.tile(self.grid, n)
        write_csv(path, ["s1", "s2", "R"], [s1, s2, self.values.ravel()])
