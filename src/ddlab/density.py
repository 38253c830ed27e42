"""Piecewise-constant densities on uniform grids.

A :class:`GridDensity` stores cell-averaged values of a probability density on
``n`` equal cells covering ``[lo, hi]``: the state that the transfer
operators of :mod:`ddlab.maps` push forward.  (An ensemble's histograms are
not grid densities: `ddlab.ensemble.Snapshots` keeps a whole run's counts
as one array on one frozen grid.)  The associated cumulative integral
is piecewise linear and, because it is built from prefix sums of nonnegative
numbers, is nondecreasing even in floating point — the transfer-operator
pushforwards in :mod:`ddlab.maps` rely on that to stay nonnegative exactly.
A read of it is split in two: `locate` places points on a grid, once, and
`cumulative_at` reads any function on that grid at the located points.
"""
from __future__ import annotations

import numpy as np

from .tabular import write_csv


def edge_prefix(values: np.ndarray, w: float) -> np.ndarray:
    """Running integral of cell values (cell width ``w``) at the cell edges.

    ``prefix[0] == 0``; the prefix sums of nonnegative values never
    decrease.
    """
    p = np.empty(values.size + 1)
    p[0] = 0.0
    np.cumsum(values * w, out=p[1:])
    return p


def locate(lo: float, w: float, n: int, x):
    """Cell index and in-cell offset of the points ``x``, vectorized.

    The cells are ``n`` of width ``w`` from ``lo``, and ``x`` is clipped to
    them.  This half of a cumulative read depends only on the grid and the
    points, so a transfer operator locates its preimage points once per
    grid and reads every density through them with `cumulative_at`.
    """
    x = np.asarray(x, dtype=float)
    pos = np.clip((x - lo) / w, 0.0, float(n))
    idx = np.minimum(pos.astype(int), n - 1)
    return idx, np.clip(x - (lo + idx * w), 0.0, w)


def cumulative_at(values: np.ndarray, prefix: np.ndarray, cells) -> np.ndarray:
    """Integral of a piecewise-constant function from the grid's start to
    the points that ``cells = locate(...)`` placed on its grid.

    ``values`` are the function's cell values and ``prefix`` is
    ``edge_prefix(values, w)``.  Signed functions are fine.
    """
    idx, frac = cells
    return prefix[idx] + values[idx] * frac


class GridDensity:
    """Cell-averaged density on ``n`` equal cells over ``[lo, hi]``."""

    __slots__ = ("lo", "hi", "n", "values")

    def __init__(self, values, lo=0.0, hi=1.0):
        values = np.ascontiguousarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0.0):
            raise ValueError("density values must be nonnegative")
        if not hi > lo:
            raise ValueError("require hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        self.n = values.size
        self.values = values

    # -- construction ------------------------------------------------------

    @classmethod
    def uniform(cls, n, lo=0.0, hi=1.0):
        return cls(np.full(n, 1.0 / (hi - lo)), lo, hi)

    # -- basic geometry ----------------------------------------------------

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n + 1)

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

    # -- integration -------------------------------------------------------

    def mass(self) -> float:
        return float(self.values.sum() * self.cell_width)

    def normalized(self) -> "GridDensity":
        m = self.mass()
        if m <= 0.0:
            raise ValueError("cannot normalize a zero density")
        return GridDensity(self.values / m, self.lo, self.hi)

    def integrate(self, a, b) -> float:
        """Integral over ``[a, b]`` intersected with the domain."""
        if b < a:
            a, b = b, a
        w = self.cell_width
        c = cumulative_at(self.values, edge_prefix(self.values, w),
                          locate(self.lo, w, self.n, [a, b]))
        return float(c[1] - c[0])

    def l1_distance(self, other: "GridDensity") -> float:
        if (self.n != other.n or abs(self.lo - other.lo) > 1e-12
                or abs(self.hi - other.hi) > 1e-12):
            raise ValueError("densities live on different grids")
        return float(np.abs(self.values - other.values).sum() * self.cell_width)

    # -- io ----------------------------------------------------------------

    def to_csv(self, path) -> None:
        e = self.edges
        write_csv(path, ["x_left", "x_right", "density"],
                  [e[:-1], e[1:], self.values])

    def __repr__(self):
        return (f"GridDensity(n={self.n}, lo={self.lo:g}, hi={self.hi:g}, "
                f"mass={self.mass():.6g})")
