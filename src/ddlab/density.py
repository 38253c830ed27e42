"""Piecewise-constant densities on uniform grids.

A :class:`GridDensity` stores cell-averaged values of a probability density on
``n`` equal cells covering ``[lo, hi]``.  The associated cumulative integral
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


class UniformGrid:
    """``n`` equal cells over ``[lo, hi]``: the geometry shared by
    :class:`GridDensity`, :class:`Histogram` and the ensemble's joint
    histogram."""

    __slots__ = ("lo", "hi", "n")

    def __init__(self, lo, hi, n):
        self.lo = float(lo)
        self.hi = float(hi)
        self.n = int(n)

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n + 1)

    def _check_same_grid(self, other, message) -> None:
        if (self.n != other.n or abs(self.lo - other.lo) > 1e-12
                or abs(self.hi - other.hi) > 1e-12):
            raise ValueError(message)


class GridDensity(UniformGrid):
    """Cell-averaged density on a uniform grid over ``[lo, hi]``."""

    __slots__ = ("values",)

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
        super().__init__(lo, hi, values.size)
        self.values = values

    # -- construction ------------------------------------------------------

    @classmethod
    def uniform(cls, n, lo=0.0, hi=1.0):
        return cls(np.full(n, 1.0 / (hi - lo)), lo, hi)

    # -- basic geometry ----------------------------------------------------

    cell_width = UniformGrid.bin_width

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
        self._check_same_grid(other, "densities live on different grids")
        return float(np.abs(self.values - other.values).sum() * self.cell_width)

    # -- io ----------------------------------------------------------------

    def to_csv(self, path) -> None:
        e = self.edges
        write_csv(path, ["x_left", "x_right", "density"],
                  [e[:-1], e[1:], self.values])

    def __repr__(self):
        return (f"GridDensity(n={self.n}, lo={self.lo:g}, hi={self.hi:g}, "
                f"mass={self.mass():.6g})")


class Histogram(UniformGrid):
    """Counts over frozen uniform bins, with a density view."""

    __slots__ = ("counts", "total")

    def __init__(self, counts, lo, hi, total=None):
        self.counts = np.asarray(counts, dtype=np.int64)
        super().__init__(lo, hi, self.counts.size)
        self.total = int(total) if total is not None else int(self.counts.sum())

    @classmethod
    def from_samples(cls, samples, bins, lo=None, hi=None):
        """Histogram samples; bin edges default to the sample range.

        A degenerate range (all samples equal) is widened to a single
        occupied bin of tiny but positive width.
        """
        samples = np.asarray(samples, dtype=float)
        if lo is None:
            lo = float(samples.min())
        if hi is None:
            hi = float(samples.max())
        if hi <= lo:
            pad = max(abs(lo) * 1e-9, 1e-12)
            lo, hi = lo - pad, hi + pad
        counts, _ = np.histogram(samples, bins=bins, range=(lo, hi))
        return cls(counts, lo, hi, total=samples.size)

    def densities(self) -> np.ndarray:
        """Counts normalized by total sample count and bin width.

        Samples falling outside the frozen range are excluded from the
        counts but still divide, so the mass reflects the captured fraction.
        """
        return self.counts / (self.total * self.bin_width)

    def density(self) -> GridDensity:
        return GridDensity(self.densities(), self.lo, self.hi)

    def l1_distance(self, other: "Histogram") -> float:
        self._check_same_grid(other, "histograms use different binnings")
        return float(np.abs(self.densities() - other.densities()).sum()
                     * self.bin_width)
