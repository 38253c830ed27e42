"""Transfer operators for interval maps on uniform grids.

Each map ``S`` acts on ``[0, 1]`` and its transfer (pushforward) operator ``P``
moves densities: ``(Pf)`` integrated over a cell equals ``f`` integrated over
the preimage of that cell.  Working with cell averages, the pushforward of a
piecewise-constant density is computed *exactly* by intersecting preimage
intervals with the grid and reading the overlap integrals off the prefix-sum
cumulative.  Consequences that the tests pin down:

* linearity and mass conservation hold to rounding (``~1e-15``),
* nonnegative input gives nonnegative output exactly, because the cumulative
  of a nonnegative density is nondecreasing even in floating point.

Where the preimage edges fall on the grid depends only on the map and the
cell count, so each map's ``transfer(n)`` locates them once and returns the
operator ``values -> values`` on ``n`` cells; ``push``, :func:`iterate` and
``kicked.fp_decay_check`` all apply that one plan.

Maps provided:

* :class:`TentMap` — ``S(x) = a*x`` on the left half, ``a*(1-x)`` on the
  right, slope ``a`` in ``[1, 2]``.
* :class:`DensityCoupledTentMap` — a tent map whose slope is a functional of
  the current density, ``a = 1 + integral of f over a window``.  Its slope
  changes every step, so its ``transfer`` builds a tent plan per step, and
  it is the one map that is not ``linear``.
* :class:`AffineCircleMap` — ``S(x) = (a*x + b) mod 1`` with ``0 < a < 1``;
  a contraction on the circle.
* :class:`NoisyAffineCircleMap` — the same followed by additive noise drawn
  from a grid density on ``[0, noise_width]``, applied mod 1.  The smoothing
  step is an exact cell-averaged circular convolution.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import GridDensity, cumulative_at, edge_prefix, locate

__all__ = [
    "TentMap", "DensityCoupledTentMap", "AffineCircleMap",
    "NoisyAffineCircleMap", "push_tent_values", "push_circle_values",
    "circular_smooth_values", "iterate", "detect_asymptotic_period",
    "PeriodReport",
]


def _tent_transfer(n: int, a: float):
    """Exact tent-map pushforward of cell averages on ``n`` cells of
    ``[0, 1]``, as ``values -> values``."""
    if not 0.0 < a <= 2.0:
        raise ValueError("tent slope must lie in (0, 2]")
    w = 1.0 / n
    # cells beyond a/2 have empty preimage; clip their edges to a/2
    e = np.minimum(np.linspace(0.0, 1.0, n + 1), 0.5 * a)
    left = locate(0.0, w, n, e / a)
    right = locate(0.0, w, n, 1.0 - e / a)

    def transfer(values):
        prefix = edge_prefix(values, w)
        lc = cumulative_at(values, prefix, left)
        rc = cumulative_at(values, prefix, right)
        return ((lc[1:] - lc[:-1]) + (rc[:-1] - rc[1:])) / w

    return transfer


def _circle_transfer(n: int, a: float, b: float):
    """Exact pushforward of cell averages on ``n`` cells under
    ``x -> (a*x + b) mod 1``, as ``values -> values``."""
    if not 0.0 < a < 1.0:
        raise ValueError("require 0 < a < 1")
    if not 0.0 <= b < 1.0:
        raise ValueError("require 0 <= b < 1")
    w = 1.0 / n
    edges = np.linspace(0.0, 1.0, n + 1)
    # the preimage of each cell in each of the two laps of the circle
    laps = [locate(0.0, w, n, np.clip((edges + k - b) / a, 0.0, 1.0))
            for k in (0.0, 1.0)]

    def transfer(values):
        prefix = edge_prefix(values, w)
        out = np.zeros(n)
        for cells in laps:
            c = cumulative_at(values, prefix, cells)
            out += c[1:] - c[:-1]
        return out / w

    return transfer


def push_tent_values(values, a: float) -> np.ndarray:
    """Exact tent-map pushforward of cell averages on ``[0, 1]``.

    Works for signed grid functions too (the operator is linear); only the
    nonnegativity guarantee needs a nonnegative input.
    """
    values = np.asarray(values, dtype=float)
    return _tent_transfer(values.size, a)(values)


def push_circle_values(values, a: float, b: float) -> np.ndarray:
    """Exact pushforward of cell averages under ``x -> (a*x + b) mod 1``."""
    values = np.asarray(values, dtype=float)
    return _circle_transfer(values.size, a, b)(values)


def circular_smooth_values(values, noise_values) -> np.ndarray:
    """Exact mod-1 convolution of two cell-averaged functions on [0, 1].

    ``values`` has ``n`` cells on ``[0, 1]``; ``noise_values`` are the cells
    of a density supported on ``[0, k/n]`` with the *same* cell width.  The
    result is the exact cell average of the circular convolution:
    ``out_i = (w/2) * sum_k g_k * (values_{i-k} + values_{i-k-1})``.
    Constants are fixed points: smoothing the uniform density returns it.
    """
    values = np.asarray(values, dtype=float)
    g = np.asarray(noise_values, dtype=float)
    n = values.size
    if g.size > n:
        raise ValueError("noise support exceeds one period")
    w = 1.0 / n
    q = values + np.roll(values, 1)
    full = np.convolve(q, g)
    out = full[:n].copy()
    out[: full.size - n] += full[n:]
    return 0.5 * w * out


def _require_unit_interval(f: GridDensity) -> None:
    if abs(f.lo) > 1e-12 or abs(f.hi - 1.0) > 1e-12:
        raise ValueError("map densities must live on [0, 1]")


class _GridMap:
    """A map acting on grid densities through its ``transfer(n)``.

    ``linear`` says that the transfer is a fixed linear operator, which
    then moves signed grid functions too.
    """

    linear = True

    def push(self, f: GridDensity) -> GridDensity:
        _require_unit_interval(f)
        return GridDensity(self.transfer(f.n)(f.values), 0.0, 1.0)


@dataclass(frozen=True)
class TentMap(_GridMap):
    """Symmetric piecewise-linear map with peak ``a/2`` at ``x = 1/2``."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a <= 2.0:
            raise ValueError("tent slope must lie in (0, 2]")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.a * np.minimum(x, 1.0 - x)

    def transfer(self, n: int):
        return _tent_transfer(n, self.a)


@dataclass(frozen=True)
class DensityCoupledTentMap(_GridMap):
    """Tent map whose slope responds to the density being transported.

    The slope applied in one step is ``a[f] = 1 + integral of f over
    [window_lo, window_lo + window_width]``, which lies in ``[1, 2]`` for any
    probability density, so every step is a valid tent pushforward.
    """

    window_lo: float
    window_width: float

    linear = False

    def __post_init__(self):
        if self.window_width < 0.0:
            raise ValueError("window_width must be nonnegative")

    def coupling(self, f: GridDensity) -> float:
        _require_unit_interval(f)
        return 1.0 + f.integrate(self.window_lo,
                                 self.window_lo + self.window_width)

    def transfer(self, n: int):
        return lambda values: _tent_transfer(
            n, self.coupling(GridDensity(values)))(values)


@dataclass(frozen=True)
class AffineCircleMap(_GridMap):
    """Contraction ``x -> (a*x + b) mod 1`` on the unit circle."""

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError("require 0 < a < 1")
        if not 0.0 < self.b < 1.0:
            raise ValueError("require 0 < b < 1")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.mod(self.a * x + self.b, 1.0)

    def transfer(self, n: int):
        return _circle_transfer(n, self.a, self.b)


@dataclass(frozen=True)
class NoisyAffineCircleMap(_GridMap):
    """Affine circle map followed by additive mod-1 noise.

    ``noise`` is a grid density on ``[0, noise.hi]`` whose cell width must
    equal the cell width of the densities being pushed; the convolution of
    two piecewise-constant functions is then evaluated in closed form, cell
    by cell, so mass and nonnegativity are preserved exactly.
    """

    a: float
    b: float
    noise: GridDensity = field(compare=False)

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError("require 0 < a < 1")
        if not 0.0 < self.b < 1.0:
            raise ValueError("require 0 < b < 1")
        if abs(self.noise.lo) > 1e-15:
            raise ValueError("noise density must start at 0")
        if self.noise.hi > 1.0 + 1e-12:
            raise ValueError("noise support must fit inside one period")
        if abs(self.noise.mass() - 1.0) > 1e-9:
            raise ValueError("noise density must be normalized")

    def transfer(self, n: int):
        w = 1.0 / n
        if abs(self.noise.cell_width - w) > 1e-12 * w:
            raise ValueError(
                "noise grid cell width must match the density grid "
                f"({self.noise.cell_width:g} vs {w:g})")
        circle = _circle_transfer(n, self.a, self.b)
        return lambda values: circular_smooth_values(circle(values),
                                                     self.noise.values)


def iterate(map_obj, f: GridDensity, steps: int, keep: bool = False):
    """Apply the map's transfer repeatedly, on one plan for ``f``'s grid.

    Returns the final density, or the list ``[f, Pf, ..., P^steps f]`` when
    ``keep`` is true.  Every density is checked as `push` checks it.
    """
    _require_unit_interval(f)
    transfer = map_obj.transfer(f.n)
    out = [f] if keep else None
    for _ in range(steps):
        f = GridDensity(transfer(f.values), 0.0, 1.0)
        if keep:
            out.append(f)
    return out if keep else f


@dataclass
class PeriodReport:
    """Result of :func:`detect_asymptotic_period`.

    ``period`` is ``None`` when no cycle length up to ``max_period``
    verified; ``cycle`` then holds the last iterate seen.
    """

    period: int | None
    burn_in: int
    cycle_distance: float
    cycle: list


def detect_asymptotic_period(map_obj, f0: GridDensity, *, burn_in: int = 200,
                             max_period: int = 64, tol: float = 1e-4):
    """Find the eventual cycle length of the density sequence, if any.

    After ``burn_in`` steps, ``3 * max_period + 1`` consecutive iterates are
    collected and the smallest ``r`` with ``L1(f_k, f_{k+r}) <= tol`` for
    every ``k < 2r`` (a verification window of two full cycles) is reported.
    A fixed density reports period 1.
    """
    if max_period < 1:
        raise ValueError("max_period must be positive")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    f = iterate(map_obj, f0, burn_in)
    snaps = iterate(map_obj, f, 3 * max_period, keep=True)
    for r in range(1, max_period + 1):
        dists = [snaps[k].l1_distance(snaps[k + r]) for k in range(2 * r)]
        if max(dists) <= tol:
            return PeriodReport(period=r, burn_in=burn_in,
                                cycle_distance=max(dists), cycle=snaps[:r])
    return PeriodReport(period=None, burn_in=burn_in,
                        cycle_distance=float("nan"), cycle=[snaps[-1]])
