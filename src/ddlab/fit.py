"""Least-squares lines shared by the trajectory diagnostics.

Every fit here has two parameters, so it is solved in closed form on
centered data rather than through LAPACK: a run never touches the
OpenBLAS/LAPACK workspace for it, and centering keeps the digits that an
offset abscissa (times around 10^4) would otherwise cancel away.
"""
from __future__ import annotations

import math


def line_fit(x, y):
    """Least-squares line ``y ~ slope x + intercept``: (slope, intercept, R^2).

    R^2 is 1 - SS_res / SS_tot, and 1 for constant y.  All three are NaN
    when x has fewer than two distinct values, where no line is defined.
    """
    if not x.size or x.min() == x.max():
        return math.nan, math.nan, math.nan
    x_mean, y_mean = x.mean(), y.mean()
    dx, dy = x - x_mean, y - y_mean
    slope = float(dx @ dy) / float(dx @ dx)
    intercept = float(y_mean) - slope * float(x_mean)
    resid = y - (slope * x + intercept)
    total = float(dy @ dy)
    r2 = 1.0 - float(resid @ resid) / total if total > 0 else 1.0
    return slope, intercept, r2


def tail_line_fit(t, y):
    """`line_fit` over the second half of the window: (slope, intercept, R^2)."""
    mask = t >= t[0] + 0.5 * (t[-1] - t[0])
    return line_fit(t[mask], y[mask])
