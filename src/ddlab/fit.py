"""Least-squares goodness of fit shared by the trajectory diagnostics."""
from __future__ import annotations

import numpy as np


def r_squared(y, fitted) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot (1 for constant y)."""
    resid = y - fitted
    total = y - y.mean()
    denom = float(total @ total)
    return 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0


def tail_line_fit(t, y):
    """Line through the second half of the window: (slope, intercept, R^2)."""
    mask = t >= t[0] + 0.5 * (t[-1] - t[0])
    slope, intercept = np.polyfit(t[mask], y[mask], 1)
    r2 = r_squared(y[mask], slope * t[mask] + intercept)
    return float(slope), float(intercept), r2
