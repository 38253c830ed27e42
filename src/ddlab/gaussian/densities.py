"""Gaussian densities of the evolved one- and two-time distributions.

The pair (x(t), x(t - tau)) is centered Gaussian with covariance matrix
Q = [[s_t, c], [c, s_lag]] built from the ``sigma2_t``, ``cross`` and
``sigma2_lag`` fields of :class:`~ddlab.gaussian.covariance.GaussianState`;
the joint density uses the inverse of Q in the exponent,

    f(x, y) = exp(-(s_lag x^2 - 2 c x y + s_t y^2) / (2 det Q)) / (2 pi sqrt(det Q)),

with x the time-t coordinate and y the lagged one.  Degenerate covariances
(variance or determinant at or below 1e-12) raise instead of producing
astronomically peaked densities; the degenerate-cosine kernel concentrates
on a line and is the canonical trigger.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateCovarianceError

__all__ = ["marginal_density", "joint_density"]

_DEGENERATE_TOL = 1e-12


def marginal_density(state, x):
    """Density of x(t); vectorized over ``x``."""
    s2 = state.sigma2_t
    if s2 <= _DEGENERATE_TOL:
        raise DegenerateCovarianceError(
            f"variance {s2:.3e} at or below degeneracy tolerance")
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x / s2) / math.sqrt(2.0 * math.pi * s2)
    return float(out) if out.ndim == 0 else out


def joint_density(state, x, y):
    """Density of (x(t), x(t - tau)) at (x, y); vectorized."""
    det = state.det
    if det <= _DEGENERATE_TOL:
        raise DegenerateCovarianceError(
            f"covariance determinant {det:.3e} at or below degeneracy "
            "tolerance")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    quad = (state.sigma2_lag * x * x - 2.0 * state.cross * x * y
            + state.sigma2_t * y * y)
    out = np.exp(-0.5 * quad / det) / (2.0 * math.pi * math.sqrt(det))
    return float(out) if out.ndim == 0 else out
