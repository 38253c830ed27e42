"""Analytic Gaussian-measure propagation for linear delay equations."""

from .covariance import (GaussianState, SigmaCurve, lag_cov_curve,
                         propagate_state, r_t, sigma2_curve,
                         wiener_closed_form)
from .densities import joint_density, marginal_density
from .kernels import (CosineKernel, CovKernel, DegenerateCosineKernel,
                      ProductSeparableKernel, ShiftedWienerKernel,
                      TabulatedKernel)
from .linear import LinearDdeParams, fundamental_solution
from .sampling import gaussian_path_slabs, sample_gaussian_paths
from .stability import StabilityClass, hayes_stable, rightmost_root

__all__ = [
    "CosineKernel", "CovKernel", "DegenerateCosineKernel", "GaussianState",
    "LinearDdeParams", "ProductSeparableKernel", "ShiftedWienerKernel",
    "SigmaCurve", "StabilityClass", "TabulatedKernel",
    "fundamental_solution", "gaussian_path_slabs", "hayes_stable",
    "joint_density", "lag_cov_curve", "marginal_density", "propagate_state",
    "r_t", "rightmost_root",
    "sample_gaussian_paths", "sigma2_curve", "wiener_closed_form",
]
