"""ddlab: density evolution for maps, delay equations, and Gaussian processes.

The package has three legs that meet in the middle:

* grid transfer operators for interval maps (:mod:`ddlab.maps`),
* ensemble simulation of delay differential equations (:mod:`ddlab.dde`,
  :mod:`ddlab.ensemble`) whose delayed forcing is built from those maps,
* exact second-order statistics for linear delay equations with Gaussian
  initial data (:mod:`ddlab.gaussian`), used to cross-check the simulations.

:mod:`ddlab.kicked` covers the kicked-relaxation route to Brownian-like
motion, and :mod:`ddlab.runner` provides the reproducible command-line
front end.
"""

__version__ = "0.1.0"

from .density import GridDensity
from .errors import (ConfigError, DdlabError, DegenerateCovarianceError,
                     DivergenceError, KernelPositivityError)

__all__ = [
    "GridDensity", "DdlabError", "ConfigError",
    "DivergenceError", "DegenerateCovarianceError",
    "KernelPositivityError", "__version__",
]
