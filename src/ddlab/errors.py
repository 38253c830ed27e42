"""Exception types shared across the package."""


class DdlabError(Exception):
    """Base class for errors raised by ddlab."""


class ConfigError(DdlabError):
    """Invalid run configuration.

    Carries ``problems``, a list of ``(line_number, message)`` pairs;
    ``line_number`` is ``None`` for file-level problems (e.g. a missing key).
    """

    def __init__(self, problems):
        self.problems = list(problems)
        parts = []
        for line, msg in self.problems:
            parts.append(f"line {line}: {msg}" if line is not None else msg)
        super().__init__("; ".join(parts) if parts else "invalid configuration")


class DivergenceError(DdlabError):
    """A trajectory left the finite floating-point range."""

    def __init__(self, time, index=None):
        self.time = float(time)
        self.index = index
        where = "" if index is None else f" (trajectory {index})"
        super().__init__(f"non-finite state at t = {self.time:g}{where}")


class DegenerateCovarianceError(DdlabError):
    """Covariance matrix is singular to working precision; no density exists."""


class KernelPositivityError(DdlabError):
    """Covariance kernel fails the nonnegative-definiteness check on a test grid."""
