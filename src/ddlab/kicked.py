"""Brownian-like motion driven by deterministic chaotic kicks.

A particle obeys dx/dt = v, dv/dt = -gamma v between kicks; at times
j*tau the velocity jumps by kappa * h(xi_j), where xi advances under a
chaotic interval map.  Both pieces of the flow have closed forms, so
`evolve_kicked` is exact: the only approximation anywhere is float
rounding.

The slope-2 map needs care: in floating point every seed is a dyadic
rational, and repeated doubling drags any dyadic orbit onto the fixed
point at 0 within ~53 steps.  The stream therefore iterates the
conjugate angle-doubling map in exact rational arithmetic (numerators
over a fixed odd denominator stay exact under doubling mod 1) and only
rounds at readout, through the triangle wave x = 1 - 2|theta - 1/2|.
`evolve_kicked` keeps one `Fraction` angle, so any rational seed works;
`ou_limit_suite` runs a whole ensemble of angles as one uint64 array of
numerators over the fixed denominator 5**27 (`_double_mod`).

`fp_decay_check` transports signed grid functions with the same exact
transfer operators the density side uses, for testing how fast the
observable's correlations die; `ou_limit_suite` measures the velocity
statistics as tau shrinks with kappa = sqrt(tau).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fit import tail_line_fit
from .maps import AffineCircleMap, TentMap, push_circle_values, \
    push_tent_values
from .tabular import write_csv

# odd prime power: doubling mod _SEED_DEN is a bijection, and the orbit
# period (the multiplicative order of 2, 4 * 5**26) is about 6e18 --
# effectively aperiodic for any run we can afford.  _SEED_DEN < 2**63, so
# a numerator p < _SEED_DEN doubles to 2p < 2**64 without uint64 overflow.
_SEED_DEN = 5 ** 27
_DEN_U64 = np.uint64(_SEED_DEN)


def centered_identity(x):
    """Default kick observable: identity minus its uniform mean."""
    return np.asarray(x, dtype=float) - 0.5


@dataclass(frozen=True)
class KickConfig:
    """Parameters of the kicked flow.

    ``kappa`` defaults to sqrt(tau), the scaling under which the kick
    strength per unit time stays finite as tau -> 0.
    """

    gamma: float
    tau: float
    kappa: float = None
    map: object = TentMap(2.0)
    observable: object = None

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.kappa is None:
            object.__setattr__(self, "kappa", math.sqrt(self.tau))
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        if self.observable is None:
            object.__setattr__(self, "observable", centered_identity)

    @property
    def kappa_sq_over_tau(self) -> float:
        return self.kappa ** 2 / self.tau


@dataclass(frozen=True)
class KickedTrajectory:
    """States sampled just after each kick (row 0 is the initial state)."""

    tau: float
    x: np.ndarray
    v: np.ndarray
    xi: np.ndarray

    @property
    def n_kicks(self) -> int:
        return len(self.x) - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.x)) * self.tau


class _DoublingStream:
    """Exact slope-2 tent iteration via the angle-doubling conjugacy."""

    __slots__ = ("theta",)

    def __init__(self, xi0):
        xi = Fraction(xi0)
        if not 0 <= xi <= 1:
            raise ValueError("xi0 must lie in [0, 1]")
        self.theta = xi / 2  # left-branch angle of the triangle wave

    def advance(self) -> float:
        th = self.theta * 2
        if th >= 1:
            th -= 1
        self.theta = th
        return self.value()

    def value(self) -> float:
        t = float(self.theta)
        return 1.0 - 2.0 * abs(t - 0.5)


class _FloatStream:
    """Plain float iteration for maps without an exact representation."""

    __slots__ = ("map", "xi")

    def __init__(self, map_obj, xi0):
        xi = float(xi0)
        if not 0.0 <= xi <= 1.0:
            raise ValueError("xi0 must lie in [0, 1]")
        self.map = map_obj
        self.xi = xi

    def advance(self) -> float:
        self.xi = float(self.map(self.xi))
        return self.xi

    def value(self) -> float:
        return self.xi


def _make_stream(map_obj, xi0):
    if isinstance(map_obj, TentMap) and map_obj.a == 2.0:
        return _DoublingStream(xi0)
    return _FloatStream(map_obj, xi0)


def evolve_kicked(cfg: KickConfig, x0, v0, xi0, n_kicks: int) \
        -> KickedTrajectory:
    """Run the kicked flow for ``n_kicks`` impulses.

    The inter-kick flow is applied in closed form (exact exponential
    decay of v, exact integral for x), then the kick uses the freshly
    advanced map state: row j holds xi_j, the j-th iterate of xi0, and
    v_j includes the jump kappa * h(xi_j).  ``xi0`` may be an exact
    `fractions.Fraction`, which for the slope-2 map keeps the whole
    stream exact.
    """
    n_kicks = int(n_kicks)
    if n_kicks < 0:
        raise ValueError("n_kicks must be nonnegative")
    stream = _make_stream(cfg.map, xi0)
    decay = math.exp(-cfg.gamma * cfg.tau)
    drift = (1.0 - decay) / cfg.gamma

    x = np.empty(n_kicks + 1)
    v = np.empty(n_kicks + 1)
    xi = np.empty(n_kicks + 1)
    x[0], v[0], xi[0] = float(x0), float(v0), stream.value()
    h = cfg.observable
    for j in range(1, n_kicks + 1):
        x[j] = x[j - 1] + v[j - 1] * drift
        xi[j] = stream.advance()
        v[j] = v[j - 1] * decay + cfg.kappa * float(h(xi[j]))
    return KickedTrajectory(tau=cfg.tau, x=x, v=v, xi=xi)


def equidistributed_seeds(n: int) -> list:
    """Deterministic low-discrepancy seeds avoiding dyadic collapse.

    A golden-ratio lattice snapped to rationals with the fixed odd
    denominator, so every seed's doubling orbit stays exact and
    effectively aperiodic.  The same list comes back on every call.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one seed")
    g = (math.sqrt(5.0) - 1.0) / 2.0
    out = []
    for i in range(n):
        frac = (i + 1) * g % 1.0
        p = int(frac * _SEED_DEN)
        if p % 5 == 0:
            p += 3
        p %= _SEED_DEN
        if p == 0:
            p = 7
        out.append(Fraction(p, _SEED_DEN))
    return out


# ---------------------------------------------------------------------------
# transfer-operator decay of the observable


def fp_decay_check(map_obj, h, n: int, cells: int = 4096) -> np.ndarray:
    """L1 norms of the transfer operator applied repeatedly to ``h``.

    ``h`` may be a callable (evaluated at cell centers) or an array of
    cell values; the operator acts on signed functions exactly as on
    densities, since it is linear.  Returns the norms after 1..n
    applications.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one application")
    if callable(h):
        centers = (np.arange(cells) + 0.5) / cells
        values = np.asarray(h(centers), dtype=float)
    else:
        values = np.asarray(h, dtype=float)
        cells = values.size
    if values.shape != (cells,):
        raise ValueError("observable values must be a flat grid")

    if isinstance(map_obj, TentMap):
        def push(vals):
            return push_tent_values(vals, map_obj.a)
    elif isinstance(map_obj, AffineCircleMap):
        def push(vals):
            return push_circle_values(vals, map_obj.a, map_obj.b)
    else:
        raise TypeError(
            f"no signed transfer operator for {type(map_obj).__name__}")

    w = 1.0 / cells
    norms = np.empty(n)
    for t in range(n):
        values = push(values)
        norms[t] = np.abs(values).sum() * w
    return norms


# ---------------------------------------------------------------------------
# small-tau limit diagnostics


@dataclass(frozen=True)
class OuReport:
    tau: float
    var_v: float
    normality_stat: float
    msd_slope: float
    msd_r2: float
    mean_v: float
    n_samples: int


def _double_mod(p: np.ndarray) -> np.ndarray:
    """Exact angle doubling of uint64 numerators over `_SEED_DEN`, in place."""
    p <<= 1
    np.subtract(p, _DEN_U64, out=p, where=p >= _DEN_U64)
    return p


def ou_limit_suite(gamma, tau_list, n_kicks, *, ensemble: int = 256) \
        -> list[OuReport]:
    """Velocity statistics of the kicked flow as the kick spacing shrinks.

    For each tau (given in decreasing order) an ensemble of exact
    chaotic streams from `equidistributed_seeds` is evolved with
    kappa = sqrt(tau); reported per tau: stationary velocity variance,
    the magnitude of the excess kurtosis of v (0 for a Gaussian), and
    the slope and R^2 of the tail fit to the mean-square displacement.
    Fully deterministic: no random numbers are involved anywhere.
    """
    gamma = float(gamma)
    tau_list = [float(t) for t in tau_list]
    for name, val in [("gamma", gamma)] + [("tau", t) for t in tau_list]:
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {val!r}")
    if any(b >= a for a, b in zip(tau_list, tau_list[1:])):
        raise ValueError("tau_list must decrease")
    n_kicks = int(n_kicks)
    seeds = equidistributed_seeds(ensemble)
    nums = np.array([s.numerator * (_SEED_DEN // s.denominator)
                     for s in seeds], dtype=np.uint64)
    den = float(_SEED_DEN)

    reports = []
    for tau in tau_list:
        burn = int(10.0 / (gamma * tau)) + 1
        if n_kicks <= 2 * burn:
            raise ValueError(
                f"n_kicks = {n_kicks} leaves no room after the "
                f"{burn}-kick transient at tau = {tau:g}")
        kappa = math.sqrt(tau)
        decay = math.exp(-gamma * tau)
        drift = (1.0 - decay) / gamma

        p = nums.copy()  # seeds are the starting angles of each stream
        x = np.zeros(ensemble)
        v = np.zeros(ensemble)
        v_pool = np.empty((n_kicks - burn + 1, ensemble))
        msd = np.empty(n_kicks - burn + 1)
        for j in range(1, n_kicks + 1):
            x = x + v * drift
            theta = _double_mod(p) / den
            xi = 1.0 - 2.0 * np.abs(theta - 0.5)
            v = v * decay + kappa * (xi - 0.5)
            if j == burn:
                x_ref = x.copy()
            if j >= burn:
                msd[j - burn] = np.mean((x - x_ref) ** 2)
                v_pool[j - burn] = v
        pooled = v_pool.ravel()
        mu = pooled.mean()
        dev = pooled - mu
        np.square(dev, out=dev)
        m2 = dev.mean()  # the variance, as pooled.var() computes it
        np.square(dev, out=dev)  # fourth powers, as squares of squares
        m4 = dev.mean()
        kurt = m4 / m2 ** 2 - 3.0
        t_axis = np.arange(len(msd)) * tau
        slope, _, r2 = tail_line_fit(t_axis, msd)
        reports.append(OuReport(tau=tau, var_v=float(m2),
                                normality_stat=abs(float(kurt)),
                                msd_slope=slope, msd_r2=r2,
                                mean_v=float(mu), n_samples=len(pooled)))
    return reports


def write_kick_report(path, reports) -> None:
    write_csv(path, ["tau", "var_v", "normality_stat", "msd_slope",
                     "msd_r2"],
              [[r.tau for r in reports], [r.var_v for r in reports],
               [r.normality_stat for r in reports],
               [r.msd_slope for r in reports],
               [r.msd_r2 for r in reports]])
