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

The suite works in time blocks of `_KICK_BLOCK` kicks, with every tau
advanced together.  Three things are serial, one numpy call per kick
over whole rows, because each is a true recurrence: the doubling of the
angles (shared by all tau, since every tau restarts from the same
seeds), the affine velocity update v_j = v_{j-1} e^{-gamma tau} +
kappa c_j, and the running position sum x_j = x_{j-1} + v_{j-1} drift.
Everything else (the readout of the kick offsets c_j, the kick and
drift products, the squared displacements and their means) runs over a
whole block of kicks at once.  The kick products kappa c_j go straight
into the velocity block's rows and the drift products into the position
block's, where each recurrence then runs in place, so no block exists
only to hold a product.  The same pass sums the powers v .. v^4 of the
post-transient velocities, one sum over the streams per kick, folded
across the kicks in order with their rounding errors (`_fold`); the
central moments come from those power sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fit import tail_line_fit
from .maps import TentMap
from .tabular import write_csv

# odd prime power: doubling mod _SEED_DEN is a bijection, and the orbit
# period (the multiplicative order of 2, 4 * 5**26) is about 6e18 --
# effectively aperiodic for any run we can afford.  _SEED_DEN < 2**63, so
# a numerator p < _SEED_DEN doubles to 2p < 2**64 without uint64 overflow.
_SEED_DEN = 5 ** 27
_DEN_U64 = np.array(_SEED_DEN, dtype=np.uint64)  # 0-d: cheaper per call


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
        if self.kappa is None and self.tau > 0.0:
            object.__setattr__(self, "kappa", math.sqrt(self.tau))
        for name in ("gamma", "tau", "kappa"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {val!r}")
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
    cell values; the map's ``transfer`` acts on signed functions exactly as
    on densities when it is ``linear``.  Returns the norms after 1..n
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

    if not map_obj.linear:
        raise TypeError(
            f"no signed transfer operator for {type(map_obj).__name__}")
    transfer = map_obj.transfer(cells)

    w = 1.0 / cells
    norms = np.empty(n)
    for t in range(n):
        values = transfer(values)
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


# kicks per block of `_velocity_blocks`: the suite's buffers scale with
# it, the reports do not depend on it.  At 64, the velocity and position
# blocks of 3 taus x 512 streams are 0.8 MiB each, so the pass's working
# set fits a 2 MiB L2 cache.
_KICK_BLOCK = 64


def burn_in_kicks(gamma, tau) -> int:
    """Kicks `ou_limit_suite` discards as transient at spacing ``tau``.

    About ten velocity relaxation times 1/gamma; a run needs more than
    twice this many kicks.
    """
    try:
        return int(10.0 / (gamma * tau)) + 1
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"gamma * tau = {gamma * tau:g} is too small for "
                         "a finite transient") from None


def _double_mod(p: np.ndarray, out: np.ndarray = None,
                wrap: np.ndarray = None) -> np.ndarray:
    """Exact angle doubling of uint64 numerators over `_SEED_DEN`.

    Writes ``2 p mod _SEED_DEN`` into ``out``, which defaults to ``p``;
    ``wrap`` is optional scratch of the same shape.  When 2p < D the
    difference 2p - D wraps past 2**64 and loses the minimum.  (p + p is
    the left shift by one, and the faster call.)
    """
    if out is None:
        out = p
    np.add(p, p, out=out)
    wrap = np.subtract(out, _DEN_U64, out=wrap)
    return np.minimum(out, wrap, out=out)


def _fold(s: np.ndarray, e: np.ndarray) -> None:
    """Add columns 1.. of each row of ``s`` into its column 0, in order.

    Column 0 of ``e`` runs the sum of the additions' rounding errors,
    each recovered exactly by TwoSum; its other columns are scratch.
    ``s + e`` is then the cascaded sum Sum2 of Ogita, Rump and Oishi
    (SIAM J. Sci. Comput. 26, 2005), as accurate as a sum of the terms
    in twice the working precision.  Both folds are sequential, so the
    totals do not depend on how the terms were split among calls.
    """
    run = np.add.accumulate(s, axis=1)
    b = run[:, 1:] - run[:, :-1]
    e[:, 1:] = (run[:, :-1] - (run[:, 1:] - b)) + (s[:, 1:] - b)
    s[:, 0] = run[:, -1]
    e[:, 0] = np.add.accumulate(e, axis=1)[:, -1]


def _velocity_blocks(nums: np.ndarray, kappa: np.ndarray,
                     decay: np.ndarray, n_kicks: int):
    """Yield ``(a, k, v)`` for each block of kicks a+1 .. a+k.

    ``v`` is a ``(_KICK_BLOCK + 1, taus, streams)`` buffer: ``v[i, t]``
    holds v_{a+i} at the kick strength ``kappa[t]`` and decay ``decay[t]``,
    row 0 the last velocity of the previous block (v_0 = 0).  Rows 1..k
    first receive the kicks kappa c_j; each row is contiguous, so a
    kick's update v_{j-1} decay + kick is two calls over all taus and
    streams, through one scratch row.  Every tau restarts from the same
    seeds, so one doubling of the numerators ``nums`` and one readout
    c_j = xi_j - 1/2 through the triangle wave xi = 1 - 2|p/D - 1/2|
    serve all of them.  The buffer is
    reused: a block holds only until the next one is asked for.
    """
    streams = nums.size
    p = np.empty((_KICK_BLOCK + 1, streams), dtype=np.uint64)
    p[0] = nums  # row 0 carries the last angle of the previous block
    wrap = np.empty(streams, dtype=np.uint64)
    c = np.empty((_KICK_BLOCK, 1, streams))
    v = np.zeros((_KICK_BLOCK + 1, kappa.size, streams))
    v_rows = list(v)
    scratch = np.empty((kappa.size, streams))
    kappa = kappa[:, None]
    # whole rows, not a broadcast column: the per-kick multiply is faster
    decay = np.repeat(decay[:, None], streams, axis=1)
    den = float(_SEED_DEN)
    for a in range(0, n_kicks, _KICK_BLOCK):
        k = min(_KICK_BLOCK, n_kicks - a)
        for i in range(1, k + 1):
            _double_mod(p[i - 1], out=p[i], wrap=wrap)
        rows = c[:k, 0]
        np.divide(p[1:k + 1], den, out=rows)
        np.subtract(rows, 0.5, out=rows)
        np.abs(rows, out=rows)
        np.multiply(2.0, rows, out=rows)
        np.subtract(1.0, rows, out=rows)
        np.subtract(rows, 0.5, out=rows)
        np.multiply(kappa, c[:k], out=v[1:k + 1])  # the kicks, in place
        for i in range(k):
            np.multiply(v_rows[i], decay, out=scratch)
            np.add(scratch, v_rows[i + 1], out=v_rows[i + 1])
        yield a, k, v
        p[0] = p[k]
        v[0] = v[k]


def suite_plan(gamma, tau_list, n_kicks):
    """Checked ``(gamma, tau_list, n_kicks, burns)`` of `ou_limit_suite`,
    with room after the `burn_in_kicks` transient ``burns`` at each tau."""
    gamma = float(gamma)
    tau_list = [float(t) for t in tau_list]
    for name, val in [("gamma", gamma)] + [("tau", t) for t in tau_list]:
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {val!r}")
    if any(b >= a for a, b in zip(tau_list, tau_list[1:])):
        raise ValueError("tau_list must decrease")
    n_kicks = int(n_kicks)
    burns = [burn_in_kicks(gamma, tau) for tau in tau_list]
    for tau, burn in zip(tau_list, burns):
        if n_kicks <= 2 * burn:
            raise ValueError(
                f"n_kicks = {n_kicks} leaves no room after the "
                f"{burn}-kick transient at tau = {tau:g}")
    return gamma, tau_list, n_kicks, burns


def ou_limit_suite(gamma, tau_list, n_kicks, *, ensemble: int = 256) \
        -> list[OuReport]:
    """Velocity statistics of the kicked flow as the kick spacing shrinks.

    For each tau (given in decreasing order) an ensemble of exact
    chaotic streams from `equidistributed_seeds` is evolved with
    kappa = sqrt(tau); reported per tau: stationary velocity variance,
    the magnitude of the excess kurtosis of v (0 for a Gaussian), and
    the slope and R^2 of the tail fit to the mean-square displacement,
    all taken after the first `burn_in_kicks` kicks.  Fully
    deterministic: no random numbers are involved anywhere.

    Every tau advances together through blocks of `_KICK_BLOCK` kicks
    (`_velocity_blocks`) in one pass, so the suite holds block-sized
    buffers and the ``msd`` curves, never anything of ``(n_kicks,
    streams)`` size.  The pass runs the running position sum x_j =
    x_{j-1} + v_{j-1} (1 - e^{-gamma tau}) / gamma and the squared
    displacements, and sums v, v^2, v^3 and v^4 over the post-transient
    velocities; the central moments come from those power sums
    (`_fold`).  Each power's sum over the streams is taken kick by kick
    and folded across the kicks in kick order, so the reports do not
    depend on where the blocks split.
    """
    gamma, tau_list, n_kicks, burns = suite_plan(gamma, tau_list, n_kicks)
    if not tau_list:
        return []
    seeds = equidistributed_seeds(ensemble)
    nums = np.array([s.numerator * (_SEED_DEN // s.denominator)
                     for s in seeds], dtype=np.uint64)
    kappa = np.array([math.sqrt(tau) for tau in tau_list])
    decay = np.array([math.exp(-gamma * tau) for tau in tau_list])
    drift = ((1.0 - decay) / gamma)[:, None]
    sizes = [(n_kicks - burn + 1) * ensemble for burn in burns]

    x = np.zeros((_KICK_BLOCK + 1, len(tau_list), ensemble))  # row 0: x_a
    x_rows = list(x)
    x_ref = np.empty((len(tau_list), ensemble))
    d = np.empty((_KICK_BLOCK, ensemble))  # one tau's pooled rows
    msd = [np.empty(n_kicks - burn + 1) for burn in burns]
    # per tau, the running sums of v .. v^4 (column 0) and a block's
    # per-kick sums after them; `err` likewise for the rounding errors
    sums = np.zeros((len(tau_list), 4, _KICK_BLOCK + 1))
    err = np.zeros_like(sums)
    for a, k, v in _velocity_blocks(nums, kappa, decay, n_kicks):
        np.multiply(v[:k], drift, out=x[1:k + 1])  # the steps, in place
        # a loop, not np.cumsum: the same bits, but cumsum is slower
        for i in range(k):
            np.add(x_rows[i], x_rows[i + 1], out=x_rows[i + 1])
        for t, burn in enumerate(burns):
            if a < burn <= a + k:
                x_ref[t] = x[burn - a, t]
            lo = max(burn - a, 1)
            if lo <= k:
                rows, vt = d[:k + 1 - lo], v[lo:k + 1, t]
                np.subtract(x[lo:k + 1, t], x_ref[t], out=rows)
                np.square(rows, out=rows)
                msd[t][a + lo - burn:a + k + 1 - burn] = rows.mean(axis=1)
                s = sums[t, :, :k + 2 - lo]
                np.add.reduce(vt, axis=1, out=s[0, 1:])
                np.multiply(vt, vt, out=rows)
                np.add.reduce(rows, axis=1, out=s[1, 1:])
                for power in (2, 3):
                    np.multiply(rows, vt, out=rows)
                    np.add.reduce(rows, axis=1, out=s[power, 1:])
                _fold(s, err[t, :, :k + 2 - lo])
        x[0] = x[k]

    reports = []
    for t, tau in enumerate(tau_list):
        mu, e2, e3, e4 = (sums[t, :, 0] + err[t, :, 0]) / sizes[t]
        mu2 = mu * mu
        m2 = e2 - mu2  # the variance, as var() has it
        m4 = e4 - 4.0 * mu * e3 + 6.0 * mu2 * e2 - 3.0 * mu2 * mu2
        kurt = m4 / (m2 * m2) - 3.0
        t_axis = np.arange(len(msd[t])) * tau
        slope, _, r2 = tail_line_fit(t_axis, msd[t])
        reports.append(OuReport(tau=tau, var_v=float(m2),
                                normality_stat=abs(float(kurt)),
                                msd_slope=slope, msd_r2=r2,
                                mean_v=float(mu), n_samples=sizes[t]))
    return reports


def write_kick_report(path, reports) -> None:
    write_csv(path, ["tau", "var_v", "normality_stat", "msd_slope",
                     "msd_r2"],
              [[r.tau for r in reports], [r.var_v for r in reports],
               [r.normality_stat for r in reports],
               [r.msd_slope for r in reports],
               [r.msd_r2 for r in reports]])
