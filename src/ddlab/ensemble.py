"""Ensembles of delay trajectories and the densities they carry.

The workflow is: describe an initial ensemble (`IidUniformPath`,
`ConstantPath`, `GaussianHistory`, `Mixture`), draw it with
`sample_initial`, push it through a field with `evolve_ensemble`, which
returns its histograms as one `Snapshots` record, and interrogate them
with `detect_density_period` or write them with `write_snapshot_csv` and
`write_joint_csv`.  Trajectory-level statistics (mean-square
displacement, stationary velocity moments) come from one
`evolve_trajectories` pass, which streams the displacement sum and the
velocity pool, fed to `msd_curve` and `velocity_stats`.

An ensemble is one float block, ``(n, m+1)`` for a scalar state or
``(n, m+1, d)``: row i holds trajectory i's history on the m-interval grid
of width tau, which travels next to the block.  Every consumer validates
it once with `ddlab.dde.check_block`, which `integrate_batch` calls for
the consumers that integrate.

Binning convention: the first snapshot in the requested schedule fixes
the histogram range, which is then frozen; later samples are clipped
into it before counting, so every snapshot accounts for all n
trajectories and its density integrates to one exactly.  All K
snapshots therefore share one grid, and a run's histograms are arrays
on it: counts ``(K, bins)``, and optionally the joint counts of
(x(t), x(t - tau)) ``(K, bins, bins)``, over the edges
``linspace(lo, hi, bins + 1)``, with densities ``counts / (n w)`` for
the bin width ``w``.

Determinism: a noisy field's segment levels for the whole block are one
draw from the stream ``(seed, 1)`` (`PiecewiseConstantUniform.table`;
`sample_initial` draws from ``seed``), filled row by row, so trajectory i's
noise depends on (seed, i, segment count) and a row prefix of the block
sees the same noise as the whole block.  All work runs on the calling thread.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .dde import _GRID_RTOL, _block_array, _grid_index, _step_count, \
    check_block, integrate_batch
from .fit import line_fit, tail_line_fit
from .gaussian import sample_gaussian_paths
from .tabular import write_csv


# ---------------------------------------------------------------------------
# initial-ensemble descriptions


@dataclass(frozen=True)
class IidUniformPath:
    """Every history node drawn independently from uniform[lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")


@dataclass(frozen=True)
class ConstantPath:
    """Every trajectory starts from the same constant history."""

    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("value must be finite")


@dataclass(frozen=True)
class GaussianHistory:
    """Histories drawn from the centered Gaussian law of a covariance kernel."""

    kernel: object


@dataclass(frozen=True)
class Mixture:
    """Concatenation of sub-ensembles with fixed member counts."""

    components: tuple

    def __post_init__(self):
        comps = tuple((spec, int(count)) for spec, count in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for spec, count in comps:
            if count <= 0:
                raise ValueError("component counts must be positive")
            if isinstance(spec, Mixture):
                raise ValueError("mixtures do not nest")
        object.__setattr__(self, "components", comps)

    @property
    def total(self) -> int:
        return sum(count for _, count in self.components)


def _sample_block(spec, n, m, tau, seedseq):
    if isinstance(spec, IidUniformPath):
        rng = np.random.default_rng(seedseq)
        return rng.uniform(spec.lo, spec.hi, (n, m + 1))
    if isinstance(spec, ConstantPath):
        return np.full((n, m + 1), float(spec.value))
    if isinstance(spec, GaussianHistory):
        return sample_gaussian_paths(spec.kernel, n, m, tau, seedseq)
    if isinstance(spec, Mixture):
        blocks = [
            _sample_block(sub, count, m, tau, child)
            for child, (sub, count) in zip(
                seedseq.spawn(len(spec.components)), spec.components)
        ]
        return np.concatenate(blocks)
    raise TypeError(f"unknown ensemble description {type(spec).__name__}")


def sample_initial(spec, n, m, tau, seed=None) -> np.ndarray:
    """Draw ``n`` initial histories on the m-interval grid of width tau.

    Returns the ``(n, m+1)`` block.  ``Mixture`` components keep their
    listed order in its rows, and ``n`` must equal the mixture's total
    count.  Reproducible for a fixed integer seed regardless of the
    composition of the ensemble.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one trajectory")
    if isinstance(spec, Mixture) and spec.total != n:
        raise ValueError(
            f"mixture counts sum to {spec.total}, but n = {n}")
    return _sample_block(spec, n, m, tau, np.random.SeedSequence(seed))


def as_velocity_histories(samples) -> np.ndarray:
    """Lift an ``(n, m+1)`` block of scalar histories to ``(n, m+1, 2)``.

    The scalar path becomes the velocity component; position starts at
    rest at the origin.  This is the natural preparation for fields
    whose state is (x, v) but whose feedback involves only delayed v.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("histories are already multi-component")
    return np.stack([np.zeros_like(samples), samples], axis=-1)


# ---------------------------------------------------------------------------
# pushing ensembles through a field


def ensemble_values(samples, tau, field, times, *, seed=None) -> np.ndarray:
    """First state component of every trajectory at the given grid times.

    Returns an (n_trajectories, len(times)) array.  Times at or before
    zero are read from the history block; positive times come from one
    integration pass to the latest requested node.  A noisy field's levels
    come from one table drawn over that pass from the stream ``(seed, 1)``
    (`sample_initial` draws from ``seed``), so trajectory i's noise depends
    only on (seed, i, segment count), and ``samples[:k]`` gets the first k
    rows of the full block's values.
    """
    block = _block_array(samples, tau)
    h = tau / (block.shape[1] - 1)
    return _node_values(block, tau, field, [_grid_index(t, h) for t in times],
                        seed)


def _node_values(block, tau, field, ks, seed):
    """`ensemble_values` at the step-grid nodes ``ks`` (``t = k h``)."""
    B, m = block.shape[0], block.shape[1] - 1
    h = tau / m
    if min(ks) < -m:
        raise ValueError("requested time precedes the stored history")
    out = np.empty((B, len(ks)))

    wanted = {}
    for col, k in enumerate(ks):
        wanted.setdefault(k, []).append(col)
    for k, cols in wanted.items():
        if k <= 0:
            out[:, cols] = block[:, k + m, :1]

    k_max = max(ks)
    if k_max <= 0:
        check_block(block, tau)  # otherwise integrate_batch checks it
        return out

    noise = getattr(field, "noise", None)
    table = None if noise is None else noise.table(
        None if seed is None else (seed, 1), B, k_max, h)

    def obs(k0, ys):
        for j, y in enumerate(ys, k0):
            cols = wanted.get(j)
            if cols is not None and j > 0:
                out[:, cols] = y[:, :1]

    integrate_batch(field, block, tau, k_max * h,
                    noise_table=table, observer=obs)
    return out


def trajectory_grid(tau, m, T, burn_in):
    """Step ``h``, step count to ``T`` and first pooled node ``k`` (``k h >
    burn_in``, bisected as ``k h`` rises with ``k``) of a trajectory run."""
    h = tau / m
    n_steps = _step_count(T, h)
    return h, n_steps, bisect.bisect_right(range(n_steps + 1), burn_in,
                                           key=lambda k: h * k)


def evolve_trajectories(samples, tau, field, T, burn_in):
    """Integrate the whole block once, keeping only what the statistics need.

    ``samples`` carries a velocity component, ``(B, m+1, d)`` with
    ``d >= 2`` (see `as_velocity_histories`).  Returns ``(t, sq_disp,
    pool)``: the node times ``t[k] = k h``; ``sq_disp[k]``, the sum over
    trajectories, in row order, of ``(x_i(t_k) - x_i(0))^2``; and the
    ``(B, n_post)`` pool whose row i holds ``v_i(t_k)`` at every node with
    ``t_k > burn_in``.  No path is stored, so memory is the pool plus one
    integration's buffers.
    """
    block = _block_array(samples, tau)  # integrate_batch checks the values
    B, m = block.shape[0], block.shape[1] - 1
    if block.shape[2] < 2:
        raise ValueError("trajectory statistics need a velocity component")
    h, n_steps, first = trajectory_grid(tau, m, T, burn_in)
    t = h * np.arange(n_steps + 1)
    sq_disp = np.empty(t.size)
    pool = np.empty((B, t.size - first))
    x0 = block[:, m, 0].copy()

    def obs(k0, ys):
        k1 = k0 + len(ys)
        sq = ys[:, :, 0] - x0
        sq *= sq
        # a cumulative sum along a node's row folds strictly in row order,
        # as adding one trajectory at a time does; sum() would add pairwise
        sq_disp[k0:k1] = np.cumsum(sq, axis=1)[:, -1]
        if k1 > first:
            lo = max(k0, first)
            pool[:, lo - first:k1 - first] = ys[lo - k0:, :, 1].T

    integrate_batch(field, block, tau, T, observer=obs)
    return t, sq_disp, pool


# ---------------------------------------------------------------------------
# density snapshots


@dataclass(frozen=True, eq=False)
class Snapshots:
    """The ensemble's histograms at K instants, on one frozen grid.

    ``counts[i]`` bins the n values at ``t[i]`` into ``bins`` equal bins
    over ``[lo, hi]``; ``joint[i]``, when kept, bins the pairs
    (x(t[i]), x(t[i] - tau)) on the same edges in both axes.
    """

    t: np.ndarray  # (K,)
    lo: float
    hi: float
    counts: np.ndarray  # (K, bins) int64
    joint: np.ndarray | None  # (K, bins, bins) int64
    n: int

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.counts.shape[1]

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.counts.shape[1] + 1)

    def densities(self) -> np.ndarray:
        """``(K, bins)`` counts over the sample count and the bin width."""
        return self.counts / (self.n * self.width)

    def joint_densities(self) -> np.ndarray:
        """``(K, bins, bins)`` joint counts over n and the cell area."""
        return self.joint / (self.n * self.width ** 2)


def check_snapshot_times(times, T):
    """Reject an empty schedule or a time `evolve_ensemble` cannot reach."""
    if len(times) == 0:
        raise ValueError("no snapshot times given")
    for t in times:
        if not 0.0 <= t <= T + _GRID_RTOL * max(1.0, T):
            raise ValueError(f"snapshot time {t:g} outside [0, T]")


def evolve_ensemble(samples, tau, field, T, snapshot_times, *, bins=100,
                    seed=None, joint=True) -> Snapshots:
    """Integrate the ensemble and histogram it at each snapshot time.

    The first listed snapshot's values set the bin range for the whole
    sequence (widened to a tiny positive width when they are all equal).
    When ``joint`` is true the record also carries the 2-D histograms of
    (x(t), x(t - tau)) on the same edges, whose x-marginals match the 1-D
    histograms count for count.
    """
    snapshot_times = [float(t) for t in snapshot_times]
    check_snapshot_times(snapshot_times, T)

    block = _block_array(samples, tau)
    m = block.shape[1] - 1
    ks = [_grid_index(t, tau / m) for t in snapshot_times]
    if joint:
        # one delay back is m nodes back: no second rounding of t - tau
        ks += [k - m for k in ks]
    vals = _node_values(block, tau, field, ks, seed)
    B, K = vals.shape[0], len(snapshot_times)

    lo, hi = float(vals[:, 0].min()), float(vals[:, 0].max())
    if hi <= lo:
        pad = max(abs(lo) * 1e-9, 1e-12)
        lo, hi = lo - pad, hi + pad
    np.clip(vals, lo, hi, out=vals)
    counts = np.empty((K, bins), dtype=np.int64)
    pairs = np.empty((K, bins, bins), dtype=np.int64) if joint else None
    for i in range(K):
        counts[i] = np.histogram(vals[:, i], bins=bins, range=(lo, hi))[0]
        if joint:
            pairs[i] = np.histogram2d(vals[:, i], vals[:, K + i], bins=bins,
                                      range=[[lo, hi], [lo, hi]])[0]
    return Snapshots(t=np.array(snapshot_times), lo=lo, hi=hi, counts=counts,
                     joint=pairs, n=B)


def check_period_schedule(times, dt):
    """Reject all but two or more snapshot times spaced by ``dt``."""
    if len(times) < 2:
        raise ValueError("need at least two snapshots")
    for prev, nxt in zip(times, times[1:]):
        if abs((nxt - prev) - dt) > _GRID_RTOL * max(1.0, abs(nxt)):
            raise ValueError("snapshots are not spaced by dt")


def _offset_scores(snapshots) -> dict:
    """Mean L1 distance between the densities r snapshots apart, for
    r = 1 .. K - 2."""
    d, w = snapshots.densities(), snapshots.width
    # each row sums alone, exactly as one pair's 1-d distance would
    return {r: float((np.abs(d[:-r] - d[r:]).sum(axis=1) * w).mean())
            for r in range(1, len(d) - 1)}


def detect_density_period(snapshots, dt, tol=0.1):
    """Smallest T = k*dt at which the snapshot sequence repeats.

    Candidate offsets are scored by the mean L1 distance between
    histograms k steps apart.  An offset passes if its mean distance is
    below ``tol`` and below half the mean distance at offsets that are
    not multiples of it.  If the minimizing offset passes, the result is
    its smallest divisor that passes too; otherwise None.  A sequence
    that is simply stationary therefore reports None — every offset
    matches equally well, so no offset separates from the rest.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    check_period_schedule(snapshots.t, dt)
    dist = _offset_scores(snapshots)
    if not dist:
        return None

    def accepted(r):
        other = [dist[q] for q in dist if q % r != 0]
        return bool(other) and dist[r] < min(tol, 0.5 * float(np.mean(other)))

    best = min(dist, key=lambda r: (dist[r], r))
    if not accepted(best):
        return None
    # noise can make a multiple of the period score best
    return min(r for r in range(1, best + 1)
               if best % r == 0 and accepted(r)) * dt


# ---------------------------------------------------------------------------
# trajectory statistics


@dataclass(frozen=True)
class MsdCurve:
    t: np.ndarray
    msd: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    n_trajectories: int


def check_msd_window(span, tau):
    """Reject a time window under the 100 delays `msd_curve` fits."""
    if span < 100.0 * tau - 1e-9:
        raise ValueError("window too short: need at least 100 delays")


def msd_curve(t, sq_disp, n_trajectories, *, tau=None,
              min_trajectories=100) -> MsdCurve:
    """Mean-square displacement of the first component, with a tail fit.

    ``t`` and ``sq_disp`` are the first two results of
    `evolve_trajectories` over ``n_trajectories`` paths.  The linear fit
    runs over the second half of the time window; its slope estimates
    twice the diffusion coefficient when the motion is diffusive.  Pass
    ``tau`` to enforce that the window spans at least 100 delays.
    """
    if n_trajectories < min_trajectories:
        raise ValueError(f"need at least {min_trajectories} trajectories, "
                         f"got {n_trajectories}")
    if tau is not None:
        check_msd_window(t[-1] - t[0], tau)
    msd = sq_disp / n_trajectories
    slope, intercept, r2 = tail_line_fit(t, msd)
    return MsdCurve(t=t, msd=msd, slope=slope, intercept=intercept,
                    r_squared=r2, n_trajectories=n_trajectories)


# How the far tail of |v| grows with the sample count: `velocity_stats`
# reports |v| at these quantiles, and max|v| over the first 1/k of the rows
# for each k here.
TAIL_QUANTILES = (0.999, 0.9999)
ROW_FRACTIONS = (2, 4, 8)
_BLOCK = 1 << 18  # pool elements per row block


@dataclass(frozen=True)
class VelocityStats:
    std: float
    support_bound: float
    fit_curvature: float
    fit_r_squared: float
    n_samples: int
    tail_quantiles: tuple  # |v| at TAIL_QUANTILES
    prefix_max: tuple  # max|v| over the first 1/k of the rows, k in ROW_FRACTIONS


def check_pool_size(count, min_samples):
    """Reject a pool of ``count`` samples too small for `velocity_stats`."""
    if count < max(1, min_samples):
        raise ValueError(
            f"pooled {count} samples, need at least {max(1, min_samples)}")


def velocity_stats(pool, *, bins=60, min_samples=1_000_000) -> VelocityStats:
    """Pooled stationary statistics of the velocity component.

    ``pool`` is the velocity pool of `evolve_trajectories`, one trajectory
    per row, read in row-major order.  Reports the standard deviation, the
    largest |v| seen, and a least-squares fit of log density against
    -C v^2 over the central 80% of the support (a Gaussian-shape check:
    curvature C and the R^2 of that fit, both NaN when the samples fill
    fewer than two histogram bins).  The tail statistics (see
    `TAIL_QUANTILES`) come from the top |v| of each row block, and the
    deviations are summed block by block, so no temporary is pool-sized.
    """
    pool = np.asarray(pool, dtype=float)
    pooled = pool.reshape(-1)
    count = pooled.size
    check_pool_size(count, min_samples)
    rows = pool.reshape(len(pool), -1)
    lo, hi = float(pooled.min()), float(pooled.max())
    mean = pooled.mean()

    # the quantiles read the k largest |v| at most
    k = count - math.floor((count - 1) * min(TAIL_QUANTILES))
    sq_dev, top, row_max = 0.0, [], np.empty(len(rows))
    step = max(1, _BLOCK // rows.shape[1])
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        dev = block - mean
        np.multiply(dev, dev, out=dev)
        sq_dev += dev.sum()
        np.abs(block, out=dev)
        row_max[i:i + step] = dev.max(axis=1)
        dev = dev.reshape(-1)
        if dev.size > k:
            # partition the scratch block in place (np.partition would copy
            # it) and keep a copy of its top k, so the block is freed
            dev.partition(dev.size - k)
            dev = dev[dev.size - k:].copy()
        top.append(dev)
    top = np.sort(np.concatenate(top))[-k:]  # top[i - base]: rank i of |v|
    base, tails = count - k, []
    for q in TAIL_QUANTILES:
        # np.quantile's linear rule, on the two ranks it reads
        at = (count - 1) * q
        j = math.floor(at)
        pair = top[[j - base, min(j + 1, count - 1) - base]]
        tails.append(float(np.quantile(pair, at - j)))

    width = hi - lo
    clo, chi = lo + 0.1 * width, hi - 0.1 * width
    hist, edges = np.histogram(pooled, bins=bins, range=(clo, chi),
                               density=True)
    mids = 0.5 * (edges[:-1] + edges[1:])
    keep = hist > 0
    curvature, _, r2 = line_fit(-mids[keep] ** 2, np.log(hist[keep]))
    return VelocityStats(
        std=math.sqrt(sq_dev / count), support_bound=max(hi, -lo),
        fit_curvature=curvature, fit_r_squared=r2, n_samples=count,
        tail_quantiles=tuple(tails),
        prefix_max=tuple(float(row_max[:max(1, len(rows) // f)].max())
                         for f in ROW_FRACTIONS))


# ---------------------------------------------------------------------------
# file output


def write_snapshot_csv(path, snapshots) -> None:
    """All marginal histograms, one row per (snapshot, bin)."""
    K, bins = snapshots.counts.shape
    e = snapshots.edges
    write_csv(path, ["t", "bin_left", "bin_right", "density"],
              [np.repeat(snapshots.t, bins), np.tile(e[:-1], K),
               np.tile(e[1:], K), snapshots.densities().ravel()])


def write_joint_csv(path, snapshots) -> None:
    """Occupied joint-histogram cells, one row per (snapshot, cell)."""
    if snapshots.joint is None:
        raise ValueError("these snapshots were taken without joint=True")
    k, xi, yi = np.nonzero(snapshots.joint)
    e = snapshots.edges
    write_csv(path, ["t", "x_left", "x_right", "y_left", "y_right",
                     "density"],
              [snapshots.t[k], e[xi], e[xi + 1], e[yi], e[yi + 1],
               snapshots.joint_densities()[k, xi, yi]])
