"""Method-of-steps RK4 integration of delay differential equations.

The integrator advances on the uniform grid ``t = t0 + n h`` with
``h = tau / m``, so every delayed stage time lands either on a stored node or
exactly halfway between two of them.  Node values are read back directly;
half-node values come from four-point cubic stencils, which keeps the
classical Runge-Kutta update at full fourth order for smooth data.

Every field is ``x' = L x + D``: a constant matrix ``L`` times the state,
plus a drive ``D`` of the delayed state and the noise level.  Classical RK4
is then exactly one affine update per step, ``y+ = P(hL) y + c0(hL) D0 +
cm(hL) Dm + (h/6) D1`` with ``P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``,
``c0(z) = h/6 (1 + z + z^2/2 + z^3/4)``, ``cm(z) = h/6 (4 + 2z + z^2/2)``
and ``D0``, ``Dm``, ``D1`` the drive at the step's start, half-node and
end.  A step's ``D0`` is the previous step's ``D1``, which read the same
delayed node and noise level (step ``n - 1`` ends on level ``n // q``,
where step ``n`` starts); only step 0 and step ``m``, whose predecessor
read node 0's left limit, evaluate it afresh.

Steps run in windows of ``W`` nodes.  Step ``n`` reads delayed nodes up to
``n - m + 2``, so once the special steps ``n <= 2m + 1`` are past (the
node-0 jump, the left-limit extrapolation, the one-sided stencils) every
delayed node the next ``m - 2`` steps read is known.  A window forms their
mid-stencils, drives and drive products ``c0 D0``, ``cm Dm``, ``c1 D1``
over ``(W, B)`` slabs for ``B`` paths, and only the sums ``((P y + c0 D0)
+ cm Dm) + c1 D1`` run step by step.  Each element sees the operations of
a single step in the same order, so the bits do not depend on ``W``.  A
slab holds at most `_SLAB` values, so ``W`` shrinks as the batch grows, to
one node per window for the 22 500-path ensembles.

The datum with a unit jump at the starting time (zero path before, one at the
start) generates the fundamental solution of the linear equation, so the
read-back is careful at the two places such a jump hurts.  Stencils never
straddle the starting node: samples before it are read as left limits and the
pre-jump value is recovered by cubic extrapolation.  And they never straddle
the node one delay later, where the first derivative of the solution inherits
the jump.  Marks at ``k tau`` for ``k >= 2`` are progressively smoother and
plain centered stencils lose nothing measurable there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .tabular import write_csv

__all__ = [
    "History", "Trajectory", "LinearDelayField", "TentDelayField",
    "AffineCircleDelayField", "SineFeedbackField", "PiecewiseConstantUniform",
    "eval_field", "state_dim", "integrate", "integrate_batch", "check_block",
    "convergence_order", "make_history", "fundamental_history",
]

_MIN_SUBSTEPS = 4  # the cubic read-back needs four usable nodes per piece
_GRID_RTOL = 1e-9


def _grid_index(t, h, what="time"):
    """``t / h`` as a whole number, to the step-grid tolerance."""
    k = round(t / h) if math.isfinite(t / h) else math.nan
    if not abs(k * h - t) <= _GRID_RTOL * max(1.0, abs(t)):
        raise ValueError(f"{what} {t:g} is not a whole number of steps {h:g}")
    return k


@dataclass(frozen=True)
class History:
    """State samples on the uniform grid covering the last full delay.

    ``samples[i]`` is the state at ``t_now - tau + i * step`` with
    ``step = tau / m`` and ``m = len(samples) - 1``; ``samples[-1]`` is the
    state at ``t_now`` itself.  Earlier samples are read as left-limit
    values, which is what lets a discontinuous datum live on a plain grid:
    put the pre-jump path in ``samples[:-1]`` and the post-jump state in
    ``samples[-1]`` (see :func:`fundamental_history`).
    """

    tau: float
    samples: np.ndarray
    t_now: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        check_block(arr[None], self.tau)
        object.__setattr__(self, "samples", arr)

    @property
    def m(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def step(self) -> float:
        return self.tau / self.m

    @property
    def dim(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[1]


def make_history(fn, tau: float, m: int, *, t_now: float = 0.0) -> History:
    """Sample the path ``fn`` on the ``m + 1`` nodes of ``[t_now - tau, t_now]``."""
    nodes = np.linspace(t_now - tau, t_now, m + 1)
    vals = np.array([np.asarray(fn(float(s)), dtype=float) for s in nodes])
    return History(tau, vals, t_now)


def fundamental_history(tau: float, m: int) -> History:
    """Zero path with a unit jump at time zero.

    Integrating a linear field from this datum produces the fundamental
    solution of ``x' = a x + b x(t - tau)``.
    """
    vals = np.zeros(m + 1)
    vals[-1] = 1.0
    return History(tau, vals, 0.0)


# ---------------------------------------------------------------------------
# fields: ``x' = L x + D`` with ``L = linear_part``.  ``drive(out, xd, xi,
# work)`` writes D, which moves only the last state component, from that
# component's delayed value and the noise level into ``out`` (``work`` holds
# intermediates; neither aliases an input) in a fixed operand order, so one
# state and a batch get the same bits.

@dataclass(frozen=True)
class LinearDelayField:
    """``x' = a x(t) + b x(t - tau)``; the delay length comes from the history."""

    a: float
    b: float

    @property
    def linear_part(self):
        return np.array([[self.a]])

    def drive(self, out, xd, xi, work):
        np.multiply(self.b, xd, out=out)


@dataclass(frozen=True)
class TentDelayField:
    """``x' = -alpha x + a min(x_tau, 1 - x_tau)``.

    Relaxation at rate ``alpha`` toward a tent-shaped drive evaluated one
    delay back.  When ``alpha`` is large the state tracks
    ``(a / alpha) min(x_tau, 1 - x_tau)``, so successive delay windows
    approximate iteration of a tent map with slope ``a / alpha``: slopes in
    ``(1, 2]`` fold the interval and support cycling ensemble densities,
    while slopes below one make the origin globally attracting and every
    ensemble collapses onto it.
    """

    alpha: float
    a: float

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError("alpha must be positive")

    @property
    def linear_part(self):
        return np.array([[-self.alpha]])

    def drive(self, out, xd, xi, work):
        np.subtract(1.0, xd, out=out)
        np.minimum(xd, out, out=out)
        np.multiply(self.a, out, out=out)


@dataclass(frozen=True)
class PiecewiseConstantUniform:
    """Right-continuous piecewise-constant noise with uniform levels.

    The value is constant on ``[t0 + k dt, t0 + (k + 1) dt)`` where ``dt`` is
    the resample interval and ``t0`` the start of integration, and each
    segment level is an independent draw from ``uniform(lo, hi)``.  The
    interval is a whole number ``q`` of steps (`steps_per_segment`), so
    step ``n`` lies in segment ``n // q``.
    """

    lo: float
    hi: float
    resample_interval: float

    def __post_init__(self):
        if not (self.hi >= self.lo and math.isfinite(self.hi - self.lo)):
            raise ValueError("need finite hi >= lo")
        if not 0.0 < self.resample_interval < math.inf:
            raise ValueError("resample interval must be finite and positive")

    def steps_per_segment(self, h: float) -> int:
        """The segment clock ``q = resample_interval / h``, a whole number."""
        q = _grid_index(self.resample_interval, h, "resample interval")
        if q < 1:
            raise ValueError(f"resample interval is shorter than a step {h:g}")
        return q

    def table(self, seed, rows: int, n_steps: int, h: float) -> np.ndarray:
        """``(rows, n_steps // q + 1)`` levels in one draw from ``seed``.

        Filled row by row, so row i depends on (seed, i, segment count).
        """
        count = n_steps // self.steps_per_segment(h) + 1
        return np.random.default_rng(seed).uniform(self.lo, self.hi,
                                                   (rows, count))


@dataclass(frozen=True)
class AffineCircleDelayField:
    """``x' = -alpha x + alpha ((a x_tau + b + xi(t)) mod 1)``.

    The wrap applies to the whole bracket, noise included, and the drive is
    scaled by ``alpha`` so that fast relaxation reduces successive delay
    windows to the noisy circle map ``x -> (a x + b + xi) mod 1`` itself.
    (An unscaled drive would confine the state to ``[0, 1/alpha]``, the
    bracket would then stay strictly below one, and the wrap could never
    engage.)  ``noise`` is optional; without it the drive is deterministic.
    """

    alpha: float
    a: float
    b: float
    noise: PiecewiseConstantUniform | None = None

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError("alpha must be positive")
        if not (0.0 < self.a < 1.0 and 0.0 < self.b < 1.0):
            raise ValueError("need 0 < a < 1 and 0 < b < 1")

    @property
    def linear_part(self):
        return np.array([[-self.alpha]])

    def drive(self, out, xd, xi, work):
        np.multiply(self.a, xd, out=out)
        np.add(out, self.b, out=out)
        if xi is not None:
            np.add(out, xi, out=out)
        # d - floor(d) is np.mod(d, 1.0) bit for bit (the exact fractional
        # part rounded once, +0.0 at integers) and far cheaper
        np.floor(out, out=work)
        np.subtract(out, work, out=out)
        np.multiply(self.alpha, out, out=out)


@dataclass(frozen=True)
class SineFeedbackField:
    """Position/velocity pair with delayed sinusoidal velocity feedback.

    ``x' = v`` and ``v' = -gamma v + sin(2 pi beta v(t - tau))``.  The state
    vector is ``(x, v)``; only the velocity enters with a delay, and the
    position is its plain integral.
    """

    gamma: float
    beta: float

    def __post_init__(self):
        if not (self.gamma > 0.0 and self.beta > 0.0):
            raise ValueError("gamma and beta must be positive")

    @property
    def linear_part(self):
        return np.array([[0.0, 1.0], [0.0, -self.gamma]])

    def drive(self, out, xd, xi, work):
        np.multiply(2.0 * np.pi * self.beta, xd, out=out)
        np.sin(out, out=out)


def state_dim(field) -> int:
    """Dimension of the field's state vector."""
    if not hasattr(field, "drive"):
        raise TypeError(f"not a recognized delay field: {type(field).__name__}")
    return len(field.linear_part)


def eval_field(field, x, x_delayed, t: float = 0.0, noise_value=None):
    """Right-hand side ``L x + D`` of the delay equation at one instant.

    ``x`` and ``x_delayed`` are current and delayed states; both broadcast
    over leading axes, with the state components on the last axis for
    two-component fields.  ``noise_value`` is the active noise level for
    fields that carry a noise process and is ignored otherwise.  Pure
    evaluation: nothing is advanced or sampled here.
    """
    d, L = state_dim(field), field.linear_part
    x, xd = np.asarray(x, dtype=float), np.asarray(x_delayed, dtype=float)
    noisy = noise_value is not None and isinstance(field, AffineCircleDelayField)
    xi = np.asarray(noise_value, dtype=float) if noisy else None
    xd = xd[..., -1] if d > 1 else xd  # only the driven component is read
    D = np.empty(np.broadcast_shapes(xd.shape, np.shape(xi)))
    field.drive(D, xd, xi, np.empty_like(D))
    if d == 1:
        out = L[0, 0] * x + D
    else:  # the drive moves the last component only
        out = x @ L.T + np.eye(d)[-1] * D[..., None]
    return out if out.ndim else out[()]


# ---------------------------------------------------------------------------
# the stepper

# Cubic read-back weights for the value halfway through node interval
# [j, j+1].  Comments mark the four stencil nodes relative to j, with "x"
# the evaluation point.
_MID_CENTERED = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0   # j-1  j  x  j+1  j+2
_MID_RIGHT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0      # j  x  j+1  j+2  j+3
_MID_LAST = np.array([1.0, -5.0, 15.0, 5.0]) / 16.0       # j-2  j-1  j  x  j+1
_MID_EXTRAP = np.array([-5.0, 21.0, -35.0, 35.0]) / 16.0  # j-3  j-2  j-1  j  x
# Pre-jump (left-limit) value at a node, extrapolated from the four nodes
# before it:
_NODE_EXTRAP = np.array([-1.0, 4.0, -6.0, 4.0])


def _mid_stencil(j: int, m: int):
    """Stencil (weights, base node) for the half-node value in ``[j, j+1]``.

    Node indices count from the start of integration (node 0); node ``m``
    sits one delay later.  The solution value jumps only at node 0 (left
    limits before, the initial state after) and its first derivative jumps
    at node ``m``, so near those two nodes the stencil stays inside one
    smooth piece; everywhere else it is centered.
    """
    if j in (-m, 0, m):
        return _MID_RIGHT, j
    if j == -1:
        return _MID_EXTRAP, j - 3
    if j in (-2, m - 1):
        return _MID_LAST, j - 2
    return _MID_CENTERED, j - 1


def _combine(w, rows, out, work):
    """``((w0 r0 + w1 r1) + w2 r2) + ...`` into ``out``."""
    np.multiply(w[0], rows[0], out=out)
    for wi, row in zip(w[1:], rows[1:]):
        np.multiply(wi, row, out=work)
        np.add(out, work, out=out)


def _drive_products(products, d0, dm, d1):
    """Each ``(c, k, slab)`` of ``products``: ``c`` times drive ``k`` (0:
    start, 1: half-node, 2: end) of every step of a window into ``slab``.
    The start drives are the last window's end drive ``d0``, then the end
    drives ``d1`` of this window's steps but its last."""
    W = len(d1)
    for c, k, slab in products:
        if k == 0:
            np.multiply(c, d0, out=slab[:1])
            if W > 1:
                np.multiply(c, d1[:W - 1], out=slab[1:W])
        else:
            np.multiply(c, dm if k == 1 else d1, out=slab[:W])


def _affine_steps(plan, y, new, tmp):
    """The window's steps, each state from the one before (``y`` for the
    first) into the next row of the component-major ``new``.

    Component i sums ``plan[i]``'s state terms ``(c, k)``, then its
    product slabs' rows, in that order, as one step alone would."""
    for j, out in enumerate(new):
        for (terms, slabs), o in zip(plan, out):
            for t, (c, k) in enumerate(terms):
                if t:
                    np.multiply(c, y[k], out=tmp)
                    np.add(o, tmp, out=o)
                else:
                    np.multiply(c, y[k], out=o)
            for t, slab in enumerate(slabs, len(terms)):
                if t:
                    np.add(o, slab[j], out=o)
                else:
                    np.copyto(o, slab[j])
        y = out


def _rk4_coefficients(L, h):
    """``P(hL)`` and the last columns of ``c0``, ``cm``, ``c1`` (see top)."""
    z, eye = h * L, np.eye(len(L))
    z2 = z @ z
    z3 = z2 @ z
    P = eye + z + z2 / 2.0 + z3 / 6.0 + (z3 @ z) / 24.0
    c0 = (h / 6.0) * (eye + z + z2 / 2.0 + z3 / 4.0)
    cm = (h / 6.0) * (4.0 * eye + 2.0 * z + z2 / 2.0)
    return P, c0[:, -1], cm[:, -1], (h / 6.0) * eye[:, -1]


def check_block(samples, tau: float) -> np.ndarray:
    """An ensemble block as a validated float array shaped ``(B, m+1, d)``.

    ``samples`` holds one history per row on the grid of step ``tau / m``,
    shaped ``(B, m+1)`` for a scalar state (returned with ``d = 1``) or
    ``(B, m+1, d)``.  Needs ``B >= 1``, ``m >= 4``, finite samples and a
    finite ``tau > 0``.
    """
    arr = _block_array(samples, tau)
    if not np.all(np.isfinite(arr)):
        raise ValueError("history samples must be finite")
    return arr


def _block_array(samples, tau: float) -> np.ndarray:
    """`check_block` without its pass over the values.

    For callers that hand the block on to `integrate_batch`, which makes
    that pass itself.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError("samples must be shaped (B, m+1) or (B, m+1, d)")
    if arr.shape[0] < 1:
        raise ValueError("empty ensemble")
    if arr.shape[1] - 1 < _MIN_SUBSTEPS:
        raise ValueError(f"need at least {_MIN_SUBSTEPS} substeps per delay")
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError("tau must be positive")
    return arr if arr.ndim == 3 else arr[:, :, None]


def _step_count(T, h):
    """``T / h`` as a whole, positive number of steps."""
    n_steps = _grid_index(T, h, "T")
    if n_steps < 1:
        raise ValueError("T must be a positive whole number of steps tau/m")
    return n_steps


# Path-rows per window slab (128 KiB): a batch of B paths steps W =
# min(m - 2, _SLAB // B) nodes per window, at least one.  The outputs do
# not depend on it.  At 2**14 the slabs, states and ring of a 500-path
# sine-feedback run (about 1.5 MiB) stay within a 2 MiB L2 cache, and a
# 22 500-path batch steps one node at a time.
_SLAB = 2 ** 14


def integrate_batch(field, samples, tau: float, T: float, *, t0: float = 0.0,
                    noise_table=None, observer=None) -> np.ndarray:
    """Advance a stack of histories together; returns the final states.

    ``samples`` is an ensemble block as :func:`check_block` accepts it,
    and ``T`` must be a whole number of steps ``tau / m``.  For a field with
    a noise process, ``noise_table`` supplies one row of segment levels per
    trajectory (see :meth:`PiecewiseConstantUniform.table`); the segment
    clock starts at ``t0``, and with ``q`` steps per segment step ``n``
    reads level ``n // q`` at its start and midpoint, ``(n + 1) // q`` at
    its end.

    The steps run in windows of ``W = min(m - 2, _SLAB // B)`` nodes for
    ``B`` paths (at least 1; 1 on the special steps ``n <= 2m + 1``, and
    the last window takes what is left).  Every delayed node a window
    reads is known when it starts, so its mid-stencils, drives and drive
    products are formed over ``(W, B)`` slabs, and only the sums of the
    affine update run step by step.

    ``observer(k0, states)`` is called once for node 0 and then once per
    window, with the ``(W, B, d)`` states at nodes ``k0 .. k0 + W - 1``;
    the array is valid only during the call, so an observer copies what
    it keeps.  It never sees a non-finite state: each window's states are
    checked before it is observed, and the first non-finite one raises
    :class:`~ddlab.errors.DivergenceError` with its time and row.

    Every trajectory in the stack sees exactly the arithmetic it would see
    alone, at any window size, so integrating any split of the rows (each
    part with its own rows of ``noise_table``) and concatenating gives the
    same bits.  All work runs on the calling thread, and the steps write
    only into buffers allocated once per call.
    """
    arr = check_block(samples, tau)
    nb, rows, d = arr.shape
    m = rows - 1
    if d != state_dim(field):
        raise ValueError(
            f"field wants state dimension {state_dim(field)}, got {d}")
    h = tau / m
    n_steps = _step_count(T, h)

    width = max(1, min(m - 2, _SLAB // nb))
    noise = getattr(field, "noise", None)
    noise_rows = xi0 = xi1 = None
    if noise is not None:
        if noise_table is None:
            raise ValueError("field carries a noise process; supply noise_table")
        q = noise.steps_per_segment(h)
        needed = n_steps // q + 1
        noise_table = np.asarray(noise_table, dtype=float)
        if noise_table.ndim != 2 or noise_table.shape[0] != nb \
                or noise_table.shape[1] < needed:
            raise ValueError(f"noise_table must be shaped ({nb}, >= {needed})")
        # one contiguous row of levels per segment
        noise_rows = np.ascontiguousarray(noise_table.T)
        xi0s, xi1s = np.empty((2, width, nb))
    elif noise_table is not None:
        raise ValueError("noise_table given but the field has no noise process")

    def levels(n, w, buf):
        """Levels ``k // q`` of steps ``k = n .. n + w - 1``: one row that
        broadcasts when they share a segment, else gathered into ``buf``."""
        a = n // q
        if a == (n + w - 1) // q:
            return noise_rows[a:a + 1]
        return np.take(noise_rows, np.arange(n, n + w) // q, axis=0,
                       out=buf[:w])

    # Ring buffer of the delayed (last) component over absolute node index
    # i (slot (i + m) % size); m + 4 slots retain exactly the nodes the
    # widest stencil can reach back to.  Its first width - 1 slots are
    # repeated past its end, so the rows of any run of at most width nodes
    # are one slice wherever the run starts.
    size, mirror = m + 4, width - 1
    ring = np.empty((size + mirror, nb))
    ring[:m + 1] = arr[:, :, -1].T
    ring[size:] = ring[:mirror]

    def nodes(i, w):
        """The ring rows of nodes ``i .. i + w - 1``, ``w <= width``."""
        s = (i + m) % size
        return ring[s:s + w]

    xdm, dm, work = np.empty((3, width, nb))
    # Component i of the new state sums, in this order, its nonzero
    # coefficients times (y_0 .. y_{d-1}, D0, Dm, D1): its state terms
    # (coefficient, component) step by step, then its drive terms, whose
    # products (coefficient, drive, slab) are formed over the window.  The
    # first two product slabs are the mid-stencil and work slabs, done with
    # by then, so a one-node window's working set stays that of a plain
    # step.
    coefs = np.column_stack(_rk4_coefficients(field.linear_part, h))
    slabs = iter([xdm, work] + [np.empty((width, nb)) for _ in
                                range(np.count_nonzero(coefs[:, d:]) - 2)])
    plan, products = [], []
    for c in coefs:
        prods = [(c[d + k], k, next(slabs)) for k in np.flatnonzero(c[d:])]
        plan.append(([(c[k], k) for k in np.flatnonzero(c[:d])],
                     [slab for _, _, slab in prods]))
        products += prods
    tmp = np.empty(nb)
    # this window's end drives, and the last window's, whose final row is
    # the next start drive
    ends = list(np.empty((2, width, nb)))
    start, xd1s = np.empty((2, 1, nb))
    # States step component-major, (W, d, B): a vector state in a slab
    # whose row 0 holds the window's start, a scalar state straight in its
    # ring rows.
    states = None if d == 1 else np.empty((width + 1, d, nb))
    if states is not None:
        states[0] = arr[:, m].T
    if observer is not None:
        observer(0, arr[None, :, m])

    n, d0 = 0, None
    while n < n_steps:
        W = 1 if n <= 2 * m + 1 else min(width, n_steps - n)
        if noise_rows is not None:
            # segments start on nodes, so the midpoint shares the start's
            xi0, xi1 = levels(n, W, xi0s), levels(n + 1, W, xi1s)
        if n in (0, m):
            # no previous end drive to reuse: the first step, and the step
            # after the one that read node 0's left limit
            field.drive(start, nodes(n - m, 1), xi0, work[:1])
            d0 = start
        if n == m - 1:
            # Right edge of the delayed window is the one two-valued node;
            # this step wants its left limit.
            _combine(_NODE_EXTRAP, [nodes(i, 1) for i in range(-4, 0)], xd1s,
                     work[:1])
            xd1 = xd1s
        else:
            xd1 = nodes(n + 1 - m, W)
        w, base = _mid_stencil(n - m, m)  # one stencil for a whole window
        _combine(w, [nodes(base + i, W) for i in range(4)], xdm[:W],
                 work[:W])
        field.drive(dm[:W], xdm[:W], xi0, work[:W])
        d1 = ends[0][:W]
        field.drive(d1, xd1, xi1, work[:W])
        _drive_products(products, d0, dm[:W], d1)
        written = nodes(n + 1, W)
        new = written[:, None] if states is None else states[1:W + 1]
        _affine_steps(plan, nodes(n, 1) if states is None else states[0],
                      new, tmp)
        if not np.isfinite(new).all():
            ok = np.isfinite(new).all(axis=1)
            j = int(np.argmin(ok.all(axis=1)))
            raise DivergenceError(t0 + (n + 1 + j) * h,
                                  index=int(np.argmin(ok[j])))
        if states is not None:
            written[:] = new[:, -1]
        # keep the mirror: rows written past the end are copied to their
        # slots, rows written into the first slots to their repeats
        lo = (n + 1 + m) % size
        hi = lo + W
        if hi > size:
            ring[:hi - size] = ring[size:hi]
        if lo < mirror:
            ring[size + lo:size + min(hi, mirror)] = ring[lo:min(hi, mirror)]
        if observer is not None:
            observer(n + 1, new.transpose(0, 2, 1))
        if states is not None:
            states[0] = states[W]
        d0 = d1[W - 1:W]
        ends.reverse()
        n += W
    return (nodes(n, 1) if states is None else states[0]).T.copy()


@dataclass(frozen=True)
class Trajectory:
    """Grid-sampled solution path; node ``k`` sits at ``t0 + k * step``."""

    t0: float
    step: float
    states: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        object.__setattr__(self, "states", arr)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(self.states.shape[0])

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def v(self) -> np.ndarray:
        if self.states.shape[1] < 2:
            raise ValueError("scalar trajectory has no velocity column")
        return self.states[:, 1]

    def to_csv(self, path) -> None:
        d = self.states.shape[1]
        if d > 2:
            raise ValueError("CSV layout is defined for 1- and 2-component states")
        cols = [self.times] + [self.states[:, i] for i in range(d)]
        write_csv(path, ["t", "x", "v"][:1 + d], cols)


def integrate(field, initial: History, T: float, seed=None) -> Trajectory:
    """Integrate one trajectory, recording every grid node.

    The step is ``initial.step`` and ``T`` must be a whole number of steps.
    ``seed`` feeds the noise stream for fields that carry a noise process
    (ignored otherwise); the same seed always reproduces the same trajectory
    bit for bit.  A state leaving the finite range raises
    :class:`~ddlab.errors.DivergenceError` carrying the blow-up time.
    """
    h = initial.step
    n_steps = _step_count(T, h)
    noise = getattr(field, "noise", None)
    table = None if noise is None else noise.table(seed, 1, n_steps, h)
    out = np.empty((n_steps + 1, state_dim(field)))

    def _record(k0, states):
        out[k0:k0 + len(states)] = states[:, 0]

    integrate_batch(field, initial.samples[None, ...], initial.tau, T,
                    t0=initial.t_now, noise_table=table, observer=_record)
    return Trajectory(initial.t_now, h, out)


def _refine_samples(arr: np.ndarray) -> np.ndarray:
    """Halve the grid step of a sampled path, filling cubic midpoints.

    Treats the whole path as one smooth piece, so it is only appropriate
    for data without an embedded jump.
    """
    m = arr.shape[0] - 1
    out = np.empty((2 * m + 1,) + arr.shape[1:])
    out[0::2] = arr
    for j in range(m):
        w, base = _mid_stencil(j, m)  # the same stencils as on one piece
        out[2 * j + 1] = (w[0] * arr[base] + w[1] * arr[base + 1]
                          + w[2] * arr[base + 2] + w[3] * arr[base + 3])
    return out


def convergence_order(field, initial, T: float, *, tau: float = None,
                      m0: int = 32) -> float:
    """Observed order of the step-halving error at time ``T``.

    Runs the same problem at steps ``h``, ``h/2`` and ``h/4`` and returns
    ``log2`` of the ratio of successive solution differences, measured in
    the max norm over the shared coarse-grid nodes (a single-instant
    difference is too easily polluted by error cancellation).  ``initial``
    is either a :class:`History` (its samples are refined to the halved
    grids with the same cubic stencils the integrator uses, which is exact
    for polynomial data and fourth-order accurate otherwise) or a callable
    ``s -> state`` on ``[t0 - tau, t0]``; a callable needs ``tau`` and gives
    the cleanest estimate because every resolution samples it directly.
    Fields with a noise process are rejected: halving the step of a noisy
    run changes the realization, not just the error.
    """
    if getattr(field, "noise", None) is not None:
        raise ValueError("convergence order is undefined for noisy fields")
    if callable(initial):
        if tau is None:
            raise ValueError("callable initial data needs an explicit tau")
        tiers = [make_history(initial, tau, m0 * 2 ** i) for i in range(3)]
    else:
        tiers = [initial]
        samples = initial.samples
        for _ in range(2):
            samples = _refine_samples(samples)
            tiers.append(History(initial.tau, samples, initial.t_now))
    runs = [integrate(field, hist, T).states for hist in tiers]
    e1 = float(np.max(np.abs(runs[0] - runs[1][::2])))
    e2 = float(np.max(np.abs(runs[1][::2] - runs[2][::4])))
    if e2 == 0.0:
        return math.inf
    if e1 == 0.0:
        return -math.inf
    return math.log2(e1 / e2)
