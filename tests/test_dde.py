"""Tests for the method-of-steps delay equation integrator."""
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from ddlab import dde
from ddlab.dde import (_NODE_EXTRAP, _mid_stencil,
                       AffineCircleDelayField, History, LinearDelayField,
                       PiecewiseConstantUniform, SineFeedbackField,
                       TentDelayField, Trajectory, convergence_order,
                       eval_field, fundamental_history, integrate,
                       integrate_batch, make_history, state_dim)
from ddlab.errors import DivergenceError
from ddlab.gaussian import LinearDdeParams, fundamental_solution
from ddlab.tabular import read_csv


# ---------------------------------------------------------------------------
# fields and right-hand sides


def test_tent_field_rhs_values():
    f = TentDelayField(13.0, 10.0)
    assert eval_field(f, 0.1, 0.25) == pytest.approx(-1.3 + 2.5, abs=1e-14)
    assert eval_field(f, 0.1, 0.6) == pytest.approx(-1.3 + 4.0, abs=1e-14)
    # both branches agree at the fold
    assert eval_field(f, 0.0, 0.5) == pytest.approx(5.0, abs=1e-14)


def test_linear_field_rhs_value():
    assert eval_field(LinearDelayField(0.0, -1.0), 0.3, 0.5) == -0.5
    assert eval_field(LinearDelayField(2.0, 0.5), 1.0, -2.0) == pytest.approx(1.0)


def test_circle_field_wraps_whole_bracket():
    f = AffineCircleDelayField(10.0, 0.5, 0.567)
    # 0.5*0.8 + 0.567 + 0.1 = 1.067 wraps to 0.067, scaled by alpha
    assert eval_field(f, 0.0, 0.8, 0.0, 0.1) == pytest.approx(0.67, abs=1e-12)
    # without noise the same bracket stays below one
    assert eval_field(f, 0.0, 0.8) == pytest.approx(9.67, abs=1e-12)
    # wrap at exactly one lands on zero
    assert eval_field(f, 0.0, 0.866, 0.0, 0.0) == pytest.approx(
        -0.0 + 10.0 * math.fmod(0.5 * 0.866 + 0.567, 1.0), abs=1e-12)


def test_sine_feedback_rhs_components():
    f = SineFeedbackField(1.0, 1.0)
    out = eval_field(f, np.array([0.0, 0.0]), np.array([0.0, 0.25]))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)
    out = eval_field(f, np.array([3.0, -0.5]), np.array([0.0, 0.0]))
    np.testing.assert_allclose(out, [-0.5, 0.5], atol=1e-15)


def test_eval_field_broadcasts_over_batches():
    f = TentDelayField(2.0, 3.0)
    x = np.array([[0.1], [0.2]])
    xd = np.array([[0.4], [0.9]])
    out = eval_field(f, x, xd)
    np.testing.assert_allclose(out, [[-0.2 + 1.2], [-0.4 + 0.3]])


_LINEAR_PARTS = [
    (LinearDelayField(-0.5, -1.7), [[-0.5]]),
    (TentDelayField(10.0, 13.0), [[-10.0]]),
    (AffineCircleDelayField(10.0, 0.5, 0.567), [[-10.0]]),
    (SineFeedbackField(1.5, 10.0), [[0.0, 1.0], [0.0, -1.5]]),
]


@pytest.mark.parametrize("field, L", _LINEAR_PARTS,
                         ids=["linear", "tent", "circle", "sine-feedback"])
def test_eval_field_is_linear_part_plus_drive(field, L):
    rng = np.random.default_rng(3)
    shape = (6, len(L)) if len(L) > 1 else (6, 1)
    x, xd = rng.uniform(-1.0, 1.0, shape), rng.uniform(0.0, 1.0, shape)
    xi = rng.uniform(0.0, 0.2, shape)
    got = eval_field(field, x, xd, 0.0, xi)
    # the stage-form right-hand side, written out per field
    np.testing.assert_allclose(got, _reference_rhs(field, x, xd, xi),
                               rtol=1e-15, atol=1e-15)
    # the drive does not see the current state, so the difference from a
    # zero current state is L x
    np.testing.assert_allclose(
        got - eval_field(field, np.zeros(shape), xd, 0.0, xi),
        x @ np.array(L).T, rtol=1e-14, atol=1e-14)


def test_field_validation():
    with pytest.raises(ValueError):
        TentDelayField(0.0, 1.0)
    with pytest.raises(ValueError):
        AffineCircleDelayField(1.0, 1.5, 0.5)
    with pytest.raises(ValueError):
        SineFeedbackField(1.0, -1.0)
    with pytest.raises(TypeError):
        eval_field(object(), 0.0, 0.0)


def test_state_dim():
    assert state_dim(LinearDelayField(0.0, 1.0)) == 1
    assert state_dim(SineFeedbackField(1.0, 2.0)) == 2


# ---------------------------------------------------------------------------
# histories


def test_history_grid_properties():
    h = make_history(lambda s: 2.0 * s, 2.0, 8)
    assert h.m == 8
    assert h.step == pytest.approx(0.25)
    assert h.dim == 1
    np.testing.assert_allclose(h.samples, 2.0 * np.linspace(-2.0, 0.0, 9))


def test_history_vector_states():
    h = make_history(lambda s: np.array([s, -s]), 1.0, 4)
    assert h.samples.shape == (5, 2)
    assert h.dim == 2


def test_fundamental_history_is_zero_with_unit_jump():
    h = fundamental_history(1.0, 16)
    assert np.all(h.samples[:-1] == 0.0)
    assert h.samples[-1] == 1.0


def test_history_validation():
    with pytest.raises(ValueError):
        History(0.0, np.zeros(5))
    with pytest.raises(ValueError):
        History(1.0, np.zeros(2))
    with pytest.raises(ValueError):
        History(1.0, np.array([0.0, np.nan, 0.0]))
    # the integrator's own limits: m >= 4, finite samples, finite tau
    with pytest.raises(ValueError, match="substeps"):
        History(1.0, np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        History(1.0, np.array([0.0, 0.0, np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError):
        History(np.inf, np.zeros(5))


def test_integrate_rejects_bad_spans():
    h = make_history(lambda s: 1.0, 1.0, 8)
    with pytest.raises(ValueError):
        integrate(LinearDelayField(0.0, 0.5), h, 1.3)  # not a whole step count
    with pytest.raises(ValueError):
        integrate(LinearDelayField(0.0, 0.5), make_history(lambda s: 1.0, 1.0, 3), 1.0)


# ---------------------------------------------------------------------------
# exact and closed-form solutions


def test_pure_delay_datum_is_integrated_exactly():
    # x' = x(t-1) from the unit-jump datum: constant, then a ramp, then
    # piecewise polynomials that the stencils and the update reproduce
    # exactly up to roundoff.
    tr = integrate(LinearDelayField(0.0, 1.0), fundamental_history(1.0, 512), 4.0)
    m = 512
    assert np.all(tr.x[:m + 1] == 1.0)  # pre-jump reads contribute nothing
    assert tr.x[2 * m] == pytest.approx(2.0, abs=1e-12)
    assert tr.x[-1] == pytest.approx(1.0 + 3.0 + 2.0 + 1.0 / 6.0, abs=1e-10)


def test_fundamental_agreement_with_linear_theory():
    for a, b in [(0.0, 1.0), (-1.0, 0.5), (0.5, -1.0)]:
        tr = integrate(LinearDelayField(a, b), fundamental_history(1.0, 512), 4.0)
        expected = fundamental_solution(LinearDdeParams(a, b, 1.0), tr.times)
        assert np.max(np.abs(tr.x - expected)) < 1e-6


def test_delay_free_reduction_matches_exponential():
    tr = integrate(LinearDelayField(-0.7, 0.0),
                   make_history(lambda s: 1.0, 1.0, 128), 5.0)
    assert np.max(np.abs(tr.x - np.exp(-0.7 * tr.times))) < 1e-10


def test_cosine_solution_over_four_periods():
    # With tau = pi/2 the delayed negative feedback differentiates cosine.
    tau = math.pi / 2
    tr = integrate(LinearDelayField(0.0, -1.0), make_history(np.cos, tau, 256),
                   8 * math.pi)
    assert np.max(np.abs(tr.x - np.cos(tr.times))) < 1e-5


def test_history_offset_start_time():
    # Starting the clock at t0 != 0 shifts everything rigidly.
    f = LinearDelayField(-0.4, 0.3)
    h0 = make_history(lambda s: np.cos(s), 1.0, 32)
    h1 = make_history(lambda s: np.cos(s - 2.5), 1.0, 32, t_now=2.5)
    t_a = integrate(f, h0, 3.0)
    t_b = integrate(f, h1, 3.0)
    assert t_b.times[0] == pytest.approx(2.5)
    np.testing.assert_array_equal(t_a.states, t_b.states)


# ---------------------------------------------------------------------------
# convergence


def test_order_pure_ode():
    order = convergence_order(LinearDelayField(-1.0, 0.0), lambda s: 1.0, 2.0,
                              tau=1.0, m0=8)
    assert abs(order - 4.0) <= 0.3


def test_order_smooth_linear_delay():
    order = convergence_order(LinearDelayField(-1.0, 0.5),
                              lambda s: 2.0 + math.sin(s), 2.0, tau=1.0, m0=16)
    assert order >= 3.5


def test_order_cosine():
    order = convergence_order(LinearDelayField(0.0, -1.0), np.cos, math.pi,
                              tau=math.pi / 2, m0=16)
    assert abs(order - 4.0) <= 0.5


def test_order_tent_field_degrades_but_stays_positive():
    # The fold of the tent drive crosses grid cells at h-dependent spots,
    # so the classical order is lost; the scheme still converges.
    order = convergence_order(TentDelayField(2.0, 3.0), lambda s: 0.7, 3.0,
                              tau=1.0, m0=32)
    assert order >= 1.0


def test_order_refines_history_samples():
    h = make_history(lambda s: 1.0, 1.0, 16)
    order = convergence_order(LinearDelayField(-0.5, 0.25), h, 2.0)
    assert order >= 3.5


def test_order_rejects_noisy_fields_and_missing_tau():
    noisy = AffineCircleDelayField(10.0, 0.5, 0.567,
                                   PiecewiseConstantUniform(0.0, 0.1, 1.0))
    with pytest.raises(ValueError):
        convergence_order(noisy, lambda s: 0.5, 2.0, tau=1.0)
    with pytest.raises(ValueError):
        convergence_order(LinearDelayField(0.0, 0.5), lambda s: 0.5, 2.0)


# ---------------------------------------------------------------------------
# noise


def test_constant_noise_equals_shifted_offset():
    h0 = make_history(lambda s: 0.6, 1.0, 64)
    withnoise = AffineCircleDelayField(
        10.0, 0.5, 0.567, PiecewiseConstantUniform(0.3, 0.3, 1.0))
    shifted = AffineCircleDelayField(10.0, 0.5, 0.867)
    t1 = integrate(withnoise, h0, 8.0, seed=1)
    t2 = integrate(shifted, h0, 8.0)
    assert np.max(np.abs(t1.x - t2.x)) < 1e-12


def test_noisy_runs_reproduce_by_seed():
    f = AffineCircleDelayField(10.0, 0.5, 0.567,
                               PiecewiseConstantUniform(0.0, 0.2, 1.0))
    h0 = make_history(lambda s: 0.6, 1.0, 64)
    a = integrate(f, h0, 20.0, seed=42).x
    b = integrate(f, h0, 20.0, seed=42).x
    c = integrate(f, h0, 20.0, seed=43).x
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_noise_levels_pass_uniformity_check():
    proc = PiecewiseConstantUniform(0.0, 0.2, 1.0)
    # 100 paths over 99 segments of q = 4 steps: 10 000 levels
    table = proc.table(0, 100, 396, 0.25)
    assert np.array_equal(
        table, np.random.default_rng(0).uniform(0.0, 0.2, (100, 100)))
    assert table.min() >= 0.0 and table.max() <= 0.2
    stat = stats.kstest(table.reshape(-1), "uniform", args=(0.0, 0.2))
    assert stat.pvalue > 0.01


def test_segment_clock_counts_whole_steps():
    assert PiecewiseConstantUniform(0.0, 0.2, 1.0).steps_per_segment(
        1.0 / 64.0) == 64
    # 3 * 0.1 is 0.30000000000000004: whole within the grid tolerance
    assert PiecewiseConstantUniform(0.0, 0.2, 0.3).steps_per_segment(0.1) == 3
    for dt, h in [(0.3, 0.25), (0.1, 0.25), (1.0, 0.3)]:
        with pytest.raises(ValueError, match="whole number of steps"):
            PiecewiseConstantUniform(0.0, 0.2, dt).steps_per_segment(h)


def test_off_grid_noise_interval_is_rejected():
    f = AffineCircleDelayField(10.0, 0.5, 0.567,
                               PiecewiseConstantUniform(0.0, 0.2, 0.3))
    samples = np.full((2, 5), 0.5)
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate_batch(f, samples, 1.0, 3.0, noise_table=np.zeros((2, 20)))
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate(f, History(1.0, samples[0]), 3.0, seed=1)


def test_noisy_single_path_bytes_are_pinned():
    # recorded under the affine RK4 update with the end drive reused as the
    # next start drive; a single path reads its levels on the integer clock
    f = AffineCircleDelayField(10.0, 0.5, 0.567,
                               PiecewiseConstantUniform(0.0, 0.2, 0.5))
    tr = integrate(f, make_history(lambda s: 0.6, 1.0, 16), 12.0, seed=42)
    digest = hashlib.sha256(tr.states.tobytes()).hexdigest()
    assert digest == ("df2cd934b01528369f3474364489c50a"
                      "d400a206cfa24cccf2b3e68d4ee5551b")


def test_noise_process_validation():
    with pytest.raises(ValueError):
        PiecewiseConstantUniform(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        PiecewiseConstantUniform(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        PiecewiseConstantUniform(0.0, 1.0, np.inf)


def test_noise_table_shape_is_checked():
    f = AffineCircleDelayField(10.0, 0.5, 0.567,
                               PiecewiseConstantUniform(0.0, 0.2, 1.0))
    samples = np.full((2, 65), 0.5)
    with pytest.raises(ValueError):
        integrate_batch(f, samples, 1.0, 8.0)  # missing table
    with pytest.raises(ValueError):
        integrate_batch(f, samples, 1.0, 8.0, noise_table=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        integrate_batch(LinearDelayField(0.0, 0.5), samples, 1.0, 8.0,
                        noise_table=np.zeros((2, 9)))


# ---------------------------------------------------------------------------
# batching, divergence, trajectories


def test_batch_matches_single_runs_bitwise():
    field = TentDelayField(4.0, 5.0)
    hists = [make_history(lambda s, c=c: c + 0.1 * np.sin(3 * s), 1.0, 64)
             for c in (0.3, 0.55, 0.8)]
    singles = [integrate(field, h, 6.0).states for h in hists]
    nodes = []
    integrate_batch(field, np.stack([h.samples for h in hists]), 1.0, 6.0,
                    observer=lambda k, y: nodes.extend(y.copy()))
    stacked = np.transpose(np.array(nodes), (1, 0, 2))
    for i in range(3):
        assert np.array_equal(stacked[i], singles[i])


def _reference_rhs(field, x, xd, xi):
    """Allocate-per-call right-hand sides, with the np.mod wrap."""
    if isinstance(field, LinearDelayField):
        return field.a * x + field.b * xd
    if isinstance(field, TentDelayField):
        return -field.alpha * x + field.a * np.minimum(xd, 1.0 - xd)
    if isinstance(field, AffineCircleDelayField):
        drive = field.a * xd + field.b
        if xi is not None:
            drive = drive + xi
        return -field.alpha * x + field.alpha * np.mod(drive, 1.0)
    dv = -field.gamma * x[..., 1] + np.sin(
        (2.0 * np.pi * field.beta) * xd[..., 1])
    return np.stack([x[..., 1], dv], axis=-1)


def _reference_drive(field, xd, xi):
    """Allocate-per-call drives D of ``x' = L x + D``, with the np.mod wrap."""
    if isinstance(field, LinearDelayField):
        return field.b * xd
    if isinstance(field, TentDelayField):
        return field.a * np.minimum(xd, 1.0 - xd)
    if isinstance(field, AffineCircleDelayField):
        drive = field.a * xd + field.b
        if xi is not None:
            drive = drive + xi
        return field.alpha * np.mod(drive, 1.0)
    return np.sin((2.0 * np.pi * field.beta) * xd)


def _reference_nodes(field, samples, tau, T, noise_table=None, *,
                     affine=False):
    """Allocate-per-step method-of-steps RK4; the states at every node.

    By default the four stages of classical RK4, an oracle that knows
    nothing of the affine form.  With ``affine`` the step is the update
    ``y+ = P y + c0 D0 + cm Dm + c1 D1`` from L and freshly evaluated
    drives (``D0`` too, at every step); the stepper must reproduce that
    bit for bit: same stencils, same noise segments, same operand order.
    """
    arr = samples[:, :, None] if samples.ndim == 2 else samples
    nb, m, d = arr.shape[0], arr.shape[1] - 1, arr.shape[2]
    h, size = tau / m, m + 4
    if isinstance(field, LinearDelayField):
        L = np.array([[field.a]])
    elif isinstance(field, SineFeedbackField):
        L = np.array([[0.0, 1.0], [0.0, -field.gamma]])
    else:
        L = np.array([[-field.alpha]])
    z, eye = h * L, np.eye(d)
    P = eye + z + z @ z / 2.0 + z @ z @ z / 6.0 + z @ z @ z @ z / 24.0
    c0 = (h / 6.0) * (eye + z + z @ z / 2.0 + z @ z @ z / 4.0)[:, -1]
    cm = (h / 6.0) * (4.0 * eye + 2.0 * z + z @ z / 2.0)[:, -1]
    c1 = (h / 6.0) * eye[:, -1]
    ring = np.empty((size, nb, d))
    for i in range(m + 1):
        ring[i] = arr[:, i]
    y = ring[m].copy()
    nodes = [y]
    noise = getattr(field, "noise", None)
    for n in range(int(round(T / h))):
        j = n - m
        xd0 = ring[(j + m) % size]
        if j + 1 == 0:
            xd1 = (_NODE_EXTRAP[0] * ring[m - 4] + _NODE_EXTRAP[1] * ring[m - 3]
                   + _NODE_EXTRAP[2] * ring[m - 2]
                   + _NODE_EXTRAP[3] * ring[m - 1])
        else:
            xd1 = ring[(j + 1 + m) % size]
        w, base = _mid_stencil(j, m)
        b = [ring[(base + i + m) % size] for i in range(4)]
        xdm = w[0] * b[0] + w[1] * b[1] + w[2] * b[2] + w[3] * b[3]
        xi0 = xim = xi1 = None
        if noise is not None:
            seg_dt, rel = noise.resample_interval, n * h
            xi0 = noise_table[:, int(rel / seg_dt + 1e-9)][:, None]
            xim = noise_table[:, int((rel + 0.5 * h) / seg_dt + 1e-9)][:, None]
            xi1 = noise_table[:, int((rel + h) / seg_dt + 1e-9)][:, None]
        if affine:
            # the drive reads and moves the last component only
            D0, Dm, D1 = (_reference_drive(field, xd[:, -1:], xi)
                          for xd, xi in ((xd0, xi0), (xdm, xim), (xd1, xi1)))
            Py = sum(P[:, k] * y[:, k:k + 1] for k in range(d))
            y = Py + c0 * D0 + cm * Dm + c1 * D1
        else:
            k1 = _reference_rhs(field, y, xd0, xi0)
            k2 = _reference_rhs(field, y + (0.5 * h) * k1, xdm, xim)
            k3 = _reference_rhs(field, y + (0.5 * h) * k2, xdm, xim)
            k4 = _reference_rhs(field, y + h * k3, xd1, xi1)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        ring[(n + 1 + m) % size] = y
        nodes.append(y)
    return nodes


def _reference_case(name, m, rng):
    """(field, samples, noise table) for one bitwise-reference case."""
    circle = (10.0, 0.5, 0.567)
    if name == "tent":
        return (TentDelayField(10.0, 13.0),
                rng.uniform(0.0, 1.0, (5, m + 1)), None)
    if name == "linear-jump":
        jump = fundamental_history(1.0, m).samples
        return (LinearDelayField(-0.5, -1.7),
                np.stack([c * jump for c in (1.0, -0.3, 2.5)]), None)
    if name == "circle":
        return (AffineCircleDelayField(*circle),
                rng.uniform(0.0, 1.0, (5, m + 1)), None)
    if name.startswith("circle-noise"):
        # one or two steps per segment at m = 4 (16 or 32 at m = 64): a
        # new level at every step end, or at every other one
        noise = PiecewiseConstantUniform(
            0.0, 0.2, 0.5 if name == "circle-noise-q2" else 0.25)
        return (AffineCircleDelayField(*circle, noise=noise),
                rng.uniform(0.0, 1.0, (5, m + 1)),
                rng.uniform(0.0, 0.2, (5, 13)))
    return (SineFeedbackField(1.0, 10.0),
            rng.uniform(-0.5, 0.5, (4, m + 1, 2)), None)


_CASES = ["tent", "linear-jump", "circle", "circle-noise", "circle-noise-q2",
          "sine-feedback"]


def _stepper_nodes(field, samples, T, table):
    """The stepper's states at every node, and each window's (k0, W)."""
    nodes, windows = [], []

    def obs(k0, ys):
        assert k0 == len(nodes)
        assert ys.shape[1:] == (len(samples), state_dim(field))
        nodes.extend(ys.copy())
        windows.append((k0, len(ys)))

    final = integrate_batch(field, samples, 1.0, T, noise_table=table,
                            observer=obs)
    assert np.array_equal(final, nodes[-1])
    return nodes, windows[1:]


@pytest.mark.parametrize("m", [4, 5, 64])
@pytest.mark.parametrize("name", _CASES)
def test_stepper_matches_allocating_reference_bitwise(name, m, monkeypatch):
    field, samples, table = _reference_case(name, m, np.random.default_rng(m))
    if table is not None:
        if m % 4:  # one or two steps per segment, as at m = 4
            noise = field.noise
            field = dataclasses.replace(field, noise=dataclasses.replace(
                noise, resample_interval=noise.resample_interval * 4 / m))
        table = np.random.default_rng(m + 1).uniform(0.0, 0.2, (5, 12 * m + 1))
    want = _reference_nodes(field, samples, 1.0, 12.0, table, affine=True)

    def wraps(k, count):
        """Whether nodes k .. k + count - 1 run across the end of the m + 4
        slot ring, where node k sits in slot (k + m) % (m + 4)."""
        return (k + m) % (m + 4) + count > m + 4

    for width in sorted({1, min(3, m - 2), m - 2}):
        # a slab budget of `width` rows per path
        monkeypatch.setattr(dde, "_SLAB", width * len(samples))
        nodes, windows = _stepper_nodes(field, samples, 12.0, table)
        assert len(nodes) == len(want) == 12 * m + 1
        for got, ref in zip(nodes, want):
            assert np.array_equal(got, ref)
        # the special steps n <= 2m + 1 (writing nodes up to 2m + 2) go one
        # at a time; later windows are full but for the last
        assert all(w == 1 for k0, w in windows if k0 <= 2 * m + 2)
        later = [w for k0, w in windows if k0 > 2 * m + 2]
        assert set(later[:-1]) == {width}
        # windows whose W written nodes from k0, or the W + 3 nodes their
        # mid-stencils read from k0 - m - 2, wrap the ring
        assert sum(wraps(k0, w) or wraps(k0 - m - 2, w + 3)
                   for k0, w in windows if w > 1) >= (3 if width > 1 else 0)


@pytest.mark.parametrize("name", ["circle-noise", "sine-feedback"])
def test_row_split_with_different_windows_gives_the_whole_block(name):
    # at m = 64 and the default slab the whole block steps one node at a
    # time, and its parts step 62, 40, 23 and 1 nodes per window
    cuts = [0, 100, 500, 1200, 9600]
    sizes = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
    assert [min(62, dde._SLAB // b) for b in sizes + [9600]] \
        == [62, 40, 23, 1, 1]
    rng = np.random.default_rng(64)
    field = _reference_case(name, 64, rng)[0]
    if name == "sine-feedback":
        samples, table = rng.uniform(-0.5, 0.5, (9600, 65, 2)), None
    else:  # 16 steps per level, so the long windows gather levels
        samples = rng.uniform(0.0, 1.0, (9600, 65))
        table = rng.uniform(0.0, 0.2, (9600, 25))
    whole = integrate_batch(field, samples, 1.0, 6.0, noise_table=table)
    parts = [integrate_batch(field, samples[lo:hi], 1.0, 6.0,
                             noise_table=None if table is None
                             else table[lo:hi])
             for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(parts), whole)


def test_window_buffers_stay_cache_sized_at_the_brownian_shape():
    # 500 paths of the sine feedback at m = 32 step 30 nodes per window:
    # the ring and its mirror, eight (30, 500) slabs and the state slab,
    # about 1.5 MiB
    samples = np.zeros((500, 33, 2))
    tracemalloc.start()
    try:
        integrate_batch(SineFeedbackField(1.0, 10.0), samples, 1.0, 4.0)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 2.0, peak


# Classical RK4 and its affine form are the same method, so over a couple
# of delays they part by rounding alone (measured up to 1.2e-12 relative,
# on the sine feedback; later, chaos amplifies it).
_STAGE_FORM_RTOL = 1e-11


def _assert_stage_form(field, samples, table, m):
    got = np.array(_stepper_nodes(field, samples, 2.0, table)[0])
    want = np.array(_reference_nodes(field, samples, 1.0, 2.0, table))
    assert got.shape == want.shape == (2 * m + 1,) + want.shape[1:]
    assert np.abs(got - want).max() <= _STAGE_FORM_RTOL * np.abs(want).max()


@pytest.mark.parametrize("m", [4, 64])
@pytest.mark.parametrize("name", _CASES)
def test_stepper_matches_stage_form_over_two_delays(name, m):
    field, samples, table = _reference_case(name, m, np.random.default_rng(m))
    _assert_stage_form(field, samples, table, m)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(_CASES), m=st.integers(4, 16),
       rows=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_affine_step_matches_stage_form_property(name, m, rows, seed):
    # the noise cases resample every m/4 or m/2 steps
    assume(not name.startswith("circle-noise") or m % 4 == 0)
    field, samples, table = _reference_case(
        name, m, np.random.default_rng(seed))
    _assert_stage_form(field, samples[:rows],
                       None if table is None else table[:rows], m)


def test_batch_final_states_match_observer_tail():
    field = LinearDelayField(-0.3, 0.2)
    samples = np.vstack([np.linspace(0.2, 0.8, 17), np.full(17, 0.5)])
    last = {}
    final = integrate_batch(field, samples, 1.0, 2.0,
                            observer=lambda k, y: last.update(y=y[-1].copy()))
    np.testing.assert_array_equal(final, last["y"])
    assert final.shape == (2, 1)


def test_divergence_raises_with_time_and_index():
    field = LinearDelayField(50.0, 0.0)
    h = make_history(lambda s: 1.0, 1.0, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            integrate(field, h, 40.0)
    assert 0.0 < err.value.time <= 40.0
    assert err.value.index == 0
    assert "non-finite" in str(err.value)


def test_divergence_mid_window_reports_the_reference_step():
    # x' = 50 x grows about 2**7 a step at m = 8, so the row started at
    # 1e20 overflows first, at a node inside a window of 6
    field = LinearDelayField(50.0, 0.0)
    samples = np.array([1.0, 3.0, 1e20, 2.0])[:, None] * np.ones(9)
    windows = []

    def obs(k0, ys):
        assert np.isfinite(ys).all()
        windows.append((k0, len(ys)))

    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_nodes(field, samples, 1.0, 40.0, affine=True)
        with pytest.raises(DivergenceError) as err:
            integrate_batch(field, samples, 1.0, 40.0, observer=obs)
    k = next(k for k, y in enumerate(want) if not np.isfinite(y).all())
    row = int(np.flatnonzero(~np.isfinite(want[k]).all(axis=1))[0])
    assert err.value.time == 0.0 + k * (1.0 / 8)
    assert err.value.index == row == 2
    # the failing window starts after the last observed one, before node k
    k0, w = windows[-1]
    assert k0 + w < k


def test_sine_feedback_velocity_stays_bounded():
    # |v'| <= -gamma v + 1, so |v| can never overshoot max(|v0|, 1/gamma).
    f = SineFeedbackField(1.0, 1.0)
    h = make_history(lambda s: np.array([0.0, 0.2]), 1.0, 32)
    tr = integrate(f, h, 40.0)
    assert np.abs(tr.v).max() <= 1.0 + 1e-9
    # position is the integral of velocity
    cd = (tr.x[2:] - tr.x[:-2]) / (2 * tr.step) - tr.v[1:-1]
    assert np.abs(cd).max() < 5e-3


def test_trajectory_csv_round_trip(tmp_path):
    tr = integrate(LinearDelayField(-0.4, 0.1),
                   make_history(lambda s: 1.0 + s, 1.0, 16), 2.0)
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    header, cols = read_csv(path)
    assert header == ["t", "x"]
    np.testing.assert_array_equal(cols[0], tr.times)
    np.testing.assert_array_equal(cols[1], tr.x)


def test_vector_trajectory_csv_has_velocity_column(tmp_path):
    tr = integrate(SineFeedbackField(1.0, 2.0),
                   make_history(lambda s: np.array([0.0, 0.1]), 1.0, 16), 2.0)
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    header, cols = read_csv(path)
    assert header == ["t", "x", "v"]
    np.testing.assert_array_equal(cols[2], tr.v)


def test_trajectory_accessors():
    tr = Trajectory(0.0, 0.5, np.array([1.0, 2.0, 3.0]))
    assert tr.states.shape == (3, 1)
    np.testing.assert_allclose(tr.times, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        tr.v


# ---------------------------------------------------------------------------
# properties


_WRAP_EDGES = [0.0, -0.0, 1e-300, -1e-300, -1e-20, 1.0, -1.0, 3.0, -7.0,
               2.0 ** 53, -(2.0 ** 60), np.nextafter(1.0, 0.0),
               -np.nextafter(1.0, 0.0)]


@settings(max_examples=1000, deadline=None)
@given(x=st.one_of(st.sampled_from(_WRAP_EDGES),
                   st.floats(allow_nan=False, allow_infinity=False)))
def test_floor_wrap_equals_mod_in_value_and_sign(x):
    got = np.float64(x) - np.floor(np.float64(x))
    want = np.mod(np.float64(x), 1.0)
    assert got == want
    assert np.signbit(got) == np.signbit(want)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-1.2, 0.8), b=st.floats(-1.2, 1.2),
       c=st.floats(0.1, 3.0))
def test_linear_integration_is_linear_in_the_datum(a, b, c):
    field = LinearDelayField(a, b)
    base = make_history(lambda s: math.sin(s) + 0.3, 1.0, 16)
    scaled = History(1.0, c * base.samples, 0.0)
    x1 = integrate(field, base, 2.0).x
    x2 = integrate(field, scaled, 2.0).x
    np.testing.assert_allclose(c * x1, x2, rtol=1e-10, atol=1e-12)
