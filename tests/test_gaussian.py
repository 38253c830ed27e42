"""Tests for the linear-delay Gaussian propagation machinery."""
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab.errors import DegenerateCovarianceError, KernelPositivityError
from ddlab.gaussian.linear import MAX_HORIZON_DELAYS
from ddlab.gaussian.stability import _bisect, _kappa_root, _lambertw0
from ddlab.gaussian import (CosineKernel, CovKernel, DegenerateCosineKernel,
                            GaussianState, LinearDdeParams,
                            ProductSeparableKernel, ShiftedWienerKernel,
                            TabulatedKernel,
                            fundamental_solution, gaussian_path_slabs,
                            hayes_stable, joint_density,
                            lag_cov_curve, marginal_density, propagate_state,
                            rightmost_root, sample_gaussian_paths,
                            sigma2_curve, wiener_closed_form)
from ddlab.gaussian import covariance
from ddlab.gaussian.covariance import sigma2_grid
from ddlab.quadrature import PANEL_ORDER, panel_gauss, panel_tails
from ddlab.tabular import read_csv

from covariance_reference import (adaptive_simpson, conditional_mean_check,
                                  fundamental_prefix, r_t)

P01 = LinearDdeParams(a=0.0, b=-1.0, tau=1.0)
WIENER = ShiftedWienerKernel(1.0)
COSINE = CosineKernel()


# ---------------------------------------------------------------------------
# fundamental solution


def test_fundamental_solution_at_zero_is_one():
    assert fundamental_solution(P01, 0.0) == 1.0
    assert fundamental_solution(LinearDdeParams(2.0, 3.0, 0.5), 0.0) == 1.0


def test_fundamental_solution_vanishes_for_negative_time():
    assert fundamental_solution(P01, -0.3) == 0.0
    np.testing.assert_array_equal(
        fundamental_solution(P01, np.array([-2.0, -0.1])), [0.0, 0.0])
    # far below -tau too, while the same call builds nodes out to 45 tau
    x = fundamental_solution(LinearDdeParams(-2.0, -2.0, 1.0),
                             [-math.inf, -1e308, -0.5, 45.0])
    assert list(x[:3]) == [0.0, 0.0, 0.0] and np.isfinite(x[3])


def test_fundamental_solution_pure_delay_ramp():
    # a=0, b=1: X(t) = 1 on [0,1), 1 + (t-1) on [1,2), so X(2) = 2
    p = LinearDdeParams(a=0.0, b=1.0, tau=1.0)
    assert fundamental_solution(p, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert fundamental_solution(p, 1.5) == pytest.approx(1.5, abs=1e-14)


def test_fundamental_solution_delay_free_exponential():
    p = LinearDdeParams(a=-1.0, b=0.0, tau=1.0)
    assert fundamental_solution(p, 3.0) == pytest.approx(math.exp(-3.0),
                                                         rel=1e-14)


def test_fundamental_solution_matches_series_by_panel_integration():
    # X'(t) = a X(t) + b X(t - tau): integrate the delay term numerically
    # one interval at a time and compare at the right endpoint.
    p = LinearDdeParams(a=0.4, b=-0.9, tau=1.0)
    for t_end in (0.7, 1.3, 2.6, 3.9):
        # Picard form: X(t) = e^{at} + b * int_0^t e^{a(t-s)} X(s-tau) ds
        val = math.exp(p.a * t_end) + p.b * adaptive_simpson(
            lambda s: np.exp(p.a * (t_end - s))
            * fundamental_solution(p, s - p.tau),
            0.0, t_end, tol=1e-12,
            breakpoints=[k * p.tau for k in range(1, int(t_end / p.tau) + 1)])
        assert fundamental_solution(p, t_end) == pytest.approx(val, abs=1e-10)


def test_fundamental_prefix_is_running_integral():
    p = LinearDdeParams(a=-0.3, b=0.8, tau=1.0)
    for z in (0.4, 1.0, 2.7):
        direct = adaptive_simpson(
            lambda s: fundamental_solution(p, s), 0.0, z, tol=1e-12,
            breakpoints=[1.0, 2.0])
        assert fundamental_prefix(p, z) == pytest.approx(direct, abs=1e-10)
    assert fundamental_prefix(p, -0.5) == 0.0


def test_fundamental_solution_horizon_cap():
    with pytest.raises(ValueError):
        fundamental_solution(P01, 51.0)
    # NaN fails the same named check, not a float-to-int cast further in
    for call in (lambda: fundamental_solution(P01, math.nan),
                 lambda: fundamental_prefix(P01, math.nan),
                 lambda: lag_cov_curve(WIENER, P01, [0.5, math.nan])):
        with pytest.raises(ValueError, match="capped at t <= 50.0 tau"):
            call()


def _exact_x(b, tau, t):
    # at a = 0 every term of the closed form b^k (t - k tau)^k / k! is rational
    b, tau, t = Fraction(b), Fraction(tau), Fraction(t)
    return sum((b ** k * (t - k * tau) ** k / math.factorial(k)
                for k in range(math.floor(t / tau) + 1)), Fraction(0))


@pytest.mark.parametrize("b, tau", [(-1.0, 1.0), (-2.0, 1.0), (-0.5, 2.0),
                                    (1.0, 1.0), (-3.0, 0.5)])
def test_fundamental_solution_is_exact_to_the_horizon(b, tau):
    # X from 0 to the last delay the horizon cap allows, held to the exact
    # rational sum; for b < 0 that sum's terms grow to 1e11 and more while
    # X decays, so only a well-conditioned evaluation keeps relative accuracy
    p = LinearDdeParams(0.0, b, tau)
    t = np.linspace(0.0, MAX_HORIZON_DELAYS * tau, 201)
    x = fundamental_solution(p, t)
    for ti, xi in zip(t, x):
        exact = _exact_x(b, tau, ti)
        if exact == 0:
            assert abs(xi) <= 1e-16, ti
        else:
            assert abs(Fraction(xi) - exact) <= 1e-12 * abs(exact), ti


def _log_abs(q):
    return math.log(abs(q.numerator)) - math.log(q.denominator)


def test_fundamental_solution_with_strong_decay_stays_finite():
    # X = e^{a t} y with y' = b' y(t - tau), b' = b e^{-a tau}; at a = -20
    # y reaches 1e369 by 50 tau while X is about 1e-63, so X may only be
    # compared in the log domain.  The reference carries the rounding of
    # e^{-a tau} and of a t + log|y| (about 1e-13), hence the 1e-11 bound,
    # scaled by the summed term magnitudes because X changes sign
    a, b, tau = -20.0, -1.0, 1.0
    t = np.linspace(0.0, MAX_HORIZON_DELAYS * tau, 201)
    x = fundamental_solution(LinearDdeParams(a, b, tau), t)
    assert np.all(np.isfinite(x))
    bp = Fraction(b) * Fraction(math.exp(-a * tau))
    for ti, xi in zip(t, x):
        terms = [bp ** k * (Fraction(ti) - k * Fraction(tau)) ** k
                 / math.factorial(k) for k in range(math.floor(ti / tau) + 1)]
        y = sum(terms, Fraction(0))
        exact = math.exp(a * ti + _log_abs(y)) * (1 if y > 0 else -1)
        scale = math.exp(a * ti + _log_abs(sum(map(abs, terms))))
        assert abs(xi - exact) <= 1e-11 * scale, ti


def _exact_z(b, tau, t):
    # at a = 0 Z is the rational sum b^k (t - k tau)^{k+1} / (k+1)!
    b, tau, t = Fraction(b), Fraction(tau), Fraction(t)
    return sum((b ** k * (t - k * tau) ** (k + 1) / math.factorial(k + 1)
                for k in range(math.floor(t / tau) + 1)), Fraction(0))


@pytest.mark.parametrize("b, tau", [(-1.0, 1.0), (-2.0, 1.0), (-0.5, 2.0),
                                    (1.0, 1.0), (-3.0, 0.5)])
def test_fundamental_prefix_is_exact_to_the_horizon(b, tau):
    # Z(4) = 0 exactly for b = -2, tau = 1, and Z(0) = 0 for every set
    p = LinearDdeParams(0.0, b, tau)
    t = np.linspace(0.0, MAX_HORIZON_DELAYS * tau, 201)
    z = fundamental_prefix(p, t)
    for ti, zi in zip(t, z):
        exact = _exact_z(b, tau, ti)
        if exact == 0:
            assert abs(zi) <= 1e-15, ti
        else:
            assert abs(Fraction(zi) - exact) <= 1e-12 * abs(exact), ti


# a != 0: near zero both ways, moderate and large positive a tau (at 12
# the recursion phi_{j-1} = (e^z - z phi_j) / j, which subtracts for
# z > 0, misses this bound by 5x), a tau = -20 (on both sides of the
# switch in phi's starting value) and past e^{-a tau}'s overflow at -800
_GENERAL_A = [(1e-8, -1.0, 1.0), (-1e-8, -1.0, 1.0), (0.4, -0.8, 1.0),
              (3.0, -1.0, 1.0), (12.0, -1.0, 1.0), (-20.0, -1.0, 1.0),
              (1.5, -3.0, 0.5), (-800.0, -1.0, 1.0)]


@pytest.mark.parametrize("a, b, tau", _GENERAL_A)
def test_fundamental_prefix_integrates_the_equation(a, b, tau):
    # X(t) - 1 = a Z(t) + b Z(t - tau), each side scaled by its terms
    p = LinearDdeParams(a, b, tau)
    t = np.linspace(0.0, MAX_HORIZON_DELAYS * tau, 201)
    x = fundamental_solution(p, t)
    z = fundamental_prefix(p, t)
    z_lag = fundamental_prefix(p, t - tau)
    scale = np.abs(x) + 1.0 + np.abs(a * z) + np.abs(b * z_lag)
    assert np.all(np.isfinite(z))
    assert np.all(np.abs(x - 1.0 - a * z - b * z_lag) <= 1e-14 * scale)


# Z at 50 tau (i + 0.618) / 12, i < 12, from the 256-nodes-per-delay table
# of 8-point Gauss panels (and an 8-point tail) that the method of steps
# replaced
_TABLE_Z = {
    (1e-08, -1.0, 1.0): [
        1.3663724160998194, 1.111840666282917, 1.0191437135342802,
        0.9998114446149611, 0.9985730765830787, 0.9994390427079821,
        0.9998749506241132, 0.9999892689643927, 1.000004513146569,
        1.0000025803454278, 1.0000007266415074, 1.0000001170161141],
    (-1e-08, -1.0, 1.0): [
        1.3663723755668464, 1.111840641003342, 1.019143694946907,
        0.9998114260883181, 0.9985730571431655, 0.9994390228187393,
        0.9998749306201522, 0.99998924895211, 1.0000044931413878,
        1.0000025603442042, 1.0000007066414154, 1.0000000970161784],
    (0.4, -0.8, 1.0): [
        3.0003639374700577, 2.3110201478743813, 2.5542549732797406,
        2.4869450186838606, 2.502652576210699, 2.499574077426883,
        2.5000374279532256, 2.50000744239698, 2.499994683522159,
        2.5000018956675305, 2.4999994722634646, 2.5000001237873093],
    (3.0, -1.0, 1.0): [
        707.7700470008573, 152732521.11330703, 32935673437077.402,
        7.102341880403971e+18, 1.5315691140340413e+24, 3.302719005311543e+29,
        7.122076782624136e+34, 1.5358248042300227e+40, 3.3118960961539986e+45,
        7.141866521174621e+50, 1.5400923194875255e+56, 3.3210986868939196e+61],
    (-20.0, -1.0, 1.0): [
        0.047624900440175484, 0.04761904764962491, 0.04761904761904777,
        0.04761904761904785, 0.04761904761904785, 0.04761904761904785,
        0.04761904761904785, 0.04761904761904785, 0.04761904761904785,
        0.04761904761904785, 0.04761904761904785, 0.04761904761904785],
    (1.5, -3.0, 0.5): [
        1.8607196013851275, 1.0603534953156732, -5.520261965073921,
        1.8248282094415842, 31.09930089595274, -20.545587384959497,
        -141.17294560499693, 178.81922565735863, 621.6121081104972,
        -1206.8591744827263, -2501.2428363800605, 7321.26642710114],
}


@pytest.mark.parametrize("a, b, tau", list(_TABLE_Z))
def test_fundamental_prefix_matches_the_panel_table(a, b, tau):
    t = 50.0 * tau * (np.arange(12) + 0.618) / 12
    z = fundamental_prefix(LinearDdeParams(a, b, tau), t)
    want = np.array(_TABLE_Z[(a, b, tau)])
    assert np.all(np.abs(z - want) <= 1e-12 * np.abs(want))


# ---------------------------------------------------------------------------
# covariance regimes


def test_history_regime_returns_initial_kernel():
    # t <= -s2 keeps both arguments inside the history window
    assert r_t(WIENER, P01, 0.2, -0.9, -0.5) == pytest.approx(
        0.2 - 0.9 + 1.0, abs=1e-14)
    assert r_t(COSINE, P01, 0.0, -0.8, -0.1) == pytest.approx(
        math.cos(0.7), rel=1e-14)


def test_symmetry_is_exact():
    for t in (0.1, 0.8, 2.3):
        a = r_t(WIENER, P01, t, -0.7, -0.2)
        b = r_t(WIENER, P01, t, -0.2, -0.7)
        assert a == b


@pytest.mark.parametrize("kernel", [WIENER, COSINE, DegenerateCosineKernel()],
                         ids=["wiener", "cosine", "degenerate-cosine"])
def test_regime_continuity(kernel):
    rng = np.random.default_rng(42)
    p = LinearDdeParams(a=0.4, b=-0.8, tau=1.0)
    for _ in range(6):
        s1, s2 = np.sort(rng.uniform(-1.0, 0.0, 2))
        for boundary in (-s2, -s1):
            if boundary <= 1e-6:
                continue
            below = r_t(kernel, p, boundary - 1e-9, s1, s2)
            above = r_t(kernel, p, boundary + 1e-9, s1, s2)
            assert abs(above - below) < 1e-8


def test_wiener_history_regime_display():
    # t + s1 + tau for t <= -s2
    assert r_t(WIENER, P01, 0.3, -0.8, -0.4) == pytest.approx(0.5, abs=1e-14)


def test_wiener_straddle_regime_a0_display():
    # t+s1+tau + (b/2)(t+s2)^2 for -s2 < t <= -s1, a = 0
    t, s1, s2 = 0.6, -0.8, -0.4
    want = t + s1 + 1.0 + (-1.0 / 2.0) * (t + s2) ** 2
    assert r_t(WIENER, P01, t, s1, s2) == pytest.approx(want, abs=1e-10)


def test_wiener_straddle_regime_general_a_display():
    # e^{a(t+s2)}(t+s1+tau) + (b/a^2)(e^{a(t+s2)} - 1 - a(t+s2))
    p = LinearDdeParams(a=0.5, b=-1.0, tau=1.0)
    t, s1, s2 = 0.6, -0.8, -0.4
    B = t + s2
    want = math.exp(p.a * B) * (t + s1 + 1.0) + (p.b / p.a ** 2) * (
        math.exp(p.a * B) - 1.0 - p.a * B)
    assert r_t(WIENER, p, t, s1, s2) == pytest.approx(want, abs=1e-10)


def test_wiener_evolved_regime_general_a_display():
    # the four-term closed form for -s1 < t <= tau - s2
    p = LinearDdeParams(a=0.5, b=-1.0, tau=1.0)
    t, s1, s2 = 0.9, -0.8, -0.4
    A, B, tau = t + s1, t + s2, 1.0
    ea1 = math.exp(p.a * A)
    ea2 = math.exp(p.a * B)
    want = (math.exp(p.a * (2 * t + s1 + s2)) * tau
            + (p.b / p.a ** 2) * ea1 * (ea2 - 1.0 - p.a * B)
            + (p.b / p.a ** 2) * (ea2 - p.b / p.a) * (ea1 - 1.0 - p.a * A)
            + (p.b ** 2 / (2 * p.a ** 3)) * math.exp(p.a * (s2 - s1))
            * (ea1 - 1.0) ** 2)
    assert r_t(WIENER, p, t, s1, s2) == pytest.approx(want, abs=1e-9)


def test_cosine_kernel_is_invariant_at_quarter_period_delay():
    p = LinearDdeParams(a=0.0, b=-1.0, tau=math.pi / 2)
    rng = np.random.default_rng(3)
    for _ in range(8):
        s1, s2 = np.sort(rng.uniform(-math.pi / 2, 0.0, 2))
        t = rng.uniform(0.0, 5.0)
        assert r_t(COSINE, p, t, s1, s2) == pytest.approx(
            math.cos(s2 - s1), abs=1e-10)


_G9 = np.linspace(-1.0, 0.0, 9)
_KERNELS = {
    "wiener": WIENER,
    "cosine": COSINE,
    "degenerate-cosine": DegenerateCosineKernel(),
    "product": ProductSeparableKernel(lambda s: s + 1.0,
                                      lambda s: np.exp(0.3 * s), 1.0),
    "tabulated": TabulatedKernel(np.cos(_G9[:, None] - _G9[None, :]), 1.0),
}


def test_lag_cov_curve_matches_pointwise_evaluation():
    # tau and 2 tau put delay knots on the ends of the windows.  Every
    # kernel's curve integrates its evolved factors, and the adaptive
    # reference integrates the kernel itself
    ts = np.sort(np.append(np.linspace(0.0, 3.0, 11), [1.0, 2.0]))
    for kernel in _KERNELS.values():
        for p in (P01, LinearDdeParams(0.4, -0.8, 1.0)):
            curve = lag_cov_curve(kernel, p, ts)
            pointwise = [r_t(kernel, p, float(t), -1.0, 0.0) for t in ts]
            np.testing.assert_allclose(curve, pointwise, atol=1e-10)


# (t, s1, s2): both in the history, straddling (also from the window's
# left end), both evolved, and evolved past a delay knot of each time
_READS = [(0.2, -0.9, -0.5), (0.0, -0.8, 0.0), (0.6, -0.8, -0.4),
          (0.7, -1.0, 0.0), (0.9, -0.8, -0.4), (1.0, -0.3, -0.3),
          (1.7, 0.0, 0.0), (2.5, -0.7, -0.1)]


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_reads_match_the_adaptive_reference(name):
    # r_t is one read of the batched evaluator, and propagate_state one
    # read of three entries; both agree with the independent adaptive
    # quadrature of the kernel
    kernel = _KERNELS[name]
    for p in (P01, LinearDdeParams(0.4, -0.8, 1.0)):
        for t, s1, s2 in _READS:
            assert covariance.r_t(kernel, p, t, s1, s2) == pytest.approx(
                r_t(kernel, p, t, s1, s2), abs=1e-10)
        for t in (0.4, 1.3):
            state = propagate_state(kernel, p, t)
            assert state.sigma2_t == pytest.approx(
                r_t(kernel, p, t, 0.0, 0.0), abs=1e-10)
            assert state.cross == pytest.approx(
                r_t(kernel, p, t, -1.0, 0.0), abs=1e-10)
            assert state.sigma2_lag == pytest.approx(
                r_t(kernel, p, t, -1.0, -1.0), abs=1e-10)


def test_tabulated_factors_reproduce_the_interpolant():
    # the hats' factors sum back to the bilinear table, also off the grid
    tab = _KERNELS["tabulated"]
    s = np.linspace(-1.0, 0.0, 41)
    factors = np.stack([f(s) for f in tab.separable_terms()])
    np.testing.assert_allclose(factors.T @ factors,
                               tab.value(s[:, None], s[None, :]),
                               rtol=0.0, atol=1e-14)


def test_panel_rule_is_numpys_gauss_legendre():
    # the rule is stored so that no run imports numpy.polynomial
    from ddlab import quadrature
    x, w = np.polynomial.legendre.leggauss(quadrature.PANEL_ORDER)
    assert np.array_equal(quadrature._NODES, x)
    assert np.array_equal(quadrature._WEIGHTS, w)


def _panel_nodes_seen(edges):
    """The nodes `panel_gauss` hands its integrand for ``edges``."""
    seen = []
    panel_gauss(lambda q: seen.append(q) or q, edges)
    return seen[0]


def test_panel_tails_match_adaptive_integrals():
    # the running integral from each node to the last edge, on panels of
    # two rows with different edges, one row padded by a zero-width panel;
    # then the product kernel's slope X(c - r - tau) v(r), whose running
    # integral its evolved factor holds, on panels split at each row's
    # delay knots c - k tau
    p = LinearDdeParams(0.4, -0.8, 1.0)
    c = np.array([2.6, 3.35])
    v = _KERNELS["product"].v

    def smooth(r):
        return np.exp(0.7 * r) * np.cos(3.0 * r)

    smooth_edges = np.array([[-1.0, -0.6, 0.0, 0.0], [-1.0, -0.5, -0.2, 0.0]])
    slope_edges = covariance._panel_edges(
        np.full(2, -1.0), np.zeros(2), covariance._delay_knots(p, c))
    np.testing.assert_allclose(slope_edges, [[-1.0, -0.4, 0.0],
                                             [-1.0, -0.65, 0.0]])
    for f, rows, edges in (
            (smooth, (smooth, smooth), smooth_edges),
            (lambda r: fundamental_solution(p, c[:, None, None] - r - 1.0)
             * v(r),
             [lambda r, ci=ci: fundamental_solution(p, ci - r - 1.0) * v(r)
              for ci in c], slope_edges)):
        tails, after = panel_tails(f, edges)
        nodes = _panel_nodes_seen(edges)
        for fi, e, row_nodes, tail, rest in zip(rows, edges, nodes, tails,
                                                after):
            for node, t in zip(row_nodes.ravel(), tail.ravel()):
                assert t == pytest.approx(adaptive_simpson(
                    fi, node, 0.0, tol=1e-14, breakpoints=e), abs=1e-14)
            for edge, r in zip(e, rest):
                assert r == pytest.approx(adaptive_simpson(
                    fi, edge, 0.0, tol=1e-14, breakpoints=e), abs=1e-14)
    # within its own panel every node reads a polynomial of degree < 24
    # exactly: x^k integrates to (hi^{k+1} - x^{k+1}) / (k + 1)
    nodes = _panel_nodes_seen(smooth_edges)
    hi = smooth_edges[:, 1:, None]
    for k in range(PANEL_ORDER):
        tails, after = panel_tails(lambda r: r ** k, smooth_edges)
        exact = (hi ** (k + 1) - nodes ** (k + 1)) / (k + 1)
        assert np.abs(tails - after[:, 1:, None] - exact).max() <= 1e-15, k


def test_lag_cov_curve_matches_tight_pointwise_evaluation_late():
    # past 30 tau both sides are below r_t's default absolute tolerance,
    # so r_t runs at 1e-16.  The cosine kernel agrees to 1e-10 relative;
    # the Wiener reference integrates differences of nearly equal values
    # of X's running integral Z, which limit its relative agreement, so it
    # is also held to 1e-16 absolute
    times = [35.0, 45.0, 50.0]
    for kernel, rel, abs_ in ((COSINE, 1e-10, 0.0), (WIENER, 1e-3, 1e-16)):
        curve = lag_cov_curve(kernel, P01, times)
        tight = [r_t(kernel, P01, t, -1.0, 0.0, tol=1e-16) for t in times]
        np.testing.assert_allclose(curve, tight, rtol=rel, atol=abs_)


def test_tabulated_kernel_roundtrip_and_covariance(tmp_path):
    grid = np.linspace(-1.0, 0.0, 17)
    values = np.cos(grid[:, None] - grid[None, :])
    tab = TabulatedKernel(values, 1.0)
    path = tmp_path / "kernel.csv"
    tab.to_csv(path)
    again = TabulatedKernel.from_csv(path)
    np.testing.assert_array_equal(again.values, tab.values)
    # bilinear interpolation of a smooth kernel: r_t should track the exact
    # kernel's covariance to interpolation accuracy, far better than 1e-2
    exact = r_t(COSINE, P01, 0.7, -0.6, 0.0)
    approx = r_t(tab, P01, 0.7, -0.6, 0.0)
    assert abs(exact - approx) < 5e-3


@pytest.mark.parametrize("build", [
    lambda: ShiftedWienerKernel(math.nan),
    lambda: ShiftedWienerKernel(math.inf),
    lambda: ShiftedWienerKernel(0.0),
    lambda: TabulatedKernel(np.eye(3), -1.0),
    lambda: TabulatedKernel(np.eye(3), math.nan),
    lambda: TabulatedKernel(np.full((3, 3), math.nan), 1.0),
    lambda: ProductSeparableKernel(lambda s: s + 1.0, np.ones_like, math.nan),
], ids=["wiener-nan", "wiener-inf", "wiener-zero", "tabulated-negative",
        "tabulated-nan", "tabulated-nan-values", "product-nan"])
def test_kernels_reject_bad_windows_and_values(build):
    # "tau must be finite and positive" or "values must be finite"
    with pytest.raises(ValueError, match="must be finite"):
        build()


# ---------------------------------------------------------------------------
# variance curves


def test_sigma2_curve_wiener_known_value_and_residual():
    curve = sigma2_curve(WIENER, P01, 2.0, 1e-3)
    assert curve.at(0.0) == pytest.approx(1.0, abs=1e-12)
    assert curve.at(1.0) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert curve.residual.max() < 1e-5


def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def test_sigma2_curve_bytes_at_the_full_horizon(monkeypatch):
    # how the panels are laid out must never move a byte of the curves; a
    # row keeps only the distinct knots inside its window, so it needs at
    # most two.  Recorded from the evaluator that integrates products of
    # the kernel's evolved factors, with the X that the exact-rational
    # tests above hold to 1e-12; the Wiener factors' running integrals
    # read through the panel rule's tail matrix
    widths = []

    def counted(f, edges):
        widths.append(edges.shape[-1] - 1)
        return panel_gauss(f, edges)

    monkeypatch.setattr(covariance, "panel_gauss", counted)
    want = {
        "wiener": ("5128f6e168064dc4b3ac98a8bd9e5c92"
                   "af89a8957de465bbef97fd96af733cc7",
                   "714b263d8e16331caac3a6231701defd"
                   "cd03fdaf856ec596c40997ecb4f95cef"),
        "cosine": ("f71f65eecabe68d68d900b624c76cbbb"
                   "27a82e9f5534e7e8fd9f4d4687c30e4d",
                   "2be1f511d069d6aa558127acadf1ddf8"
                   "ff90e37e3390a24070102543d3e9c974"),
    }
    for name, kernel in (("wiener", WIENER), ("cosine", COSINE)):
        curve = sigma2_curve(kernel, P01, 50.0, 0.5)
        assert (_sha(curve.sigma2), _sha(curve.residual)) == want[name]
    assert max(widths) <= 2


@pytest.mark.parametrize("kernel, rel", [(COSINE, 1e-10), (WIENER, 1e-3)],
                         ids=["cosine", "wiener"])
def test_sigma2_curve_matches_tight_pointwise_variance_late(kernel, rel):
    # the curve reads sigma^2 = R_t(0, 0) itself; an integral of the
    # variance equation from sigma^2(0) cancels once sigma^2 is small (1.57
    # relative error for the cosine kernel at 50 tau)
    curve = sigma2_curve(kernel, P01, 50.0, 0.5)
    for t in (40.0, 45.0, 48.5, 50.0):
        assert curve.at(t) == pytest.approx(
            r_t(kernel, P01, t, 0.0, 0.0, tol=1e-16), rel=rel, abs=0.0)


def _exact_wiener_factor(c):
    # a = 0, b = -1, tau = 1: the evolved factor at the integer time c is
    # G_c(u) = X(c) + Z(c - 1) - Z(c - 1 + u) on [0, 1], and on [c - 1, c]
    # Z is the polynomial sum_k (-1)^k (u + c-1-k)^{k+1} / (k+1)!; returns
    # its coefficients in powers of u
    coef = [_exact_x(-1, 1, c) + _exact_z(-1, 1, c - 1)] + [0] * c
    for k in range(c):
        ck = Fraction((-1) ** k, math.factorial(k + 1))
        for i in range(k + 2):
            coef[i] -= ck * math.comb(k + 1, i) * (c - 1 - k) ** (k + 1 - i)
    return coef


def _exact_wiener_r(c1, c2):
    # R(c1, c2) = integral_0^1 G_c1(u) G_c2(u) du
    return sum(ci * cj / (i + j + 1)
               for i, ci in enumerate(_exact_wiener_factor(c1))
               for j, cj in enumerate(_exact_wiener_factor(c2)))


def test_sigma2_curve_wiener_is_exact_late():
    # sigma^2 falls to 1.5e-14 by 50 tau; it is held to the exact rational
    # value, which an evolved factor read as a difference of nearly equal
    # values of Z misses by 5e-10 relative there
    curve = sigma2_curve(WIENER, P01, 50.0, 0.5)
    for t in (20, 35, 50):
        exact = _exact_wiener_r(t, t)
        assert abs(Fraction(curve.at(t)) - exact) <= 1e-13 * exact, t


def test_lag_cov_curve_wiener_is_exact_late():
    # R_t(-1, 0) = integral_0^1 G_{t-1} G_t du, exactly; the pointwise
    # reference of the late test above only reaches 1e-3 relative here
    times = [20, 35, 50]
    curve = lag_cov_curve(WIENER, P01, [float(t) for t in times])
    for t, got in zip(times, curve):
        exact = _exact_wiener_r(t - 1, t)
        assert abs(Fraction(got) - exact) <= 1e-13 * abs(exact), t


def test_sigma2_curve_cosine_is_constant_one():
    tau = math.pi / 2
    p = LinearDdeParams(a=0.0, b=-1.0, tau=tau)
    curve = sigma2_curve(COSINE, p, 2 * tau, tau / 1000)
    assert np.abs(curve.sigma2 - 1.0).max() < 1e-9
    assert curve.residual.max() < 1e-5


def test_sigma2_curve_delay_free_is_pure_exponential():
    p = LinearDdeParams(a=0.7, b=0.0, tau=1.0)
    curve = sigma2_curve(WIENER, p, 2.0, 1e-3)
    np.testing.assert_allclose(curve.sigma2, np.exp(2 * p.a * curve.t),
                               rtol=1e-12)


def test_sigma2_curve_csv_roundtrip(tmp_path):
    curve = sigma2_curve(WIENER, P01, 1.0, 0.25)
    path = tmp_path / "sigma.csv"
    curve.to_csv(path)
    header, cols = read_csv(path)
    assert header == ["t", "sigma2", "residual"]
    np.testing.assert_allclose(cols[0], curve.t)
    np.testing.assert_allclose(cols[1], curve.sigma2)


@pytest.mark.parametrize("T, dt, fragment", [
    (2.0, math.nan, "need a finite T and dt > 0, got 2.0 and nan"),
    (2.0, math.inf, "need a finite T and dt > 0, got 2.0 and inf"),
    (2.0, 0.0, "need a finite T and dt > 0"),
    (math.nan, 0.5, "need a finite T and dt > 0, got nan and 0.5"),
    (-math.inf, 0.5, "need a finite T and dt > 0, got -inf"),
    (1.0, 0.3, "T must be a multiple of dt"),
    (0.5, 0.5, "at least 2 steps"),
    (1e300, 1e-300, "T must be a multiple of dt"),  # the step count overflows
    (50.5, 0.5, "capped at t <= 50.0 tau"),
], ids=["dt-nan", "dt-inf", "dt-zero", "T-nan", "T-minus-inf", "T-off-dt",
        "one-step", "count-overflows", "past-horizon"])
def test_sigma2_curve_names_bad_grids(T, dt, fragment):
    # the grid is checked before any quadrature runs
    with pytest.raises(ValueError, match=fragment):
        sigma2_curve(WIENER, P01, T, dt)


def test_sigma2_grid_is_the_curves_grid():
    np.testing.assert_array_equal(sigma2_grid(P01, 1.0, 0.25),
                                  sigma2_curve(WIENER, P01, 1.0, 0.25).t)
    assert sigma2_grid(P01, 50.0, 0.5)[-1] == 50.0  # the horizon itself


def test_growth_lower_bound_for_positive_feedback():
    # a >= 0, b > 0, nonnegative kernel: variance dominates X(t)^2 sigma^2(0)
    p = LinearDdeParams(a=0.3, b=0.5, tau=1.0)
    curve = sigma2_curve(WIENER, p, 3.0, 1e-2)
    x = fundamental_solution(p, curve.t)
    assert np.all(curve.sigma2 - x ** 2 * 1.0 >= -1e-9)


def test_stable_params_contract_variance_twenty_delays():
    p = LinearDdeParams(a=-0.5, b=-0.8, tau=1.0)
    assert hayes_stable(p).stable
    late = r_t(WIENER, p, 20.0, 0.0, 0.0)
    assert late < 1e-2 * r_t(WIENER, p, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# closed forms


def test_wiener_closed_form_at_zero():
    for p in (P01, LinearDdeParams(0.5, -1.0, 2.0)):
        r, s = wiener_closed_form(p, 0.0)
        assert r == 0.0
        assert s == p.tau


def test_wiener_closed_form_half_and_third():
    r, s = wiener_closed_form(P01, 1.0)
    assert r == pytest.approx(0.5, abs=1e-15)
    assert s == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_wiener_closed_form_pure_growth():
    r, s = wiener_closed_form(LinearDdeParams(1.0, 0.0, 1.0), 1.0)
    assert s == pytest.approx(math.e ** 2, rel=1e-14)


def test_wiener_closed_form_rejects_out_of_range():
    with pytest.raises(ValueError):
        wiener_closed_form(P01, 1.5)
    with pytest.raises(ValueError):
        wiener_closed_form(P01, -0.1)


@pytest.mark.parametrize("a,b", [(0.0, -1.0), (0.5, -1.0), (-1.0, 0.5)])
def test_closed_form_matches_quadrature(a, b):
    p = LinearDdeParams(a=a, b=b, tau=1.0)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        r_cf, s_cf = wiener_closed_form(p, t)
        assert r_cf == pytest.approx(r_t(WIENER, p, t, -1.0, 0.0), abs=1e-8)
        assert s_cf == pytest.approx(r_t(WIENER, p, t, 0.0, 0.0), abs=1e-8)


def test_near_zero_a_crossover_is_smooth():
    # either side of the branch switch sits within the genuine O(|a|)
    # drift of the curve, and the exponential branch stays quadrature-
    # accurate arbitrarily close to a = 0 (no cancellation blowup)
    for a in (9.9e-7, -9.9e-7, 1.1e-6, -1.1e-6):
        p = LinearDdeParams(a=a, b=-1.0, tau=1.0)
        r, s = wiener_closed_form(p, 0.8)
        r0, s0 = wiener_closed_form(LinearDdeParams(0.0, -1.0, 1.0), 0.8)
        assert abs(r - r0) < 1e-5
        assert abs(s - s0) < 1e-5
        # polynomial side: accurate up to the genuine O(|a|) drift;
        # exponential side: quadrature-accurate despite the tiny a
        tol = 3e-6 if abs(a) < 1e-6 else 1e-8
        assert r == pytest.approx(r_t(WIENER, p, 0.8, -1.0, 0.0), abs=tol)
        assert s == pytest.approx(r_t(WIENER, p, 0.8, 0.0, 0.0), abs=tol)


@pytest.mark.parametrize("a,b", [(0.0, -1.0), (0.5, -1.0), (-1.0, 0.5)])
def test_factorized_variance_identity_wiener(a, b):
    # the curve integrates squares of the evolved factors 1{q <= s}; r_t
    # assembles the same variance from its single and double integrals
    p = LinearDdeParams(a=a, b=b, tau=1.0)
    curve = sigma2_curve(WIENER, p, 1.0, 0.1)
    for t in (0.3, 0.8, 1.0):
        assert curve.at(t) == pytest.approx(r_t(WIENER, p, t, 0.0, 0.0),
                                            abs=1e-9)


def test_product_kernel_reproduces_the_running_minimum():
    # u(s) = s + tau, v = 1 is the running-minimum kernel, so r_t's generic
    # double integral must agree with its Wiener reduction
    uv = ProductSeparableKernel(
        u=lambda s: np.asarray(s, dtype=float) + 1.0,
        v=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        tau=1.0)
    p = LinearDdeParams(a=0.3, b=-0.7, tau=1.0)
    assert r_t(uv, p, 0.6, 0.0, 0.0) == pytest.approx(
        r_t(WIENER, p, 0.6, 0.0, 0.0), abs=1e-9)


@pytest.mark.parametrize("a,b", [(-2.0, -1.0), (-3.0, -1.0), (-1.0, -0.5)])
def test_sigma2_curve_is_never_negative(a, b):
    # strong decay leaves sigma^2 near 1e-35 by 50 tau; as an integral of
    # squares it cannot round below zero
    curve = sigma2_curve(WIENER, LinearDdeParams(a, b, 1.0), 50.0, 0.5)
    assert np.all(curve.sigma2 >= 0.0)


def test_covariance_rejects_a_kernel_on_another_window():
    # a kernel built on [-2, 0] read on a tau = 1 window used to give
    # sigma^2(1.5) = 0.319 from the curve and -0.556 from r_t
    kernel, p = ShiftedWienerKernel(2.0), LinearDdeParams(0.0, -1.0, 1.0)
    for read in (lambda: r_t(kernel, p, 1.5, 0.0, 0.0),
                 lambda: covariance.r_t(kernel, p, 1.5, 0.0, 0.0),
                 lambda: propagate_state(kernel, p, 1.5),
                 lambda: lag_cov_curve(kernel, p, [1.5]),
                 lambda: sigma2_curve(kernel, p, 2.0, 0.5),
                 lambda: gaussian_path_slabs(kernel, 4, 8, p.tau, 0)):
        with pytest.raises(ValueError, match="kernel window 2.0 != "):
            read()


# ---------------------------------------------------------------------------
# stability


def test_hayes_named_cases():
    assert hayes_stable(P01).label == "Stable"
    assert hayes_stable(
        LinearDdeParams(0.0, -1.0, math.pi / 2)).label == "Boundary"
    assert hayes_stable(LinearDdeParams(0.5, 1.0, 1.0)).label == "Unstable"


def test_hayes_condition_values_for_pure_delay():
    cls = hayes_stable(P01)
    assert cls.kappa == pytest.approx(math.pi / 2, abs=1e-12)
    c1, c2, c3 = cls.conditions
    assert c1 == 1.0
    assert c2 == 1.0
    assert c3 == pytest.approx(-1.0 + math.pi / 2, abs=1e-12)


def test_hayes_boundary_case_is_exactly_neutral():
    cls = hayes_stable(LinearDdeParams(0.0, -1.0, math.pi / 2))
    assert cls.boundary
    assert abs(cls.conditions[2]) <= 1e-10
    # consistent with the undamped oscillation: rightmost root on the axis
    assert abs(rightmost_root(LinearDdeParams(0.0, -1.0,
                                              math.pi / 2)).real) < 1e-12


def test_kappa_undefined_when_delay_gain_too_large():
    cls = hayes_stable(LinearDdeParams(1.5, -1.0, 1.0))
    assert math.isnan(cls.kappa)
    assert cls.label == "Unstable"


def test_rightmost_root_solves_characteristic_equation():
    for p in (P01, LinearDdeParams(0.5, 1.0, 1.0),
              LinearDdeParams(-2.0, -2.5, 1.0)):
        lam = rightmost_root(p)
        res = lam - p.a - p.b * np.exp(-lam * p.tau)
        assert abs(res) < 1e-9


def test_classifier_agrees_with_root_oracle_on_grid():
    mismatches = 0
    checked = 0
    for a in np.linspace(-3.0, 1.0, 21):
        for b in np.linspace(-3.0, 1.0, 21):
            p = LinearDdeParams(float(a), float(b), 1.0)
            cls = hayes_stable(p)
            if min(abs(c) for c in cls.conditions
                   if not math.isnan(c)) < 1e-6:
                continue
            checked += 1
            alpha = rightmost_root(p).real
            if cls.stable != (alpha < 0.0):
                mismatches += 1
    assert checked > 350
    assert mismatches == 0


# ---------------------------------------------------------------------------
# the scalar special functions, held to scipy (a test-only dependency)


def _scipy_kappa(atau):
    from scipy.optimize import bisect

    if atau > 0.0:
        lo, hi = 1e-12, 0.5 * math.pi - 1e-12
    else:
        lo, hi = 0.5 * math.pi + 1e-12, math.pi - 1e-12
    return float(bisect(lambda k: k - atau * math.tan(k), lo, hi,
                        xtol=1e-12))


def test_kappa_root_is_bitwise_scipy_bisect():
    grid = np.concatenate([np.linspace(-20.0, -1e-9, 4001),
                           np.linspace(1e-9, 0.999, 2001)])
    for atau in grid.tolist():
        assert _kappa_root(atau) == _scipy_kappa(atau), atau


def test_bisect_raises_when_it_cannot_converge():
    # a sign change at x = 0 with no absolute tolerance: the relative one
    # shrinks with the midpoint, so the steps never get below it
    with pytest.raises(ArithmeticError, match="did not converge"):
        _bisect(lambda x: -1.0 if x <= 0.0 else 1.0, -1.0, 1.0, 0.0)


def _assert_lambertw_matches_scipy(zs):
    from scipy.special import lambertw

    for z in zs:
        if z == -math.exp(-1.0):
            continue  # scipy gives NaN at the branch point itself
        ref = complex(lambertw(z, 0))
        assert abs(_lambertw0(z) - ref) <= 1e-12 * abs(ref), z


def test_lambertw0_on_the_stability_grid():
    grid = np.linspace(-3.0, 1.0, 21)
    _assert_lambertw_matches_scipy(
        [float(b) * math.exp(-float(a)) for a in grid for b in grid])


def test_lambertw0_on_a_logspace_sweep():
    mags = np.logspace(-300.0, 300.0, 1201)
    _assert_lambertw_matches_scipy(np.concatenate([mags, -mags]).tolist())


def test_lambertw0_on_a_linspace_through_its_start_regions():
    # started at log z instead of log(1 + z), 0.352 runs away
    zs = np.append(np.linspace(-3.0, 3.0, 6001), 0.352)
    _assert_lambertw_matches_scipy(zs.tolist())


def test_lambertw0_at_its_fixed_points():
    assert _lambertw0(-math.exp(-1.0)) == -1.0
    assert _lambertw0(0.0) == 0.0
    with pytest.raises(TypeError):
        _lambertw0(1j)


# ---------------------------------------------------------------------------
# states and densities


def test_propagate_state_wiener_midpoint_closed_form():
    state = propagate_state(WIENER, P01, 0.5)
    assert state.sigma2_t == pytest.approx(19.0 / 24.0, abs=1e-9)
    assert state.sigma2_lag == pytest.approx(0.5, abs=1e-12)
    assert state.cross == pytest.approx(0.375, abs=1e-9)


def test_propagated_states_satisfy_cauchy_schwarz():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = LinearDdeParams(rng.uniform(-1, 0.5), rng.uniform(-1.5, 0.5), 1.0)
        t = rng.uniform(0.0, 3.0)
        state = propagate_state(WIENER, p, t)
        bound = math.sqrt(state.sigma2_t * state.sigma2_lag)
        assert abs(state.cross) <= bound + 1e-10


def test_state_rejects_cauchy_schwarz_violation():
    with pytest.raises(ValueError):
        GaussianState(t=0.0, sigma2_t=1.0, sigma2_lag=1.0, cross=1.5)


def test_marginal_density_standard_normal_peak():
    state = GaussianState(t=0.0, sigma2_t=1.0, sigma2_lag=1.0, cross=0.0)
    assert marginal_density(state, 0.0) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), rel=1e-15)


def test_marginal_density_integrates_to_one():
    state = propagate_state(WIENER, P01, 0.5)
    total = adaptive_simpson(lambda x: marginal_density(state, x),
                             -12.0, 12.0, tol=1e-10)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_joint_density_factorizes_when_uncorrelated():
    p = LinearDdeParams(0.0, -1.0, math.pi / 2)
    state = propagate_state(COSINE, p, 1.3)
    assert abs(state.cross) < 1e-9
    for x, y in ((0.0, 0.0), (0.4, -1.1), (1.2, 0.3)):
        assert joint_density(state, x, y) == pytest.approx(
            marginal_density(state, x) * marginal_density(state, y),
            rel=1e-6)


def test_degenerate_cosine_joint_raises():
    p = LinearDdeParams(0.0, -1.0, math.pi / 2)
    state = propagate_state(DegenerateCosineKernel(), p, 0.7)
    with pytest.raises(DegenerateCovarianceError):
        joint_density(state, 0.1, 0.2)


def test_joint_density_marginalizes_to_marginal():
    state = propagate_state(WIENER, P01, 0.5)
    for x in (0.0, 0.6):
        total = adaptive_simpson(lambda y: joint_density(state, x, y),
                                 -12.0, 12.0, tol=1e-10)
        assert total == pytest.approx(marginal_density(state, x), abs=1e-9)


def test_conditional_mean_vanishes_without_correlation():
    state = GaussianState(t=0.0, sigma2_t=1.0, sigma2_lag=2.0, cross=0.0)
    for x in (0.0, 0.7, -1.3):
        assert conditional_mean_check(state, x) < 1e-10


def test_conditional_mean_matches_regression_line():
    state = propagate_state(WIENER, P01, 0.5)
    assert conditional_mean_check(state, 0.3) < 1e-8


def test_conditional_mean_scale_invariance():
    state = propagate_state(WIENER, P01, 0.5)
    scaled = GaussianState(state.t, 4 * state.sigma2_t, 4 * state.sigma2_lag,
                           4 * state.cross)
    assert conditional_mean_check(scaled, 0.3) < 1e-8


# ---------------------------------------------------------------------------
# samplers


def test_sampler_is_deterministic_per_seed():
    a = sample_gaussian_paths(WIENER, 5, 32, 1.0, 123)
    b = sample_gaussian_paths(WIENER, 5, 32, 1.0, 123)
    c = sample_gaussian_paths(WIENER, 5, 32, 1.0, 124)
    assert a.shape == (5, 33)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_cosine_sampler_statistics():
    tau = math.pi / 2
    n = 20000
    vals = sample_gaussian_paths(COSINE, n, 8, tau, 0)
    se_var = math.sqrt(2.0 / n)
    assert np.all(np.abs(vals.var(axis=0) - 1.0) < 3 * se_var + 0.02)
    corr = np.corrcoef(vals[:, 0], vals[:, -1])[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_wiener_sampler_statistics():
    n = 20000
    vals = sample_gaussian_paths(WIENER, n, 16, 1.0, 0)
    assert np.all(vals[:, 0] == 0.0)
    assert vals[:, -1].var() == pytest.approx(1.0, abs=3 * math.sqrt(2.0 / n))


_NODES = np.linspace(-1.0, 0.0, 17)


@pytest.mark.parametrize("kernel", [
    WIENER,
    ProductSeparableKernel(lambda s: s + 1.0, np.ones_like, 1.0),
    COSINE,
    DegenerateCosineKernel(),
    TabulatedKernel(np.cos(_NODES[:, None] - _NODES[None, :]), 1.0),
], ids=["wiener", "product-separable", "cosine", "degenerate-cosine",
        "tabulated"])
def test_slab_draws_equal_one_shot_draw(kernel):
    # the sampler yields its paths in slabs of rows; the slabs in order are
    # the block, and the block is a one-shot draw from the same generator
    # bit for bit, also when n is not a multiple of the slab
    from ddlab.gaussian.sampling import _SLAB
    n, m, tau, seed = 2 * _SLAB + 37, 16, 1.0, 2024
    slabs = [slab.copy()
             for slab in gaussian_path_slabs(kernel, n, m, tau, seed)]
    assert [len(slab) for slab in slabs] == [_SLAB, _SLAB, 37]
    block = sample_gaussian_paths(kernel, n, m, tau, seed)
    assert np.array_equal(np.concatenate(slabs), block)

    rng = np.random.default_rng(seed)
    s = -tau + np.arange(m + 1) * (tau / m)
    if isinstance(kernel, DegenerateCosineKernel):
        want = rng.standard_normal(n)[:, None] * np.cos(s)
    elif kernel.separable_terms() is not None:
        factors = [f(s) for f in kernel.separable_terms()]
        y = rng.standard_normal((n, len(factors)))
        want = y[:, :1] * factors[0]
        for k in range(1, len(factors)):
            want += y[:, k:k + 1] * factors[k]
    else:
        if kernel is WIENER:
            scale, v = np.full(m, math.sqrt(tau / m)), 1.0
        else:
            v = kernel.v(s)
            scale = np.sqrt(np.maximum(np.diff(kernel.u(s) / v), 0.0))
        want = np.zeros((n, m + 1))
        want[:, 1:] = rng.standard_normal((n, m)) * scale
        want = np.cumsum(want, axis=1) * v
    assert np.array_equal(block, want)


@pytest.mark.parametrize("kernel, n, m, tau", [
    (WIENER, 0, 8, 1.0),
    (WIENER, 5, 1, 1.0),
    (WIENER, 5, 8, 0.0),
    (WIENER, 5, 8, math.nan),
    (WIENER, 5, 8, 2.0),
], ids=["no-paths", "one-interval", "tau-zero", "tau-nan", "window"])
def test_slab_producer_checks_its_arguments_when_called(kernel, n, m, tau):
    # the checks run at the call, before any slab is asked for
    with pytest.raises(ValueError):
        gaussian_path_slabs(kernel, n, m, tau, 0)


@pytest.mark.parametrize("u, v, fragment", [
    (lambda s: s + 1.0, lambda s: np.exp(4.0 * (s + 1.0)), "nondecreasing"),
    (lambda s: s + 1.0, lambda s: -np.ones_like(s), "v must be positive"),
    (lambda s: s + 1.0, lambda s: 0.0 * s, "v must be positive"),
    (lambda s: np.where(s > -0.5, np.nan, s + 1.0), np.ones_like,
     "must be finite"),
], ids=["u-over-v-falls", "v-negative", "v-zero", "u-nan"])
def test_product_kernel_rejects_a_non_covariance(u, v, fragment):
    # u(min) v(max) is a covariance exactly when v > 0 and u/v does not
    # fall; the constructor checks before any curve or sampler runs
    with pytest.raises(KernelPositivityError, match=fragment):
        ProductSeparableKernel(u, v, 1.0)


def test_falling_ratio_is_rejected_before_any_curve():
    # u/v falls past s = -0.75, and its curve printed sigma^2 = -1.59,
    # -4.56 and -1.66 at t = 1.25, 1.5 and 1.75 without complaint
    with pytest.raises(KernelPositivityError):
        sigma2_curve(ProductSeparableKernel(
            lambda s: s + 1.0, lambda s: np.exp(4.0 * (s + 1.0)), 1.0),
            LinearDdeParams(0.0, -1.0, 1.0), 2.0, 0.25)


class _Plain(CovKernel):
    """A symmetric function with no factor structure."""

    def _value(self, lo, hi):
        return np.exp(-(hi - lo))


def test_a_kernel_without_factors_is_rejected_at_entry():
    kernel = _Plain()
    for read in (lambda: covariance.r_t(kernel, P01, 1.5, 0.0, 0.0),
                 lambda: lag_cov_curve(kernel, P01, [1.5]),
                 lambda: sigma2_curve(kernel, P01, 2.0, 0.5),
                 lambda: propagate_state(kernel, P01, 1.5),
                 lambda: gaussian_path_slabs(kernel, 4, 8, P01.tau, 0)):
        with pytest.raises(ValueError, match="_Plain has no factor structure"):
            read()


def _excess_kurtosis(vals):
    z = vals - vals.mean(axis=0)
    return (z ** 4).mean(axis=0) / (z ** 2).mean(axis=0) ** 2 - 3.0


@pytest.mark.parametrize("kernel", [
    COSINE, TabulatedKernel(np.cos(_NODES[:, None] - _NODES[None, :]), 1.0),
], ids=["cosine", "tabulated"])
def test_finite_rank_draws_are_gaussian_at_every_node(kernel):
    # a draw can have the right covariance and the wrong law: a constant
    # amplitude sqrt(2) times cos(s - theta) gives excess kurtosis -1.5
    n = 20000
    vals = sample_gaussian_paths(kernel, n, 16, 1.0, 31)
    assert np.all(np.abs(_excess_kurtosis(vals)) < 5.0 * math.sqrt(24.0 / n))


_GRID = np.linspace(-1.0, 0.0, 5)


@pytest.mark.parametrize("kernel", [
    COSINE,
    DegenerateCosineKernel(),
    WIENER,
    ProductSeparableKernel(lambda s: s + 1.0, np.ones_like, 1.0),
    TabulatedKernel(np.cos(_GRID[:, None] - _GRID[None, :]), 1.0),
], ids=["cosine", "degenerate-cosine", "wiener", "product-separable",
        "tabulated"])
def test_sampler_gram_covariance_matches_kernel(kernel):
    # empirical node covariance of one batch reproduces the kernel within
    # Monte Carlo error (every kernel has variance at most one here)
    n = 20000
    vals = sample_gaussian_paths(kernel, n, 4, 1.0, 7)
    assert vals.shape == (n, 5)
    emp = vals.T @ vals / n
    want = kernel.value(_GRID[:, None], _GRID[None, :])
    assert np.abs(emp - want).max() < 5 * math.sqrt(2.0 / n)


def test_sampler_rejects_indefinite_tabulated_kernel():
    values = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    # the constructor rejects the table, so no sampler ever sees it
    with pytest.raises(KernelPositivityError):
        TabulatedKernel(values, 1.0)


def test_indefinite_table_is_rejected_before_any_curve():
    # the table [[1, 2], [2, 1]] has eigenvalue -1; its curve would print
    # sigma^2 = 1, -0.406, -0.5 without complaint
    with pytest.raises(KernelPositivityError, match="eigenvalue -1 "):
        TabulatedKernel([[1.0, 2.0], [2.0, 1.0]], 1.0)
    # a PSD table whose smallest eigenvalue rounds below zero still passes
    g = np.linspace(-1.0, 0.0, 129)
    table = np.cos(g[:, None] - g[None, :])
    assert np.linalg.eigvalsh(table)[0] < 0.0
    TabulatedKernel(table, 1.0)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-1.5, 0.9), b=st.floats(-1.5, 0.9),
       t=st.floats(0.0, 2.5))
def test_variance_is_nonnegative(a, b, t):
    p = LinearDdeParams(a=a, b=b, tau=1.0)
    assert r_t(WIENER, p, t, 0.0, 0.0) >= -1e-9
