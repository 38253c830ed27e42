"""The closed-form least-squares line against LAPACK's np.polyfit."""

import math

import numpy as np
import pytest

from ddlab.fit import line_fit, tail_line_fit


def _assert_matches_polyfit(x, y):
    slope, intercept, r2 = line_fit(x, y)
    want_slope, want_intercept = np.polyfit(x, y, 1)
    assert slope == pytest.approx(want_slope, rel=1e-13, abs=0.0)
    assert intercept == pytest.approx(want_intercept, rel=1e-13, abs=0.0)
    resid = y - (want_slope * x + want_intercept)
    centered = y - y.mean()
    want_r2 = 1.0 - float(resid @ resid) / float(centered @ centered)
    assert r2 == pytest.approx(want_r2, rel=1e-13, abs=0.0)


def test_noisy_line_matches_polyfit():
    rng = np.random.default_rng(4)
    x = np.sort(rng.uniform(-3.0, 5.0, 400))
    _assert_matches_polyfit(x, 0.7 * x - 1.9 + 0.3 * rng.standard_normal(400))


def test_gaussian_log_density_shape_matches_polyfit():
    # what `velocity_stats` fits: log density of N(0, 0.1^2) on 60 bin
    # midpoints against -v^2, with a little binning noise
    mids = np.linspace(-0.3, 0.3, 60)
    logd = (-mids ** 2 / (2 * 0.01) - math.log(0.1 * math.sqrt(2 * math.pi))
            + 0.01 * np.random.default_rng(6).standard_normal(60))
    _assert_matches_polyfit(-mids ** 2, logd)


def test_offset_abscissa_matches_polyfit():
    # times in [1e4, 2e4]: an uncentered sum of t^2 would cancel away the
    # digits of the slope
    rng = np.random.default_rng(8)
    t = np.linspace(1e4, 2e4, 5001)
    _assert_matches_polyfit(t, 3e-3 * t + 40.0 + rng.standard_normal(t.size))


@pytest.mark.parametrize("start, n, slope, intercept", [
    (0, 10, 3, 2), (0, 7, -5, 11), (-4, 9, 2, -7), (10_000, 64, 1, 0),
    (10_000, 1001, -3, 50_000),
])
def test_integer_lines_are_exact(start, n, slope, intercept):
    # unit-spaced integer x has an exact mean, so every step is exact
    x = np.arange(start, start + n, dtype=float)
    assert line_fit(x, slope * x + intercept) == (slope, intercept, 1.0)


@pytest.mark.parametrize("x", [np.array([]), np.array([2.5]),
                               np.full(5, 0.1)], ids=["empty", "one", "same"])
def test_fewer_than_two_distinct_abscissae_give_nan(x):
    assert all(math.isnan(v) for v in line_fit(x, np.arange(x.size) * 1.0))


def test_tail_line_fit_reads_the_second_half():
    t = np.arange(0.0, 101.0)
    y = np.where(t < 50.0, 0.0, 2.0 * t - 1.0)
    assert tail_line_fit(t, y) == (2.0, -1.0, 1.0)
