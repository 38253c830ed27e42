"""Full-scale checks of the package's headline guarantees.

One test per guarantee, ordered roughly map -> delay equation -> Gaussian
theory -> kicked limit -> reproducibility, each meant to read as a single
pass/fail line under ``pytest -v``.  These run the real pipelines at the
sizes the guarantees are stated for, so the module takes a few minutes;
everything is seeded and thread-count invariant, so reruns are bitwise
identical.
"""
import math
import time

import numpy as np
import pytest

from ddlab.dde import (AffineCircleDelayField, LinearDelayField,
                       PiecewiseConstantUniform, SineFeedbackField,
                       TentDelayField, fundamental_history, integrate,
                       make_history)
from ddlab.density import GridDensity
from ddlab.ensemble import (IidUniformPath, Mixture, as_velocity_histories,
                            detect_density_period, ensemble_values,
                            evolve_ensemble, evolve_trajectories, msd_curve,
                            sample_initial, velocity_stats)
from ddlab.gaussian import (CosineKernel, DegenerateCosineKernel,
                            LinearDdeParams, ShiftedWienerKernel,
                            fundamental_solution, hayes_stable,
                            rightmost_root, sigma2_curve, wiener_closed_form)
from ddlab.kicked import fp_decay_check, ou_limit_suite
from ddlab.maps import TentMap, detect_asymptotic_period, iterate
from ddlab.runner import parse_config, run

from covariance_reference import r_t


def random_density(seed, n=4096):
    rng = np.random.default_rng(seed)
    return GridDensity(rng.random(n) + 0.5).normalized()


def test_01_full_tent_map_reaches_uniform_density_fast():
    """Five random positive starts land on the flat fixed density in 30 steps."""
    t0 = time.perf_counter()
    flat = GridDensity.uniform(4096)
    for seed in range(5):
        final = iterate(TentMap(2.0), random_density(seed), 30)
        assert final.l1_distance(flat) < 1e-3
    assert time.perf_counter() - t0 < 1.0


def test_02_tent_slope_period_windows():
    """Slopes 1.8, 1.3, 1.15 give asymptotic density periods 1, 2, 4."""
    t0 = time.perf_counter()
    for a, expected in [(1.8, 1), (1.3, 2), (1.15, 4)]:
        rep = detect_asymptotic_period(TentMap(a), random_density(7), tol=1e-4)
        assert rep.period == expected
    assert time.perf_counter() - t0 < 10.0


def test_03_hat_dde_density_cycle_uniform_and_mixture():
    """22500 hat-drive paths show one finite density period from both starts.

    A narrow uniform block and the two-block mixture converge to density
    cycles with the same period; with the slopes exchanged every path
    contracts to the origin instead, so there is no cycle to find.  The
    mixture's smaller block straddles the drive's unstable fixed point and
    mixes very slowly (its cycle-offset distance is still ~0.6 after 600
    delays, decaying ~1% per 100), hence the loose detector tolerance; the
    half-of-background separation rule is what actually discriminates.
    """
    t0 = time.perf_counter()
    field = TentDelayField(10.0, 13.0)
    times = 400.0 + 0.125 * np.arange(24)
    periods = {}
    for name, spec in [
            ("uniform", IidUniformPath(0.65, 0.75)),
            ("mixture", Mixture([(IidUniformPath(0.65, 0.75), 17000),
                                 (IidUniformPath(0.35, 0.45), 5500)]))]:
        hist = sample_initial(spec, 22500, 128, 1.0, seed=1013)
        snaps = evolve_ensemble(hist, 1.0, field, float(times[-1]), times,
                                bins=50, seed=1013, joint=False)
        periods[name] = detect_density_period(snaps, 0.125, tol=0.65)
    assert periods["uniform"] is not None
    assert periods["uniform"] == pytest.approx(2.125)
    assert periods["mixture"] == periods["uniform"]
    # exchanged slopes: pathwise contraction, no finite period
    hist = sample_initial(IidUniformPath(0.65, 0.75), 400, 16, 1.0, seed=1013)
    vals = ensemble_values(hist, 1.0, TentDelayField(13.0, 10.0),
                           [30.0, 60.0])
    assert np.max(np.abs(vals[:, 1])) < 1e-4
    assert np.max(np.abs(vals[:, 1])) < 1e-2 * np.max(np.abs(vals[:, 0]))
    assert time.perf_counter() - t0 < 600.0


def test_04_noisy_circle_dde_period_appears_with_noise_width():
    """Resampled drive noise of width 0.1 leaves no density period; 0.2 creates one.

    Measured late ([120, 124] delays) so the early period-3 transient of the
    narrow-noise ensemble has died out; there the narrow case's residual
    cycle sits at the Monte Carlo floor and is rejected by the separation
    rule, while the wide case is detected with a fourfold margin.
    """
    t0 = time.perf_counter()
    times = 120.0 + 0.5 * np.arange(9)
    for width, want_finite in [(0.1, False), (0.2, True)]:
        field = AffineCircleDelayField(
            10.0, 0.5, 0.567,
            noise=PiecewiseConstantUniform(0.0, width, 1.0))
        hist = sample_initial(IidUniformPath(0.0, 1.0), 22500, 64, 1.0,
                              seed=2029)
        snaps = evolve_ensemble(hist, 1.0, field, float(times[-1]), times,
                                bins=50, seed=2029, joint=False)
        period = detect_density_period(snaps, 0.5, tol=0.2)
        assert (period is not None) == want_finite
    assert time.perf_counter() - t0 < 600.0


def test_05_sine_feedback_velocity_statistics():
    """Delayed sine feedback: diffusive spread, fitted sigma, bounded support.

    The third clause asserts max|v| <= 1.2 K with K = 1/(0.68 sqrt(beta)
    + 0.60 sqrt(gamma)) at gamma=1, beta=10 and is expected to FAIL: the
    pooled extreme over ~6.4e6 post-burn-in samples lands 1-12% above that
    bound for every step count and seed tried (the K constant fits where
    the quasi-Gaussian bulk ends, but the far tail is soft, so the sample
    maximum keeps growing past it at this sample size).  It is asserted
    unchanged rather than loosened; the first two clauses pass with wide
    margins.
    """
    t0 = time.perf_counter()
    gamma, beta = 1.0, 10.0
    histories = as_velocity_histories(
        sample_initial(IidUniformPath(-0.05, 0.05), 500, 32, 1.0, seed=77))
    t, sq_disp, pool = evolve_trajectories(
        histories, 1.0, SineFeedbackField(gamma, beta), 500.0, 100.0)
    curve = msd_curve(t, sq_disp, 500, tau=1.0)
    stats = velocity_stats(pool)
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    assert curve.r_squared > 0.95
    sigma = 0.32 / math.sqrt(beta * gamma)
    assert abs(stats.std - sigma) < 0.2 * sigma
    bound = 1.2 / (0.68 * math.sqrt(beta) + 0.60 * math.sqrt(gamma))
    assert stats.support_bound <= bound


def test_06_wiener_and_cosine_closed_forms():
    """Closed forms match quadrature; matched-delay cosine variance is flat."""
    t0 = time.perf_counter()
    p = LinearDdeParams(a=0.0, b=-1.0, tau=1.0)
    wiener = ShiftedWienerKernel(1.0)
    r1, s1 = wiener_closed_form(p, 1.0)
    assert r1 == pytest.approx(0.5, abs=1e-12)
    assert s1 == pytest.approx(1.0 / 3.0, abs=1e-12)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        r_cf, s_cf = wiener_closed_form(p, t)
        assert r_cf == pytest.approx(r_t(wiener, p, t, -1.0, 0.0), abs=1e-8)
        assert s_cf == pytest.approx(r_t(wiener, p, t, 0.0, 0.0), abs=1e-8)
    tau = math.pi / 2
    curve = sigma2_curve(CosineKernel(), LinearDdeParams(0.0, -1.0, tau),
                         2 * tau, tau / 1000)
    assert np.abs(curve.sigma2 - 1.0).max() < 1e-9
    assert time.perf_counter() - t0 < 1.0


_COMPARE_CFG = """kind = compare
threads = 8

[params]
kernel = {kernel}
a = 0.0
b = -1.0
tau = 1.0
m = {m}
times = 0.25, 0.5, 1.0

[ensemble]
n = {n}
seed = {seed}
"""


def test_07_sampled_histories_reproduce_variance_curve(tmp_path):
    """2e5 Monte Carlo histories per kernel hit the quadrature variance to 3 se."""
    t0 = time.perf_counter()
    for kernel in ("brownian", "cosine"):
        cfg = parse_config(_COMPARE_CFG.format(kernel=kernel, m=512,
                                               n=200000, seed=424242))
        out = tmp_path / kernel
        run(cfg, outdir=out)
        rows = np.genfromtxt(out / "compare.csv", delimiter=",", names=True)
        dev = np.abs(rows["sigma2_mc"] - rows["sigma2_analytic"])
        assert np.all(dev < 3.0 * rows["mc_stderr"])
    assert time.perf_counter() - t0 < 1200.0


def test_08_variance_curves_satisfy_their_ode():
    """The sigma^2 delay ODE residual stays below 1e-5 for every kernel."""
    t0 = time.perf_counter()
    p = LinearDdeParams(a=0.0, b=-1.0, tau=1.0)
    for kernel in (ShiftedWienerKernel(1.0), CosineKernel(),
                   DegenerateCosineKernel()):
        curve = sigma2_curve(kernel, p, 2.0, 1e-3)
        assert curve.residual.max() < 1e-5
    assert time.perf_counter() - t0 < 30.0


def test_09_stability_chart_agrees_with_characteristic_roots():
    """Inequality classification matches root signs on a 21x21 parameter grid."""
    t0 = time.perf_counter()
    grid = np.linspace(-3.0, 1.0, 21)
    checked = 0
    for a in grid:
        for b in grid:
            p = LinearDdeParams(a=float(a), b=float(b), tau=1.0)
            margin = rightmost_root(p).real
            if abs(margin) < 1e-6:
                continue
            assert hayes_stable(p).stable == (margin < 0.0)
            checked += 1
    assert checked > 400
    assert time.perf_counter() - t0 < 5.0


def test_10_linear_dde_integration_matches_theory():
    """Fundamental solutions to 1e-6 over four delays; cosine to 1e-5 over four periods."""
    t0 = time.perf_counter()
    for a, b in [(0.0, 1.0), (-1.0, 0.5), (0.5, -1.0)]:
        tr = integrate(LinearDelayField(a, b), fundamental_history(1.0, 512),
                       4.0)
        expected = fundamental_solution(LinearDdeParams(a, b, 1.0), tr.times)
        assert np.max(np.abs(tr.x - expected)) < 1e-6
    tau = math.pi / 2
    tr = integrate(LinearDelayField(0.0, -1.0), make_history(np.cos, tau, 256),
                   8 * math.pi)
    assert np.max(np.abs(tr.x - np.cos(tr.times))) < 1e-5
    assert time.perf_counter() - t0 < 5.0


def test_11_kicked_velocity_variance_has_a_cauchy_tail():
    """Halving the kick spacing moves the variance less than 10% per step."""
    t0 = time.perf_counter()
    reports = ou_limit_suite(1.0, [0.2, 0.1, 0.05], 20000, ensemble=1024)
    var = [r.var_v for r in reports]
    assert abs(var[1] - var[0]) / var[0] < 0.10
    assert abs(var[2] - var[1]) / var[1] < 0.10
    norms = fp_decay_check(TentMap(2.0), lambda x: x - 0.5, 1)
    assert norms[0] <= 1e-12
    assert time.perf_counter() - t0 < 300.0


def test_12_thread_count_does_not_change_any_output_byte(tmp_path):
    """The same config and seed give identical output hashes at 1 and 8 threads."""
    cfg = parse_config(_COMPARE_CFG.format(kernel="brownian", m=128,
                                           n=20000, seed=99))
    man_1 = run(cfg, threads=1, outdir=tmp_path / "single")
    man_8 = run(cfg, threads=8, outdir=tmp_path / "pool")
    assert man_1.outputs == man_8.outputs
