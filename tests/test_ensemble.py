"""Ensemble sampling, density snapshots, period detection, statistics."""
import math

import numpy as np
import pytest

import ddlab.dde as dde
import ddlab.ensemble as ensemble
from ddlab.dde import LinearDelayField, PiecewiseConstantUniform, \
    AffineCircleDelayField, SineFeedbackField, TentDelayField, \
    integrate_batch
from ddlab.ensemble import (
    ConstantPath,
    GaussianHistory,
    IidUniformPath,
    Mixture,
    Snapshots,
    as_velocity_histories,
    detect_density_period,
    ensemble_values,
    evolve_ensemble,
    evolve_trajectories,
    msd_curve,
    sample_initial,
    velocity_stats,
    write_joint_csv,
    write_snapshot_csv,
)
from ddlab.gaussian import LinearDdeParams, ShiftedWienerKernel, \
    wiener_closed_form
from ddlab.tabular import read_csv


# ---------------------------------------------------------------------------
# initial ensembles


def test_constant_path_gives_identical_histories():
    block = sample_initial(ConstantPath(0.7), 3, 8, 1.0)
    assert block.shape == (3, 9)
    assert np.all(block == 0.7)


def test_iid_uniform_node_statistics():
    block = sample_initial(IidUniformPath(0.65, 0.75), 22500, 8, 1.0, seed=5)
    assert block.min() >= 0.65 and block.max() <= 0.75
    se = (0.1 / math.sqrt(12.0)) / math.sqrt(block.size)
    assert abs(block.mean() - 0.70) < 3 * se


def test_mixture_keeps_component_order_and_counts():
    spec = Mixture(((IidUniformPath(0.65, 0.75), 17000),
                    (IidUniformPath(0.35, 0.45), 5500)))
    block = sample_initial(spec, 22500, 4, 1.0, seed=2)
    hi, lo = block[:17000], block[17000:]
    assert hi.min() >= 0.65 and hi.max() <= 0.75
    assert lo.min() >= 0.35 and lo.max() <= 0.45


def test_mixture_validation():
    with pytest.raises(ValueError):
        Mixture(())
    with pytest.raises(ValueError):
        Mixture(((ConstantPath(0.1), 0),))
    inner = Mixture(((ConstantPath(0.1), 2),))
    with pytest.raises(ValueError):
        Mixture(((inner, 2),))
    spec = Mixture(((ConstantPath(0.0), 3), (ConstantPath(1.0), 4)))
    with pytest.raises(ValueError):
        sample_initial(spec, 10, 4, 1.0)


def test_uniform_spec_validation():
    with pytest.raises(ValueError):
        IidUniformPath(0.7, 0.7)
    with pytest.raises(ValueError):
        ConstantPath(float("nan"))
    with pytest.raises(TypeError):
        sample_initial(object(), 5, 4, 1.0)


def test_gaussian_history_sampling():
    block = sample_initial(GaussianHistory(ShiftedWienerKernel(1.0)),
                           200, 16, 1.0, seed=11)
    assert np.all(block[:, 0] == 0.0)  # pinned at the left end
    var_end = block[:, -1].var()
    assert abs(var_end - 1.0) < 0.45


def test_sampling_is_reproducible():
    a = sample_initial(IidUniformPath(0.0, 1.0), 40, 6, 1.0, seed=9)
    b = sample_initial(IidUniformPath(0.0, 1.0), 40, 6, 1.0, seed=9)
    c = sample_initial(IidUniformPath(0.0, 1.0), 40, 6, 1.0, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [11, 901, 2029])
def test_uniform_block_is_one_generator_stream(seed):
    # the hat, circle and brownian runs start from exactly this stream
    block = sample_initial(IidUniformPath(0.65, 0.75), 50, 16, 1.0, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    assert np.array_equal(block, rng.uniform(0.65, 0.75, (50, 17)))


def test_velocity_lift():
    hs = sample_initial(IidUniformPath(-0.5, 0.5), 4, 8, 1.0, seed=1)
    lifted = as_velocity_histories(hs)
    assert lifted.shape == (4, 9, 2)
    assert np.all(lifted[:, :, 0] == 0.0)
    assert np.array_equal(lifted[:, :, 1], hs)
    with pytest.raises(ValueError):
        as_velocity_histories(lifted)


# ---------------------------------------------------------------------------
# snapshots


def test_pure_decay_point_mass_at_exp_minus_one():
    hs = sample_initial(ConstantPath(1.0), 50, 32, 1.0)
    snaps = evolve_ensemble(hs, 1.0, LinearDelayField(-1.0, 0.0), 1.0, [1.0])
    assert snaps.n == 50
    occupied = np.nonzero(snaps.counts[0])[0]
    assert len(occupied) == 1
    center = snaps.edges[occupied[0]:occupied[0] + 2].mean()
    assert abs(center - math.exp(-1.0)) < 1e-6


def test_snapshot_mass_and_joint_marginal_are_exact():
    hs = sample_initial(IidUniformPath(-1.0, 1.0), 4000, 16, 1.0, seed=3)
    snaps = evolve_ensemble(hs, 1.0, LinearDelayField(-0.5, 0.3), 2.0,
                            [0.5, 1.0, 2.0], bins=37)
    assert snaps.joint is not None
    for i in range(3):
        assert int(snaps.counts[i].sum()) == snaps.n
        mass = snaps.densities()[i].sum() * snaps.width
        assert abs(mass - 1.0) < 1e-12
        assert np.array_equal(snaps.joint[i].sum(axis=1), snaps.counts[i])
        assert int(snaps.joint[i].sum()) == snaps.n


def test_joint_lag_is_m_nodes_back():
    # a snapshot time within the step-grid tolerance of a node reads its
    # lag at that node minus m, the same pairs as the exact node time
    hs = sample_initial(IidUniformPath(-1.0, 1.0), 300, 8, 1.0, seed=5)
    field = LinearDelayField(-0.5, 0.3)
    off = evolve_ensemble(hs, 1.0, field, 2.0, [1.5000000012], bins=9)
    exact = evolve_ensemble(hs, 1.0, field, 2.0, [1.5], bins=9)
    assert np.array_equal(off.joint[0], exact.joint[0])
    assert int(off.joint[0].sum()) == 300


def test_bins_frozen_from_first_snapshot():
    hs = sample_initial(IidUniformPath(0.9, 1.1), 500, 8, 1.0, seed=4)
    # growing solutions drift out of the initial range and get clipped
    snaps = evolve_ensemble(hs, 1.0, LinearDelayField(0.2, 0.0), 6.0,
                            [0.0, 6.0], bins=20)
    assert (snaps.lo, snaps.hi) == (hs[:, -1].min(), hs[:, -1].max())
    assert int(snaps.counts[1].sum()) == 500
    assert snaps.counts[1, -1] == 500  # everything in the top bin


def test_snapshot_time_validation():
    hs = sample_initial(ConstantPath(0.5), 10, 8, 1.0)
    field = LinearDelayField(-1.0, 0.0)
    with pytest.raises(ValueError):
        evolve_ensemble(hs, 1.0, field, 1.0, [0.3])  # not on the tau/8 grid
    with pytest.raises(ValueError):
        evolve_ensemble(hs, 1.0, field, 1.0, [1.5])
    with pytest.raises(ValueError):
        evolve_ensemble(hs, 1.0, field, 1.0, [])


def test_history_side_values_read_back():
    hs = sample_initial(ConstantPath(0.25), 6, 8, 1.0)
    vals = ensemble_values(hs, 1.0, LinearDelayField(-1.0, 0.0),
                           [-1.0, -0.5, 0.0])
    assert np.all(vals == 0.25)


@pytest.mark.parametrize("samples, tau", [
    (np.empty((0, 9)), 1.0),                        # empty block
    (np.array([[0.1] * 4 + [np.nan] + [0.1] * 4]), 1.0),  # NaN node
    (np.full((3, 9), 0.1), 0.0),                    # tau <= 0
    (np.full((3, 9), 0.1), -1.0),
    (np.full((3, 4), 0.1), 1.0),                    # m = 3 < 4
])
def test_history_side_reads_validate_the_block(samples, tau):
    # every requested time is <= 0, so integrate_batch is never reached
    with pytest.raises(ValueError):
        ensemble_values(samples, tau, LinearDelayField(-1.0, 0.0),
                        [-0.5, 0.0])


def _count_block_checks(monkeypatch):
    # ensemble_values and evolve_trajectories bind check_block in their
    # own module; integrate_batch looks it up in ddlab.dde
    calls = []
    real = dde.check_block

    def counting(samples, tau):
        calls.append(np.shape(samples))
        return real(samples, tau)

    monkeypatch.setattr(dde, "check_block", counting)
    monkeypatch.setattr(ensemble, "check_block", counting)
    return calls


@pytest.mark.parametrize("times", [[-0.5, 0.0], [-0.5, 1.0]],
                         ids=["history-side", "integrated"])
def test_ensemble_values_checks_the_block_once(monkeypatch, times):
    calls = _count_block_checks(monkeypatch)
    hs = sample_initial(ConstantPath(0.25), 6, 8, 1.0)
    ensemble_values(hs, 1.0, LinearDelayField(-1.0, 0.0), times)
    assert len(calls) == 1


def test_trajectory_statistics_check_the_block_once(monkeypatch):
    calls = _count_block_checks(monkeypatch)
    evolve_trajectories(np.zeros((5, 9, 2)), 1.0,
                        SineFeedbackField(1.0, 10.0), 2.0, 1.0)
    assert calls == [(5, 9, 2)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrating_reads_reject_non_finite_samples(bad):
    hs = np.full((3, 9), 0.1)
    hs[1, 4] = bad
    with pytest.raises(ValueError, match="finite"):
        ensemble_values(hs, 1.0, LinearDelayField(-1.0, 0.0), [-0.5, 1.0])
    with pytest.raises(ValueError, match="finite"):
        ensemble_values(hs, 1.0, LinearDelayField(-1.0, 0.0), [-0.5, 0.0])
    pair = np.stack([hs, hs], axis=2)
    with pytest.raises(ValueError, match="finite"):
        evolve_trajectories(pair, 1.0, SineFeedbackField(1.0, 10.0), 2.0, 1.0)


def test_empty_ensemble_is_a_value_error():
    with pytest.raises(ValueError):
        evolve_ensemble(np.empty((0, 9)), 1.0, LinearDelayField(-1.0, 0.0),
                        1.0, [0.0, 1.0])


# ---------------------------------------------------------------------------
# determinism


KEENER = AffineCircleDelayField(10.0, 0.5, 0.567,
                                noise=PiecewiseConstantUniform(0.0, 0.2, 1.0))


def test_row_split_is_bitwise_invariant():
    samples = np.random.default_rng(8).uniform(0.0, 1.0, (60, 17))
    table = np.random.default_rng(21).uniform(0.0, 0.2, (60, 5))
    whole = integrate_batch(KEENER, samples, 1.0, 4.0, noise_table=table)
    cuts = [0, 1, 8, 31, 60]
    parts = [integrate_batch(KEENER, samples[lo:hi], 1.0, 4.0,
                             noise_table=table[lo:hi])
             for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(parts), whole)


def _reference_trajectory_statistics(samples, tau, field, T, burn_in):
    """Per-path reference: record every state, then add trajectories one at
    a time to the displacement sum and concatenate their late velocities."""
    m = samples.shape[1] - 1
    h = tau / m
    n = round(T / h)
    rec = np.empty((n + 1, samples.shape[0], samples.shape[2]))

    def obs(k, y):
        rec[k:k + len(y)] = y

    integrate_batch(field, samples, tau, T, observer=obs)
    t = 0.0 + h * np.arange(n + 1)
    acc = np.zeros(n + 1)
    pools = []
    for i in range(samples.shape[0]):
        x, v = rec[:, i, 0], rec[:, i, 1]
        acc += (x - x[0]) ** 2
        pools.append(v[t > burn_in])
    return t, acc, np.concatenate(pools)


@pytest.mark.parametrize("m", [4, 32])
def test_trajectory_statistics_match_per_path_reference_bitwise(m):
    # B = 37 is not a multiple of 8, positions start away from the origin,
    # and burn_in = 5 falls on a node, which must be left out of the pool
    samples = np.random.default_rng(m).uniform(-0.5, 0.5, (37, m + 1, 2))
    field = SineFeedbackField(1.0, 10.0)
    t_ref, acc, pooled = _reference_trajectory_statistics(
        samples, 1.0, field, 20.0, 5.0)
    t, sq_disp, pool = evolve_trajectories(samples, 1.0, field, 20.0, 5.0)
    assert np.array_equal(t, t_ref)
    assert np.array_equal(sq_disp, acc)
    assert pool.shape == (37, 15 * m)
    assert np.array_equal(pool.reshape(-1), pooled)
    _, _, head = evolve_trajectories(samples[:11], 1.0, field, 20.0, 5.0)
    assert np.array_equal(head, pool[:11])


def test_trajectory_statistics_need_a_velocity_component():
    hs = sample_initial(IidUniformPath(0.0, 1.0), 5, 16, 1.0, seed=8)
    with pytest.raises(ValueError, match="velocity component"):
        evolve_trajectories(hs, 1.0, LinearDelayField(-1.0, 0.5), 3.0, 1.0)


def test_noise_seed_changes_noisy_results():
    hs = sample_initial(ConstantPath(0.4), 12, 16, 1.0)
    a = ensemble_values(hs, 1.0, KEENER, [3.0], seed=1)
    b = ensemble_values(hs, 1.0, KEENER, [3.0], seed=2)
    assert not np.array_equal(a, b)


def test_ensemble_noise_is_one_table_draw():
    # 48 steps of 1/16 with q = 16: four segment levels per path, drawn
    # row by row from one generator on the stream (seed, 1)
    hs = sample_initial(IidUniformPath(0.0, 1.0), 7, 16, 1.0, seed=3)
    table = np.random.default_rng((5, 1)).uniform(0.0, 0.2, (7, 4))
    want = integrate_batch(KEENER, hs, 1.0, 3.0, noise_table=table)
    got = ensemble_values(hs, 1.0, KEENER, [3.0], seed=5)
    assert np.array_equal(got, want)


def test_noise_stream_is_apart_from_the_initial_draw(monkeypatch):
    # the same seed for the histories and the noise, as the runner uses:
    # no noise level may be a rescaled history value
    tables = []
    real = integrate_batch

    def spy(*args, noise_table=None, **kw):
        tables.append(noise_table)
        return real(*args, noise_table=noise_table, **kw)

    monkeypatch.setattr(ensemble, "integrate_batch", spy)
    hs = sample_initial(IidUniformPath(0.0, 1.0), 40, 16, 1.0, seed=2029)
    ensemble_values(hs, 1.0, KEENER, [3.0], seed=2029)
    (table,) = tables
    assert table.shape == (40, 4)
    # uniform(0, 0.2) from the histories' stream would be exactly 0.2 * hs
    assert not np.isin(table, 0.2 * hs).any()


def test_noisy_row_prefix_gets_the_same_values():
    hs = sample_initial(IidUniformPath(0.0, 1.0), 40, 16, 1.0, seed=4)
    times = [-0.5, 0.5, 2.0, 3.5]
    whole = ensemble_values(hs, 1.0, KEENER, times, seed=11)
    for k in (1, 13, 39):
        head = ensemble_values(hs[:k], 1.0, KEENER, times, seed=11)
        assert np.array_equal(head, whole[:k])


# ---------------------------------------------------------------------------
# period detection


def _snaps(counts, times):
    """Snapshots of the given count rows on [0, 1], each summing to n."""
    counts = np.array(counts, dtype=np.int64)
    n = int(counts[0].sum())
    assert np.all(counts.sum(axis=1) == n)
    return Snapshots(t=np.array(times, dtype=float), lo=0.0, hi=1.0,
                     counts=counts, joint=None, n=n)


def _l1(snaps, i, j):
    """The L1 distance of snapshots i and j as one 1-d pair, the way
    `detect_density_period` scored each pair before it read the rows."""
    d = snaps.densities()
    return float(np.abs(d[i] - d[j]).sum() * snaps.width)


def _pairwise_scores(snaps):
    K = len(snaps.t)
    return {r: float(np.mean([_l1(snaps, i, i + r) for i in range(K - r)]))
            for r in range(1, K - 1)}


def test_alternating_histograms_give_period_two_steps():
    a = np.array([30, 0, 0, 10], dtype=np.int64)
    b = np.array([0, 25, 15, 0], dtype=np.int64)
    snaps = _snaps([a if i % 2 == 0 else b for i in range(12)],
                   [0.5 * i for i in range(12)])
    assert detect_density_period(snaps, 0.5) == pytest.approx(1.0)


def test_period_three_pattern():
    pats = [np.array([40, 0, 0, 0], dtype=np.int64),
            np.array([0, 40, 0, 0], dtype=np.int64),
            np.array([0, 0, 0, 40], dtype=np.int64)]
    snaps = _snaps([pats[i % 3] for i in range(15)],
                   [0.25 * i for i in range(15)])
    assert detect_density_period(snaps, 0.25) == pytest.approx(0.75)


def test_smallest_passing_divisor_is_the_period():
    # period 2 with a small drift that repeats every 6 snapshots: offset 6
    # matches exactly and scores lowest, but 2 passes the same test
    a = np.array([30, 0, 0, 10], dtype=np.int64)
    b = np.array([0, 25, 15, 0], dtype=np.int64)
    rows = []
    for i in range(18):
        counts = (a if i % 2 == 0 else b).copy()
        j = (i // 2) % 3
        lo, hi = (0, 3) if i % 2 == 0 else (1, 2)
        counts[lo] -= j
        counts[hi] += j
        rows.append(counts)
    snaps = _snaps(rows, [0.5 * i for i in range(18)])
    l1 = [_l1(snaps, i, i + 6) for i in range(12)]
    assert max(l1) == 0.0
    assert detect_density_period(snaps, 0.5) == pytest.approx(1.0)


def test_constant_sequence_reports_none():
    c = np.array([10, 20, 10], dtype=np.int64)
    snaps = _snaps([c] * 10, [1.0 * i for i in range(10)])
    assert detect_density_period(snaps, 1.0) is None


def test_noisy_stationary_sequence_reports_none():
    rng = np.random.default_rng(0)
    p = np.array([0.2, 0.5, 0.3])
    snaps = _snaps([rng.multinomial(300, p) for i in range(14)],
                   [0.5 * i for i in range(14)])
    assert detect_density_period(snaps, 0.5) is None


def test_period_detection_validation():
    c = np.array([5, 5], dtype=np.int64)
    with pytest.raises(ValueError):
        detect_density_period(_snaps([c], [0.0]), 1.0)
    bad = _snaps([c] * 3, [0.0, 1.0, 2.5])
    with pytest.raises(ValueError):
        detect_density_period(bad, 1.0)
    good = _snaps([c] * 3, [0.0, 1.0, 2.0])
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            detect_density_period(good, 1.0, tol=tol)


@pytest.mark.parametrize("bins", [4, 5, 37, 128, 129, 1000])
def test_offset_scores_equal_the_pairwise_loop_bit_for_bit(bins):
    rng = np.random.default_rng(bins)
    for K in (2, 3, 17, 24):
        snaps = _snaps(rng.multinomial(500, np.full(bins, 1.0 / bins), K),
                       [0.5 * i for i in range(K)])
        assert ensemble._offset_scores(snaps) == _pairwise_scores(snaps)


def test_offset_scores_of_the_four_bin_patterns():
    a = np.array([30, 0, 0, 10], dtype=np.int64)
    b = np.array([0, 25, 15, 0], dtype=np.int64)
    pats = [np.array([40, 0, 0, 0], dtype=np.int64),
            np.array([0, 40, 0, 0], dtype=np.int64),
            np.array([0, 0, 0, 40], dtype=np.int64)]
    for rows in ([a, b] * 6, pats * 5, [a, b, b, a] * 4):
        snaps = _snaps(rows, [0.25 * i for i in range(len(rows))])
        assert ensemble._offset_scores(snaps) == _pairwise_scores(snaps)


def test_hat_ensemble_cycles_inside_the_folding_window():
    # drive/relaxation ratio 1.3 lies in the (1, 2] folding window
    hs = sample_initial(IidUniformPath(0.65, 0.75), 800, 32, 1.0, seed=6)
    times = [200.0 + 0.125 * i for i in range(24)]
    snaps = evolve_ensemble(hs, 1.0, TentDelayField(10.0, 13.0), 203.0, times,
                            bins=40, joint=False)
    period = detect_density_period(snaps, 0.125, tol=0.35)
    assert period is not None
    assert 1.9 <= period <= 2.5


def test_hat_ensemble_below_the_window_contracts_to_a_point():
    # ratio 10/13 < 1: the fold never engages and everything decays
    hs = sample_initial(IidUniformPath(0.65, 0.75), 400, 32, 1.0, seed=6)
    times = [60.0 + 0.125 * i for i in range(24)]
    snaps = evolve_ensemble(hs, 1.0, TentDelayField(13.0, 10.0), 63.0, times,
                            joint=False)
    assert snaps.hi < 1e-4
    assert detect_density_period(snaps, 0.125) is None


# ---------------------------------------------------------------------------
# Monte Carlo convergence


def test_density_error_shrinks_like_root_n():
    # delayed pure-feedback response to Wiener histories has a known
    # normal law at t = 1; binned L1 error should scale like n^{-1/2}
    p = LinearDdeParams(0.0, -1.0, 1.0)
    _, var = wiener_closed_form(p, 1.0)
    sigma = math.sqrt(var)
    field = LinearDelayField(0.0, -1.0)
    spec = GaussianHistory(ShiftedWienerKernel(1.0))

    def l1_error(n, seed):
        hs = sample_initial(spec, n, 32, 1.0, seed=seed)
        snaps = evolve_ensemble(hs, 1.0, field, 1.0, [1.0], bins=40,
                                joint=False)
        edges = snaps.edges
        cdf = np.array([0.5 * (1.0 + math.erf(e / (sigma * math.sqrt(2.0))))
                        for e in edges])
        exact = np.diff(cdf) / snaps.width
        err = np.abs(snaps.densities()[0] - exact).sum() * snaps.width
        return err

    sizes = [1000, 10000, 100000]
    errs = [l1_error(n, seed=n) for n in sizes]
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -0.65 <= slope <= -0.35

    hs = sample_initial(spec, 100000, 32, 1.0, seed=100000)
    vals = ensemble_values(hs, 1.0, field, [1.0])[:, 0]
    var_mc = vals.var()
    se = var * math.sqrt(2.0 / len(vals))
    assert abs(var_mc - var) < 4 * se


# ---------------------------------------------------------------------------
# mean-square displacement


def _decay_position(v0, gamma, T, step):
    t = np.arange(round(T / step) + 1) * step
    return v0 * (1.0 - np.exp(-gamma * t)) / gamma


def _msd_inputs(paths, step):
    """``(t, sq_disp)`` of position paths stacked one per row."""
    paths = np.asarray(paths)
    t = step * np.arange(paths.shape[1])
    return t, ((paths - paths[:, :1]) ** 2).sum(axis=0)


def test_msd_plateau_for_pure_decay():
    rng = np.random.default_rng(12)
    xs = [_decay_position(rng.standard_normal(), 1.0, 40.0, 0.05)
          for _ in range(120)]
    curve = msd_curve(*_msd_inputs(xs, 0.05), 120)
    assert curve.n_trajectories == 120
    assert abs(curve.slope) < 1e-6
    assert abs(curve.msd[-1] - curve.intercept) < 1e-4


def test_msd_recovers_diffusive_slope():
    rng = np.random.default_rng(7)
    step, n = 0.05, 2000
    d_coef = 0.5
    xs = []
    for _ in range(150):
        incr = rng.standard_normal(n) * math.sqrt(2 * d_coef * step)
        xs.append(np.concatenate([[0.0], np.cumsum(incr)]))
    curve = msd_curve(*_msd_inputs(xs, step), 150)
    assert 0.6 * 2 * d_coef < curve.slope < 1.4 * 2 * d_coef
    assert curve.r_squared > 0.9


def test_msd_preconditions():
    x = _decay_position(1.0, 1.0, 40.0, 0.05)
    with pytest.raises(ValueError):
        msd_curve(*_msd_inputs([x] * 20, 0.05), 20)
    with pytest.raises(ValueError):
        # 40 time units < 100 delays
        msd_curve(*_msd_inputs([x] * 120, 0.05), 120, tau=1.0)


# ---------------------------------------------------------------------------
# velocity statistics


def _gaussian_velocities(sigma, n_traj, n_nodes, seed):
    """Velocity paths one per row; column 0 sits at t = 0."""
    return np.random.default_rng(seed).standard_normal((n_traj, n_nodes)) \
        * sigma


def test_velocity_stats_on_gaussian_samples():
    sigma = 0.1
    pool = _gaussian_velocities(sigma, 30, 50001, seed=3)[:, 1:]
    stats = velocity_stats(pool)
    assert stats.n_samples == 30 * 50000
    assert abs(stats.std - sigma) < 0.005
    pooled_max = max(np.abs(v).max() for v in pool)
    assert stats.support_bound == pooled_max
    # Gaussian log-density curvature is 1/(2 sigma^2) = 50
    assert 35.0 < stats.fit_curvature < 65.0
    assert stats.fit_r_squared > 0.95


@pytest.mark.parametrize("block", [ensemble._BLOCK, 1000],
                         ids=["one-block", "row-blocks"])
def test_velocity_tail_statistics_match_numpy(monkeypatch, block):
    monkeypatch.setattr(ensemble, "_BLOCK", block)
    pool = _gaussian_velocities(0.1, 37, 301, seed=8)[:, 1:]
    before = pool.copy()
    stats = velocity_stats(pool, min_samples=1000)
    # the blocks are partitioned in place in scratch space, never the pool
    assert np.array_equal(pool, before)
    absolute = np.abs(pool)
    assert stats.tail_quantiles == tuple(
        np.quantile(absolute, q) for q in ensemble.TAIL_QUANTILES)
    assert stats.prefix_max == tuple(
        absolute[:37 // k].max() for k in ensemble.ROW_FRACTIONS)
    assert stats.support_bound == absolute.max()
    # the squared deviations are summed block by block: the same up to
    # the grouping of the sum
    assert stats.std == pytest.approx(pool.std(), rel=1e-14)
    # the central histogram bins the whole pool within its range, as
    # binning the central samples alone did
    width = pool.max() - pool.min()
    clo, chi = pool.min() + 0.1 * width, pool.max() - 0.1 * width
    central = pool[(pool >= clo) & (pool <= chi)]
    assert np.array_equal(
        np.histogram(central, bins=60, range=(clo, chi))[0],
        np.histogram(pool, bins=60, range=(clo, chi))[0])


def test_velocity_stats_burn_in_discards_transient():
    # v starts at 99 and relaxes like exp(-gamma t) into |v| <= 1/gamma
    hs = as_velocity_histories(sample_initial(ConstantPath(99.0), 4, 16, 1.0))
    field = SineFeedbackField(1.0, 10.0)
    _, _, late = evolve_trajectories(hs, 1.0, field, 30.0, 10.0)
    _, _, early = evolve_trajectories(hs, 1.0, field, 30.0, 0.0)
    assert velocity_stats(late, min_samples=1000).support_bound < 2.0
    assert velocity_stats(early, min_samples=1000).support_bound >= 90.0


def test_velocity_stats_requires_enough_samples():
    pool = _gaussian_velocities(0.1, 5, 101, seed=5)[:, 1:]
    with pytest.raises(ValueError):
        velocity_stats(pool)


def test_velocity_spread_decreases_with_feedback_frequency():
    stds = []
    for beta in (1.0, 2.0, 10.0, 50.0):
        hs = as_velocity_histories(
            sample_initial(IidUniformPath(-0.5, 0.5), 120, 16, 1.0,
                           seed=17))
        _, _, pool = evolve_trajectories(hs, 1.0,
                                         SineFeedbackField(1.0, beta),
                                         30.0, 10.0)
        stats = velocity_stats(pool, min_samples=30_000)
        stds.append(stats.std)
    assert all(a > b for a, b in zip(stds, stds[1:]))


# ---------------------------------------------------------------------------
# file output


def test_snapshot_csv_roundtrip(tmp_path):
    hs = sample_initial(IidUniformPath(0.0, 1.0), 300, 8, 1.0, seed=2)
    snaps = evolve_ensemble(hs, 1.0, LinearDelayField(-0.5, 0.1), 2.0,
                            [1.0, 2.0], bins=12)
    path = tmp_path / "snaps.csv"
    write_snapshot_csv(path, snaps)
    header, cols = read_csv(path)
    assert header == ["t", "bin_left", "bin_right", "density"]
    assert len(cols[0]) == 2 * 12
    first = cols[3][:12]
    assert np.allclose(first, snaps.densities()[0])

    jpath = tmp_path / "joint.csv"
    write_joint_csv(jpath, snaps)
    jheader, jcols = read_csv(jpath)
    assert jheader == ["t", "x_left", "x_right", "y_left", "y_right",
                       "density"]
    w = snaps.width
    sel = jcols[0] == 1.0
    assert jcols[5][sel].sum() * w * w == pytest.approx(1.0, abs=1e-12)


def test_joint_csv_needs_joint_snapshots(tmp_path):
    hs = sample_initial(IidUniformPath(0.0, 1.0), 30, 8, 1.0, seed=2)
    snaps = evolve_ensemble(hs, 1.0, LinearDelayField(-0.5, 0.1), 2.0,
                            [1.0, 2.0], bins=12, joint=False)
    with pytest.raises(ValueError, match="joint=True"):
        write_joint_csv(tmp_path / "joint.csv", snaps)
    assert not (tmp_path / "joint.csv").exists()
