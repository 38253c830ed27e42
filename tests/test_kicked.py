"""Kicked flow: exact updates, chaotic streams, operator decay, OU limit."""
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ddlab.kicked as kicked
from ddlab.density import GridDensity
from ddlab.fit import tail_line_fit
from ddlab.kicked import (
    _SEED_DEN,
    KickConfig,
    _double_mod,
    burn_in_kicks,
    centered_identity,
    equidistributed_seeds,
    evolve_kicked,
    fp_decay_check,
    ou_limit_suite,
    write_kick_report,
)
from ddlab.maps import (AffineCircleMap, DensityCoupledTentMap,
                        NoisyAffineCircleMap, TentMap)
from ddlab.tabular import read_csv


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    cfg = KickConfig(gamma=1.0, tau=0.1)
    assert cfg.kappa == math.sqrt(0.1)
    assert cfg.kappa_sq_over_tau == pytest.approx(1.0, rel=1e-12)
    assert isinstance(cfg.map, TentMap) and cfg.map.a == 2.0
    assert cfg.observable is centered_identity
    assert cfg.observable(0.75) == pytest.approx(0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        KickConfig(gamma=0.0, tau=0.1)
    with pytest.raises(ValueError):
        KickConfig(gamma=1.0, tau=-0.1)
    with pytest.raises(ValueError):
        KickConfig(gamma=1.0, tau=0.1, kappa=0.0)
    # an infinite tau once ran to v = [0, inf, nan, nan], an infinite
    # gamma froze x at 0
    for bad in (math.inf, -math.inf, math.nan):
        for name in ("gamma", "tau", "kappa"):
            kw = {"gamma": 1.0, "tau": 0.1, "kappa": 0.3, name: bad}
            with pytest.raises(ValueError, match=name):
                KickConfig(**kw)


# ---------------------------------------------------------------------------
# the kicked flow


def test_pure_decay_without_kicks():
    cfg = KickConfig(gamma=2.0, tau=0.25, observable=lambda x: 0.0)
    tr = evolve_kicked(cfg, 1.5, -3.0, 0.3, 40)
    lam = math.exp(-2.0 * 0.25)
    assert tr.v[40] == pytest.approx(-3.0 * lam ** 40, rel=1e-12)
    # x approaches x0 + v0/gamma along the closed-form geometric path
    expect = 1.5 + (-3.0) * (1.0 - lam ** 40) / 2.0
    assert tr.x[40] == pytest.approx(expect, rel=1e-12)


def test_three_kick_hand_sequence():
    cfg = KickConfig(gamma=1.0, tau=0.1)
    tr = evolve_kicked(cfg, 0.0, 0.0, 0.2, 3)
    # slope-2 tent orbit of 0.2 is 0.4, 0.8, 0.4
    assert np.allclose(tr.xi, [0.2, 0.4, 0.8, 0.4], atol=1e-14)

    k = math.sqrt(0.1)
    lam = math.exp(-0.1)
    drift = 1.0 - lam
    v1 = k * (0.4 - 0.5)
    x1 = 0.0
    v2 = v1 * lam + k * (0.8 - 0.5)
    x2 = x1 + v1 * drift
    v3 = v2 * lam + k * (0.4 - 0.5)
    x3 = x2 + v2 * drift
    assert np.allclose(tr.v, [0.0, v1, v2, v3], atol=1e-15)
    assert np.allclose(tr.x, [0.0, x1, x2, x3], atol=1e-15)
    assert tr.n_kicks == 3
    assert np.allclose(tr.times, [0.0, 0.1, 0.2, 0.3])


def test_interkick_decay_identity():
    cfg = KickConfig(gamma=1.3, tau=0.2)
    tr = evolve_kicked(cfg, 0.0, 0.7, Fraction(3, 7), 200)
    lam = math.exp(-1.3 * 0.2)
    jumps = tr.v[1:] - tr.v[:-1] * lam
    expected = cfg.kappa * (tr.xi[1:] - 0.5)
    assert np.max(np.abs(jumps - expected)) < 1e-15


def test_large_gamma_is_memoryless():
    cfg = KickConfig(gamma=200.0, tau=0.5)
    tr = evolve_kicked(cfg, 0.0, 5.0, 0.2, 6)
    expected = cfg.kappa * (tr.xi[1:] - 0.5)
    assert np.max(np.abs(tr.v[1:] - expected)) < 1e-12


def test_chaotic_stream_matches_exact_direct_iteration():
    seeds = equidistributed_seeds(3)
    cfg = KickConfig(gamma=1.0, tau=0.1)
    for seed in seeds:
        tr = evolve_kicked(cfg, 0.0, 0.0, seed, 1000)
        xi = Fraction(seed)
        direct = [float(xi)]
        for _ in range(1000):
            xi = 2 * min(xi, 1 - xi)
            direct.append(float(xi))
        assert np.max(np.abs(tr.xi - np.array(direct))) < 1e-15
        # no dyadic collapse: the orbit keeps exploring the interval
        assert tr.xi[500:].std() > 0.1


def test_float_seed_collapses_but_fraction_survives():
    cfg = KickConfig(gamma=1.0, tau=0.1)
    # 0.3 as a float is a dyadic rational: its exact orbit must hit 0
    collapsed = evolve_kicked(cfg, 0.0, 0.0, 0.3, 200)
    assert np.all(collapsed.xi[60:] == 0.0)
    alive = evolve_kicked(cfg, 0.0, 0.0, Fraction(3, 10), 200)
    assert alive.xi[60:].std() > 0.1


def test_xi0_validation():
    cfg = KickConfig(gamma=1.0, tau=0.1)
    with pytest.raises(ValueError):
        evolve_kicked(cfg, 0.0, 0.0, 1.2, 5)
    with pytest.raises(ValueError):
        evolve_kicked(cfg, 0.0, 0.0, 0.5, -1)


def test_seed_list_is_stable_and_nondyadic():
    a = equidistributed_seeds(50)
    b = equidistributed_seeds(50)
    assert a == b
    assert len(set(a)) == 50
    for s in a:
        assert 0 < s < 1
        assert s.denominator % 2 == 1  # never dyadic


def test_uint64_doubling_matches_exact_integer_orbit():
    den = _SEED_DEN
    assert den % 2 == 1
    assert 2 * den < 2 ** 64  # doubling a numerator never overflows
    starts = [s.numerator * (den // s.denominator)
              for s in equidistributed_seeds(64)]
    starts += [0, 1, (den - 1) // 2, (den + 1) // 2, den - 2, den - 1]
    p = np.array(starts, dtype=np.uint64)
    exact = list(starts)
    for _ in range(1000):
        _double_mod(p)
        exact = [(2 * q) % 5 ** 27 for q in exact]
        assert [int(q) for q in p] == exact


# ---------------------------------------------------------------------------
# transfer-operator decay


def test_centered_identity_annihilated_in_one_step():
    norms = fp_decay_check(TentMap(2.0), centered_identity, 5)
    assert norms[0] < 1e-12
    assert np.all(norms < 1e-12)


def test_constants_are_preserved():
    norms = fp_decay_check(TentMap(2.0), lambda x: np.full_like(x, 0.7), 20)
    assert np.allclose(norms, 0.7, atol=1e-12)


def test_centered_indicator_decays():
    def h(x):
        return np.where(x <= 0.5, 0.5, -0.5)

    norms = fp_decay_check(TentMap(2.0), h, 20)
    assert norms[19] < 1e-6


def test_tabulated_values_match_callable():
    centers = (np.arange(512) + 0.5) / 512
    by_call = fp_decay_check(TentMap(2.0), centered_identity, 4, cells=512)
    by_grid = fp_decay_check(TentMap(2.0), centered_identity(centers), 4)
    assert np.array_equal(by_call, by_grid)


def test_circle_map_norms_never_increase():
    norms = fp_decay_check(AffineCircleMap(0.5, 0.567), centered_identity,
                           15, cells=1024)
    assert np.all(np.isfinite(norms))
    assert np.all(np.diff(norms) <= 1e-12)


def test_noisy_circle_map_norms_never_increase():
    # the noise convolution is linear too, so the map's transfer moves
    # signed functions as the plain circle map's does
    noise = GridDensity.uniform(16, 0.0, 16 / 1024)
    norms = fp_decay_check(NoisyAffineCircleMap(0.5, 0.567, noise),
                           centered_identity, 15, cells=1024)
    assert np.all(np.isfinite(norms))
    assert np.all(np.diff(norms) <= 1e-12)


def test_density_coupled_map_is_rejected():
    with pytest.raises(TypeError):
        fp_decay_check(DensityCoupledTentMap(0.0, 0.5), centered_identity, 3)


# sha256 of the norms of a centered indicator, recorded from the push
# functions that fp_decay_check picked by map type
_FP_NORMS_SHA = {
    ("tent", 7): ("0dc230d42c1cf04961e34b018a5789c1"
                  "5ac4d88a488246521ddc64abbd62fb59"),
    ("tent", 64): ("883dddf6169b983349e170dc81517b23"
                   "98dcdab44c5ff3d9c3d0029c94004b4f"),
    ("tent", 4096): ("9275f69b53aa9a39fa7cbfb59ab5fcc8"
                     "a14d74cea8aa886e16c4c1c19aaa391d"),
    ("circle", 7): ("f7f4e4833ab4e90a7d7bc5fbc8732f19"
                    "2d84b27c849140e0880f991b4c959653"),
    ("circle", 64): ("88cfccbcf831ebe80045b58dec9ed61f"
                     "b4984fbd148318fdbd8c06f706cc0369"),
    ("circle", 4096): ("5e884ea0da17cfe2fe4bdd25ffa60c0a"
                       "c7a367a8d096f53516bffd76431d8042"),
}


@pytest.mark.parametrize("kind, cells", list(_FP_NORMS_SHA))
def test_fp_decay_norms_bytes_are_pinned(kind, cells):
    m = TentMap(1.7) if kind == "tent" else AffineCircleMap(0.5, 0.567)
    norms = fp_decay_check(m, lambda x: np.where(x <= 0.3, 0.7, -0.3), 12,
                           cells=cells)
    digest = hashlib.sha256(norms.tobytes()).hexdigest()
    assert digest == "".join(_FP_NORMS_SHA[(kind, cells)])


# ---------------------------------------------------------------------------
# small-tau limit


def _stationary_variance(gamma, tau):
    # kicks are uncorrelated (the centered observable dies in one
    # transfer-operator step), so the variance telescopes to a geometric
    # series: tau * Var(h) / (1 - e^{-2 gamma tau}) with Var(h) = 1/12
    lam2 = math.exp(-2.0 * gamma * tau)
    return tau / 12.0 / (1.0 - lam2)


def test_suite_matches_geometric_variance_prediction():
    reports = ou_limit_suite(1.0, [0.2, 0.1], 4000, ensemble=192)
    for rep in reports:
        pred = _stationary_variance(1.0, rep.tau)
        assert abs(rep.var_v - pred) / pred < 0.1
    # closer kicks look more Gaussian
    assert reports[1].normality_stat < reports[0].normality_stat
    assert reports[1].msd_r2 > 0.9


def test_suite_mean_velocity_is_centered():
    reports = ou_limit_suite(1.0, [0.1], 4000, ensemble=192)
    rep = reports[0]
    lam = math.exp(-0.1)
    inflate = (1.0 + lam) / (1.0 - lam)  # AR(1) correlation correction
    se = math.sqrt(rep.var_v * inflate / rep.n_samples)
    assert abs(rep.mean_v) < 3.0 * se


def test_suite_is_deterministic():
    a = ou_limit_suite(1.0, [0.2], 1500, ensemble=64)[0]
    b = ou_limit_suite(1.0, [0.2], 1500, ensemble=64)[0]
    assert a == b


def test_doubling_gamma_halves_the_variance():
    slow = ou_limit_suite(1.0, [0.1], 4000, ensemble=192)[0]
    fast = ou_limit_suite(2.0, [0.1], 4000, ensemble=192)[0]
    assert 0.4 < fast.var_v / slow.var_v < 0.6


def test_suite_validation():
    with pytest.raises(ValueError):
        ou_limit_suite(1.0, [0.1, 0.2], 4000)
    with pytest.raises(ValueError):
        ou_limit_suite(1.0, [0.1], 150)  # all transient at this tau
    for gamma in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            ou_limit_suite(gamma, [0.1], 4000)
    for tau in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau"):
            ou_limit_suite(1.0, [tau], 4000)
    with pytest.raises(ValueError, match="tau"):
        ou_limit_suite(1.0, [0.2, -0.1], 4000)
    # finite and positive, but 10 / (gamma tau) underflows or overflows
    for gamma, tau in ((1e-200, 1e-200), (1e-300, 1e-10)):
        with pytest.raises(ValueError, match="too small"):
            ou_limit_suite(gamma, [tau], 4000)


def _big_int_suite(gamma, tau_list, n_kicks, ensemble):
    # test-only copy of the former list-of-big-ints loop, with the current
    # denominator and the readout float(p) / float(D) of the uint64 orbit
    den = _SEED_DEN
    nums = [s.numerator * (den // s.denominator)
            for s in equidistributed_seeds(ensemble)]
    reports = []
    for tau in tau_list:
        burn = int(10.0 / (gamma * tau)) + 1
        kappa = math.sqrt(tau)
        decay = math.exp(-gamma * tau)
        drift = (1.0 - decay) / gamma
        p = list(nums)
        x = np.zeros(ensemble)
        v = np.zeros(ensemble)
        v_pool = []
        msd = np.empty(n_kicks - burn + 1)
        for j in range(1, n_kicks + 1):
            x = x + v * drift
            p = [(pp * 2) % den for pp in p]
            theta = np.array([float(pp) / float(den) for pp in p])
            xi = 1.0 - 2.0 * np.abs(theta - 0.5)
            v = v * decay + kappa * (xi - 0.5)
            if j == burn:
                x_ref = x.copy()
            if j >= burn:
                msd[j - burn] = np.mean((x - x_ref) ** 2)
                v_pool.append(v.copy())
        pooled = np.concatenate(v_pool)
        mu = pooled.mean()
        m2 = ((pooled - mu) ** 2).mean()
        m4 = ((pooled - mu) ** 4).mean()
        t = np.arange(len(msd)) * tau
        mask = t >= t[0] + 0.5 * (t[-1] - t[0])
        slope, intercept = np.polyfit(t[mask], msd[mask], 1)
        resid = msd[mask] - (slope * t[mask] + intercept)
        centered = msd[mask] - msd[mask].mean()
        r2 = 1.0 - float(resid @ resid) / float(centered @ centered)
        reports.append(dict(tau=tau, pool=pooled, t=t, msd=msd,
                            normality_stat=abs(float(m4 / m2 ** 2 - 3.0)),
                            msd_slope=float(slope), msd_r2=r2,
                            n_samples=len(pooled)))
    return reports


def _exact_moments(values):
    # mean, variance and excess kurtosis of float64 values as exact
    # rationals, from Python-integer power sums: every value is an integer
    # over one common power of two, which cancels from the kurtosis
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    den = max(d for _, d in ratios)
    ints = [p * (den // d) for p, d in ratios]
    squares = [i * i for i in ints]
    n, s1, s2 = len(ints), sum(ints), sum(squares)
    s3 = sum(q * i for q, i in zip(squares, ints))
    s4 = sum(q * q for q in squares)
    m2 = n * s2 - s1 * s1  # n^2 den^2 times the variance
    m4 = n ** 3 * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2 \
        - 3 * s1 ** 4  # n^4 den^4 times the fourth central moment
    return (Fraction(s1, n * den), Fraction(m2, (n * den) ** 2),
            Fraction(m4, m2 * m2) - 3)


def test_suite_matches_big_int_reference():
    got = ou_limit_suite(1.0, [0.2, 0.1], 1500, ensemble=64)
    want = _big_int_suite(1.0, [0.2, 0.1], 1500, ensemble=64)
    assert len(got) == len(want) == 2
    for rep, ref in zip(got, want):
        # the suite's fourth moment comes from power sums, not pow(d, 4)
        stat = ref.pop("normality_stat")
        assert rep.normality_stat == pytest.approx(stat, rel=1e-12, abs=0.0)
        # the moments come from compensated power sums, so they are held
        # to the exact moments of the reference's own pool
        mean, var, excess = _exact_moments(ref.pop("pool"))
        for field, exact, rel in (("mean_v", mean, 4.5e-16),
                                  ("var_v", var, 4.5e-16),
                                  ("normality_stat", abs(excess), 5e-15)):
            value = Fraction(getattr(rep, field))
            assert abs(value - exact) <= rel * abs(exact), field
        # the stream and positions are exact: the suite's tail line is the
        # closed-form fit of the reference's own msd curve, bit for bit,
        # and agrees with LAPACK's np.polyfit to rounding
        slope, _, r2 = tail_line_fit(ref.pop("t"), ref.pop("msd"))
        assert (rep.msd_slope, rep.msd_r2) == (slope, r2)
        for field in ("msd_slope", "msd_r2"):
            assert getattr(rep, field) == pytest.approx(
                ref.pop(field), rel=1e-13, abs=0.0), field
        for field, value in ref.items():
            assert getattr(rep, field) == value, field


def test_suite_does_not_depend_on_the_kick_block(monkeypatch):
    taus = [0.2, 0.1, 0.05]
    burns = [burn_in_kicks(1.0, t) for t in taus]
    assert burns == [51, 101, 201]
    # 1500 kicks end in a partial block, and the first post-transient
    # kick at tau = 0.2 sits strictly inside a block at every size
    for block in (7, kicked._KICK_BLOCK):
        assert 1500 % block and (burns[0] - 1) % block and burns[0] % block
    want = ou_limit_suite(1.0, taus, 1500, ensemble=64)
    for block in (1, 7):
        monkeypatch.setattr(kicked, "_KICK_BLOCK", block)
        assert ou_limit_suite(1.0, taus, 1500, ensemble=64) == want


def test_six_thousand_kick_report_bytes_are_pinned(tmp_path):
    # recorded from the one-pass suite, whose moments come from power
    # sums folded kick by kick, after the exact-moment check above passed,
    # with the closed-form tail line
    path = tmp_path / "report.csv"
    write_kick_report(path, ou_limit_suite(1.0, [0.2, 0.1, 0.05], 6000,
                                           ensemble=192))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "8abbf4e5fbcbe7b8921cf695ff3488d0"
        "0f3917d2da97a66df609bf6132fdbd2b")


def _traced_peak_mib(n_kicks):
    tracemalloc.start()
    try:
        ou_limit_suite(1.0, [0.2, 0.1], n_kicks, ensemble=256)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_suite_memory_does_not_grow_with_the_kicks():
    short, long = _traced_peak_mib(3000), _traced_peak_mib(12000)
    # only the msd curves are sized by n_kicks (96 KiB each at 12000)
    assert long - short < 1.0, (short, long)
    assert long < 8.0, long


def test_suite_buffers_stay_block_sized_at_the_benchmark_shape():
    # 3 taus x 512 streams x 20 000 kicks: the velocity and position
    # blocks and the msd curves, about 3.1 MiB
    tracemalloc.start()
    try:
        ou_limit_suite(1.0, [0.2, 0.1, 0.05], 20000, ensemble=512)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 4.0, peak


def test_double_mod_into_a_separate_row():
    starts = [s.numerator * (_SEED_DEN // s.denominator)
              for s in equidistributed_seeds(16)]
    p = np.array(starts, dtype=np.uint64)
    out = np.empty_like(p)
    assert _double_mod(p, out=out) is out
    assert [int(q) for q in p] == starts  # the source row is left alone
    assert [int(q) for q in out] == [(2 * q) % _SEED_DEN for q in starts]


def test_report_csv(tmp_path):
    reports = ou_limit_suite(1.0, [0.2], 1500, ensemble=64)
    path = tmp_path / "report.csv"
    write_kick_report(path, reports)
    header, cols = read_csv(path)
    assert header == ["tau", "var_v", "normality_stat", "msd_slope",
                      "msd_r2"]
    assert cols[0][0] == 0.2
    assert cols[1][0] == pytest.approx(reports[0].var_v)
