"""Transfer-operator tests.

Monte Carlo oracle: sampling exactly from a piecewise-constant density and
histogramming the pointwise-mapped samples on the same grid gives an unbiased
estimate of the exact cell-averaged pushforward, so the only gap is sampling
noise (no discretization term).
"""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddlab.density import GridDensity
from ddlab.maps import (AffineCircleMap, DensityCoupledTentMap,
                        NoisyAffineCircleMap, TentMap,
                        detect_asymptotic_period, iterate, push_circle_values,
                        push_tent_values)


def sample_from_grid(f: GridDensity, n: int, rng) -> np.ndarray:
    p = f.values * f.cell_width
    p = p / p.sum()
    cells = rng.choice(f.n, size=n, p=p)
    return f.lo + (cells + rng.random(n)) * f.cell_width


def mc_l1_budget(f_pushed: GridDensity, n: int) -> float:
    # three standard errors of the total L1 deviation of a multinomial
    # histogram from its expectation
    p = np.clip(f_pushed.values * f_pushed.cell_width, 0.0, 1.0)
    return 3.0 * np.sqrt(p * (1.0 - p) / n).sum()


def random_density(seed, n=4096):
    rng = np.random.default_rng(seed)
    return GridDensity(rng.random(n) + 0.5).normalized()


# ---------------------------------------------------------------------------
# tent map


def test_tent_uniform_fixed_point_at_full_slope():
    f = GridDensity.uniform(512)
    pf = TentMap(2.0).push(f)
    assert np.array_equal(pf.values, f.values)


def test_tent_left_indicator_maps_to_uniform():
    # at slope 2 the left half covers [0,1] once under each branch argument:
    # f(x/2) = 2 everywhere, f(1 - x/2) = 0
    n = 1024
    v = np.zeros(n)
    v[: n // 2] = 2.0
    pf = TentMap(2.0).push(GridDensity(v))
    assert np.abs(pf.values - 1.0).max() < 1e-12


def test_tent_support_shrinks_below_full_slope():
    f = GridDensity.uniform(1024)
    pf = TentMap(1.5).push(f)
    assert abs(pf.mass() - 1.0) < 1e-9
    inside = pf.centers <= 0.75
    assert np.all(pf.values[~inside] == 0.0)
    # uniform input spreads evenly over the image interval
    assert np.abs(pf.values[pf.centers < 0.74] - 1.0 / 0.75).max() < 1e-9


def test_tent_push_matches_monte_carlo():
    n_samples = 1_000_000
    rng = np.random.default_rng(101)
    f = random_density(3, n=256)
    pf = TentMap(1.7).push(f)
    x = sample_from_grid(f, n_samples, rng)
    y = 1.7 * np.minimum(x, 1.0 - x)
    hist, _ = np.histogram(y, bins=f.n, range=(0.0, 1.0))
    mc = hist / (n_samples * f.cell_width)
    err = np.abs(pf.values - mc).sum() * f.cell_width
    assert err < mc_l1_budget(pf, n_samples)


def test_exactness_at_full_slope_reaches_uniform():
    f = random_density(11)
    final = iterate(TentMap(2.0), f, 30)
    assert final.l1_distance(GridDensity.uniform(f.n)) < 1e-3


# ---------------------------------------------------------------------------
# circle map


def test_circle_rotation_of_uniform_is_uniform():
    f = GridDensity.uniform(1000)
    pf = AffineCircleMap(0.5, 0.5).push(f)
    # image of [0,1] under x/2 + 1/2 is [1/2, 1]; density 2 there
    assert abs(pf.mass() - 1.0) < 1e-9
    left = pf.values[pf.centers < 0.5]
    right = pf.values[pf.centers > 0.5]
    assert np.abs(left).max() == 0.0
    assert np.abs(right - 2.0).max() < 1e-9


def test_circle_push_matches_monte_carlo():
    n_samples = 1_000_000
    rng = np.random.default_rng(55)
    f = random_density(4, n=256)
    m = AffineCircleMap(0.43, 0.567)
    pf = m.push(f)
    y = np.mod(0.43 * sample_from_grid(f, n_samples, rng) + 0.567, 1.0)
    hist, _ = np.histogram(y, bins=f.n, range=(0.0, 1.0))
    mc = hist / (n_samples * f.cell_width)
    assert np.abs(pf.values - mc).sum() * f.cell_width < mc_l1_budget(pf, n_samples)


def test_noisy_circle_push_matches_monte_carlo():
    n_samples = 1_000_000
    rng = np.random.default_rng(56)
    n = 250
    noise = GridDensity.uniform(50, 0.0, 0.2)  # cell width 1/250
    f = random_density(5, n=n)
    m = NoisyAffineCircleMap(0.5, 0.567, noise)
    pf = m.push(f)
    x = sample_from_grid(f, n_samples, rng)
    xi = sample_from_grid(noise, n_samples, rng)
    y = np.mod(0.5 * x + 0.567 + xi, 1.0)
    hist, _ = np.histogram(y, bins=n, range=(0.0, 1.0))
    mc = hist / (n_samples / n)
    assert np.abs(pf.values - mc).sum() / n < mc_l1_budget(pf, n_samples)


def test_near_delta_noise_reduces_to_deterministic():
    # smearing over one cell moves at most O(1/n) of mass for a piecewise
    # smooth pushforward (here: two jumps of height 2)
    n = 1024
    f = GridDensity.uniform(n)
    det = AffineCircleMap(0.5, 0.3).push(f)
    noisy = NoisyAffineCircleMap(0.5, 0.3, GridDensity.uniform(1, 0.0, 1.0 / n)).push(f)
    assert det.l1_distance(noisy) < 6.0 / n


def test_smoothing_step_fixes_uniform():
    from ddlab.maps import circular_smooth_values
    noise = GridDensity.uniform(100, 0.0, 0.2)
    out = circular_smooth_values(np.ones(500), noise.values)
    assert np.abs(out - 1.0).max() < 1e-12


def test_noisy_push_conserves_mass():
    f = random_density(9, n=500)
    noise = GridDensity.uniform(100, 0.0, 0.2)
    pf = NoisyAffineCircleMap(0.5, 0.567, noise).push(f)
    assert abs(pf.mass() - 1.0) < 1e-9
    assert pf.values.min() >= 0.0


def test_noise_grid_mismatch_rejected():
    f = GridDensity.uniform(500)
    noise = GridDensity.uniform(64, 0.0, 0.2)  # width 1/320 != 1/500
    with pytest.raises(ValueError, match="cell width"):
        NoisyAffineCircleMap(0.5, 0.567, noise).push(f)


def test_unnormalized_noise_rejected():
    bad = GridDensity(np.full(10, 2.0), 0.0, 0.2)  # mass 4
    with pytest.raises(ValueError, match="normalized"):
        NoisyAffineCircleMap(0.5, 0.5, bad)


# ---------------------------------------------------------------------------
# invariant properties


@st.composite
def grid_values(draw, n=64):
    vals = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    arr = np.asarray(vals)
    if arr.sum() <= 0.1:  # keep densities normalizable
        arr = arr + 1.0
    return arr * 64.0 / arr.sum()


@given(f=grid_values(), g=grid_values(),
       alpha=st.floats(0.0, 1.0),
       a=st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_tent_linearity_mass_positivity(f, g, alpha, a):
    mix = alpha * f + (1.0 - alpha) * g
    p_mix = push_tent_values(mix, a)
    p_sep = alpha * push_tent_values(f, a) + (1.0 - alpha) * push_tent_values(g, a)
    assert np.abs(p_mix - p_sep).max() < 1e-12
    assert p_mix.min() >= 0.0
    assert abs(p_mix.sum() / 64.0 - mix.sum() / 64.0) < 1e-9


@given(f=grid_values(), a=st.floats(0.05, 0.95), b=st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_circle_mass_positivity(f, a, b):
    pf = push_circle_values(f, a, b)
    assert pf.min() >= 0.0
    assert abs(pf.sum() - f.sum()) / 64.0 < 1e-9


# ---------------------------------------------------------------------------
# density-coupled tent map


def test_coupling_examples():
    n = 2048
    u = GridDensity.uniform(n)
    assert DensityCoupledTentMap(0.3, 0.0).coupling(u) == 1.0
    assert abs(DensityCoupledTentMap(0.0, 0.5).coupling(u) - 1.5) < 1e-12
    v = np.zeros(n)
    v[: n // 2] = 2.0
    assert abs(DensityCoupledTentMap(0.5, 0.5).coupling(GridDensity(v)) - 1.0) < 1e-12


def test_coupling_handles_partial_cells():
    u = GridDensity.uniform(10)  # window edges fall inside cells
    got = DensityCoupledTentMap(0.03, 0.11).coupling(u)
    assert abs(got - 1.11) < 1e-12


def test_coupled_push_at_unit_slope():
    u = GridDensity.uniform(1024)
    pf = DensityCoupledTentMap(0.3, 0.0).push(u)
    assert abs(pf.mass() - 1.0) < 1e-9
    assert np.abs(pf.values[pf.centers < 0.499] - 2.0).max() < 1e-9
    assert np.all(pf.values[pf.centers > 0.501] == 0.0)


def test_coupled_push_equals_fixed_slope_push():
    u = GridDensity.uniform(1024)
    via_coupled = DensityCoupledTentMap(0.0, 0.5).push(u)
    via_fixed = TentMap(1.5).push(u)
    assert via_coupled.l1_distance(via_fixed) == 0.0


def test_coupled_operator_is_nonlinear():
    n = 1024
    u = GridDensity.uniform(n)
    v = np.zeros(n)
    v[n // 2:] = 2.0
    g = GridDensity(v)
    m = DensityCoupledTentMap(0.5, 0.5)
    mix = GridDensity(0.5 * u.values + 0.5 * g.values)
    lhs = m.push(mix)
    rhs = GridDensity(0.5 * m.push(u).values + 0.5 * m.push(g).values)
    assert lhs.l1_distance(rhs) > 0.05


# ---------------------------------------------------------------------------
# one transfer plan per grid


def _kinds(n):
    k = max(1, n // 8)
    return {"tent": TentMap(1.3), "coupled": DensityCoupledTentMap(0.2, 0.3),
            "circle": AffineCircleMap(0.5, 0.567),
            "noisy": NoisyAffineCircleMap(
                0.5, 0.567, GridDensity.uniform(k, 0.0, k / n))}


# sha256 of six iterates of random_density(n, n), recorded from the pushes
# that located every preimage point anew at each step
_ITERATES_SHA = {
    ("tent", 7): ("c89cfb863623c17d4b4c03cab5c74246"
                  "c178e3837657ac0eade93936fdc0fbe6"),
    ("coupled", 7): ("ddc31a5ea227fa4d5703b2342d19cf15"
                     "fa704a7d45d7a55cf2388b55cf45d76b"),
    ("circle", 7): ("c1ad6ff2acbd740cc8dabf0e3b2e7bb3"
                    "06c4d3a5980dd2b8c2b40a81ce2a9463"),
    ("noisy", 7): ("f260da8b03f5c6da083319785481b9a9"
                   "c515a1df2e808ba7567be5bbcfca7e6c"),
    ("tent", 64): ("6263b9ff0840a42a973b576b854cf1e7"
                   "820a171280525b52efa77f1c769b462e"),
    ("coupled", 64): ("d76228c7b34e170a717043176f06f846"
                      "d3bfc5e66302bd00e4296962cdc58e4d"),
    ("circle", 64): ("d8a58bdc757b98cbf612b1d8a4bae50f"
                     "efdac5192ea0bae2f30481f0c8268e7b"),
    ("noisy", 64): ("28a20b409e561ffbb86871c86a0209db"
                    "9a95c811a40867edcfdb56dee85eed88"),
    ("tent", 4096): ("53c10828277ba14989d461eb1218788e"
                     "d74436a959999693baff422dca253d6c"),
    ("coupled", 4096): ("d0185304962b890f21af3d96a22d8da2"
                        "b133fb1e8a1e520eccd25f53013f7431"),
    ("circle", 4096): ("5d311d44322f29ce5ec87779563b47b5"
                       "012b21f171a8082b1aefe808803a049f"),
    ("noisy", 4096): ("a22b3a033a4dae5f16cdc311fb95cfca"
                      "7fe311ee0db5ab9309abdc0d811d8ce6"),
}


@pytest.mark.parametrize("kind, n", list(_ITERATES_SHA))
def test_iterate_is_repeated_push_bytewise(kind, n):
    m = _kinds(n)[kind]
    seq = iterate(m, random_density(n, n), 6, keep=True)
    by_push = {"tent": lambda v: push_tent_values(v, m.a),
               "circle": lambda v: push_circle_values(v, m.a, m.b)}
    for f, g in zip(seq, seq[1:]):
        assert m.push(f).values.tobytes() == g.values.tobytes()
        if kind in by_push:
            assert by_push[kind](f.values).tobytes() == g.values.tobytes()
    digest = hashlib.sha256(
        np.concatenate([g.values for g in seq]).tobytes()).hexdigest()
    assert digest == "".join(_ITERATES_SHA[(kind, n)])


# ---------------------------------------------------------------------------
# asymptotic period detection


@pytest.mark.parametrize("a,expected", [(1.8, 1), (1.3, 2), (1.15, 4)])
def test_tent_period_windows(a, expected):
    rep = detect_asymptotic_period(TentMap(a), random_density(7))
    assert rep.period == expected
    assert rep.cycle_distance <= 1e-4
    assert len(rep.cycle) == expected


def test_detected_period_monotone_in_slope():
    periods = [detect_asymptotic_period(TentMap(a), random_density(7)).period
               for a in (1.12, 1.15, 1.3, 1.8)]
    assert periods == sorted(periods, reverse=True)


def test_period_detection_gives_none_without_convergence():
    # burn-in 0 and a tight tolerance on a slowly converging slope
    rep = detect_asymptotic_period(TentMap(1.3), random_density(8),
                                   burn_in=0, max_period=4, tol=1e-12)
    assert rep.period is None
    assert rep.burn_in == 0
