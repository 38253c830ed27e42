"""Config parsing, manifests, engine dispatch, and the ddlab CLI."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddlab.quadrature
import ddlab.tabular
from ddlab.dde import LinearDelayField
from ddlab.ensemble import ensemble_values
from ddlab.errors import ConfigError, DegenerateCovarianceError
from ddlab.gaussian import (CosineKernel, DegenerateCosineKernel,
                            LinearDdeParams, ShiftedWienerKernel,
                            sample_gaussian_paths)
from ddlab.runner import (KINDS, RunConfig, RunManifest, Schedule,
                          normalize, parse_config, run)
from ddlab.runner.cli import main
from ddlab.runner import execute
from ddlab.tabular import fmt, read_csv, render_csv

from covariance_reference import r_t

RECIPES = Path(__file__).resolve().parent.parent / "docs" / "recipes"

MINIMAL = "kind = map-iterate\n\n[params]\na = 2.0\nn_iter = 5\n"

NOISY_CIRCLE = """
kind = dde-ensemble

[params]
field = circle
alpha = 10.0
a = 0.5
b = 0.567
m = 16
noise_lo = 0.0
noise_hi = 0.2

[ensemble]
spec = uniform
lo = 0.0
hi = 1.0
n = 300
seed = 9

[output]
snapshots = 10:12:0.5
bins = 25
"""


# ---------------------------------------------------------------------------
# parsing


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.kind == "map-iterate"
    assert cfg.threads == 1
    assert cfg.params["a"] == 2.0
    assert cfg.params["n_iter"] == 5
    assert cfg.params["map"] == "tent"
    assert cfg.params["cells"] == 4096


def test_type_mismatch_reports_the_offending_line():
    text = 'kind = map-iterate\n[params]\na = "two"\nn_iter = 5\n'
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [(3, "expected a number, got '\"two\"'")]


def test_all_problems_come_back_in_one_raise():
    text = ('kind = map-iterate\n'
            '[params]\n'
            'a = "two"\n'          # line 3: type mismatch
            'bogus = 1\n'          # line 4: unknown key
            'cells = 64\n')        # n_iter never given
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    lines = [line for line, _ in err.value.problems]
    messages = " | ".join(msg for _, msg in err.value.problems)
    assert lines == [3, 4, None]
    assert "expected a number" in messages
    assert "unknown key 'bogus'" in messages
    assert "missing required key 'n_iter'" in messages


def test_unknown_section_and_duplicate_key():
    text = ('kind = map-iterate\n'
            '[params]\n'
            'a = 1.5\n'
            'a = 1.6\n'
            'n_iter = 3\n'
            '[settings]\n'
            'foo = 1\n')
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (4, "duplicate key 'a'") in err.value.problems
    assert (6, "unknown section [settings]") in err.value.problems
    # the key under the bad section is not reported a second time
    assert not any(line == 7 for line, _ in err.value.problems)


def test_kind_can_come_from_the_caller():
    cfg = parse_config("[params]\na = 2.0\nn_iter = 1\n", kind="map-iterate")
    assert cfg.kind == "map-iterate"
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, kind="gaussian")  # conflicting kinds
    with pytest.raises(ConfigError) as err:
        parse_config("[params]\na = 2.0\n")  # no kind anywhere
    assert (None, "missing required key 'kind'") in err.value.problems


def test_schedule_values_and_rejects():
    cfg = parse_config(NOISY_CIRCLE)
    sched = cfg.output["snapshots"]
    assert sched == Schedule(10.0, 12.0, 0.5)
    assert np.allclose(sched.times(), [10.0, 10.5, 11.0, 11.5, 12.0])
    with pytest.raises(ConfigError):
        parse_config(NOISY_CIRCLE.replace("10:12:0.5", "10:12:0"))
    with pytest.raises(ConfigError):
        parse_config(NOISY_CIRCLE.replace("10:12:0.5", "12:10:0.5"))


@pytest.mark.parametrize("mangle, fragment", [
    (lambda t: t.replace("lo = 0.0\nhi = 1.0\n", ""), "'lo' and 'hi'"),
    (lambda t: t.replace("b = 0.567\n", ""), "'b' is required"),
    (lambda t: t.replace("noise_lo = 0.0\n", ""), "must be given together"),
    (lambda t: t.replace("m = 16", "m = 2"), "at least 4"),
])
def test_cross_key_checks(mangle, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(mangle(NOISY_CIRCLE))
    assert fragment in str(err.value)


def test_linear_field_keys():
    text = ("kind = dde-ensemble\n"
            "[params]\nfield = linear\na = 0.0\nb = -1.0\nm = 8\n"
            "[ensemble]\nspec = constant\nvalue = 1.0\nn = 4\nseed = 1\n"
            "[output]\nsnapshots = 2:4:0.5\n")
    cfg = parse_config(text)
    assert cfg.params["alpha"] is None
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("field = linear", "field = linear\nalpha = 3.0"))
    assert "does not apply" in str(err.value)


def test_mixture_counts_must_match_n():
    text = (RECIPES / "hat-ensemble-mixture.cfg").read_text()
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("n = 22500", "n = 22000"))
    assert "mixture counts sum to 22500" in str(err.value)


def test_shipped_hat_recipe_pins_the_printed_run():
    cfg = parse_config((RECIPES / "hat-ensemble.cfg").read_text())
    assert cfg.kind == "dde-ensemble"
    assert cfg.params["alpha"] == 13.0
    assert cfg.params["a"] == 10.0
    assert cfg.ensemble["spec"] == "uniform"
    assert (cfg.ensemble["lo"], cfg.ensemble["hi"]) == (0.65, 0.75)
    assert cfg.ensemble["n"] == 22500
    sched = cfg.output["snapshots"]
    assert (sched.start, sched.stop) == (400.0, 402.9)
    assert sched.times()[-1] == pytest.approx(402.875)


def test_every_shipped_recipe_parses_and_round_trips():
    paths = sorted(RECIPES.glob("*.cfg"))
    assert len(paths) >= 4
    for path in paths:
        cfg = parse_config(path.read_text())
        again = parse_config(normalize(cfg))
        assert again == cfg, path.name


def test_normalization_is_layout_insensitive():
    spaced = MINIMAL.replace("a = 2.0", "a   =    2.0  ") + "\n# trailing\n"
    reordered = "kind = map-iterate\n[params]\nn_iter = 5\na = 2.0\n"
    base = normalize(parse_config(MINIMAL))
    assert normalize(parse_config(spaced)) == base
    assert normalize(parse_config(reordered)) == base


# ---------------------------------------------------------------------------
# run() and manifests


@pytest.mark.parametrize("rows", [4, None])
def test_csv_text_equals_per_cell_fmt(monkeypatch, rows):
    # columns are converted a block of rows at a time, and every cell
    # keeps fmt's bytes
    if rows is not None:
        monkeypatch.setattr(ddlab.tabular, "_CSV_ROWS", rows)
    floats = np.array([0.1, -0.0, 0.0, math.nan, math.inf, -math.inf,
                       5e-324, 1e300, -1.5, 2.0 / 3.0, 123456789.0])
    ints = np.arange(-5, 6) * 10**12
    bools = np.arange(11) % 3 == 0
    singles = np.float32(floats[:3]).repeat(4)[:11]
    unsigned = np.arange(11, dtype=np.uint64) + 2**63
    columns = [floats, ints, bools, singles, unsigned]
    want = "h1,h2,h3,h4,h5\n" + "".join(
        ",".join(fmt(c[i]) for c in columns) + "\n" for i in range(11))
    assert render_csv(["h1", "h2", "h3", "h4", "h5"], columns) == want
    assert [line.split(",")[0] for line in want.splitlines()[1:9]] == [
        "0.10000000000000001", "-0", "0", "nan", "inf", "-inf",
        "4.9406564584124654e-324", "1.0000000000000001e+300"]
    assert render_csv(["t"], [np.empty(0)]) == "t\n"


def test_dry_run_writes_manifest_only(tmp_path):
    cfg = parse_config(MINIMAL)
    manifest = run(cfg, dry_run=True, outdir=tmp_path / "dry")
    assert manifest.outputs == []
    files = [p.name for p in (tmp_path / "dry").iterdir()]
    assert files == ["manifest.json"]
    record = RunManifest.from_json((tmp_path / "dry" / "manifest.json").read_text())
    assert record.config_hash == manifest.config_hash
    assert record.config == normalize(cfg)


def test_manifest_config_reparses_equal(tmp_path):
    cfg = parse_config(NOISY_CIRCLE)
    manifest = run(cfg, outdir=tmp_path)
    assert parse_config(manifest.config) == cfg


def test_reruns_and_thread_counts_reproduce_hashes(tmp_path):
    cfg = parse_config(NOISY_CIRCLE)
    first = run(cfg, outdir=tmp_path / "a", threads=1)
    second = run(cfg, outdir=tmp_path / "b", threads=1)
    pooled = run(cfg, outdir=tmp_path / "c", threads=4)
    assert first.outputs == second.outputs == pooled.outputs
    assert first.config_hash == second.config_hash == pooled.config_hash
    assert {rec["name"] for rec in first.outputs} == {"snapshots.csv", "period.csv"}


def test_noisy_circle_bytes_are_pinned(tmp_path):
    # one table of segment levels drawn from the stream (seed, 1), read on the
    # integer segment clock (q = 16 steps per level here), through the
    # affine RK4 update
    manifest = run(parse_config(NOISY_CIRCLE), outdir=tmp_path)
    assert {rec["name"]: rec["sha256"] for rec in manifest.outputs} == {
        "period.csv":
            "eebc2b4f8b5a3d72a5825a504ddfbd3d8030430ba733729e4f3857827113b40f",
        "snapshots.csv":
            "ebd0a521dc938f8f1f63fd9a4f18afd3588e19db86134d039c0b943113d94d27",
    }


def test_noisy_circle_joint_bytes_are_pinned(tmp_path):
    # recorded from the writers that appended the rows one bin and one
    # occupied cell at a time
    text = NOISY_CIRCLE.replace("m = 16", "m = 16\njoint = true")
    manifest = run(parse_config(text), outdir=tmp_path)
    digests = {rec["name"]: rec["sha256"] for rec in manifest.outputs}
    assert digests["joint.csv"] == (
        "18d5c8cc4c7c0e69274e4f35d801603bbf60376d47e4cb46c146115b03bb96c0")
    assert digests["snapshots.csv"] == (
        "ebd0a521dc938f8f1f63fd9a4f18afd3588e19db86134d039c0b943113d94d27")


def test_default_outdir_honors_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("DDLAB_OUT", str(tmp_path / "root"))
    cfg = parse_config(MINIMAL)
    manifest = run(cfg)
    out = Path(manifest.outdir)
    assert out.parent == tmp_path / "root"
    assert out.name.startswith("map-iterate-")
    assert (out / "density.csv").exists()


def test_map_iterate_keeps_uniform_invariant(tmp_path):
    text = MINIMAL.replace("n_iter = 5", "n_iter = 30\ncells = 256")
    run(parse_config(text), outdir=tmp_path)
    header, cols = read_csv(tmp_path / "density.csv")
    assert header == ["x_left", "x_right", "density"]
    assert np.allclose(cols[2], 1.0, atol=1e-12)


def test_map_iterate_bytes_are_pinned(tmp_path):
    # the benchmark's map-iterate config; recorded from the pushes that
    # located every preimage point anew at each step
    text = ("kind = map-iterate\n[params]\nmap = tent\na = 1.3\n"
            "n_iter = 2000\ncells = 4096\n")
    run(parse_config(text), outdir=tmp_path)
    digest = hashlib.sha256((tmp_path / "density.csv").read_bytes()).hexdigest()
    assert digest == ("e48ba1dd8f4e391937857699aec014ad"
                      "dc1283b8c294721fab56ddfb340c3419")


def test_gaussian_kind_flat_variance(tmp_path):
    # delay matched to the kernel's oscillation, where the variance sits at 1
    tau = 1.5707963267948966
    text = ("kind = gaussian\n[params]\nkernel = cosine\n"
            f"a = 0.0\nb = -1.0\ntau = {tau!r}\nT = {2 * tau!r}\n"
            f"dt = {tau / 200!r}\n")
    run(parse_config(text), outdir=tmp_path)
    header, cols = read_csv(tmp_path / "sigma2.csv")
    assert header == ["t", "sigma2", "residual"]
    assert np.max(np.abs(cols[1] - 1.0)) < 1e-6


_GAUSSIAN_BENCH = ("kind = gaussian\n[params]\nkernel = brownian\na = 0.0\n"
                   "b = -1.0\ntau = 1.0\nT = 2.0\ndt = 0.001\n")

_HASH_SIGMA2 = f"""
import hashlib, sys
from ddlab.runner import parse_config, run
run(parse_config({_GAUSSIAN_BENCH!r}), outdir=sys.argv[1])
print(hashlib.sha256(open(sys.argv[1] + "/sigma2.csv", "rb").read())
      .hexdigest())
"""


def _printed_at_blas_threads(snippet, *args):
    """What ``snippet`` prints in a fresh interpreter at 1 and 2 BLAS
    threads, as a set."""
    src = str(Path(execute.__file__).resolve().parents[2])
    printed = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", snippet, *args], env=env,
                             capture_output=True, text=True, check=True)
        printed.add(res.stdout.strip())
    return printed


def test_gaussian_sigma2_bytes_are_pinned(tmp_path):
    # the benchmark's gaussian config; how the quadrature panels are laid
    # out, and how many threads BLAS runs, must never move a byte of the
    # curve.  Recorded from the variance read as an integral of the squared
    # evolved factors, whose running integrals the panel rule's tail
    # matrix reads
    want = ("1709d2fec711706a75ea35987124b116"
            "a7de54795eb8eff76d95d4d786d2e731")
    run(parse_config(_GAUSSIAN_BENCH), outdir=tmp_path)
    digest = hashlib.sha256((tmp_path / "sigma2.csv").read_bytes()).hexdigest()
    assert digest == want
    assert _printed_at_blas_threads(_HASH_SIGMA2, str(tmp_path / "g")) == {
        want}


def test_kicked_kind_report_rows(tmp_path):
    text = ("kind = kicked\n[params]\ngamma = 1.0\n"
            "taus = 0.4, 0.2\nn_kicks = 300\nstreams = 16\n")
    run(parse_config(text), outdir=tmp_path)
    header, cols = read_csv(tmp_path / "report.csv")
    assert header == ["tau", "var_v", "normality_stat", "msd_slope", "msd_r2"]
    assert list(cols[0]) == [0.4, 0.2]
    assert all(v > 0 for v in cols[1])


def test_kicked_report_bytes_are_pinned(tmp_path):
    # recorded from the one-pass suite, whose moments come from power
    # sums; how the suite is blocked must never move a byte of the report
    text = ("kind = kicked\n[params]\ngamma = 1.0\n"
            "taus = 0.2, 0.1, 0.05\nn_kicks = 1500\nstreams = 64\n")
    run(parse_config(text), outdir=tmp_path)
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert digest == ("26ac0e5ebed525c0bec0d728a83b5c8d"
                      "0d4674afa9240b21e252e47446f168f6")


def test_compare_kind_matches_analytic(tmp_path):
    text = ("kind = compare\n[params]\nkernel = brownian\n"
            "a = 0.0\nb = -1.0\ntimes = 0.5, 1.0\nm = 32\nchunk = 500\n"
            "[ensemble]\nn = 1200\nseed = 5\n")
    run(parse_config(text), outdir=tmp_path)
    header, cols = read_csv(tmp_path / "compare.csv")
    assert header == ["t", "sigma2_analytic", "sigma2_discrete", "sigma2_mc",
                      "mc_stderr"]
    t, analytic, discrete, mc, se = cols
    assert analytic[1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert np.all(np.abs(mc - analytic) < 5.0 * se)
    assert np.all(np.abs(discrete - analytic) < 1e-3 * analytic)


@pytest.mark.parametrize("kernel", [
    ShiftedWienerKernel(1.0), CosineKernel(), DegenerateCosineKernel(),
], ids=["wiener", "cosine", "degenerate-cosine"])
def test_discrete_variance_matches_quadrature(kernel):
    # w(t)^T G w(t) carries only grid and integrator bias, far below what
    # a Monte Carlo run can resolve
    times = np.array([0.25, 0.5, 1.0])
    wt = execute._response_weights(LinearDelayField(0.0, -1.0), 1.0, 512,
                                   times)
    discrete = execute._sigma2_discrete(kernel, wt, 1.0)
    lp = LinearDdeParams(0.0, -1.0, 1.0)
    for t, got in zip(times, discrete):
        want = r_t(kernel, lp, float(t), 0.0, 0.0)
        assert abs(got - want) <= 1e-5 * want


_HASH_CHUNK = """
import hashlib
import numpy as np
from ddlab.dde import LinearDelayField
from ddlab.gaussian import ShiftedWienerKernel, sample_gaussian_paths
from ddlab.runner import execute
times = np.array([0.25, 0.5, 1.0])
wt = execute._response_weights(LinearDelayField(0.0, -1.0), 1.0, 512, times)
samples = sample_gaussian_paths(ShiftedWienerKernel(1.0), 20000, 512, 1.0, 77)
vals = execute._project(samples, 1.0, wt)
print(hashlib.sha256(vals.tobytes()).hexdigest())
"""


def test_projection_bytes_are_stable():
    # the compare engine's projection agrees with the integrator and keeps
    # its bytes under row splits, operand alignment and BLAS thread count
    tau, times = 1.0, np.array([0.25, 0.5, 1.0])
    field = LinearDelayField(0.0, -1.0)
    wt = execute._response_weights(field, tau, 512, times)
    samples = sample_gaussian_paths(ShiftedWienerKernel(tau), 20000, 512,
                                    tau, 77)
    vals = execute._project(samples, tau, wt)
    want = ensemble_values(samples, tau, field, times)
    assert np.abs(vals - want).max() <= 1e-12 * np.abs(want).max()

    def digest(arr):
        return hashlib.sha256(arr.tobytes()).hexdigest()

    whole = digest(vals)
    parts = [execute._project(samples[a:b], tau, wt)
             for a, b in ((0, 7), (7, 9000), (9000, None))]
    assert digest(np.concatenate(parts)) == whole

    def shifted(arr):
        buf = np.empty(arr.size + 1)
        out = buf[1:].reshape(arr.shape)
        out[...] = arr
        return out

    assert digest(execute._project(shifted(samples), tau, wt)) == whole
    assert digest(execute._project(samples, tau, shifted(wt))) == whole

    assert _printed_at_blas_threads(_HASH_CHUNK) == {whole}


def _compare_text(kernel, m, times, chunk, n, seed):
    return (f"kind = compare\n[params]\nkernel = {kernel}\na = 0.0\n"
            f"b = -1.0\nm = {m}\ntimes = {times}\nchunk = {chunk}\n"
            f"[ensemble]\nn = {n}\nseed = {seed}\n")


@pytest.mark.parametrize("text, sha", [
    (_compare_text("brownian", 32, "0.5, 1.0", 500, 1200, 5),
     "3daef8f16e06065a488cbede59405cb8de328a0db08754fdf5fbdc500665e1a4"),
    # chunks cross slab boundaries and the last chunk is short
    (_compare_text("cosine", 64, "0.25, 0.5, 1.0", 3000, 7001, 9),
     "fae282effe2cd3f1fba3f88e8777843fa62d3c85e3d6d0f52ca606338daf9066"),
], ids=["wiener", "cosine"])
def test_compare_bytes_are_pinned(tmp_path, text, sha):
    # the chunks' substream seeds and the projection's row-split invariance
    # fix these bytes, however the sampler hands out a chunk's paths
    run(parse_config(text), outdir=tmp_path)
    assert hashlib.sha256(
        (tmp_path / "compare.csv").read_bytes()).hexdigest() == sha


def _compare_writer_peak(out, kernel):
    """Traced peak bytes of the compare writer on one 20 000-path chunk at
    m = 512."""
    import tracemalloc

    cfg = parse_config(_compare_text(kernel, 512, "0.25, 0.5, 1.0", 20000,
                                     20000, 3))
    write = execute._ENGINES["compare"](cfg)
    tracemalloc.start()
    try:
        write(out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", ["brownian", "cosine"])
def test_compare_chunk_never_holds_its_paths(tmp_path, kernel):
    # one 20 000-path chunk at m = 512: its paths as one block would be
    # 78 MiB; streamed in slabs the writer's traced peak stays a few MiB
    assert _compare_writer_peak(tmp_path, kernel) < 24 * 2**20


@pytest.mark.parametrize("kernel", ["brownian", "cosine"])
def test_compare_writer_buffers_stay_cache_sized(tmp_path, kernel):
    # a 1 MiB slab and its 1 MiB normal buffer, the chunk's values, and
    # the Gram matrix and unit histories built a row block at a time
    assert _compare_writer_peak(tmp_path, kernel) < 5 * 2**20


def test_brownian_kind_outputs(tmp_path):
    text = ("kind = brownian\n[params]\ngamma = 1.0\nbeta = 10.0\n"
            "T = 250.0\nburn_in = 50.0\nm = 8\nmin_samples = 5000\n"
            "[ensemble]\nn = 120\nseed = 3\n")
    run(parse_config(text), outdir=tmp_path)
    header, cols = read_csv(tmp_path / "stats.csv")
    assert header[:4] == ["v_std", "support_bound", "fit_curvature",
                          "fit_r_squared"]
    # the tail statistics of |v| beside its maximum
    assert header[5:10] == ["abs_v_q0.999", "abs_v_q0.9999",
                            "max_abs_v_rows_1/2", "max_abs_v_rows_1/4",
                            "max_abs_v_rows_1/8"]
    assert cols[6][0] <= cols[1][0] and cols[7][0] <= cols[1][0]
    assert cols[-1][0] == 120  # trajectories that made it into the fit
    msd_header, msd_cols = read_csv(tmp_path / "msd.csv")
    assert msd_header == ["t", "msd"]
    assert np.all(np.isfinite(msd_cols[1]))
    # pinned bytes: the MSD sum and the velocity pool keep a fixed order
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("msd.csv", "stats.csv")}
    assert digests == {
        "msd.csv":
            "30a435d4bc18d4e4f26eeda59c48b2f0162e25973cb9cb8466d02484c6625c5e",
        "stats.csv":
            "661b06ab9c9c11edfaf457db516f18de3c89469dd5f56127ffdbbb9ce92e7c8b",
    }


def _output_digests(text, tmp_path):
    manifest = run(parse_config(text), outdir=tmp_path)
    return {rec["name"]: rec["sha256"] for rec in manifest.outputs}


def test_windowed_brownian_bytes_are_pinned(tmp_path):
    # 64 paths at m = 32 step 30 nodes per window; recorded from the
    # integrator that stepped one node at a time
    text = ("kind = brownian\n[params]\ngamma = 1.0\nbeta = 10.0\n"
            "tau = 1.0\nm = 32\nT = 200.0\nmin_samples = 100000\n"
            "[ensemble]\nspec = uniform\nlo = -0.05\nhi = 0.05\n"
            "n = 64\nseed = 11\n[output]\nbins = 60\n")
    assert _output_digests(text, tmp_path) == {
        "msd.csv":
            "7388a15e6f602ce2a445a3e30f3e1ffd86799cd35c2881cb1c9928b7f823286f",
        "stats.csv":
            "64fa020d256952eb8228a3a77bb1656541970a4e079babdfaa67ad1f6e29491c",
    }


def test_windowed_hat_bytes_are_pinned(tmp_path):
    # the benchmark's hat run at 500 paths, which step 32 nodes per window
    # at m = 128 and still detect the period 2.125; recorded from the
    # integrator that stepped one node at a time
    text = ("kind = dde-ensemble\n[params]\nfield = hat\nalpha = 10\n"
            "a = 13\ntau = 1.0\nm = 128\ntol = 0.65\n[ensemble]\n"
            "spec = uniform\nlo = 0.65\nhi = 0.75\nn = 500\nseed = 11\n"
            "[output]\nsnapshots = 100:102.875:0.125\nbins = 50\n")
    assert _output_digests(text, tmp_path) == {
        "period.csv":
            "36804db51f05596758d41b2900e0a0fcd74ce8001fa367237743d58907d2fedc",
        "snapshots.csv":
            "6148b329be4b21c6aa22d59a0221ff6e50e411994fdd6421efcee2ed0e0841e8",
    }
    _, cols = read_csv(tmp_path / "period.csv")
    assert cols[2][0] == 1 and cols[3][0] == 2.125


# ---------------------------------------------------------------------------
# command line


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_success_writes_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", MINIMAL)
    assert main(["map-iterate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "density.csv").exists()
    assert "wrote 1 file(s)" in capsys.readouterr().out


def test_cli_rejects_bad_config_with_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", 'kind = map-iterate\n[params]\na = "x"\n')
    assert main(["map-iterate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:3" in err and "missing required key 'n_iter'" in err
    assert main(["map-iterate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_kind_mismatch_is_a_config_error(tmp_path):
    cfg = _write(tmp_path, "run.cfg", MINIMAL)
    assert main(["gaussian", "--config", cfg]) == 2


DIVERGING = ("kind = dde-ensemble\n"
             "[params]\nfield = linear\na = 2.0\nb = 0.5\nm = 16\n"
             "[ensemble]\nspec = uniform\nlo = 0.5\nhi = 0.6\nn = 8\n"
             "seed = 1\n[output]\nsnapshots = 400:401:1.0\n")


def test_cli_divergence_exits_3(tmp_path, capsys):
    # two snapshots: the period detection needs them, and a single one is
    # rejected before the run starts
    cfg = _write(tmp_path, "div.cfg", DIVERGING)
    assert main(["dde-ensemble", "--config", cfg, "--out", str(tmp_path / "d")]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("here", [False, True], ids=["named", "dot"])
def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch, here):
    # an earlier run's manifest must not vouch for what a failed run left,
    # and a directory the failed run did not create stays
    out = tmp_path / "d"
    run(parse_config(MINIMAL), outdir=out)
    assert (out / "manifest.json").exists()
    cfg = _write(tmp_path, "div.cfg", DIVERGING)
    if here:
        monkeypatch.chdir(out)
    assert main(["dde-ensemble", "--config", cfg,
                 "--out", "." if here else str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["density.csv"]


@pytest.mark.parametrize("m, times", [
    (3, "0.5"), (8, "0.3"), (8, "-0.5"), (8, "60"),
], ids=["m-below-4", "time-off-grid", "time-negative", "time-past-horizon"])
def test_cli_dry_run_rejects_unrunnable_compare(tmp_path, m, times):
    text = ("kind = compare\n[params]\nkernel = brownian\na = 0.0\n"
            f"b = -1.0\nm = {m}\ntimes = {times}\n"
            "[ensemble]\nn = 100\nseed = 1\n")
    cfg = _write(tmp_path, "cmp.cfg", text)
    assert main(["compare", "--config", cfg, "--dry-run",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("T, code", [(50.0, 0), (50.5, 2)],
                         ids=["at-horizon", "past-horizon"])
def test_cli_dry_run_checks_gaussian_horizon(tmp_path, T, code):
    text = ("kind = gaussian\n[params]\nkernel = brownian\na = 0.0\n"
            f"b = -1.0\ntau = 1.0\nT = {T}\ndt = 0.5\n")
    cfg = _write(tmp_path, "g.cfg", text)
    assert main(["gaussian", "--config", cfg, "--dry-run",
                 "--out", str(tmp_path / "dry")]) == code


@pytest.mark.parametrize("n_kicks, code", [(150, 2), (202, 2), (203, 0)],
                         ids=["far-too-short", "just-too-short", "first-run"])
def test_cli_dry_run_checks_kicked_burn_in(tmp_path, capsys, n_kicks, code):
    # the suite drops a 101-kick transient at tau = 0.1 and needs more
    # kicks again after it, so 2 * 101 + 1 is the first n_kicks it runs
    text = ("kind = kicked\n[params]\ngamma = 1.0\ntaus = 0.2, 0.1\n"
            f"n_kicks = {n_kicks}\nstreams = 8\n")
    cfg = _write(tmp_path, "kick.cfg", text)
    assert main(["kicked", "--config", cfg, "--dry-run",
                 "--out", str(tmp_path / "dry")]) == code
    err = capsys.readouterr().err
    if code:
        assert (f"n_kicks = {n_kicks} leaves no room after the 101-kick "
                "transient at tau = 0.1") in err
    else:
        assert main(["kicked", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("line", ["gamma = 1e-200\ntaus = 1e-200",
                                  "gamma = nan\ntaus = 0.1",
                                  "gamma = 1.0\ntaus = inf"],
                         ids=["underflow", "nan-gamma", "inf-tau"])
def test_cli_dry_run_rejects_degenerate_kick_scales(tmp_path, line):
    text = f"kind = kicked\n[params]\n{line}\nn_kicks = 5000\n"
    cfg = _write(tmp_path, "kick.cfg", text)
    assert main(["kicked", "--config", cfg, "--dry-run",
                 "--out", str(tmp_path / "dry")]) == 2


def _with_interval(value):
    return lambda t: t.replace("noise_hi = 0.2\n",
                               f"noise_hi = 0.2\nnoise_interval = {value}\n")


@pytest.mark.parametrize("mangle, fragment", [
    (_with_interval(0.0), "finite and positive"),
    (_with_interval(-1.0), "finite and positive"),
    (_with_interval("inf"), "finite and positive"),
    (lambda t: t.replace("noise_hi = 0.2", "noise_hi = -0.1"), "hi >= lo"),
    (lambda t: t.replace("a = 0.5\n", "a = 1.5\n"), "0 < a < 1"),
    (_with_interval(0.3), "whole number of steps"),
    (_with_interval(1e308), "whole number of steps"),
    (lambda t: t.replace("noise_lo = 0.0\nnoise_hi = 0.2\n",
                         "noise_interval = 0.5\n"), "needs noise_lo"),
], ids=["interval-zero", "interval-negative", "interval-infinite",
        "lo-above-hi", "a-outside", "interval-off-grid",
        "interval-overflows-the-clock", "interval-without-levels"])
def test_cli_dry_run_checks_the_circle_field(tmp_path, capsys, mangle,
                                             fragment):
    cfg = _write(tmp_path, "circle.cfg", mangle(NOISY_CIRCLE))
    for flags in (["--dry-run"], []):
        assert main(["dde-ensemble", "--config", cfg,
                     "--out", str(tmp_path / "o")] + flags) == 2
        assert fragment in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_dry_run_accepts_an_on_grid_interval(tmp_path):
    cfg = _write(tmp_path, "circle.cfg", _with_interval(0.5)(NOISY_CIRCLE))
    assert main(["dde-ensemble", "--config", cfg, "--dry-run",
                 "--out", str(tmp_path / "o")]) == 0


def test_cli_dry_run_checks_the_snapshot_grid(tmp_path, capsys):
    # the run reads every snapshot off the step grid tau / m = 1/16
    cfg = _write(tmp_path, "circle.cfg",
                 NOISY_CIRCLE.replace("10:12:0.5", "10:12:0.3"))
    for flags in (["--dry-run"], []):
        assert main(["dde-ensemble", "--config", cfg,
                     "--out", str(tmp_path / "o")] + flags) == 2
        assert ("time 10.3 is not a whole number of steps 0.0625"
                in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


HAT = """
kind = dde-ensemble
[params]
alpha = 13.0
a = 10.0
m = 8
[ensemble]
spec = uniform
lo = 0.65
hi = 0.75
n = 10
seed = 1
[output]
snapshots = 1:2:0.5
"""

GAUSSIAN = ("kind = gaussian\n[params]\nkernel = brownian\na = 0.0\n"
            "b = -1.0\ntau = 1.0\nT = 2.0\ndt = 0.5\n")

BROWNIAN = ("kind = brownian\n[params]\ngamma = 1.0\nbeta = 10.0\n"
            "T = 250.0\nburn_in = 50.0\nm = 8\nmin_samples = 5000\n"
            "[ensemble]\nn = 120\nseed = 3\n")


def _ddlab_lines(err):
    return [line for line in err.splitlines() if line.startswith("ddlab:")]


@pytest.mark.parametrize("kind, text", [
    ("dde-ensemble", HAT.replace("1:2:0.5", "-0.5:1:0.5")),
    ("dde-ensemble", HAT.replace("1:2:0.5", "5:5:1")),
    ("gaussian", GAUSSIAN.replace("T = 2.0", "T = 1.0").replace("0.5", "0.3")),
    ("gaussian", GAUSSIAN.replace("dt = 0.5", "dt = nan")),
    ("gaussian", GAUSSIAN.replace("dt = 0.5", "dt = inf")),
    ("brownian", BROWNIAN.replace("T = 250.0", "T = 50.0")),
    ("brownian", BROWNIAN.replace("burn_in = 50.0", "burn_in = 249.9")),
    ("brownian", BROWNIAN.replace("gamma = 1.0", "gamma = nan")),
    ("brownian", BROWNIAN.replace("T = 250.0", "T = inf")),
    ("map-iterate", MINIMAL.replace("a = 2.0", "a = nan")),
], ids=["hat-negative-snapshot", "hat-one-snapshot", "gaussian-T-off-dt",
        "gaussian-dt-nan", "gaussian-dt-inf", "brownian-short-window",
        "brownian-small-pool", "brownian-gamma-nan", "brownian-T-inf",
        "map-a-nan"])
def test_cli_dry_run_rejects_what_the_run_rejects(tmp_path, capsys, kind,
                                                  text):
    cfg = _write(tmp_path, "run.cfg", text)
    lines = []
    for flags in (["--dry-run"], []):
        assert main([kind, "--config", cfg,
                     "--out", str(tmp_path / "o")] + flags) == 2
        lines.append(_ddlab_lines(capsys.readouterr().err))
    assert len(lines[0]) == 1 and lines[0] == lines[1]
    assert not (tmp_path / "o").exists()


def test_cli_joint_snapshot_off_by_rounding_runs(tmp_path):
    # 1.5000000012 passes the step-grid tolerance; the joint read one delay
    # back is m nodes before the snapshot's own node, not t - tau rounded
    # again under the tighter tolerance of the smaller time
    cfg = _write(tmp_path, "hat.cfg",
                 HAT.replace("m = 8", "m = 8\njoint = true").replace(
                     "1:2:0.5", "1.5000000012:1.6250000012:0.125"))
    for flags, out in ((["--dry-run"], "dry"), ([], "run")):
        assert main(["dde-ensemble", "--config", cfg,
                     "--out", str(tmp_path / out)] + flags) == 0
    assert (tmp_path / "run" / "joint.csv").exists()


# Per config family: the CLI kind, a runnable base config, and edge values
# per key; the property test moves up to two keys of a base to an edge.
_FAMILIES = {
    "map": ("map-iterate",
            {"params": {"map": "tent", "a": 1.5, "b": 0.3, "n_iter": 3,
                        "cells": 64}},
            {"map": ["circle"], "a": ["nan", 0.5, 2.5, -1.0, 2.0],
             "b": [0.0, 1.0], "n_iter": [-1, 0], "cells": [1, 2]}),
    "hat": ("dde-ensemble",
            {"params": {"field": "hat", "alpha": 13.0, "a": 10.0, "m": 8},
             "ensemble": {"spec": "uniform", "lo": 0.65, "hi": 0.75, "n": 5,
                          "seed": 1},
             "output": {"snapshots": "1:2:0.5", "bins": 10}},
            {"alpha": [0.0, "nan"], "tau": [0.5, 2.0], "m": [4],
             "joint": ["true"], "lo": ["-inf", 0.8], "n": [0, 1],
             "bins": [0, 1],
             "snapshots": ["-0.5:1:0.5", "5:5:1", "1:2:0.3", "0:0.5:0.5",
                           "0:1:0.25", "2.3:3.3:0.5", "0.3:1.3:0.5",
                           "1:nan:0.5", "0:inf:1", "1:3:1",
                           "1.5000000012:1.6250000012:0.125"]}),
    "circle": ("dde-ensemble",
               {"params": {"field": "circle", "alpha": 10.0, "a": 0.5,
                           "b": 0.567, "m": 16, "noise_lo": 0.0,
                           "noise_hi": 0.2},
                "ensemble": {"spec": "constant", "value": 0.3, "n": 4,
                             "seed": 9},
                "output": {"snapshots": "1:2:0.5", "bins": 10}},
               {"a": [1.5, "nan"], "noise_lo": ["-inf"],
                "noise_hi": [-0.1],
                "noise_interval": [0.5, 0.3, 0.0, "inf", 1e308],
                "value": ["inf", -2.0], "snapshots": ["1:2:0.3", "1:1:1"]}),
    "linear": ("dde-ensemble",
               {"params": {"field": "linear", "a": 0.0, "b": -1.0, "m": 8},
                "ensemble": {"spec": "mixture", "mixture": "0:1:2, 2:3:2",
                             "n": 4, "seed": 5},
                "output": {"snapshots": "0:2:0.5", "bins": 10}},
               {"a": [1e10], "mixture": ["1:0:4", "0:inf:4"],
                "snapshots": ["0:2:0.3", "-1:1:1"]}),
    "gaussian": ("gaussian",
                 {"params": {"kernel": "brownian", "a": 0.0, "b": -1.0,
                             "tau": 1.0, "T": 2.0, "dt": 0.5}},
                 {"kernel": ["cosine", "degenerate-cosine"],
                  "a": ["nan", "inf"], "b": ["nan"],
                  "tau": [0.0, -1.0, "nan", 0.02, 0.25],
                  "T": [1.0, 0.5, 1.1, -1.0, 0.0, "nan", "inf", 100.0],
                  "dt": [0.3, 0.0, -0.5, "nan", "inf"]}),
    "brownian": ("brownian",
                 {"params": {"gamma": 1.0, "beta": 10.0, "tau": 0.1, "m": 4,
                             "T": 10.0, "burn_in": 2.0, "min_samples": 50},
                  "ensemble": {"n": 5, "seed": 2},
                  "output": {"bins": 10}},
                 {"gamma": ["nan", -1.0, 0.0], "beta": ["nan"],
                  "tau": [0.2, "nan", "inf", 0.0], "m": [3, 8],
                  "T": [5.0, 20.0, 10.05, -1.0, 0.0, "inf", "nan"],
                  "burn_in": [9.9, 10.0, "nan", -1.0],
                  "min_samples": [0, 1, 5000], "n": [0, 1, 3],
                  "bins": [0], "lo": ["-inf"]}),
    "kicked": ("kicked",
               {"params": {"gamma": 1.0, "taus": "0.5, 0.2", "n_kicks": 250,
                           "streams": 4}},
               {"gamma": ["nan", 1e-200, 0.0, "inf"],
                "taus": ["0.2", "0.2, 0.5", "inf", "0.1", "0.5, 0.5",
                         "1e-200"],
                "n_kicks": [0, 42, 43, 102, 103, -5], "streams": [0]}),
    "compare": ("compare",
                {"params": {"kernel": "brownian", "a": 0.0, "b": -1.0,
                            "tau": 1.0, "m": 8, "times": "0.5, 1.0",
                            "chunk": 7},
                 "ensemble": {"n": 20, "seed": 4}},
                {"kernel": ["cosine"], "a": ["nan"], "b": ["inf"],
                 "tau": [0.5, 0.0, "nan"], "m": [4, 3],
                 "times": ["0.3", "-0.5", "-0.5, 0.5", "60.0", "0.0", "nan",
                           "inf", "1.0, 0.5", "0.25, 51.0", "50.0"],
                 "chunk": [0, 100], "n": [1, 2]}),
}

_SECTION_OF = {"lo": "ensemble", "n": "ensemble", "value": "ensemble",
               "mixture": "ensemble", "snapshots": "output", "bins": "output"}


def _render(sections):
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n"
                                       for k, v in keys.items())
                   for s, keys in sections.items())


@st.composite
def _configs(draw):
    """Small configs of every kind with up to two keys at a rule's edge."""
    kind, base, edges = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))]
    sections = {s: dict(keys) for s, keys in base.items()}
    for key in draw(st.lists(st.sampled_from(sorted(edges)), max_size=2,
                             unique=True)):
        section = _SECTION_OF.get(key, "params")
        sections.setdefault(section, {})[key] = draw(
            st.sampled_from(edges[key]))
    return kind, _render(sections)


@pytest.mark.parametrize("family, kernel", [
    (family, None) for family in sorted(_FAMILIES)] + [
    ("gaussian", "cosine"), ("gaussian", "degenerate-cosine"),
    ("compare", "cosine")])
def test_no_run_path_runs_adaptive_quadrature(tmp_path, family, kernel):
    # the package holds only the fixed panel rule, and a run of every kind
    # exits 0 with it
    assert not hasattr(ddlab.quadrature, "adaptive_simpson")
    kind, base, _ = _FAMILIES[family]
    sections = {s: dict(keys) for s, keys in base.items()}
    if kernel is not None:
        sections["params"]["kernel"] = kernel
    cfg = _write(tmp_path, "run.cfg", _render(sections))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_configs())
def test_dry_run_fails_exactly_when_the_run_fails_on_its_config(case):
    # what a dry run cannot foresee comes out of the work itself: a
    # divergence (exit 3) or any other numerical failure (exit 4)
    kind, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), "run.cfg", text)
        codes, lines = [], []
        for flags, out in ((["--dry-run"], "dry"), ([], "run")):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                codes.append(main([kind, "--config", cfg,
                                   "--out", str(Path(tmp) / out)] + flags))
            lines.append(_ddlab_lines(err.getvalue()))
        dry, real = codes
        assert dry in (0, 2) and (real == 2) == (dry == 2)
        if dry == 2:
            assert lines[0] == lines[1]
        if real:
            assert not (Path(tmp) / "run").exists()


def test_cli_compare_projection_overflow_exits_3(tmp_path, monkeypatch,
                                                 capsys):
    # finite histories through finite weights can still overflow
    monkeypatch.setattr(execute, "_response_weights",
                        lambda field, tau, m, times:
                        np.full((len(times), m + 1), 1e308))
    text = ("kind = compare\n[params]\nkernel = brownian\na = 0.0\n"
            "b = -1.0\nm = 8\ntimes = 0.5\n[ensemble]\nn = 100\nseed = 1\n")
    cfg = _write(tmp_path, "cmp.cfg", text)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "non-finite state at t = 0.5 (trajectory" in capsys.readouterr().err


def test_cli_numerical_failure_exits_4(tmp_path, monkeypatch):
    def explode(out):
        raise DegenerateCovarianceError("variance at or below tolerance")

    monkeypatch.setitem(execute._ENGINES, "map-iterate", lambda cfg: explode)
    cfg = _write(tmp_path, "run.cfg", MINIMAL)
    assert main(["map-iterate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


def test_cli_quadrature_failure_names_the_time(tmp_path, capsys, monkeypatch):
    # a numerical failure inside the compare writer exits 4, and the
    # failed run leaves no directory
    def give_up(kernel, wt, tau):
        raise DegenerateCovarianceError("variance at or below tolerance")

    monkeypatch.setattr(execute, "_sigma2_discrete", give_up)
    text = ("kind = compare\n[params]\nkernel = brownian\na = 0.0\n"
            "b = -1.0\nm = 8\ntimes = 35.0\n[ensemble]\nn = 100\nseed = 1\n")
    cfg = _write(tmp_path, "cmp.cfg", text)
    out = tmp_path / "o"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 4
    assert "variance at or below tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_cli_dry_run_flag(tmp_path):
    cfg = _write(tmp_path, "run.cfg", MINIMAL)
    out = tmp_path / "o"
    assert main(["map-iterate", "--config", cfg, "--dry-run",
                 "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    record = json.loads((out / "manifest.json").read_text())
    assert record["outputs"] == []
    assert record["seed"] is None


# ---------------------------------------------------------------------------
# start-up


def test_import_loads_no_scipy():
    # scipy is a test dependency only; importing it costs most of start-up
    src = str(Path(execute.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, ddlab, ddlab.runner\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_gaussian_runs_load_no_numpy_polynomial(tmp_path):
    # the panel rule is stored; numpy.polynomial costs 66 ms and 1.1 MiB
    src = str(Path(execute.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [(GAUSSIAN, tmp_path / "g"),
            (_compare_text("cosine", 8, "0.5", 50, 100, 1), tmp_path / "c")]
    code = ("import sys\n"
            "from ddlab.runner import parse_config, run\n"
            + "".join(f"run(parse_config({text!r}), outdir={str(out)!r})\n"
                      for text, out in runs)
            + "print(sorted(m for m in sys.modules"
              " if m.startswith('numpy.polynomial')))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"
