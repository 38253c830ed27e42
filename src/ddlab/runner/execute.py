"""Experiment dispatch: turn a RunConfig into CSV files plus a manifest.

Each engine first builds the run's objects and grids and checks every rule
the run applies, through the code that applies it; ``--dry-run`` stops
there.  Its writer then writes plain CSV (plot data, not plots) into one
output directory, and ``run`` records a ``manifest.json`` holding the
normalized config, its hash, and a content hash per output file.  Outputs
are byte reproducible: the same config produces the same files, so
manifests can be compared across machines.  The hashes are SHA-256,
computed by CPython's built-in module rather than through OpenSSL.  All
work runs on the calling thread; the ``threads`` setting is accepted and
validated for compatibility but changes nothing, so no output byte
depends on it.
"""

import ctypes
import json
import math
import os
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .. import __version__
from ..density import GridDensity
from ..dde import (AffineCircleDelayField, LinearDelayField,
                   PiecewiseConstantUniform, SineFeedbackField,
                   TentDelayField, _grid_index, check_block)
from ..ensemble import (ROW_FRACTIONS, TAIL_QUANTILES, ConstantPath,
                        IidUniformPath, Mixture, as_velocity_histories,
                        check_msd_window, check_period_schedule,
                        check_pool_size, check_snapshot_times,
                        detect_density_period, ensemble_values,
                        evolve_ensemble, evolve_trajectories, msd_curve,
                        sample_initial, trajectory_grid, velocity_stats,
                        write_joint_csv, write_snapshot_csv)
from ..errors import DivergenceError
from ..gaussian import (CosineKernel, DegenerateCosineKernel, LinearDdeParams,
                        ShiftedWienerKernel, gaussian_path_slabs, r_t,
                        sigma2_curve)
from ..gaussian.covariance import _canonical_window_args, sigma2_grid
from ..gaussian.linear import check_horizon
from ..kicked import ou_limit_suite, suite_plan, write_kick_report
from ..maps import AffineCircleMap, TentMap, iterate
from ..tabular import write_csv
from .config import RunConfig, normalize

# CPython's built-in SHA-256 gives hashlib's digests without loading
# OpenSSL's libcrypto, a few MiB of resident memory that nothing else in a
# run needs; hashlib is the fallback for an interpreter built without it
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

ENV_OUT_ROOT = "DDLAB_OUT"

# glibc keeps freed heap below a trim threshold that large frees raise to
# tens of MiB; a process that runs several configs hands it back after each
# run, so one run's freed heap does not add to the next run's peak
_MALLOC_TRIM = (getattr(ctypes.CDLL(None), "malloc_trim", None)
                if os.name == "posix" else None)


@dataclass
class RunManifest:
    """Record of one completed (or dry) run."""

    kind: str
    config_hash: str
    seed: object
    version: str
    wall_time: float
    outputs: list
    config: str
    outdir: str = None  # where the files went; not part of the record

    def to_json(self) -> str:
        record = {k: v for k, v in asdict(self).items() if k != "outdir"}
        return json.dumps(record, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        record = json.loads(text)
        return cls(**record)


def _file_hash(path) -> str:
    return sha256(Path(path).read_bytes()).hexdigest()


def _kernel(name, tau):
    if name == "brownian":
        return ShiftedWienerKernel(tau)
    if name == "cosine":
        return CosineKernel()
    return DegenerateCosineKernel()


def _initial_spec(e):
    if e["spec"] == "uniform":
        return IidUniformPath(e["lo"], e["hi"])
    if e["spec"] == "constant":
        return ConstantPath(e["value"])
    return Mixture(tuple((IidUniformPath(lo, hi), count)
                         for lo, hi, count in e["mixture"]))


def _dde_field(p):
    if p["field"] == "hat":
        return TentDelayField(p["alpha"], p["a"])
    if p["field"] == "linear":
        return LinearDelayField(p["a"], p["b"])
    noise = None
    if p["noise_hi"] is not None:
        interval = p["noise_interval"]
        noise = PiecewiseConstantUniform(
            p["noise_lo"], p["noise_hi"],
            p["tau"] if interval is None else interval)
        noise.steps_per_segment(p["tau"] / p["m"])
    return AffineCircleDelayField(p["alpha"], p["a"], p["b"], noise=noise)


# ---------------------------------------------------------------------------
# engines: config -> writer.  Each builds the run's objects and grids and
# checks its rules through their own code, then returns ``write(out) ->
# written files``, which samples, integrates, runs quadrature and writes.


def _map_iterate(cfg):
    p = cfg.params
    map_obj = (TentMap(p["a"]) if p["map"] == "tent"
               else AffineCircleMap(p["a"], p["b"]))
    initial = GridDensity.uniform(p["cells"])

    def write(out):
        path = out / "density.csv"
        iterate(map_obj, initial, p["n_iter"]).to_csv(path)
        return [path]

    return write


def _dde_ensemble(cfg):
    p, e, o = cfg.params, cfg.ensemble, cfg.output
    field, spec = _dde_field(p), _initial_spec(e)
    times, dt = o["snapshots"].times(), o["snapshots"].step
    check_snapshot_times(times, float(times[-1]))
    for t in times:
        _grid_index(t, p["tau"] / p["m"])
    check_period_schedule(times, dt)

    def write(out):
        samples = sample_initial(spec, e["n"], p["m"], p["tau"],
                                 seed=e["seed"])
        snaps = evolve_ensemble(samples, p["tau"], field, float(times[-1]),
                                times, bins=o["bins"], seed=e["seed"],
                                joint=p["joint"])
        written = [out / "snapshots.csv"]
        write_snapshot_csv(written[0], snaps)
        if p["joint"]:
            written.append(out / "joint.csv")
            write_joint_csv(written[-1], snaps)
        period = detect_density_period(snaps, dt, tol=p["tol"])
        written.append(out / "period.csv")
        write_csv(written[-1], ["dt", "tol", "detected", "period"],
                  [[dt], [p["tol"]], [0 if period is None else 1],
                   [math.nan if period is None else period]])
        return written

    return write


def _gaussian(cfg):
    p = cfg.params
    lp = LinearDdeParams(p["a"], p["b"], p["tau"])
    kernel = _kernel(p["kernel"], p["tau"])
    sigma2_grid(lp, p["T"], p["dt"])

    def write(out):
        path = out / "sigma2.csv"
        sigma2_curve(kernel, lp, p["T"], p["dt"]).to_csv(path)
        return [path]

    return write


def _brownian(cfg):
    p, e, o = cfg.params, cfg.ensemble, cfg.output
    field, spec = SineFeedbackField(p["gamma"], p["beta"]), _initial_spec(e)
    burn_in = 0.2 * p["T"] if p["burn_in"] is None else p["burn_in"]
    h, n_steps, first = trajectory_grid(p["tau"], p["m"], p["T"], burn_in)
    check_msd_window(h * n_steps, p["tau"])
    check_pool_size(e["n"] * (n_steps + 1 - first), p["min_samples"])

    def write(out):
        samples = as_velocity_histories(
            sample_initial(spec, e["n"], p["m"], p["tau"], seed=e["seed"]))
        t, sq_disp, pool = evolve_trajectories(samples, p["tau"], field,
                                               p["T"], burn_in)
        curve = msd_curve(t, sq_disp, e["n"], tau=p["tau"],
                          min_trajectories=min(100, e["n"]))
        stats = velocity_stats(pool, bins=o["bins"],
                               min_samples=p["min_samples"])
        written = [out / "msd.csv", out / "stats.csv"]
        write_csv(written[0], ["t", "msd"], [curve.t, curve.msd])
        write_csv(written[1],
                  ["v_std", "support_bound", "fit_curvature",
                   "fit_r_squared", "n_samples"]
                  + [f"abs_v_q{q:g}" for q in TAIL_QUANTILES]
                  + [f"max_abs_v_rows_1/{k}" for k in ROW_FRACTIONS]
                  + ["msd_slope", "msd_intercept", "msd_r_squared",
                     "n_trajectories"],
                  [[stats.std], [stats.support_bound], [stats.fit_curvature],
                   [stats.fit_r_squared], [stats.n_samples]]
                  + [[v] for v in stats.tail_quantiles + stats.prefix_max]
                  + [[curve.slope], [curve.intercept], [curve.r_squared],
                     [curve.n_trajectories]])
        return written

    return write


def _kicked(cfg):
    p = cfg.params
    suite_plan(p["gamma"], p["taus"], p["n_kicks"])

    def write(out):
        reports = ou_limit_suite(p["gamma"], list(p["taus"]), p["n_kicks"],
                                 ensemble=p["streams"])
        path = out / "report.csv"
        write_kick_report(path, reports)
        return [path]

    return write


# Unit histories per `ensemble_values` call of `_response_weights`: about
# 1.4 MiB of integrator state at m = 512.  Each call pays the integrator's
# fixed per-step cost again, so the rows split into the fewest blocks of
# at most this many, all of about one size.
_UNIT_ROWS = 192
# Gram matrix rows per `kernel.value` call of `_sigma2_discrete`: its
# full-size temporaries are 256 KiB each at m = 512.
_GRAM_ROWS = 64


def _response_weights(field, tau, m, times):
    """``(len(times), m+1)`` weights of x(t) on the history nodes.

    The RK4 method of steps is linear in the history for a linear field,
    so the state at each grid time is one fixed weighted sum of the m+1
    history nodes (the discrete form of x(t) = X(t) phi(0) + b int
    X(t - tau - s) phi(s) ds).  Integrating the unit histories gives the
    weights; row ``i`` belongs to ``times[i]``.  They go through
    `ensemble_values` in row blocks, which give the bits of one pass over
    all of them.
    """
    wt = np.empty((len(times), m + 1))
    k = -(-(m + 1) // _UNIT_ROWS)
    edges = [(m + 1) * i // k for i in range(k + 1)]
    for a, b in zip(edges, edges[1:]):
        wt[:, a:b] = ensemble_values(np.eye(b - a, m + 1, k=a), tau, field,
                                     times).T
    return wt


def _sigma2_discrete(kernel, wt, tau):
    """Exact variance of the projected values, w(t)^T G w(t) per time.

    ``G`` is the kernel's Gram matrix on the nodes, so this is what the
    Monte Carlo variance estimates, free of sampling noise: its gap to the
    quadrature curve is the grid and integrator bias alone.  ``G`` is
    filled `_GRAM_ROWS` rows at a time.
    """
    m = wt.shape[1] - 1
    s = -tau + np.arange(m + 1) * (tau / m)
    gram = np.empty((m + 1, m + 1))
    for a in range(0, m + 1, _GRAM_ROWS):
        gram[a:a + _GRAM_ROWS] = kernel.value(s[a:a + _GRAM_ROWS, None],
                                              s[None, :])
    return np.einsum("tj,jk,tk->t", wt, gram, wt)


def _project(samples, tau, wt, out=None):
    """``(n, len(times))`` values of a validated block through the weights,
    written into ``out`` when given.

    einsum (with its default ``optimize=False``), unlike a BLAS product,
    gives the same bytes for any BLAS thread count, row split or operand
    alignment, so projecting a chunk slab by slab gives the bytes of
    projecting it whole.
    """
    return np.einsum("ij,tj->it", check_block(samples, tau)[:, :, 0], wt,
                     out=out)


def _compare(cfg):
    """The compare engine: analytic, discrete and Monte Carlo variance.

    The Monte Carlo ensemble streams in fixed-size chunks, which fix the
    substream seeds.  Each chunk's histories arrive as slabs of the
    sampler, each projected through the response weights as it comes and
    then dropped, so no chunk-sized block of paths is ever held: only the
    chunk's ``(rows, len(times))`` values, filled slab by slab into one
    buffer and summed whole.
    """
    p, e = cfg.params, cfg.ensemble
    tau, m = p["tau"], p["m"]
    lp = LinearDdeParams(p["a"], p["b"], tau)
    kernel = _kernel(p["kernel"], tau)
    times = np.asarray(p["times"], dtype=float)
    # the analytic curve's window and horizon first, as the run meets them
    for t in times:
        _canonical_window_args(lp, t, 0.0, 0.0)
        check_horizon(lp, t)
    for t in times:
        _grid_index(t, tau / m)

    def write(out):
        analytic = np.array([r_t(kernel, lp, float(t), 0.0, 0.0)
                             for t in times])
        wt = _response_weights(LinearDelayField(p["a"], p["b"]), tau, m,
                               times)
        discrete = _sigma2_discrete(kernel, wt, tau)

        n, chunk = e["n"], p["chunk"]
        n_chunks = -(-n // chunk)
        seeds = np.random.SeedSequence(e["seed"]).generate_state(
            n_chunks, dtype=np.uint64)
        total = np.zeros(times.size)
        total_sq = np.zeros(times.size)
        buf = np.empty((min(chunk, n), times.size))
        for c in range(n_chunks):
            seed = np.random.SeedSequence(int(seeds[c]))
            vals = buf[:min(chunk, n - c * chunk)]
            a = 0
            for slab in gaussian_path_slabs(kernel, len(vals), m, tau, seed):
                _project(slab, tau, wt, vals[a:a + len(slab)])
                a += len(slab)
            if not np.all(np.isfinite(vals)):
                row, col = np.argwhere(~np.isfinite(vals))[0]
                raise DivergenceError(times[col], index=c * chunk + int(row))
            total += vals.sum(axis=0)
            total_sq += np.square(vals, out=vals).sum(axis=0)
        mean = total / n
        var = (total_sq - n * mean**2) / (n - 1)
        stderr = var * math.sqrt(2.0 / (n - 1))
        path = out / "compare.csv"
        write_csv(path, ["t", "sigma2_analytic", "sigma2_discrete",
                         "sigma2_mc", "mc_stderr"],
                  [times, analytic, discrete, var, stderr])
        return [path]

    return write


_ENGINES = {
    "map-iterate": _map_iterate,
    "dde-ensemble": _dde_ensemble,
    "gaussian": _gaussian,
    "brownian": _brownian,
    "kicked": _kicked,
    "compare": _compare,
}


def default_outdir(config: RunConfig, digest: str) -> Path:
    root = Path(os.environ.get(ENV_OUT_ROOT, "ddlab-out"))
    return root / f"{config.kind}-{digest[:12]}"


def run(config: RunConfig, *, threads=None, dry_run=False,
        outdir=None) -> RunManifest:
    """Execute ``config`` and write its outputs plus ``manifest.json``.

    ``outdir`` overrides the config's output directory and does not affect
    the recorded config or its hash.  ``threads`` is accepted for
    compatibility (it must be positive) and changes nothing.  The engine
    raises whatever the run would reject before any directory exists;
    ``dry_run`` stops there.  The manifest is written last, by rename, and
    a failed run leaves none, nor a directory that this call created.
    """
    if threads is not None and int(threads) < 1:
        raise ValueError("threads must be positive")
    text = normalize(config)
    digest = sha256(text.encode("utf-8")).hexdigest()
    if outdir is None:
        outdir = config.output.get("directory")
    out = Path(outdir) if outdir is not None else default_outdir(config, digest)

    start = time.perf_counter()
    # blow-ups surface as DivergenceError; the transient overflow warnings
    # on the way there are not actionable
    with np.errstate(over="ignore", invalid="ignore"):
        write = _ENGINES[config.kind](config)
        created = not out.exists()
        out.mkdir(parents=True, exist_ok=True)
        written = []
        if not dry_run:
            (out / "manifest.json").unlink(missing_ok=True)
            try:
                written = write(out)
            except BaseException:
                if created:
                    shutil.rmtree(out, ignore_errors=True)
                raise
    wall = time.perf_counter() - start

    outputs = sorted(({"name": p.name, "sha256": _file_hash(p)}
                      for p in written), key=lambda rec: rec["name"])
    manifest = RunManifest(kind=config.kind, config_hash=digest,
                           seed=config.ensemble.get("seed"),
                           version=__version__, wall_time=wall,
                           outputs=outputs, config=text, outdir=str(out))
    part = out / "manifest.json.part"
    part.write_text(manifest.to_json())
    os.replace(part, out / "manifest.json")
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    return manifest
