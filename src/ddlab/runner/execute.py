"""Experiment dispatch: turn a RunConfig into CSV files plus a manifest.

Every engine writes plain CSV (plot data, not plots) into one output
directory, and ``run`` records a ``manifest.json`` holding the normalized
config, its hash, and a content hash per output file.  Outputs are byte
reproducible: the same config produces the same files, so manifests can be
compared across machines.  All work runs on the calling thread; the
``threads`` setting is accepted and validated for compatibility but changes
nothing, so no output byte depends on it.
"""

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import __version__
from ..density import GridDensity
from ..dde import LinearDelayField, SineFeedbackField, check_block
from ..ensemble import (ROW_FRACTIONS, TAIL_QUANTILES, ConstantPath,
                        GaussianHistory, IidUniformPath, Mixture,
                        as_velocity_histories, detect_density_period,
                        ensemble_values, evolve_ensemble, evolve_trajectories,
                        msd_curve, sample_initial, velocity_stats,
                        write_joint_csv, write_snapshot_csv)
from ..errors import DivergenceError
from ..gaussian import (CosineKernel, DegenerateCosineKernel, LinearDdeParams,
                        ShiftedWienerKernel, r_t, sigma2_curve)
from ..kicked import ou_limit_suite, write_kick_report
from ..maps import AffineCircleMap, TentMap, iterate
from ..tabular import write_csv
from .config import RunConfig, dde_field, normalize

ENV_OUT_ROOT = "DDLAB_OUT"


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
        record = {"kind": self.kind, "config_hash": self.config_hash,
                  "seed": self.seed, "version": self.version,
                  "wall_time": self.wall_time, "outputs": self.outputs,
                  "config": self.config}
        return json.dumps(record, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        record = json.loads(text)
        return cls(**record)


def _file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


# ---------------------------------------------------------------------------
# engines: config -> list of written files


def _run_map_iterate(cfg, out):
    p = cfg.params
    if p["map"] == "tent":
        map_obj = TentMap(p["a"])
    else:
        map_obj = AffineCircleMap(p["a"], p["b"])
    final = iterate(map_obj, GridDensity.uniform(p["cells"]), p["n_iter"])
    path = out / "density.csv"
    final.to_csv(path)
    return [path]


def _run_dde_ensemble(cfg, out):
    p, e, o = cfg.params, cfg.ensemble, cfg.output
    field = dde_field(p)
    times = o["snapshots"].times()
    samples = sample_initial(_initial_spec(e), e["n"], p["m"], p["tau"],
                             seed=e["seed"])
    snaps = evolve_ensemble(samples, p["tau"], field, float(times[-1]), times,
                            bins=o["bins"], seed=e["seed"], joint=p["joint"])
    written = [out / "snapshots.csv"]
    write_snapshot_csv(written[0], snaps)
    if p["joint"]:
        written.append(out / "joint.csv")
        write_joint_csv(written[-1], snaps)
    period = detect_density_period(snaps, o["snapshots"].step, tol=p["tol"])
    written.append(out / "period.csv")
    write_csv(written[-1], ["dt", "tol", "detected", "period"],
              [[o["snapshots"].step], [p["tol"]],
               [0 if period is None else 1],
               [math.nan if period is None else period]])
    return written


def _run_gaussian(cfg, out):
    p = cfg.params
    curve = sigma2_curve(_kernel(p["kernel"], p["tau"]),
                         LinearDdeParams(p["a"], p["b"], p["tau"]),
                         p["T"], p["dt"])
    path = out / "sigma2.csv"
    curve.to_csv(path)
    return [path]


def _run_brownian(cfg, out):
    p, e, o = cfg.params, cfg.ensemble, cfg.output
    field = SineFeedbackField(p["gamma"], p["beta"])
    samples = as_velocity_histories(
        sample_initial(_initial_spec(e), e["n"], p["m"], p["tau"],
                       seed=e["seed"]))
    burn_in = 0.2 * p["T"] if p["burn_in"] is None else p["burn_in"]
    t, sq_disp, pool = evolve_trajectories(samples, p["tau"], field, p["T"],
                                           burn_in)
    curve = msd_curve(t, sq_disp, e["n"], tau=p["tau"],
                      min_trajectories=min(100, e["n"]))
    stats = velocity_stats(pool, bins=o["bins"], min_samples=p["min_samples"])
    written = [out / "msd.csv", out / "stats.csv"]
    write_csv(written[0], ["t", "msd"], [curve.t, curve.msd])
    write_csv(written[1],
              ["v_std", "support_bound", "fit_curvature", "fit_r_squared",
               "n_samples"]
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


def _run_kicked(cfg, out):
    p = cfg.params
    reports = ou_limit_suite(p["gamma"], list(p["taus"]), p["n_kicks"],
                             ensemble=p["streams"])
    path = out / "report.csv"
    write_kick_report(path, reports)
    return [path]


def _response_weights(field, tau, m, times):
    """``(len(times), m+1)`` weights of x(t) on the history nodes.

    The RK4 method of steps is linear in the history for a linear field,
    so the state at each grid time is one fixed weighted sum of the m+1
    history nodes (the discrete form of x(t) = X(t) phi(0) + b int
    X(t - tau - s) phi(s) ds).  Integrating the unit histories gives the
    weights; row ``i`` belongs to ``times[i]``.
    """
    return np.ascontiguousarray(
        ensemble_values(np.eye(m + 1), tau, field, times).T)


def _sigma2_discrete(kernel, wt, tau):
    """Exact variance of the projected values, w(t)^T G w(t) per time.

    ``G`` is the kernel's Gram matrix on the nodes, so this is what the
    Monte Carlo variance estimates, free of sampling noise: its gap to the
    quadrature curve is the grid and integrator bias alone.
    """
    m = wt.shape[1] - 1
    s = -tau + np.arange(m + 1) * (tau / m)
    gram = kernel.value(s[:, None], s[None, :])
    return np.einsum("tj,jk,tk->t", wt, gram, wt)


def _project(samples, tau, wt):
    """``(n, len(times))`` values of a validated block through the weights.

    einsum (with its default ``optimize=False``), unlike a BLAS product,
    gives the same bytes for any BLAS thread count, row split or operand
    alignment.
    """
    return np.einsum("ij,tj->it", check_block(samples, tau)[:, :, 0], wt)


def _run_compare(cfg, out):
    p, e = cfg.params, cfg.ensemble
    tau, m = p["tau"], p["m"]
    kernel = _kernel(p["kernel"], tau)
    lp = LinearDdeParams(p["a"], p["b"], tau)
    times = np.asarray(p["times"], dtype=float)
    analytic = np.array([r_t(kernel, lp, float(t), 0.0, 0.0) for t in times])
    wt = _response_weights(LinearDelayField(p["a"], p["b"]), tau, m, times)
    discrete = _sigma2_discrete(kernel, wt, tau)

    # Stream the ensemble in fixed-size chunks so a large run never holds
    # every history at once; the chunk size fixes the substream seeds.
    # Each chunk is projected through the weights, not integrated.
    n, chunk = e["n"], p["chunk"]
    n_chunks = -(-n // chunk)
    seeds = np.random.SeedSequence(e["seed"]).generate_state(
        n_chunks, dtype=np.uint64)
    total = np.zeros(times.size)
    total_sq = np.zeros(times.size)
    for c in range(n_chunks):
        block = min(chunk, n - c * chunk)
        samples = sample_initial(GaussianHistory(kernel), block, m, tau,
                                 seed=int(seeds[c]))
        vals = _project(samples, tau, wt)
        if not np.all(np.isfinite(vals)):
            row, col = np.argwhere(~np.isfinite(vals))[0]
            raise DivergenceError(times[col], index=c * chunk + int(row))
        total += vals.sum(axis=0)
        total_sq += np.square(vals).sum(axis=0)
    mean = total / n
    var = (total_sq - n * mean**2) / (n - 1)
    stderr = var * math.sqrt(2.0 / (n - 1))
    path = out / "compare.csv"
    write_csv(path, ["t", "sigma2_analytic", "sigma2_discrete", "sigma2_mc",
                     "mc_stderr"],
              [times, analytic, discrete, var, stderr])
    return [path]


_ENGINES = {
    "map-iterate": _run_map_iterate,
    "dde-ensemble": _run_dde_ensemble,
    "gaussian": _run_gaussian,
    "brownian": _run_brownian,
    "kicked": _run_kicked,
    "compare": _run_compare,
}


def default_outdir(config: RunConfig, digest: str) -> Path:
    root = Path(os.environ.get(ENV_OUT_ROOT, "ddlab-out"))
    return root / f"{config.kind}-{digest[:12]}"


def run(config: RunConfig, *, threads=None, dry_run=False,
        outdir=None) -> RunManifest:
    """Execute ``config`` and write its outputs plus ``manifest.json``.

    ``outdir`` overrides the config's output directory and does not affect
    the recorded config or its hash.  ``threads`` is accepted for
    compatibility (it must be positive) and changes nothing: all work runs
    on the calling thread.  With ``dry_run`` the manifest is written but no
    computation happens.
    """
    if threads is not None and int(threads) < 1:
        raise ValueError("threads must be positive")
    text = normalize(config)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if outdir is None:
        outdir = config.output.get("directory")
    out = Path(outdir) if outdir is not None else default_outdir(config, digest)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    if dry_run:
        written = []
    else:
        # blow-ups surface as DivergenceError; the transient overflow
        # warnings on the way there are not actionable
        with np.errstate(over="ignore", invalid="ignore"):
            written = _ENGINES[config.kind](config, out)
    wall = time.perf_counter() - start

    outputs = sorted(({"name": p.name, "sha256": _file_hash(p)}
                      for p in written), key=lambda rec: rec["name"])
    manifest = RunManifest(kind=config.kind, config_hash=digest,
                           seed=config.ensemble.get("seed"),
                           version=__version__, wall_time=wall,
                           outputs=outputs, config=text, outdir=str(out))
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest
