"""The benchmark's workloads: generated configs, output checks, work counts.

A workload is a list of ``(label, config_text)`` pairs run one after the
other in one process.  Seeded configs take the benchmark's ``--seed``;
every config asks for ``threads`` workers (the core count), never the
recipes' ``threads = 8``.  The reasons each workload exists are in
``README.md`` next to this file.
"""

import math
import re
from pathlib import Path

RECIPES = Path("docs") / "recipes"

# test 03's folding slopes (a/alpha > 1); the shipped hat recipe swaps
# them and collapses to a point mass
HAT = """kind = dde-ensemble
threads = {threads}

[params]
field = hat
alpha = 10
a = 13
tau = 1.0
m = 128
tol = 0.65

[ensemble]
spec = uniform
lo = 0.65
hi = 0.75
n = 22500
seed = {seed}

[output]
snapshots = 100:102.875:0.125
bins = 50
"""

KICKED = """kind = kicked
threads = {threads}

[params]
gamma = 1.0
taus = 0.2, 0.1, 0.05
n_kicks = 20000
streams = 512
"""

GAUSSIAN = """kind = gaussian
threads = {threads}

[params]
kernel = brownian
a = 0.0
b = -1.0
tau = 1.0
T = 2.0
dt = 0.001
"""

# test 02's period-2 slope on its grid
MAP_ITERATE = """kind = map-iterate
threads = {threads}

[params]
map = tent
a = 1.3
n_iter = 2000
cells = 4096
"""

WORKLOADS = ("delay-ensembles", "variance-compare", "exact-theory")

HAT_PERIOD = 2.125
COMPARE_Z = 4.0
KICK_VAR_RTOL = 0.03
SIGMA2_AT_TAU = 1.0 / 3.0


def recipe(root, name, threads, seed=None, extra_params=()):
    """A shipped recipe with the worker count and seed replaced.

    The ``directory`` key is dropped: runs write only where the benchmark
    says, never over the repository's committed ``out/`` tree.
    """
    text = (Path(root) / RECIPES / name).read_text()
    text = re.sub(r"(?m)^threads\s*=.*$", f"threads = {threads}", text)
    if seed is not None:
        text = re.sub(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
    text = re.sub(r"(?m)^directory\s*=.*\n?", "", text)
    if extra_params:
        lines = "".join(f"{k} = {v}\n" for k, v in extra_params)
        text = text.replace("[params]\n", "[params]\n" + lines, 1)
    return text


def configs(root, workload, seed, threads):
    """The ``(label, config_text)`` pairs one pass of ``workload`` runs."""
    if workload == "delay-ensembles":
        return [("hat", HAT.format(threads=threads, seed=seed)),
                ("circle", recipe(root, "keener-noise.cfg", threads, seed,
                                  [("joint", "true")])),
                ("brownian", recipe(root, "brownian-oscillator.cfg",
                                    threads, seed))]
    if workload == "variance-compare":
        return [("compare", recipe(root, "variance-compare.cfg", threads,
                                   seed))]
    if workload == "exact-theory":
        return [("kicked", KICKED.format(threads=threads)),
                ("gaussian", GAUSSIAN.format(threads=threads)),
                ("map-iterate", MAP_ITERATE.format(threads=threads))]
    raise ValueError(f"unknown workload {workload!r}")


def _steps(t_end, tau, m):
    return int(round(t_end / (tau / m)))


def work_counts(cfg):
    """Work one run of a parsed config does, by the unit its layer uses."""
    p, e = cfg.params, cfg.ensemble
    if cfg.kind == "dde-ensemble":
        t_end = float(cfg.output["snapshots"].times()[-1])
        return {"paths": e["n"],
                "path_steps": e["n"] * _steps(t_end, p["tau"], p["m"])}
    if cfg.kind == "compare":
        return {"paths": e["n"],
                "path_steps": e["n"] * _steps(max(p["times"]), p["tau"],
                                              p["m"])}
    if cfg.kind == "brownian":
        return {"paths": e["n"],
                "path_steps": e["n"] * _steps(p["T"], p["tau"], p["m"])}
    if cfg.kind == "kicked":
        return {"kicks": p["streams"] * p["n_kicks"] * len(p["taus"])}
    if cfg.kind == "gaussian":
        n = int(round(p["T"] / p["dt"]))
        return {"quadrature_points": (n + 1) + 5 * n}
    if cfg.kind == "map-iterate":
        return {"cell_iterations": p["cells"] * p["n_iter"]}
    return {}


# ---------------------------------------------------------------------------
# output checks: each returns (problems, values); values are reported, not
# scored


def _read(path):
    import numpy as np
    return np.genfromtxt(path, delimiter=",", names=True, ndmin=1)


def _densities_integrate_to_one(path, widths, problems):
    import numpy as np
    rows = _read(path)
    for t in np.unique(rows["t"]):
        sel = rows[rows["t"] == t]
        mass = float(np.sum(sel["density"] * widths(sel)))
        if abs(mass - 1.0) > 1e-9:
            problems.append(f"{path.name}: density at t={t:g} integrates "
                            f"to {mass!r}")


def _check_dde(label, cfg, out, problems, values):
    period = _read(out / "period.csv")
    detected = bool(period["detected"][0])
    values["period"] = float(period["period"][0]) if detected else None
    if label == "hat":
        if not (detected and abs(values["period"] - HAT_PERIOD) < 1e-9):
            problems.append(f"hat period {values['period']}, "
                            f"want {HAT_PERIOD}")
    elif not (detected and math.isfinite(values["period"])):
        problems.append("noisy circle detected no finite period")
    _densities_integrate_to_one(
        out / "snapshots.csv",
        lambda r: r["bin_right"] - r["bin_left"], problems)
    if cfg.params["joint"]:
        _densities_integrate_to_one(
            out / "joint.csv",
            lambda r: ((r["x_right"] - r["x_left"])
                       * (r["y_right"] - r["y_left"])), problems)


def _check_compare(cfg, out, problems, values):
    import numpy as np
    from ddlab.gaussian import LinearDdeParams, wiener_closed_form
    rows = _read(out / "compare.csv")
    z = np.abs(rows["sigma2_mc"] - rows["sigma2_analytic"]) / rows["mc_stderr"]
    values["max_z"] = float(z.max())
    if not np.all(z < COMPARE_Z):
        problems.append(f"sigma2_mc off by {z.max():.2f} standard errors")
    p = cfg.params
    lp = LinearDdeParams(p["a"], p["b"], p["tau"])
    for t, analytic in zip(rows["t"], rows["sigma2_analytic"]):
        closed = wiener_closed_form(lp, float(t))[1]
        if abs(analytic - closed) > 1e-8:
            problems.append(f"sigma2_analytic({t:g}) = {analytic!r}, "
                            f"closed form {closed!r}")


def _check_brownian(cfg, out, problems, values):
    p = cfg.params
    stats = _read(out / "stats.csv")
    r2 = float(stats["msd_r_squared"][0])
    v_std = float(stats["v_std"][0])
    sigma = 0.32 / math.sqrt(p["beta"] * p["gamma"])
    if not r2 > 0.95:
        problems.append(f"msd_r_squared {r2:.4f} <= 0.95")
    if not abs(v_std - sigma) < 0.2 * sigma:
        problems.append(f"v_std {v_std:.4f} not within 20% of {sigma:.4f}")
    # test 5's deliberately failing clause (max|v| <= 1.2 K): reported,
    # never scored
    k = 1.0 / (0.68 * math.sqrt(p["beta"]) + 0.60 * math.sqrt(p["gamma"]))
    values["support_ratio"] = float(stats["support_bound"][0]) / (1.2 * k)
    values["msd_r_squared"] = r2
    values["v_std"] = v_std


def _check_kicked(cfg, out, problems, values):
    gamma = cfg.params["gamma"]
    rows = _read(out / "report.csv")
    worst = 0.0
    for tau, var in zip(rows["tau"], rows["var_v"]):
        exact = tau / (12.0 * (1.0 - math.exp(-2.0 * gamma * tau)))
        worst = max(worst, abs(var / exact - 1.0))
    values["var_v_max_rel_err"] = worst
    if not worst < KICK_VAR_RTOL:
        problems.append(f"var_v {worst:.2%} off the exact kick variance")


def _check_gaussian(out, problems, values):
    rows = _read(out / "sigma2.csv")
    residual = float(rows["residual"].max())
    i = int(abs(rows["t"] - 1.0).argmin())
    values["residual_max"] = residual
    if not residual < 1e-5:
        problems.append(f"sigma2 residual {residual:.3g} >= 1e-5")
    if not abs(rows["sigma2"][i] - SIGMA2_AT_TAU) < 1e-8:
        problems.append(f"sigma2(1) = {rows['sigma2'][i]!r}, want 1/3")


def _check_map(out, problems, values):
    import numpy as np
    rows = _read(out / "density.csv")
    mass = float(np.sum(rows["density"] * (rows["x_right"] - rows["x_left"])))
    values["mass"] = mass
    if abs(mass - 1.0) > 1e-9:
        problems.append(f"map density mass {mass!r}")
    if np.any(rows["density"] < 0.0):
        problems.append("map density has negative cells")


def check_outputs(label, cfg, out):
    """Problems found in one run's output directory, plus reported values."""
    problems, values = [], {}
    out = Path(out)
    if cfg.kind == "dde-ensemble":
        _check_dde(label, cfg, out, problems, values)
    elif cfg.kind == "compare":
        _check_compare(cfg, out, problems, values)
    elif cfg.kind == "brownian":
        _check_brownian(cfg, out, problems, values)
    elif cfg.kind == "kicked":
        _check_kicked(cfg, out, problems, values)
    elif cfg.kind == "gaussian":
        _check_gaussian(out, problems, values)
    elif cfg.kind == "map-iterate":
        _check_map(out, problems, values)
    return problems, values
