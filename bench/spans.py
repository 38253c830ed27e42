"""Spans around the program's layer boundaries, and the per-layer metrics.

The tracer replaces functions at the names the program binds them under
(``module.attr``), so the program's own source is untouched.  Each call
records ``[name, start, end, thread, parent, work]``; the parent is the
enclosing span on the same thread, or, for calls made on pool threads,
the innermost main-thread span whose interval contains the call.
"""

import importlib
import inspect
import threading
import time
from contextlib import contextmanager

# (module, attribute, span name, work function).  A work function maps
# the bound call arguments to a tuple of counts summed per span name.


def _integrate_batch_work(a):
    samples = a["samples"]
    m = samples.shape[1] - 1
    steps = int(round(a["T"] / (a["tau"] / m)))
    return (samples.shape[0], samples.shape[0] * steps)


def _paths_work(a):
    return (int(a["n"]),)


def _points_work(a):
    return (len(a["s_values"]),)


def _kicks_work(a):
    return (int(a["n_kicks"]) * len(a["tau_list"]) * int(a["ensemble"]),)


def _cells_work(a):
    return (a["f"].n * int(a["steps"]),)


_EXECUTE = "ddlab.runner.execute"
TARGETS = [
    (_EXECUTE, "sample_initial", "ensemble.sample_initial", _paths_work),
    (_EXECUTE, "as_velocity_histories", "ensemble.as_velocity_histories",
     None),
    (_EXECUTE, "evolve_ensemble", "ensemble.evolve_ensemble", None),
    (_EXECUTE, "ensemble_values", "ensemble.ensemble_values", None),
    (_EXECUTE, "evolve_trajectories", "ensemble.evolve_trajectories", None),
    (_EXECUTE, "msd_curve", "ensemble.msd_curve", None),
    (_EXECUTE, "velocity_stats", "ensemble.velocity_stats", None),
    (_EXECUTE, "detect_density_period", "ensemble.detect_density_period",
     None),
    (_EXECUTE, "r_t", "gaussian.r_t", None),
    (_EXECUTE, "sigma2_curve", "gaussian.sigma2_curve", None),
    (_EXECUTE, "ou_limit_suite", "kicked.ou_limit_suite", _kicks_work),
    (_EXECUTE, "iterate", "maps.iterate", _cells_work),
    (_EXECUTE, "write_csv", "runner.write", None),
    (_EXECUTE, "write_snapshot_csv", "runner.write", None),
    (_EXECUTE, "write_joint_csv", "runner.write", None),
    (_EXECUTE, "write_kick_report", "runner.write", None),
    (_EXECUTE, "_file_hash", "runner.write", None),
    ("ddlab.ensemble", "integrate_batch", "dde.integrate_batch",
     _integrate_batch_work),
    ("ddlab.ensemble", "sample_gaussian_history",
     "gaussian.sample_gaussian_history", None),
    ("ddlab.ensemble", "ensemble_values", "ensemble.ensemble_values", None),
    ("ddlab.gaussian.covariance", "lag_cov_curve", "gaussian.lag_cov_curve",
     _points_work),
]


class Tracer:
    """Collects spans in memory; ``install`` wraps the targets in place."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._local = threading.local()
        self._patches = []

    def _open(self, name, work):
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, 0.0, 0.0, threading.get_ident(),
                stack[-1] if stack else None, work]
        stack.append(span)
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name, work=()):
        span = self._open(name, work)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name, work_fn):
        tracer = self
        sig = inspect.signature(fn)

        def work_of(args, kwargs):
            if work_fn is None:
                return ()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return work_fn(bound.arguments)

        if inspect.isgeneratorfunction(fn):
            # time the generator while it is consumed, one span per resume
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                work = work_of(args, kwargs)
                while True:
                    span = tracer._open(name, work)
                    work = ()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            span = tracer._open(name, work_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def install(self):
        for mod_name, attr, name, work_fn in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self._wrap(fn, name, work_fn))
            self._patches.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def summary(self):
        return summarize(self.spans)


# ---------------------------------------------------------------------------
# analysis


def _union(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: calls, busy, total, self, coverage and work sums.

    ``busy`` sums durations over all threads, ``coverage`` is the union of
    the intervals (wall time the layer was active), ``total`` sums only
    the outermost span of a name (recursion is not counted twice) and
    ``self`` subtracts the union of each span's children from it.
    """
    main = threading.main_thread().ident
    by_id = {id(s): s for s in spans}
    parent = {}
    for s in spans:
        if s[4] is not None:
            parent[id(s)] = s[4]
        elif s[3] != main:
            # pool-thread call: innermost main-thread span containing it
            best = None
            for c in spans:
                if (c[3] == main and c[1] <= s[1] and c[2] >= s[2]
                        and (best is None or c[1] >= best[1])):
                    best = c
            if best is not None:
                parent[id(s)] = best
    children = {}
    for sid, p in parent.items():
        children.setdefault(id(p), []).append(by_id[sid])

    out = {}
    for s in spans:
        name, lo, hi = s[0], s[1], s[2]
        rec = out.setdefault(name, {"calls": 0, "busy": 0.0, "total": 0.0,
                                    "self": 0.0, "work": [], "_iv": []})
        rec["calls"] += 1
        rec["busy"] += hi - lo
        rec["_iv"].append((lo, hi))
        kids = children.get(id(s), [])
        rec["self"] += (hi - lo) - _union(
            [(max(lo, k[1]), min(hi, k[2])) for k in kids if k[2] > lo
             and k[1] < hi])
        p, nested = parent.get(id(s)), False
        while p is not None:
            if p[0] == name:
                nested = True
                break
            p = parent.get(id(p))
        if not nested:
            rec["total"] += hi - lo
            work = s[5]
            if len(rec["work"]) < len(work):
                rec["work"] += [0] * (len(work) - len(rec["work"]))
            for i, w in enumerate(work):
                rec["work"][i] += w
    for rec in out.values():
        rec["coverage"] = _union(rec.pop("_iv"))
    # integrate_batch calls of trajectory runs (at most ``chunk`` paths
    # each), kept apart from the large ensemble batches
    small = [s for s in spans if s[0] == "dde.integrate_batch"
             and parent.get(id(s), ("",))[0] == "ensemble.evolve_trajectories"]
    if small:
        out["dde.integrate_batch.small_batch"] = {
            "calls": len(small),
            "coverage": _union([(s[1], s[2]) for s in small]),
            "work": [sum(s[5][i] for s in small) for i in range(2)]}
    return out


def _get(summary, name, key, index=None):
    rec = summary.get(name)
    if rec is None:
        return 0.0
    value = rec[key]
    if index is not None:
        value = value[index] if index < len(value) else 0
    return value


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "dde.integrate_batch.ns_per_path_step": ("ns", "lower"),
    "dde.integrate_batch.path_steps": ("count", "lower"),
    "dde.integrate_batch.calls": ("count", "lower"),
    "dde.integrate_batch.mean_batch": ("count", "higher"),
    "dde.integrate_batch.busy_s": ("s", "lower"),
    "dde.integrate_batch.wall_s": ("s", "lower"),
    "dde.integrate_batch.small_batch_ns_per_path_step": ("ns", "lower"),
    "ensemble.pool_speedup": ("ratio", "higher"),
    "ensemble.sample_initial.self_s": ("s", "lower"),
    "ensemble.sample_initial.paths_per_s": ("1/s", "higher"),
    "gaussian.sample_gaussian_history.calls": ("count", "lower"),
    "gaussian.sample_gaussian_history.self_s": ("s", "lower"),
    "ensemble.ensemble_values.self_s": ("s", "lower"),
    "ensemble.evolve_ensemble.self_s": ("s", "lower"),
    "ensemble.detect_density_period.s": ("s", "lower"),
    "ensemble.evolve_trajectories.self_s": ("s", "lower"),
    "ensemble.trajectory_stats.self_s": ("s", "lower"),
    "kicked.ou_limit_suite.s": ("s", "lower"),
    "kicked.stream_kicks_per_s": ("1/s", "higher"),
    "gaussian.lag_cov_curve.points_per_s": ("1/s", "higher"),
    "gaussian.sigma2_curve.s": ("s", "lower"),
    "gaussian.r_t.s": ("s", "lower"),
    "maps.iterate.cells_per_s": ("1/s", "higher"),
    "runner.parse_config.s": ("s", "lower"),
    "runner.write.self_s": ("s", "lower"),
    "runner.run.self_s": ("s", "lower"),
    "runner.run.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(s, single=None, untraced_wall=None, traced_wall=None):
    """Per-layer values from a summary ``s`` of the traced ``nproc`` pass.

    ``single`` is the summary of a traced 1-worker pass of the same
    configs (for the pool speedup); ``untraced_wall`` is the wall time of
    the ``run`` calls of an untraced pass, reported as
    ``runner.run.wall_s``.  A layer the workload never enters reads 0.
    """
    ib = "dde.integrate_batch"
    path_steps = _get(s, ib, "work", 1)
    calls = _get(s, ib, "calls")
    kicked = "kicked.ou_limit_suite"
    lag = "gaussian.lag_cov_curve"
    ev = "ensemble.ensemble_values"
    values = {
        f"{ib}.ns_per_path_step": 1e9 * _ratio(_get(s, ib, "coverage"),
                                               path_steps),
        f"{ib}.path_steps": path_steps,
        f"{ib}.calls": calls,
        f"{ib}.mean_batch": _ratio(_get(s, ib, "work", 0), calls),
        f"{ib}.busy_s": _get(s, ib, "busy"),
        f"{ib}.wall_s": _get(s, ib, "coverage"),
        f"{ib}.small_batch_ns_per_path_step": 1e9 * _ratio(
            _get(s, f"{ib}.small_batch", "coverage"),
            _get(s, f"{ib}.small_batch", "work", 1)),
        "ensemble.pool_speedup": (
            _ratio(_get(single, ev, "total"), _get(s, ev, "total"))
            if single is not None else 0.0),
        "ensemble.sample_initial.self_s": _get(s, "ensemble.sample_initial",
                                               "self"),
        "ensemble.sample_initial.paths_per_s": _ratio(
            _get(s, "ensemble.sample_initial", "work", 0),
            _get(s, "ensemble.sample_initial", "total")),
        "gaussian.sample_gaussian_history.calls": _get(
            s, "gaussian.sample_gaussian_history", "calls"),
        "gaussian.sample_gaussian_history.self_s": _get(
            s, "gaussian.sample_gaussian_history", "self"),
        "ensemble.ensemble_values.self_s": _get(s, ev, "self"),
        "ensemble.evolve_ensemble.self_s": _get(s, "ensemble.evolve_ensemble",
                                                "self"),
        "ensemble.detect_density_period.s": _get(
            s, "ensemble.detect_density_period", "total"),
        "ensemble.evolve_trajectories.self_s": _get(
            s, "ensemble.evolve_trajectories", "self"),
        "ensemble.trajectory_stats.self_s": (
            _get(s, "ensemble.msd_curve", "self")
            + _get(s, "ensemble.velocity_stats", "self")),
        f"{kicked}.s": _get(s, kicked, "total"),
        "kicked.stream_kicks_per_s": _ratio(_get(s, kicked, "work", 0),
                                            _get(s, kicked, "total")),
        f"{lag}.points_per_s": _ratio(_get(s, lag, "work", 0),
                                      _get(s, lag, "total")),
        "gaussian.sigma2_curve.s": _get(s, "gaussian.sigma2_curve", "total"),
        "gaussian.r_t.s": _get(s, "gaussian.r_t", "total"),
        "maps.iterate.cells_per_s": _ratio(_get(s, "maps.iterate", "work", 0),
                                           _get(s, "maps.iterate", "total")),
        "runner.parse_config.s": _get(s, "runner.parse_config", "total"),
        "runner.write.self_s": _get(s, "runner.write", "self"),
        "runner.run.self_s": _get(s, "runner.run", "self"),
        "runner.run.wall_s": untraced_wall or 0.0,
        "trace.overhead_frac": (
            _ratio(traced_wall - untraced_wall, untraced_wall)
            if untraced_wall else 0.0),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}
