"""Recipe-scale benchmark for ddlab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``NAME`` is one of ``delay-ensembles``,
``variance-compare``, ``exact-theory``, or ``all`` for each in turn.
The load is a closed loop: this process starts one fresh Python process
per pass of the workload, waits for it, and starts the next while the
``S``-second budget allows (at least one pass).  Each pass imports
``ddlab`` from ``src/``, parses the generated configs and calls
``ddlab.runner.run`` on each with the core count as the worker count,
writing into a temporary directory under ``bench/.work``.

With ``--trace 0`` the end-to-end metrics are medians over the passes
(``setup_s`` also over extra start-up-only processes).  With ``--trace 1``
one untraced and one traced pass run (plus a traced 1-worker pass of
``delay-ensembles``) and the per-layer metrics come from the traced one.
Every run's outputs are checked, and their hashes must match across
passes, traced or not, at any worker count, and across invocations at
the same seed and source tree (``bench/results/hashes.json``).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A results file with the host record goes to ``bench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from spans import LAYER_METRICS, layer_metrics
from workloads import RECIPES, WORKLOADS, configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a whole invocation of one workload stays below this

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
              "setup_s": "s"}
# The metrics of the JSON line, which BENCHMARK.json bounds.  wall_s is
# printed but not bounded: with two workers on two cores the pool
# workloads' wall time follows how much CPU the host takes away, while
# their CPU time does not (see README.md).
BOUNDED = ("cpu_s", "peak_rss_mib", "setup_s")


def nproc():
    return len(os.sched_getaffinity(0))


class Session:
    """Child processes, operation tally and reference hashes of one run."""

    def __init__(self, workload, seed, tmp, deadline, registry):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = registry.setdefault(
            f"{source_digest()}/{workload}/{seed}", {})
        self._n = 0

    def spawn(self, threads, *, trace=False, setup_only=False):
        """Run one child pass; returns (setup_s, result or None)."""
        self._n += 1
        job_path = self.tmp / f"job-{self._n}.json"
        result_path = self.tmp / f"result-{self._n}.json"
        cfgs = configs(ROOT, self.workload, self.seed, nproc())
        job_path.write_text(json.dumps({
            "root": str(ROOT), "configs": cfgs, "threads": threads,
            "trace": trace, "setup_only": setup_only,
            "outdir": str(self.tmp / f"out-{self._n}")}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(job_path),
             str(result_path)],
            cwd=self.tmp, env=env, stdout=sys.stderr.fileno())
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.problems.append(f"pass {self._n} killed at the time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        result = None
        if proc.returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
        elif proc.returncode is not None and proc.returncode > 0:
            self.problems.append(f"pass {self._n} exited {proc.returncode}")
        shutil.rmtree(self.tmp / f"out-{self._n}", ignore_errors=True)
        setup = None if result is None else result["first_run"] - t_spawn
        if not setup_only:
            self._account(cfgs, result)
        return setup, result

    def _account(self, cfgs, result):
        runs = [] if result is None else result["runs"]
        self.attempted += len(cfgs)
        self.failed += len(cfgs) - len(runs)
        for rec in runs:
            label = rec["label"]
            bad = []
            if rec["error"] is not None:
                bad.append(rec["error"].strip().splitlines()[-1])
            bad += rec.get("problems", [])
            if rec["outputs"] is not None and rec["outputs"] != \
                    self.reference.setdefault(label, rec["outputs"]):
                bad.append("output hashes differ from an earlier run")
            if bad:
                self.failed += 1
                self.problems += [f"{label}: {b}" for b in bad]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_record():
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": nproc(), "workers": nproc(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "machine": platform.machine(), "git_commit": commit,
            "source_sha256": source_digest()}


def total_wall(result):
    return sum(rec["wall_s"] for rec in result["runs"])


def measure(s, seconds):
    """End-to-end pass loop; returns (metrics, per-pass records)."""
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _ = s.spawn(nproc(), setup_only=True)
        if setup is not None:
            setups.append(setup)
    passes = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup, result = s.spawn(nproc())
        if result is None:
            break
        setups.append(setup)
        passes.append({"workers": nproc(), "setup_s": setup,
                       "wall_s": total_wall(result),
                       "cpu_s": result["cpu_s"],
                       "peak_rss_mib": result["peak_rss_mib"],
                       "runs": result["runs"]})
        took = time.perf_counter() - t0
        if time.perf_counter() - begin + took > seconds:
            break
    if not passes or not setups:
        return None, passes
    metrics = {name: {"value": statistics.median(p[name] for p in passes),
                      "unit": unit}
               for name, unit in END_TO_END.items() if name != "setup_s"}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return metrics, passes


def measure_traced(s):
    """Untraced pass, traced pass, and (delay-ensembles) traced 1-worker."""
    plan = [("untraced", nproc(), False), ("traced", nproc(), True)]
    if s.workload == "delay-ensembles":
        plan.append(("traced-1-worker", 1, True))
    results, passes = {}, []
    for kind, workers, trace in plan:
        _, res = s.spawn(workers, trace=trace)
        if res is not None:
            results[kind] = res
            passes.append({"pass": kind, "workers": workers,
                           "wall_s": total_wall(res), "cpu_s": res["cpu_s"],
                           "peak_rss_mib": res["peak_rss_mib"],
                           "runs": res["runs"], "spans": res.get("spans"),
                           "missing": res.get("missing")})
    if len(results) < len(plan):
        return None, passes
    single = results.get("traced-1-worker")
    metrics = layer_metrics(results["traced"]["spans"],
                            None if single is None else single["spans"],
                            total_wall(results["untraced"]),
                            total_wall(results["traced"]))
    return metrics, passes


def report(workload, seed, trace, metrics, s, passes):
    print(f"{workload}  seed={seed}  workers={nproc()}  passes={len(passes)}"
          f"  trace={trace}")
    for name, m in (metrics or {}).items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    frac = s.failed / s.attempted if s.attempted else 1.0
    print(f"  {'fail_fraction':<42} {frac:>14.6g} ratio"
          f"  ({s.failed}/{s.attempted} runs)")
    if passes:
        for rec in passes[0]["runs"]:
            values = ", ".join(f"{k}={v:.6g}" if isinstance(v, float)
                               else f"{k}={v}"
                               for k, v in rec.get("values", {}).items())
            work = ", ".join(f"{k}={v}" for k, v in rec["work"].items())
            print(f"  {rec['label']}: {work}; {values}")
    for problem in s.problems:
        print(f"  FAILED {problem}")


def run_workload(workload, seed, seconds, trace, registry):
    deadline = time.perf_counter() + RUN_LIMIT_S
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        s = Session(workload, seed, tmp, deadline, registry)
        if trace:
            metrics, passes = measure_traced(s)
        else:
            metrics, passes = measure(s, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if metrics is None:
        s.problems.append("no complete pass to measure")
    report(workload, seed, trace, metrics, s, passes)
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host_record(),
              "attempted": s.attempted, "failed": s.failed,
              "problems": s.problems, "metrics": metrics, "passes": passes}
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return metrics, s


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so a running pass is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    needed = [ROOT / "src" / "ddlab" / "__init__.py", ROOT / RECIPES]
    for path in needed:
        if not path.exists():
            print(f"bench: {path} not found; run from a ddlab checkout",
                  file=sys.stderr)
            return 2

    registry_path = RESULTS / "hashes.json"
    registry = (json.loads(registry_path.read_text())
                if registry_path.exists() else {})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    complete = True
    metrics = {}
    for name in names:
        got, s = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), registry)
        attempted += s.attempted
        failed += s.failed
        if got is None:
            complete = False
            units = ({m: u for m, (u, _) in LAYER_METRICS.items()}
                     if args.trace else END_TO_END)
            got = {m: {"value": 0.0, "unit": u} for m, u in units.items()}
        if not args.trace:
            got = {m: got[m] for m in BOUNDED}
        prefix = f"{name}/" if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    registry_path.write_text(json.dumps(registry, indent=1, sort_keys=True))
    print(json.dumps({"correct": complete and failed == 0,
                      "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
