"""One pass of one workload, in a fresh process: ``child.py JOB RESULT``.

``JOB`` is a JSON file written by ``run.py``; the result JSON goes to
``RESULT``.  The process imports ``ddlab`` from the checkout's ``src``
the way a user does, parses every config, then runs them one after
another.  CPU time and peak memory are read before the output checks, so
they cover start-up plus the runs only.
"""

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()

    import ddlab
    from ddlab.runner import parse_config, run
    src = Path(job["root"]) / "src"
    if Path(ddlab.__file__).resolve().parent != (src / "ddlab").resolve():
        raise SystemExit(f"ddlab imported from {ddlab.__file__}, not {src}")

    if tracer is not None:
        tracer.install()
        span = tracer.span
    else:
        def span(name):
            return nullcontext()
    with span("runner.parse_config"):
        cfgs = [parse_config(text) for _, text in job["configs"]]
    first_run = time.perf_counter()
    result = {"first_run": first_run, "runs": []}
    if job["setup_only"]:
        Path(result_path).write_text(json.dumps(result))
        return

    outdir = Path(job["outdir"])
    for (label, _), cfg in zip(job["configs"], cfgs):
        rec = {"label": label, "outputs": None, "error": None}
        t0 = time.perf_counter()
        try:
            with span("runner.run"):
                manifest = run(cfg, threads=job["threads"],
                               outdir=outdir / label)
            rec["outputs"] = manifest.outputs
        except Exception:
            rec["error"] = traceback.format_exc()
        rec["wall_s"] = time.perf_counter() - t0
        result["runs"].append(rec)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mib"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.summary()
        result["missing"] = tracer.missing

    from workloads import check_outputs, work_counts
    for rec, cfg in zip(result["runs"], cfgs):
        rec["work"] = work_counts(cfg)
        if rec["error"] is None:
            try:
                rec["problems"], rec["values"] = check_outputs(
                    rec["label"], cfg, outdir / rec["label"])
            except Exception:
                rec["problems"] = [traceback.format_exc()]
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
