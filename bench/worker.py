"""One benchmark worker process: set up, then run the workload's configs.

Usage: worker.py --out DIR --seconds S --trace 0|1 [--setup-only] CONFIG...

The worker imports the package and parses every config, prints
``ready`` (the parent times set-up up to that line), then runs the
configs in order through ``run_experiment`` as one pass, and repeats
whole passes until ``--seconds`` have elapsed.  It writes everything it
measured as JSON to ``DIR/result.json``.  The BLAS thread caps come
from the environment the parent sets, before numpy is first imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import outcome
import tracing


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _record(cfg, result, error, pass_index, run, wall, cpu) -> dict:
    rec = {
        "config": cfg.config_id, "pass": pass_index, "run": run,
        "wall_s": wall, "cpu_s": cpu, "error": error,
        "status": None, "tags": [], "sha256": {}, "artifact_problems": [],
    }
    if result is not None:
        rec["status"] = result.status
        rec["tags"] = outcome.report_tags(result.report_lines)
        for path in result.files:
            rec["sha256"][path.name] = outcome.sha256(path)
            try:
                outcome.check_artifact(path)
            except ValueError as exc:
                rec["artifact_problems"].append(str(exc))
    return rec


def measure(cfgs, out: Path, seconds: float, tracer) -> dict:
    from bresselab import experiments

    records, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall = cpu = 0.0
        for cfg in cfgs:
            run = len(records)
            target = out / f"pass{len(passes)}" / cfg.config_id
            result = error = None
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                if tracer is None:
                    result = experiments.run_experiment(cfg, target)
                else:
                    tracer.run = run
                    result = tracer.call("experiments.run", experiments.run_experiment, cfg, target)
            except Exception as exc:  # a run that raises is counted as failed, the pass goes on
                error = f"{type(exc).__name__}: {exc}"
            dt, dc = time.perf_counter() - t0, _cpu_s() - c0
            wall += dt
            cpu += dc
            records.append(_record(cfg, result, error, len(passes), run, dt, dc))
        passes.append({"wall_s": wall, "cpu_s": cpu})
    return {"records": records, "passes": passes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("configs", nargs="+", type=Path)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    from bresselab import experiments
    from bresselab.configio import parse_config
    import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cfgs = [parse_config(path) for path in args.configs]
    parse_s = time.perf_counter() - t0
    print("ready", flush=True)

    result = {"import_s": import_s, "parse_s": parse_s, "package": experiments.__file__}
    if not args.setup_only:
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracing.install(tracer)
        result.update(measure(cfgs, args.out, args.seconds, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = _environment()
        if tracer is not None:
            npass = len(result["passes"])
            result["layers"] = tracing.layer_metrics(
                tracer.spans, tracing.run_counts(tracer, range(len(result["records"]))), npass)
            result["span_totals"] = tracing.span_totals(tracer.spans)
            result["run_counts"] = {
                r["run"]: tracing.run_counts(tracer, [r["run"]]) for r in result["records"]}
            origin = tracer.spans[0].start if tracer.spans else 0.0
            with open(args.out / "spans.json", "w") as fh:
                json.dump([[s.name, s.start - origin, s.end - origin, s.parent, s.run]
                           for s in tracer.spans], fh)
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
