"""bresselab benchmark: CLI experiments end to end, and per module traced.

    python3 bench/run.py --workload evolve|spectral|full-report \
        --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the package under ``src/`` of the
checkout that holds it.  Load is a closed loop: one client, the worker
process, runs the workload's experiments one after another through
``bresselab.experiments.run_experiment`` (the function behind the CLI)
and repeats whole passes until ``--seconds`` have elapsed; times are
medians over the passes.

Each invocation starts fresh worker processes with the BLAS thread
pools capped at the number of usable cores through the environment,
which is read when numpy first loads.  Set-up is timed in the
measuring worker and in set-up-only workers started before and after
it, so the samples span the run, and reported as the median.  ``--trace 0`` prints the end-to-end metrics of an untraced
worker.  ``--trace 1`` runs an untraced and then a traced worker and
prints the per-layer metrics of the traced one; the difference of their
wall times is the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  ``failed`` counts experiment runs that raised.  A run whose
report says FAIL completed and is counted in ``pass_frac`` instead;
``correct`` is false when any run raised, an artifact breaks its check,
or a report check other than a known finding reads anything but PASS.
Per-run verdict tags, CSV SHA-256 digests, the environment and, when
traced, the spans are written to ``.bench_out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import outcome
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 3   # set-up-only workers timed before and again after the measuring one
TIME_LIMIT = 170.0  # seconds for the whole invocation, workers included


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(out: Path, args: list[str], env: dict, deadline: float) -> dict:
    """Start one worker, time it up to its ready line, return its result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "--out", str(out), *args],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if first != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed or ran past the time limit (exit {proc.returncode})")
    result = json.loads((out / "result.json").read_text())
    if not Path(result["package"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported bresselab from {result['package']}, not from src/")
    result["setup_s"] = setup_s
    return result


def print_runs(worker: dict) -> None:
    """Environment, then one line per experiment run and, if traced, per span name."""
    env = worker["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {env['blas']}, nproc {env['nproc']}, thread caps {env['threads']}")
    for r in worker["records"]:
        tags = " ".join(f"{topic}={tag}" for topic, tag in r["tags"])
        line = f"run {r['config']} pass {r['pass']}: {r['status'] or r['error']} {r['wall_s']:.3f}s"
        counts = worker.get("run_counts", {}).get(str(r["run"]))
        if counts:
            steps = counts.get("steps", 0)
            per_step = counts.get("lu_solves", 0) / steps if steps else 0
            line += (f" dim {counts.get('dim_max', 0):.0f} nnz {counts.get('nnz_max', 0):.0f}"
                     f" steps {steps:.0f} lu_solves/step {per_step:.4f}"
                     f" dense {counts.get('dense_calls', 0):.0f}")
        print(f"{line} | {tags}")
    for name, (calls, own) in sorted(worker.get("span_totals", {}).items()):
        print(f"span {name}: {calls} calls, self time {own:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    if not (ROOT / "src" / "bresselab" / "experiments.py").is_file():
        print(f"error: no bresselab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "configs").mkdir(parents=True)
    configs = []
    for config_id, text in workloads.WORKLOADS[args.workload](args.seed):
        path = run_dir / "configs" / f"{config_id}.cfg"
        path.write_text(text)
        configs.append(str(path))

    env = worker_env()

    def probe():
        return run_worker(run_dir / "setup", ["--setup-only", *configs], env, deadline)

    try:
        probe()  # warm-up: the first import after a checkout compiles bytecode
        probes = [probe() for _ in range(SETUP_SAMPLES)]
        main_args = ["--seconds", str(args.seconds), *configs]
        plain = run_worker(run_dir / "plain", main_args, env, deadline)
        traced = None
        if args.trace:
            traced = run_worker(run_dir / "traced", ["--trace", "1", *main_args], env, deadline)
        probes += [probe() for _ in range(SETUP_SAMPLES)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workers = [plain] if traced is None else [plain, traced]
    records = [r for w in workers for r in w["records"]]
    attempted, raised, failed = outcome.count_failures(records)
    problems = outcome.verdict_problems(records, workloads.KNOWN_FAIL)
    # the same config must give the same bytes in every pass, traced or not
    first = {r["config"]: r["sha256"] for r in plain["records"] if r["pass"] == 0}
    problems += [f"{r['config']}: artifacts differ from the first untraced pass" for r in records
                 if r["sha256"] != first[r["config"]]]
    changed = sorted({f"{r['config']}: {topic}" for r in records for topic, tag in r["tags"]
                      if tag == "PASS" and (r["config"], topic) in workloads.KNOWN_FAIL})

    setups = [w["setup_s"] for w in probes + [plain]]
    wall = statistics.median(p["wall_s"] for p in plain["passes"])
    if traced is None:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in plain["passes"]), "s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MiB"),
            "pass_frac": (1.0 - failed / attempted, "frac"),
        }
    else:
        metrics = {name: (value, tracing.unit(name)) for name, value in traced["layers"].items()}
        metrics["configio.parse_s"] = (statistics.median(w["parse_s"] for w in probes), "s")
        metrics["setup.import_s"] = (statistics.median(w["import_s"] for w in probes), "s")
        traced_wall = statistics.median(p["wall_s"] for p in traced["passes"])
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": plain["environment"], "setup_s": setups,
              "workers": workers, "problems": problems, "changed_verdicts": changed,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    for w in ("plain", "traced"):
        for pass_dir in (run_dir / w).glob("pass*"):
            shutil.rmtree(pass_dir)

    print_runs(traced or plain)
    for problem in problems:
        print(f"problem: {problem}")
    for verdict in changed:
        print(f"changed verdict: known FAIL now reads PASS: {verdict}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted {attempted}, raised {raised}, report FAIL or raised {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": raised,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
