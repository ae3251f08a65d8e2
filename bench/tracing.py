"""Call-site tracing for the traced benchmark run.

Spans are recorded from outside the package: ``install`` replaces the
names that ``bresselab.experiments`` and ``bresselab.simulate`` look up
at call time with wrappers that open a span, so nothing under ``src/``
changes.  ``from .spectra import compute_spectrum`` copies the binding
into ``bresselab.experiments``, which is why the wrappers go on the
importing module's names and not on the defining module's.

Spans stay in memory as (name, start, end, parent, run) records and
are written out by the caller when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    run: int     # which experiment run of the worker the span belongs to


class Tracer:
    """Spans and counters of one traced worker; ``run`` tags what follows."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        # (run, counter name) -> running sum, or running maximum for peaks
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.peaks: dict[tuple[int, str], float] = defaultdict(float)

    def add(self, name: str, value: float) -> None:
        self.counts[(self.run, name)] += value

    def peak(self, name: str, value: float) -> None:
        key = (self.run, name)
        self.peaks[key] = max(self.peaks[key], value)

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, observe=None):
        """fn wrapped in a span; observe(result, args, kwargs) reads counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so a covered instant is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


# ---------------------------------------------------------------------
# Computed kernel counts
# ---------------------------------------------------------------------

def dense_flops(n: int, symmetrized: bool) -> float:
    """Computed (not measured) flop count of one compute_spectrum call.

    Textbook operation counts at dimension n: Cholesky of B, n^3/3; the
    transform R A R^-1 as a dense product, 2 n^3, plus a triangular
    solve with n right-hand sides, n^3; the nonsymmetric eigenvalues
    without vectors (Hessenberg reduction and QR sweeps), 10 n^3.  When
    B is only semidefinite the Cholesky attempt is counted and the
    transform is skipped.
    """
    n3 = float(n) ** 3
    return n3 / 3.0 + (3.0 * n3 if symmetrized else 0.0) + 10.0 * n3


# ---------------------------------------------------------------------
# Wrapping the package's call sites
# ---------------------------------------------------------------------

class _CountingLU:
    """Proxy around a SuperLU factorization that counts solves."""

    def __init__(self, lu, tracer: Tracer) -> None:
        self._lu = lu
        self._tracer = tracer
        # forming L and U costs time; its own span keeps that out of the
        # factorization's self time
        tracer.call("trace.fill", lambda: tracer.peak("lu_fill_nnz", lu.L.nnz + lu.U.nnz))

    def solve(self, *args, **kwargs):
        self._tracer.add("lu_solves", 1)
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer):
    """Wrap the CLI call sites; returns a function that undoes it."""
    import bresselab.experiments as ex
    import bresselab.simulate as sim

    def on_assemble(gen, args, kwargs):
        tracer.add("assemble_calls", 1)
        tracer.peak("dim_max", gen.dim)
        tracer.peak("nnz_max", gen.A.nnz)

    def on_dense(report, args, kwargs):
        tracer.add("dense_calls", 1)
        tracer.peak("dense_dim_max", report.dim)
        tracer.add("dense_flop", dense_flops(report.dim, report.symmetrized))

    max_iter = inspect.signature(ex.resolvent_scan).parameters["max_iter"].default

    def on_resolvent(scan, args, kwargs):
        tracer.add("resolvent_samples", scan.iterations.size)
        tracer.add("resolvent_iters", int(scan.iterations.sum()))
        limit = kwargs.get("max_iter", max_iter)
        tracer.add("resolvent_maxiter_hits", int((scan.iterations >= limit).sum()))

    def on_roots(roots, args, kwargs):
        tracer.add("roots", len(roots))
        tracer.add("newton_iters", sum(r.iterations for r in roots))
        tracer.add("unconverged", sum(not r.converged for r in roots))

    def on_energy(value, args, kwargs):
        tracer.add("energy_calls", 1)

    def on_step(value, args, kwargs):
        tracer.add("steps", 1)

    splu = sim.splu
    patches = [
        (ex, "assemble_generator", "discretize.assemble", on_assemble),
        (ex, "assemble_timoshenko_generator", "discretize.assemble", on_assemble),
        (ex, "compute_spectrum", "spectra.dense", on_dense),
        (ex, "resolvent_scan", "spectra.resolvent", on_resolvent),
        (ex, "simulate", "simulate.run", None),
        (ex, "track_branch", "characteristic.roots", on_roots),
        (ex, "fit_exponential", "decay.fit", None),
        (ex, "fit_polynomial", "decay.fit", None),
        (sim, "energy", "discretize.energy", on_energy),
        (sim, "dissipation_rates", "discretize.energy", None),
        (sim.Stepper, "__init__", "simulate.factor", None),
        (sim.Stepper, "advance", "simulate.step", on_step),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    saved.append((sim, "splu", splu))
    for owner, attr, name, observe in patches:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))
    sim.splu = lambda *a, **k: _CountingLU(splu(*a, **k), tracer)

    def undo() -> None:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return undo


# ---------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------

def span_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self time)."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        out[span.name][0] += 1
        out[span.name][1] += own
    return {name: (calls, total) for name, (calls, total) in out.items()}


def run_counts(tracer: Tracer, runs) -> dict[str, float]:
    """Counters summed, and peaks maximised, over the given runs."""
    out: dict[str, float] = defaultdict(float)
    wanted = set(runs)
    for (run, name), value in tracer.counts.items():
        if run in wanted:
            out[name] += value
    for (run, name), value in tracer.peaks.items():
        if run in wanted:
            out[name] = max(out[name], value)
    return dict(out)


_UNITS = {
    "spectra.dense_gflop_computed": "GFLOP",
    "spectra.resolvent_iters_mean": "iters",
    "simulate.lu_solves_per_step": "solves",
}


def unit(metric: str) -> str:
    return _UNITS.get(metric, "s" if metric.endswith("_s") else "count")


def layer_metrics(spans: list[Span], counts: dict[str, float], passes: int) -> dict[str, float]:
    """The per-layer metrics of one traced worker, per workload pass.

    Times are self times in seconds; counts are per pass, so they
    repeat exactly from run to run.  discretize.energy_s covers both
    energy and dissipation_rates, energy_calls counts energy alone.
    The *_max metrics and lu_fill_nnz (L.nnz + U.nnz) are the largest
    over the pass.  lu_solves_per_step counts the stepper's LU solves,
    so any value above 1 is the share of steps that ran the
    iterative-refinement pass.
    """
    totals = span_totals(spans)

    def secs(name):
        return totals.get(name, (0, 0.0))[1] / passes

    def per_pass(name):
        return counts.get(name, 0.0) / passes

    steps = counts.get("steps", 0.0)
    samples = counts.get("resolvent_samples", 0.0)
    return {
        "spectra.dense_s": secs("spectra.dense"),
        "spectra.dense_calls": per_pass("dense_calls"),
        "spectra.dense_dim_max": counts.get("dense_dim_max", 0.0),
        "spectra.dense_gflop_computed": per_pass("dense_flop") / 1e9,
        "spectra.resolvent_s": secs("spectra.resolvent"),
        "spectra.resolvent_samples": per_pass("resolvent_samples"),
        "spectra.resolvent_iters_mean": counts.get("resolvent_iters", 0.0) / samples if samples else 0.0,
        "spectra.resolvent_maxiter_hits": per_pass("resolvent_maxiter_hits"),
        "simulate.step_s": secs("simulate.step"),
        "simulate.steps": per_pass("steps"),
        "simulate.lu_solves_per_step": counts.get("lu_solves", 0.0) / steps if steps else 0.0,
        "simulate.factor_s": secs("simulate.factor"),
        "simulate.lu_fill_nnz": counts.get("lu_fill_nnz", 0.0),
        "discretize.energy_s": secs("discretize.energy"),
        "discretize.energy_calls": per_pass("energy_calls"),
        "discretize.assemble_s": secs("discretize.assemble"),
        "discretize.assemble_calls": per_pass("assemble_calls"),
        "discretize.dim_max": counts.get("dim_max", 0.0),
        "discretize.nnz_max": counts.get("nnz_max", 0.0),
        "experiments.self_s": secs("experiments.run"),
        "characteristic.roots_s": secs("characteristic.roots"),
        "characteristic.roots": per_pass("roots"),
        "characteristic.newton_iters": per_pass("newton_iters"),
        "characteristic.unconverged": per_pass("unconverged"),
        "decay.fit_s": secs("decay.fit"),
    }
