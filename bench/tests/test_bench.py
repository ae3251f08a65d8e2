"""Tests of the benchmark's own arithmetic and accounting.

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import outcome  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


class TestSelfTime:
    def test_leaf_is_its_duration(self):
        assert tracing.self_times([Span("a", 1.0, 3.5, -1, 0)]) == [2.5]

    def test_children_subtracted(self):
        spans = [
            Span("root", 0.0, 10.0, -1, 0),
            Span("x", 1.0, 3.0, 0, 0),
            Span("y", 4.0, 5.0, 0, 0),
            Span("grandchild", 1.5, 2.0, 1, 0),
        ]
        assert tracing.self_times(spans) == pytest.approx([7.0, 1.5, 1.0, 0.5])

    def test_overlapping_children_counted_once(self):
        spans = [Span("root", 0.0, 10.0, -1, 0), Span("x", 2.0, 6.0, 0, 0),
                 Span("y", 4.0, 8.0, 0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(4.0)

    def test_child_clipped_to_parent(self):
        spans = [Span("root", 0.0, 4.0, -1, 0), Span("x", 3.0, 9.0, 0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(3.0)

    def test_totals_group_by_name(self):
        spans = [Span("run", 0.0, 4.0, -1, 0), Span("step", 0.0, 1.0, 0, 0),
                 Span("step", 1.0, 3.0, 0, 0)]
        assert tracing.span_totals(spans) == {"run": (1, pytest.approx(1.0)),
                                              "step": (2, pytest.approx(3.0))}

    def test_layer_metrics_are_per_pass(self):
        spans = [Span("simulate.step", 0.0, 2.0, -1, 0), Span("simulate.step", 2.0, 4.0, -1, 1)]
        counts = {"steps": 4.0, "lu_solves": 6.0, "dense_calls": 2.0}
        layers = tracing.layer_metrics(spans, counts, passes=2)
        assert layers["simulate.step_s"] == pytest.approx(2.0)
        assert layers["simulate.steps"] == 2.0
        assert layers["simulate.lu_solves_per_step"] == 1.5
        assert layers["spectra.dense_calls"] == 1.0
        assert layers["spectra.resolvent_iters_mean"] == 0.0

    def test_dense_flops(self):
        assert tracing.dense_flops(3, True) == pytest.approx(27 * (1 / 3 + 3 + 10))
        assert tracing.dense_flops(3, False) == pytest.approx(27 * (1 / 3 + 10))


def _rec(config, status="pass", error=None, tags=(), problems=()):
    return {"config": config, "status": status, "error": error,
            "tags": [list(t) for t in tags], "artifact_problems": list(problems)}


class TestFailureAccounting:
    def test_raised_and_fail_status_both_count(self):
        records = [_rec("a"), _rec("b", status="fail"), _rec("c", status=None, error="X: y"),
                   _rec("d", status="uncovered")]
        assert outcome.count_failures(records) == (4, 1, 2)

    def test_known_fail_is_not_a_problem_and_may_pass(self):
        known = {("cfg", "decay law")}
        assert outcome.verdict_problems([_rec("cfg", "fail", tags=[("decay law", "FAIL")])], known) == []
        assert outcome.verdict_problems([_rec("cfg", tags=[("decay law", "PASS")])], known) == []

    def test_other_verdicts_are_problems(self):
        known = {("cfg", "decay law")}
        records = [
            _rec("cfg", tags=[("decay law", "UNCOVERED")]),
            _rec("other", "fail", tags=[("decay law", "FAIL")]),
            _rec("raised", None, error="FloatingPointError: boom"),
            _rec("bad-csv", problems=["energy.csv: non-finite value"]),
        ]
        problems = outcome.verdict_problems(records, known)
        assert len(problems) == 4
        assert "raised FloatingPointError: boom" in problems[2]

    def test_report_tags(self):
        lines = [
            "config: x",
            "regime: exponential | equal_speeds=True k1_eq_k3=True chi0=n/a near_degenerate=False",
            "decay law: predicted exponential | measured eps = 1 r2 = 0.9 | FAIL",
            "regime coverage: coefficients fall outside every covered row | UNCOVERED",
            "status: fail",
        ]
        assert outcome.report_tags(lines) == [["decay law", "FAIL"],
                                              ["regime coverage", "UNCOVERED"]]


class TestArtifacts:
    def test_rising_energy_rejected(self, tmp_path):
        path = tmp_path / "energy.csv"
        path.write_text("t,E,mem_rate,heat_rate\n0,1.0,0,0\n1,0.5,0,0\n2,0.6,0,0\n")
        with pytest.raises(ValueError, match="rises"):
            outcome.check_artifact(path)

    def test_unstable_eigenvalue_rejected(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("re,im,branch\n-1.0,2.0,\n1e-6,3.0,\n")
        with pytest.raises(ValueError, match="real part"):
            outcome.check_artifact(path)


def test_workload_inputs_depend_only_on_seed():
    for make in workloads.WORKLOADS.values():
        assert make(3) == make(3)
    assert workloads.evolve(3) != workloads.evolve(4)
    ids = [cid for make in workloads.WORKLOADS.values() for cid, _ in make(0)]
    assert len(ids) == len(set(ids))
    assert {config for config, _ in workloads.KNOWN_FAIL} <= set(ids)


def test_wrappers_catch_cli_call_sites(tmp_path):
    """A small full-report through the wrappers: every layer is counted."""
    from bresselab import experiments, simulate
    from bresselab.configio import parse_config

    _, text = workloads.full_report(0)[0]
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(text.replace("disc.nx = 60", "disc.nx = 12")
                        .replace("disc.ns = 32", "disc.ns = 8").replace("sim.T = 100", "sim.T = 10"))
    cfg = parse_config(cfg_path)
    originals = (experiments.compute_spectrum, simulate.Stepper.advance, simulate.splu)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        tracer.call("experiments.run", experiments.run_experiment, cfg, tmp_path / "out")
    finally:
        undo()
    assert (experiments.compute_spectrum, simulate.Stepper.advance, simulate.splu) == originals
    counts = tracing.run_counts(tracer, [0])
    assert counts["assemble_calls"] == 3
    assert counts["dense_calls"] == 2
    assert counts["steps"] == 200
    assert counts["lu_solves"] >= 200
    assert counts["roots"] == 42
    assert counts["resolvent_samples"] == 60
    assert counts["lu_fill_nnz"] > 0
    names = {s.name for s in tracer.spans}
    assert {"discretize.assemble", "spectra.dense", "spectra.resolvent", "simulate.step",
            "simulate.factor", "discretize.energy", "characteristic.roots", "decay.fit"} <= names
