# =====================================================================
# The benchmark's call-site hooks (bench/tracing.py) against the package
# =====================================================================
#
# The traced benchmark run replaces names that bresselab.experiments and
# bresselab.simulate look up at call time.  A rename in src/ breaks that
# run without breaking any package test, so this pins every hooked name,
# and that undo() puts each original back.  It also parses every config
# the benchmark's workloads generate.

import importlib
import inspect
from pathlib import Path

import pytest

import bresselab.experiments as ex
import bresselab.simulate as sim
from bresselab.configio import parse_config

BENCH = Path(__file__).resolve().parent.parent / "bench"

HOOKED = [
    (ex, "assemble_generator"),
    (ex, "assemble_timoshenko_generator"),
    (ex, "compute_spectrum"),
    (ex, "resolvent_scan"),
    (ex, "simulate"),
    (ex, "track_branch"),
    (ex, "fit_exponential"),
    (ex, "fit_polynomial"),
    (sim, "energy"),
    (sim, "dissipation_rates"),
    (sim.Stepper, "__init__"),
    (sim.Stepper, "advance"),
    (sim, "splu"),
]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_install_patches_every_hooked_name_and_undo_restores_it(tracing):
    originals = [getattr(owner, name) for owner, name in HOOKED]
    undo = tracing.install(tracing.Tracer())
    try:
        patched = [name for (owner, name), original in zip(HOOKED, originals) if getattr(owner, name) is not original]
    finally:
        undo()
    assert patched == [name for _, name in HOOKED]
    restored = [getattr(owner, name) for owner, name in HOOKED]
    assert all(now is original for now, original in zip(restored, originals))


def test_resolvent_scan_keeps_its_max_iter_default():
    # the tracer counts samples that stop at this cap
    assert inspect.signature(ex.resolvent_scan).parameters["max_iter"].default == 400


@pytest.mark.parametrize("seed", [0, 1])
def test_every_benchmark_config_parses(workloads, tmp_path, seed):
    # the benchmark writes each config to <config_id>.cfg and parses it; a
    # renamed or retyped key fails here rather than in the benchmark run
    ids = set()
    for make in workloads.WORKLOADS.values():
        for config_id, text in make(seed):
            path = tmp_path / f"{config_id}.cfg"
            path.write_text(text)
            assert parse_config(path).config_id == config_id
            ids.add(config_id)
    assert {config_id for config_id, _ in workloads.KNOWN_FAIL} <= ids
