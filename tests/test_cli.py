# =====================================================================
# Config parsing, CLI exit codes, artifact reproducibility
# =====================================================================

import dataclasses
import functools
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import bresselab
from bresselab import experiments
from bresselab.characteristic import branch_refusal
from bresselab.cli import main
from bresselab.configio import _KEYS, EXPERIMENTS, IC_KINDS, ConfigError, Required, parse_config
from bresselab.discretize import (
    assemble_generator,
    assemble_timoshenko_generator,
    build_memory_grid,
    build_spatial_grid,
    energy,
    exact_memory_grid,
)
from bresselab.experiments import run_experiment
from bresselab.model import PhysicalParams
from bresselab.simulate import initial_state
from bresselab.spectra import compute_spectrum, resolvent_scan

GOOD = """\
# equal-speed elastic benchmark
experiment = simulate
params.rho1 = 1
params.rho2 = 1
params.k1 = 1
params.k2 = 1
params.k3 = 1
params.ell = 1.0
kernel.a = 0.5
kernel.c = 1
disc.nx = 10
disc.ns = 12
sim.T = 100
sim.dt = 0.05
sim.stride = 5
"""

# straight elastic beam at unequal speeds: its resolvent grows along the axis
STRAIGHT_RESOLVENT = (
    GOOD.replace("experiment = simulate", "experiment = resolvent")
    .replace("params.ell = 1.0", "params.ell = 0")
    .replace("params.k2 = 1", "params.k2 = 2")
    .replace("disc.nx = 10", "disc.nx = 30")
    .replace("disc.ns = 12", "disc.ns = 16")
)

# GOOD turned into the thermal poly1 beam with mixed (dnnd) ends
DNND_THERMAL_POLY1 = {
    "params.rho2 = 1": "params.rho2 = 3.5",
    "kernel.a = 0.5": "kernel.a = 0.25",
    "disc.nx = 10": "disc.nx = 40",
    "disc.ns = 12": "disc.ns = 16\nparams.thermal = true\nparams.rho3 = 1\nparams.delta = 1\n"
                    "params.tau = 2\nparams.beta = 1\nbc = dnnd",
}


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def run_cli(cfg_path, out, threads):
    """Run the CLI in a fresh interpreter at a BLAS thread cap; returns the output directory."""
    env = {**os.environ, "PYTHONPATH": str(Path(bresselab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "bresselab.cli", str(cfg_path), "--out", str(out),
         "--threads", str(threads)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode in (0, 1), proc.stderr
    return out


class TestConfigParsing:
    def test_good_config_resolves_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, GOOD))
        assert cfg.experiment == "simulate"
        assert cfg.nx == 10 and cfg.ns == 12
        assert cfg.seed == 0 and cfg.ic == "smooth_bump"
        assert cfg.lambda_min == 5.0
        assert cfg.config_id == "run"
        assert not cfg.params.thermal

    def test_unknown_key_reports_line(self, tmp_path):
        bad = GOOD + "params.rho11 = 2\n"
        with pytest.raises(ConfigError, match=r"line 16: unknown key 'params.rho11'"):
            parse_config(write(tmp_path, bad))

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        bad = GOOD + "params.rho1 = 3\n"
        with pytest.raises(ConfigError, match=r"duplicate key.*line 3"):
            parse_config(write(tmp_path, bad))

    def test_type_error_reports_line(self, tmp_path):
        bad = GOOD.replace("disc.nx = 10", "disc.nx = ten")
        with pytest.raises(ConfigError, match=r"line 11: disc.nx expects a int"):
            parse_config(write(tmp_path, bad))

    def test_missing_required_key_named(self, tmp_path):
        bad = GOOD.replace("kernel.a = 0.5\n", "")
        with pytest.raises(ConfigError, match=r"missing required key 'kernel.a'"):
            parse_config(write(tmp_path, bad))

    def test_thermal_requires_heat_keys(self, tmp_path):
        bad = GOOD + "params.thermal = true\nbc = dddd\n"
        with pytest.raises(ConfigError, match=r"'params.rho3'.*thermal"):
            parse_config(write(tmp_path, bad))

    def test_inadmissible_kernel_rejected(self, tmp_path):
        bad = GOOD.replace("kernel.a = 0.5", "kernel.a = -1")
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, bad))

    def test_unknown_experiment_rejected(self, tmp_path):
        bad = GOOD.replace("experiment = simulate", "experiment = dance")
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config(write(tmp_path, bad))

    def test_bc_model_compatibility_enforced(self, tmp_path):
        bad = GOOD + "params.thermal = true\nparams.rho3 = 1\nparams.delta = 1\nparams.tau = 2\nparams.beta = 1\n"
        # default elastic bc 'ddd' only fires when given explicitly
        bad = bad.replace("# equal-speed elastic benchmark", "bc = ddd")
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, bad))


class TestConfigKeyDrift:
    # README's defaults of the keys that the run decides, in its words
    RUN_DECIDED = {"bc": "`ddd` / `dddd`", "sim.dt": "CFL-based", "spec.lambda_max": "grid cap"}

    def readme_default(self, key):
        default = _KEYS[key][1]
        if isinstance(default, Required):
            return "required" if default is Required.ALWAYS else "required if thermal"
        if default is None and key.startswith("params."):
            fields = {f.name: f.default for f in dataclasses.fields(PhysicalParams)}
            default = fields["length" if key == "params.L" else key.split(".")[1]]
        if default is None:
            return self.RUN_DECIDED[key]
        return f"`{str(default).lower() if isinstance(default, bool) else default}`"

    def test_readme_table_lists_every_key_with_its_default(self):
        readme = (Path(bresselab.__file__).parents[2] / "README.md").read_text()
        table = readme.split("### Config keys", 1)[1].split("\n## ", 1)[0]
        listed = []
        for row in table.splitlines():
            cells = [cell.strip() for cell in row.strip("|").split("|")]
            if len(cells) != 3 or cells[0] in ("key", "---"):
                continue
            for group in re.findall(r"`([^`]+)`", cells[0]):
                first, *rest = group.split("/")
                prefix = first.rpartition(".")[0]
                listed += [(key, cells[1]) for key in (first, *(f"{prefix}.{name}" for name in rest))]
        assert sorted(key for key, _ in listed) == sorted(_KEYS)
        assert {key: text for key, text in listed} == {key: self.readme_default(key) for key in _KEYS}

    def test_every_experiment_has_a_runner(self):
        assert sorted(EXPERIMENTS) == sorted(experiments._RUNNERS)

    @pytest.mark.parametrize("kind", IC_KINDS)
    def test_every_initial_condition_is_buildable(self, tmp_path, kind):
        cfg = parse_config(write(tmp_path, GOOD + f"sim.ic = {kind}\n"))
        gen = assemble_generator(cfg.params, cfg.kernel, cfg.bc, build_spatial_grid(1.0, 6),
                                 build_memory_grid(cfg.kernel, 8))
        u = initial_state(gen, cfg.ic, cfg.ic_index, cfg.seed)
        assert u.shape == (gen.dim,) and u.any()


class TestCliExitCodes:
    def test_passing_run_exits_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, GOOD)
        code = main([str(cfg), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: pass" in out

    def test_config_error_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path, GOOD + "bogus = 1\n")
        code = main([str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("changes,line", [
        ({"sim.T = 100": "sim.T = inf"}, 13),
        ({"sim.T = 100": "sim.T = nan"}, 13),
        ({"sim.dt = 0.05": "sim.dt = nan"}, 14),
        ({"sim.dt = 0.05": "sim.dt = inf"}, 14),
        ({"sim.stride = 5": "sim.stride = 5\nsim.ic = random\nsim.seed = -1"}, 17),
    ], ids=["T_inf", "T_nan", "dt_nan", "dt_inf", "negative_seed"])
    def test_out_of_range_value_exits_two_with_its_line(self, tmp_path, capsys, changes, line):
        text = GOOD
        for old, new in changes.items():
            text = text.replace(old, new)
        out = tmp_path / "out"
        code = main([str(write(tmp_path, text)), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: line {line}: ")
        assert list(out.glob("*")) == []

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main([str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_threads_exits_two(self, tmp_path):
        cfg = write(tmp_path, GOOD)
        assert main([str(cfg), "--threads", "0"]) == 2

    def test_usage_error_exits_two(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("changes", [
        {"disc.nx = 10": "disc.nx = 2"},
        # not a key: the history truncation tolerance is fixed
        {"disc.ns = 12": "disc.ns = 12\ndisc.trunc_tol = 1e-4"},
        {"kernel.a = 0.5": "kernel.a = 2"},
        # both runners whose verdicts read the regime assemble before any verdict, which refuses the kernel
        {"experiment = simulate": "experiment = resolvent", "kernel.a = 0.5": "kernel.a = 2"},
        {"experiment = simulate": "experiment = full-report", "kernel.a = 0.5": "kernel.a = 2"},
        # products of a subnormal amplitude underflow: 0/0 quadrature weights
        {"kernel.a = 0.5": "kernel.a = 5e-324"},
        {"experiment = simulate": "experiment = full-report\nspec.lambda_min = 1000"},
        # exact memory at nx = 1200: dimension 8400, past the dense eigensolver cap
        {"experiment = simulate": "experiment = spectrum", "disc.nx = 10": "disc.nx = 1200"},
        # ladder dimension 10800, past the dense eigensolver cap
        {"experiment = simulate": "experiment = full-report",
         "disc.nx = 10": "disc.nx = 200", "disc.ns = 12": "disc.ns = 48"},
        {"experiment = simulate": "experiment = resolvent",
         "disc.nx = 10": "disc.nx = 200", "disc.ns = 12": "disc.ns = 48"},
        # straight beam: 3 envelope anchors under the trusted window top 10.37
        {"experiment = simulate": "experiment = resolvent",
         "params.ell = 1.0": "params.ell = 0", "params.k2 = 1": "params.k2 = 2"},
        {"experiment = simulate": "experiment = full-report",
         "params.ell = 1.0": "params.ell = 0", "params.k2 = 1": "params.k2 = 2"},
        # 4 envelope anchors in [5.46, 9.15], less than an octave
        {"experiment = simulate": "experiment = resolvent"},
        # equal wave speeds: the two asymptotic root branches coincide
        {"experiment = simulate": "experiment = characteristic", "params.ell = 1.0": "params.ell = 0"},
        # curved dnnd beam: the axial mean mode has zero energy, so the energy
        # metric of the resolvent is undefined although sparse LU factors B
        {"experiment = simulate": "experiment = resolvent", **DNND_THERMAL_POLY1},
        {"experiment = simulate": "experiment = full-report", **DNND_THERMAL_POLY1},
    ], ids=["nx", "trunc_tol", "inadmissible_kernel", "resolvent_inadmissible_kernel",
            "full_report_inadmissible_kernel", "subnormal_kernel", "full_report_resolvent_window",
            "spectrum_dense_cap", "full_report_dense_cap", "resolvent_dense_cap", "resolvent_too_few_anchors",
            "full_report_too_few_anchors", "resolvent_narrow_anchor_span",
            "characteristic_equal_speeds", "resolvent_semidefinite_energy",
            "full_report_semidefinite_energy"])
    def test_unbuildable_config_exits_two(self, tmp_path, capsys, changes):
        text = GOOD
        for old, new in changes.items():
            text = text.replace(old, new)
        out = tmp_path / "out"
        # outside pytest a warning would print to stderr above the refusal
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([str(write(tmp_path, text)), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        # the config is refused before any section writes an artifact
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("experiment,nx,ns,dim,knobs", [
        ("spectrum", 1200, 12, 8400, "disc.nx"),
        ("resolvent", 200, 48, 10800, "disc.nx/disc.ns"),
    ])
    def test_dense_cap_refusal_names_the_keys_that_set_the_dimension(
            self, tmp_path, capsys, experiment, nx, ns, dim, knobs):
        # exact memory has one history slice whatever disc.ns says; the
        # resolvent's anchors come from the disc.ns-slice ladder
        text = (GOOD.replace("experiment = simulate", f"experiment = {experiment}")
                .replace("disc.nx = 10", f"disc.nx = {nx}").replace("disc.ns = 12", f"disc.ns = {ns}"))
        assert main([str(write(tmp_path, text)), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: dense spectrum needs dimension <= 8000, got {dim}; reduce {knobs}\n"
        )

    def test_thermal_assembly_with_zero_tau_exits_two(self, tmp_path, capsys):
        # tau = 0 (Fourier heat) parses and classifies, but is not assembled
        text = GOOD + "bc = dddd\nparams.thermal = true\nparams.rho3 = 1\nparams.delta = 1\n" \
            "params.tau = 0\nparams.beta = 1\n"
        out = tmp_path / "out"
        code = main([str(write(tmp_path, text)), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "config error: thermal assembly requires a positive relaxation time tau\n"
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("changes,skip", [
        # 3 steps of 33.3 at stride 5: only t = 0 and t = 100 are recorded
        ({"sim.dt = 0.05": "sim.dt = 40"}, "exponential fit needs at least 4 samples in the window [40, 100], got 1"),
        # states every 30 time units: 3 samples in [40, 100]
        ({"sim.stride = 5": "sim.stride = 600"},
         "exponential fit needs at least 4 samples in the window [40, 100], got 3"),
    ], ids=["dt_40", "stride_600"])
    def test_coarse_recording_reports_a_skipped_fit(self, tmp_path, changes, skip):
        text = GOOD
        for old, new in changes.items():
            text = text.replace(old, new)
        proc = subprocess.run(
            [sys.executable, "-m", "bresselab.cli", str(write(tmp_path, text)), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(bresselab.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        assert f"fit: skipped ({skip})" in proc.stdout.splitlines()
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_non_positive_energy_names_its_time_in_the_skipped_fit(self, tmp_path, monkeypatch):
        simulate = experiments.simulate

        def zeroed(*args, **kwargs):
            trace = simulate(*args, **kwargs)
            trace.E[3] = 0.0
            return trace

        monkeypatch.setattr(experiments, "simulate", zeroed)
        result = run_experiment(parse_config(write(tmp_path, GOOD)), tmp_path / "out")
        assert "fit: skipped (non-positive energy at t = 0.75)" in result.report_lines

    def test_cli_import_leaves_numpy_unloaded(self):
        # --threads only caps the BLAS pool if numpy loads after main() sets it
        src = str(Path(bresselab.__file__).parents[1])
        probe = "import sys, bresselab.cli; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"

    def test_threads_one_caps_blas(self, tmp_path):
        # with one BLAS thread the child's CPU time cannot run ahead of its
        # wall time; uncapped, this dense spectrum reads 1.6-1.9x on 2 cores
        text = GOOD.replace("experiment = simulate", "experiment = spectrum")
        text = text.replace("disc.nx = 10", "disc.nx = 60").replace("disc.ns = 12", "disc.ns = 32")
        caps = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in caps}
        env["PYTHONPATH"] = str(Path(bresselab.__file__).parents[1])
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "bresselab.cli", str(write(tmp_path, text)),
             "--out", str(tmp_path / "out"), "--threads", "1"],
            capture_output=True, check=True, env=env,
        )
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        assert cpu <= 1.3 * wall, f"--threads 1 used {cpu:.2f} s CPU in {wall:.2f} s wall"


class TestArtifacts:
    def test_energy_csv_schema_and_reproducibility(self, tmp_path):
        cfg = parse_config(write(tmp_path, GOOD))
        r1 = run_experiment(cfg, tmp_path / "a")
        r2 = run_experiment(cfg, tmp_path / "b")
        assert r1.status == "pass"
        e1 = (tmp_path / "a" / "energy.csv").read_bytes()
        e2 = (tmp_path / "b" / "energy.csv").read_bytes()
        assert e1 == e2, "energy.csv must reproduce byte for byte"
        header = e1.decode().splitlines()[0]
        assert header == "t,E,mem_rate,heat_rate"
        first = e1.decode().splitlines()[1].split(",")
        assert len(first) == 4
        float(first[0])  # parses

    @pytest.mark.parametrize("ell", [0, 1])
    def test_full_report_emits_all_artifacts(self, tmp_path, monkeypatch, ell):
        text = GOOD.replace("experiment = simulate", "experiment = full-report")
        text = text.replace("params.ell = 1.0", f"params.ell = {ell}")
        text = text.replace("params.k2 = 1", "params.k2 = 2")
        text += "spec.lambda_min = 3\nspec.lambda_max = 12\n"
        cfg = parse_config(write(tmp_path, text, name="bench.cfg"))
        assembled = []

        def counted(make):
            def wrapper(*args):
                assembled.append((make.__name__, args[-1].ns))
                return make(*args)
            return wrapper

        for name in ("assemble_generator", "assemble_timoshenko_generator"):
            monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
        result = run_experiment(cfg, tmp_path / "out")
        # the ladder (disc.ns = 12), then exact memory for the spectrum
        # section; both two-field on the straight elastic beam
        name = "assemble_timoshenko_generator" if ell == 0 else "assemble_generator"
        assert assembled == [(name, 12), (name, 1)]
        names = {p.name for p in result.files}
        sections = ["simulate", "spectrum", "resolvent"]
        want = {"energy.csv", "fits.csv", "spectrum.csv", "resolvent.csv", "report.txt"}
        if ell == 0:
            sections.append("characteristic")
            want.add("branches.csv")
        assert want <= names
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "status:" in report
        assert sum(line.startswith("hypotheses:") for line in report.splitlines()) == 1
        for line in report.splitlines():
            if "|" in line and ("PASS" in line or "FAIL" in line):
                assert "predicted" in line and "measured" in line
        # every section run on its own writes the same bytes as inside the report
        for experiment in sections:
            alone = run_experiment(dataclasses.replace(cfg, experiment=experiment),
                                   tmp_path / experiment)
            for path in alone.files:
                if path.suffix == ".csv":
                    assert path.read_bytes() == (tmp_path / "out" / path.name).read_bytes(), (
                        f"{experiment}: {path.name} differs from full-report's"
                    )

    def test_equal_speed_full_report_skips_characteristic(self, tmp_path):
        # at equal wave speeds the two asymptotic root branches coincide, so
        # the characteristic section has nothing to track and is skipped
        text = GOOD.replace("experiment = simulate", "experiment = full-report")
        text = text.replace("params.ell = 1.0", "params.ell = 0").replace("disc.nx = 10", "disc.nx = 30")
        result = run_experiment(parse_config(write(tmp_path, text)), tmp_path / "out")
        assert "characteristic: skipped (needs unequal wave speeds" in "\n".join(result.report_lines)
        assert {p.name for p in result.files} == {
            "energy.csv", "fits.csv", "spectrum.csv", "resolvent.csv", "report.txt"
        }

    def test_straight_simulate_traces_the_two_field_energy(self, tmp_path):
        # the straight beam's longitudinal motion is undamped and decoupled;
        # its conserved energy is not part of the trace
        text = GOOD.replace("params.ell = 1.0", "params.ell = 0").replace("params.k2 = 1", "params.k2 = 2")
        cfg = parse_config(write(tmp_path, text))
        result = run_experiment(cfg, tmp_path / "out")
        assert "generator: two-field straight-beam assembly (longitudinal modes decoupled)" in result.report_lines
        e0 = float((tmp_path / "out" / "energy.csv").read_text().splitlines()[1].split(",")[1])
        gen = assemble_timoshenko_generator(cfg.params, cfg.kernel, build_spatial_grid(1.0, cfg.nx),
                                            build_memory_grid(cfg.kernel, cfg.ns))
        want = energy(gen, initial_state(gen, cfg.ic))
        assert abs(e0 - want) <= 1e-12 * want, (e0, want)

    @pytest.mark.parametrize("k2,length", [(1, 1), (2, 2)], ids=["equal_speeds", "length_2"])
    def test_straight_spectrum_says_why_it_has_no_branch_tags(self, tmp_path, k2, length):
        text = (GOOD.replace("experiment = simulate", "experiment = spectrum")
                .replace("params.ell = 1.0", "params.ell = 0")
                .replace("params.k2 = 1", f"params.k2 = {k2}\nparams.L = {length}"))
        path = write(tmp_path, text)
        assert main([str(path), "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert f"branch tags unavailable: {branch_refusal(parse_config(path).params)}" in report
        rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",") for row in rows)

    def test_resolvent_report_counts_unconverged_samples(self, tmp_path, monkeypatch):
        # an iteration cap of 1 leaves every sample unconverged, the
        # envelope anchors included; the report must say so without
        # changing any verdict tag
        text = GOOD.replace("experiment = simulate", "experiment = resolvent")
        text = text.replace("params.k2 = 1", "params.k2 = 2")
        text += "spec.lambda_min = 3\nspec.lambda_max = 12\n"
        cfg = parse_config(write(tmp_path, text))
        healthy = run_experiment(cfg, tmp_path / "healthy").report_lines
        monkeypatch.setattr(experiments, "resolvent_scan", functools.partial(resolvent_scan, max_iter=1))
        capped = run_experiment(cfg, tmp_path / "capped").report_lines
        health = [line for line in capped if line.startswith("resolvent health:")]
        assert len(health) == 1
        assert health[0] == "resolvent health: 5 of 5 samples stopped unconverged at the iteration cap"
        assert "resolvent health: 0 of 5 samples" in "\n".join(healthy)
        assert all(not line.rstrip().endswith(("PASS", "FAIL", "UNCOVERED")) for line in health)

    def test_straight_beam_resolvent_scans_two_field_generator(self, tmp_path):
        # the three-field generator of the straight beam carries an undamped
        # longitudinal family, so a scan anchored on it reads round-off
        cfg_path = write(tmp_path, STRAIGHT_RESOLVENT)
        result = run_experiment(parse_config(cfg_path), tmp_path / "inproc")
        assert "resolvent health: 0 of 11 samples stopped unconverged" in "\n".join(result.report_lines)
        rows = (tmp_path / "inproc" / "resolvent.csv").read_text().splitlines()[1:]
        peak = max(float(row.split(",")[1]) for row in rows)
        assert peak <= 1e8, f"inv_sigma_min reaches {peak:.3e}"

        scans, growth = [], []
        for threads in (1, 2):
            out = run_cli(cfg_path, tmp_path / f"threads{threads}", threads)
            scans.append((out / "resolvent.csv").read_bytes())
            growth.append([line for line in (out / "report.txt").read_text().splitlines()
                           if line.startswith("resolvent growth:")])
        assert scans[0] == scans[1]
        assert growth[0] == growth[1] and len(growth[0]) == 1

    @pytest.mark.parametrize("config", ["spectrum", "straight_full_report"])
    def test_artifacts_do_not_depend_on_thread_count(self, tmp_path, config):
        # every dense operation runs on one BLAS thread whatever --threads
        # says, so the spectrum and the resolvent anchors taken from it
        # come out byte for byte the same
        if config == "spectrum":
            text = GOOD.replace("experiment = simulate", "experiment = spectrum")
        else:
            text = (GOOD.replace("experiment = simulate", "experiment = full-report")
                    .replace("params.ell = 1.0", "params.ell = 0")
                    .replace("params.k2 = 1", "params.k2 = 2")
                    .replace("sim.stride = 5\n", ""))
        text = text.replace("disc.nx = 10", "disc.nx = 60").replace("disc.ns = 12", "disc.ns = 32")
        cfg_path = write(tmp_path, text)
        runs = [run_cli(cfg_path, tmp_path / f"threads{threads}", threads) for threads in (1, 2)]
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir())
        assert "spectrum.csv" in names and "report.txt" in names
        if config != "spectrum":
            assert "resolvent.csv" in names
        differ = [name for name in names if (runs[0] / name).read_bytes() != (runs[1] / name).read_bytes()]
        assert differ == [], "these differ between --threads 1 and --threads 2"

    @pytest.mark.parametrize("experiment", ["spectrum", "resolvent", "full-report", "simulate"])
    def test_frequency_sections_print_the_ladder_memory_error(self, tmp_path, experiment):
        # each frequency section says which memory it solves, in one untagged
        # line: the spectrum exact memory, the resolvent the ladder with its
        # w0/g0 = W_0 g(0)/g0, the weight of the s = 0 node the state does
        # not carry; simulate prints neither
        text = GOOD.replace("experiment = simulate", f"experiment = {experiment}")
        text = text.replace("params.k2 = 1", "params.k2 = 2").replace("disc.ns = 12", "disc.ns = 32")
        text += "spec.lambda_min = 3\nspec.lambda_max = 12\n"
        cfg = parse_config(write(tmp_path, text))
        lines = [line for line in run_experiment(cfg, tmp_path / "out").report_lines
                 if line.startswith(("memory:", "memory ladder:"))]
        mgrid = build_memory_grid(cfg.kernel, cfg.ns)
        want = mgrid.weights[0] * cfg.kernel.a / (cfg.kernel.a / cfg.kernel.c)
        assert f"{want:.4f}" == "0.2397"
        exact = "memory: exact, one history slice with transfer g0/(z + c); disc.ns is not read"
        ladder = f"memory ladder: ns = 32, high-frequency transfer error w0/g0 = {want:.4f}"
        assert lines == {"spectrum": [exact], "resolvent": [ladder], "full-report": [exact, ladder],
                         "simulate": []}[experiment]

    def test_spectrum_does_not_read_disc_ns(self, tmp_path, monkeypatch):
        # a spectrum run assembles exact memory and no ladder
        slices = []

        def counted(*args):
            slices.append(args[-1].ns)
            return assemble_generator(*args)

        monkeypatch.setattr(experiments, "assemble_generator", counted)
        text = GOOD.replace("experiment = simulate", "experiment = spectrum")
        for ns in (16, 32):
            cfg = parse_config(write(tmp_path, text.replace("disc.ns = 12", f"disc.ns = {ns}")))
            run_experiment(cfg, tmp_path / f"ns{ns}")
        assert (tmp_path / "ns16" / "spectrum.csv").read_bytes() == (tmp_path / "ns32" / "spectrum.csv").read_bytes()
        assert slices == [1, 1]

    @pytest.mark.parametrize("changes", [
        {},
        {"disc.ns = 12": "disc.ns = 12\nparams.thermal = true\nparams.rho3 = 1\n"
                         "params.delta = 1\nparams.tau = 2\nparams.beta = 1\nbc = dddd"},
        {"params.ell = 1.0": "params.ell = 0", "params.k2 = 1": "params.k2 = 2"},
    ], ids=["curved_ddd", "thermal_dddd", "straight_two_field"])
    def test_spectrum_solves_the_exact_memory_generator(self, tmp_path, changes):
        text = GOOD.replace("experiment = simulate", "experiment = spectrum")
        for old, new in changes.items():
            text = text.replace(old, new)
        cfg = parse_config(write(tmp_path, text))
        run_experiment(cfg, tmp_path / "out")
        rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
        grid, mgrid = build_spatial_grid(cfg.params.length, cfg.nx), exact_memory_grid(cfg.kernel)
        if cfg.params.timoshenko and not cfg.params.thermal:
            gen = assemble_timoshenko_generator(cfg.params, cfg.kernel, grid, mgrid)
        else:
            gen = assemble_generator(cfg.params, cfg.kernel, cfg.bc, grid, mgrid)
        assert gen.include_w == (cfg.params.ell != 0)
        want = [f"{v.real:.12e},{v.imag:.12e}" for v in compute_spectrum(gen).eigenvalues]
        assert [row.rsplit(",", 1)[0] for row in rows] == want

    def test_spectrum_reports_windowed_abscissa(self, tmp_path):
        text = GOOD.replace("experiment = simulate", "experiment = spectrum")
        cfg = parse_config(write(tmp_path, text))
        result = run_experiment(cfg, tmp_path / "out")
        assert result.status == "pass"
        joined = "\n".join(result.report_lines)
        assert "windowed abscissa" in joined
        dims = re.search(r"measured dim = (\d+) \(halves (\d+) \+ (\d+), both symmetrized\)", joined)
        assert dims and int(dims[1]) == int(dims[2]) + int(dims[3])
        spectrum = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "re,im,branch"
