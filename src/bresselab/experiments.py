"""Experiment drivers: one config in, CSV artifacts and a report out.

Every report line that states a prediction also carries the measured
counterpart and a PASS / FAIL / UNCOVERED tag, so a report is readable
as a self-contained record of what was claimed and what was seen.
Numbers are written with 12 significant digits and all computations are
seeded, so reruns reproduce the artifacts byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .characteristic import branch_asymptote, branch_convergence, branch_refusal, track_branch
from .configio import ConfigError, ExperimentConfig
from .decay import classify_decay, fit_exponential, fit_polynomial
from .discretize import (
    assemble_generator,
    assemble_timoshenko_generator,
    build_memory_grid,
    build_spatial_grid,
)
from .kernel import validate_hypotheses
from .model import Regime, RegimeReport, classify_regime
from .simulate import initial_state, simulate
from .spectra import (
    DENSE_DIM_CAP,
    SpectrumReport,
    abscissa_window,
    compute_spectrum,
    energy_cholesky,
    envelope_anchors,
    fit_growth_exponent,
    match_branches,
    resolution_cap,
    resolvent_scan,
    windowed_abscissa,
)


def _f(x: float) -> str:
    return f"{x:.12e}"


@dataclass
class ExperimentResult:
    status: str                      # "pass" | "fail" | "uncovered"
    report_lines: list[str]
    files: list[Path] = field(default_factory=list)


class _Report:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.status = "pass"

    def say(self, text: str) -> None:
        self.lines.append(text)

    def check(self, topic: str, predicted: str, measured: str, ok: bool) -> None:
        tag = "PASS" if ok else "FAIL"
        self.lines.append(f"{topic}: predicted {predicted} | measured {measured} | {tag}")
        if not ok:
            self.status = "fail"

    def uncovered(self, topic: str, detail: str) -> None:
        self.lines.append(f"{topic}: {detail} | UNCOVERED")
        if self.status == "pass":
            self.status = "uncovered"


# Least frequency ratio the fitted envelope anchors must span: a log-log
# slope over less than an octave reads the scatter of a few peak
# heights, not a growth law.
MIN_ANCHOR_SPAN = 2.0


class _RunContext:
    """What one run builds, each piece at most once and only when a runner asks.

    Between sections it holds sparse generators and eigenvalue arrays,
    never dense matrices or LU factors.
    """

    def __init__(self, cfg: ExperimentConfig, rep: _Report) -> None:
        self.cfg, self.rep = cfg, rep

    def _build(self, make, *args):
        """make(*args); a grid or an assembly the config cannot give is a config error."""
        try:
            return make(*args)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @cached_property
    def regime_report(self) -> RegimeReport | None:
        """Writes the classification block; None when the kernel is inadmissible."""
        cfg, rep = self.cfg, self.rep
        hyp = validate_hypotheses(cfg.kernel, cfg.params.k2)
        rep.check(
            "hypotheses",
            "k2 - g0 > 0",
            f"k2_tilde = {_f(hyp.k2_tilde)}, decay rate c = {_f(hyp.decay_rate)}, "
            f"curvature bound c2 = {_f(hyp.curvature_bound)}",
            hyp.ok,
        )
        if not hyp.ok:
            return None
        report = classify_regime(cfg.params, cfg.kernel)
        chi = "n/a" if report.chi0 is None else _f(report.chi0)
        rep.say(
            f"regime: {report.regime.value} | equal_speeds={report.equal_speeds} "
            f"k1_eq_k3={report.k1_equals_k3} chi0={chi} "
            f"near_degenerate={report.near_degenerate}"
        )
        rep.say(f"guarantee: {report.guarantee}")
        for note in report.notes:
            rep.say(f"note: {note}")
        if report.regime is Regime.UNCOVERED:
            rep.uncovered("regime coverage", "coefficients fall outside every covered row")
        return report

    @cached_property
    def grid(self):
        return self._build(build_spatial_grid, self.cfg.params.length, self.cfg.nx)

    @cached_property
    def mgrid(self):
        return self._build(build_memory_grid, self.cfg.kernel, self.cfg.ns)

    @cached_property
    def generator(self):
        """The run's one assembly, which every section reads: two-field on the straight elastic beam.

        There the longitudinal motion decouples undamped, so the
        three-field generator would add modes on the axis to round-off
        and a conserved share to the energy.
        """
        cfg = self.cfg
        if cfg.params.timoshenko and not cfg.params.thermal:
            self.rep.say("spectrum: two-field straight-beam assembly (longitudinal modes decoupled)")
            return self._build(assemble_timoshenko_generator, cfg.params, cfg.kernel, self.grid, self.mgrid)
        return self._build(assemble_generator, cfg.params, cfg.kernel, cfg.bc, self.grid, self.mgrid)

    @cached_property
    def spectrum(self) -> SpectrumReport:
        """Dense spectrum of the generator; a config error past the dense eigensolver cap."""
        dim = self.generator.dim
        if dim > DENSE_DIM_CAP:
            raise ConfigError(
                f"dense spectrum needs dimension <= {DENSE_DIM_CAP}, got {dim}; reduce disc.nx/disc.ns"
            )
        return compute_spectrum(self.generator)

    @cached_property
    def resolvent_plan(self) -> tuple[float, float, float, np.ndarray, float]:
        """(lo, hi, resolution cap, scanned anchors, fit top) of the resolvent scan.

        The resolvent peaks are narrower than any affordable uniform
        spacing, so the scan samples only the envelope anchors: the least
        damped eigenvalue of each frequency band over [lo, hi], kept up to
        the top of the trusted frequency window (past it the stencils
        suppress the damping the envelope measures).  A config error when
        the energy Gram matrix is only semidefinite (spectra.energy_cholesky),
        the window is empty, the spectrum is past the dense cap, or the
        kept anchors are fewer than 4 or span less than MIN_ANCHOR_SPAN.
        """
        cfg = self.cfg
        gen = self.generator
        self._build(energy_cholesky, gen)
        cap = resolution_cap(gen)
        hi = cap if cfg.lambda_max is None else min(cfg.lambda_max, cap)
        lo = cfg.lambda_min
        if not lo < hi:
            raise ConfigError(
                f"resolvent window [{lo}, {hi}] is empty (resolution cap {_f(cap)}); "
                "refine disc.nx or lower spec.lambda_min"
            )
        top = min(hi, abscissa_window(gen))
        anchors = envelope_anchors(self.spectrum.eigenvalues, lo, hi)
        anchors = anchors[anchors <= top]
        if anchors.size < 4 or anchors.max() / anchors.min() < MIN_ANCHOR_SPAN:
            raise ConfigError(
                f"resolvent growth fit needs at least 4 envelope anchors spanning a frequency "
                f"ratio of {MIN_ANCHOR_SPAN:g} in the trusted window [{lo}, {_f(top)}], got "
                f"{np.round(anchors, 3).tolist()}; refine disc.nx or lower spec.lambda_min"
            )
        return lo, hi, cap, anchors, top


# =====================================================================
# Individual experiments
# =====================================================================

def run_classify(ctx: _RunContext, out_dir: Path) -> list[Path]:
    ctx.regime_report  # first use writes the classification block
    return []


def run_simulate(ctx: _RunContext, out_dir: Path) -> list[Path]:
    cfg, rep = ctx.cfg, ctx.rep
    report = ctx.regime_report
    gen = ctx.generator
    u0 = initial_state(gen, cfg.ic, index=cfg.ic_index, seed=cfg.seed)
    trace = simulate(gen, u0, T=cfg.T, dt=cfg.dt, stride=cfg.stride)

    epath = out_dir / "energy.csv"
    with open(epath, "w") as fh:
        fh.write("t,E,mem_rate,heat_rate\n")
        for t, e, m, h in trace.to_rows():
            fh.write(f"{_f(t)},{_f(e)},{_f(m)},{_f(h)}\n")

    e0 = trace.E[0]
    increases = np.diff(trace.E)
    worst = float(np.max(increases)) if increases.size else 0.0
    rep.check(
        "energy monotonicity",
        "E non-increasing (tol 1e-10 E(0) per recorded step)",
        f"E(0) = {_f(e0)}, E(T) = {_f(trace.E[-1])}, worst step change = {_f(worst)}",
        worst <= 1e-10 * max(e0, 1e-300),
    )

    fits_rows = []
    fe = fp = skipped = None
    nonpositive = np.flatnonzero(trace.E <= 0.0)
    if cfg.T < 10.0:
        skipped = "trace too short for decay fits, needs T >= 10"
    elif nonpositive.size:
        skipped = f"non-positive energy at t = {trace.t[nonpositive[0]]:g}"
    else:
        try:
            fe, fp = fit_exponential(trace.t, trace.E), fit_polynomial(trace.t, trace.E)
        except ValueError as exc:  # a recording too coarse for a fit window
            skipped = str(exc)
    if skipped:
        rep.say(f"fit: skipped ({skipped})")
    else:
        fits_rows.append(("exponential", fe.amplitude, fe.rate, fe.r2, fe.window))
        fits_rows.append(("polynomial", fp.amplitude, fp.rate, fp.r2, fp.window))
        rep.say(
            f"fit[exponential]: M = {_f(fe.amplitude)} eps = {_f(fe.rate)} r2 = {fe.r2:.6f}"
        )
        rep.say(
            f"fit[polynomial]: C = {_f(fp.amplitude)} alpha = {_f(fp.rate)} r2 = {fp.r2:.6f}"
        )

    if report is not None and fe is not None:
        regime = report.regime
        if regime is Regime.EXPONENTIAL:
            rep.check(
                "decay law",
                "exponential (r2 >= 0.99, eps > 0)",
                f"eps = {_f(fe.rate)} r2 = {fe.r2:.6f}",
                fe.r2 >= 0.99 and fe.rate > 0.0,
            )
        elif regime in (Regime.POLY_ONE, Regime.POLY_HALF):
            # a single finite trace cannot certify an asymptotic-in-time
            # power law: on any fixed grid the tail is eventually
            # exponential at the discrete abscissa, and the window fit
            # under-reads alpha long before that.  The trace-level check
            # is that energy genuinely decays; the rate verdict lives in
            # the refinement ladder (spectral abscissa collapsing under
            # nx doubling), reported by the spectrum experiment.
            law = "1/t" if regime is Regime.POLY_ONE else "1/sqrt(t)"
            rep.check(
                "decay law",
                f"{law} asymptotically; trace-level check: energy decays (alpha > 0)",
                f"alpha = {_f(fp.rate)} r2 = {fp.r2:.6f} "
                f"E(T)/E(0) = {_f(trace.E[-1] / e0)}",
                fp.rate > 0.0 and trace.E[-1] < e0,
            )
            rep.say(
                "decay law note: asymptotic rate certified by the abscissa "
                "refinement ladder, not by a fixed-grid trace fit"
            )
        else:
            verdict = classify_decay(trace.t, trace.E)
            rep.uncovered(
                "decay law",
                f"no prediction; trace classifies as {verdict.label}",
            )

    files = [epath]
    if fits_rows:
        fpath = out_dir / "fits.csv"
        with open(fpath, "w") as fh:
            fh.write("config_id,model,param1,param2,r2,window_t0,window_t1\n")
            for model, p1, p2, r2, window in fits_rows:
                fh.write(
                    f"{cfg.config_id},{model},{_f(p1)},{_f(p2)},{r2:.12f},"
                    f"{_f(window[0])},{_f(window[1])}\n"
                )
        files.append(fpath)
    return files


def _halves_text(report: SpectrumReport) -> str:
    """'halves 1520 + 1520, both symmetrized': which halves took the Cholesky transform."""
    dims = " + ".join(str(d) for d, _ in report.halves)
    even, odd = (s for _, s in report.halves)
    if even and odd:
        state = "both symmetrized"
    elif even or odd:
        state = f"{'even' if even else 'odd'} symmetrized only"
    else:
        state = "neither symmetrized"
    return f"halves {dims}, {state}"


def run_spectrum(ctx: _RunContext, out_dir: Path) -> list[Path]:
    cfg, rep = ctx.cfg, ctx.rep
    gen = ctx.generator
    report = ctx.spectrum
    tags = [""] * len(report.eigenvalues)
    refusal = branch_refusal(cfg.params)
    if refusal is None:
        tags = ["" if t is None else str(t[0]) for t in match_branches(report, cfg.params, cfg.kernel)]
    elif not gen.include_w:  # the straight elastic beam: say why its branches go untagged
        rep.say(f"branch tags unavailable: {refusal}")

    spath = out_dir / "spectrum.csv"
    with open(spath, "w") as fh:
        fh.write("re,im,branch\n")
        for v, tag in zip(report.eigenvalues, tags):
            fh.write(f"{_f(v.real)},{_f(v.imag)},{tag}\n")

    rep.check(
        "spectral dissipativity",
        "max Re(lambda) <= 1e-8",
        f"dim = {report.dim} ({_halves_text(report)}), max Re = {_f(report.max_real_part)}",
        report.max_real_part <= 1e-8,
    )
    win = abscissa_window(gen)
    rep.say(
        f"windowed abscissa: {_f(windowed_abscissa(gen, report.eigenvalues))} "
        f"over |Im| <= {_f(win)} (raw whole-matrix {_f(report.max_real_part)})"
    )
    return [spath]


def run_resolvent(ctx: _RunContext, out_dir: Path) -> list[Path]:
    rep = ctx.rep
    report = ctx.regime_report
    lo, hi, cap, anchors, top = ctx.resolvent_plan
    scan = resolvent_scan(ctx.generator, anchors)
    rpath = out_dir / "resolvent.csv"
    with open(rpath, "w") as fh:
        fh.write("lambda,inv_sigma_min\n")
        for lv, sv in zip(scan.lam, scan.inv_sigma_min):
            fh.write(f"{_f(lv)},{_f(sv)}\n")

    fit = fit_growth_exponent(scan)
    rep.say(
        f"resolvent window: [{_f(lo)}, {_f(hi)}], resolution cap {_f(cap)}, "
        f"{anchors.size} envelope anchors up to the fit window top {_f(top)}"
    )
    rep.say(
        f"resolvent health: {np.count_nonzero(~scan.converged)} of {scan.lam.size} samples "
        "stopped unconverged at the iteration cap"
    )
    if report is None:
        rep.say(f"resolvent growth exponent: {fit.exponent:.4f} (no regime prediction)")
        return [rpath]
    regime = report.regime
    measured = f"exponent = {fit.exponent:.4f} over {fit.lam.size} envelope points"
    if regime is Regime.EXPONENTIAL:
        rep.check("resolvent growth", "bounded on the axis (exponent <= 0.2)", measured,
                  fit.exponent <= 0.2)
    elif regime in (Regime.POLY_ONE, Regime.POLY_HALF):
        rep.check("resolvent growth", "unbounded along the axis (exponent >= 0.5)", measured,
                  fit.exponent >= 0.5)
    else:
        rep.uncovered("resolvent growth", measured)
    return [rpath]


def run_characteristic(ctx: _RunContext, out_dir: Path) -> list[Path]:
    cfg, rep = ctx.cfg, ctx.rep
    refusal = branch_refusal(cfg.params)
    if refusal is not None:
        raise ConfigError(f"characteristic experiment {refusal}")
    n_values = range(10, 31)
    rows = []
    files = []
    for branch in (0, 1):
        roots = track_branch(cfg.params, cfg.kernel, n_values, branch)
        rows.extend(roots)
        trend = branch_convergence(roots, cfg.params, cfg.kernel)
        target = branch_asymptote(cfg.params, cfg.kernel, branch)
        all_conv = all(r.converged for r in roots)
        rep.check(
            f"branch {branch} newton",
            "all seeds converge (|F| <= 1e-9 relative)",
            f"{sum(r.converged for r in roots)}/{len(roots)} converged, "
            f"max residual = {max(r.residual for r in roots):.3e}",
            all_conv,
        )
        rep.check(
            f"branch {branch} drift",
            f"Re(root) -> {_f(target)}, deviation envelope decreasing (10% jitter)",
            f"envelope = {[f'{d:.3e}' for d in trend.envelope]}, "
            f"final dev = {_f(trend.final_deviation)}",
            trend.monotone_ok,
        )

    bpath = out_dir / "branches.csv"
    with open(bpath, "w") as fh:
        fh.write("branch,n,seed_re,seed_im,root_re,root_im,residual,iters\n")
        for r in rows:
            fh.write(
                f"{r.branch},{r.n},{_f(r.seed.real)},{_f(r.seed.imag)},"
                f"{_f(r.root.real)},{_f(r.root.imag)},{r.residual:.6e},{r.iterations}\n"
            )
    files.append(bpath)
    return files


def run_full_report(ctx: _RunContext, out_dir: Path) -> list[Path]:
    # a config the later sections refuse fails before any section writes a file
    ctx.resolvent_plan
    files = run_simulate(ctx, out_dir)
    files += run_spectrum(ctx, out_dir)
    files += run_resolvent(ctx, out_dir)
    refusal = branch_refusal(ctx.cfg.params)
    if refusal is None:
        files += run_characteristic(ctx, out_dir)
    else:
        ctx.rep.say(f"characteristic: skipped ({refusal})")
    return files


_RUNNERS = {
    "classify": run_classify,
    "simulate": run_simulate,
    "spectrum": run_spectrum,
    "resolvent": run_resolvent,
    "characteristic": run_characteristic,
    "full-report": run_full_report,
}


def run_experiment(cfg: ExperimentConfig, out_dir) -> ExperimentResult:
    """Run one experiment; writes its artifacts plus report.txt."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rep = _Report()
    rep.say(f"config: {cfg.config_id}")
    rep.say(f"experiment: {cfg.experiment}")
    files = _RUNNERS[cfg.experiment](_RunContext(cfg, rep), out_dir)
    rep.say(f"status: {rep.status}")
    rpath = out_dir / "report.txt"
    rpath.write_text("\n".join(rep.lines) + "\n")
    return ExperimentResult(status=rep.status, report_lines=rep.lines, files=[*files, rpath])
