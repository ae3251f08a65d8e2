# =====================================================================
# Acceptance suite: eleven headline checks, one verdict line each
# =====================================================================
#
# Each test measures the quantity it certifies, registers a PASS/FAIL
# line through the acceptance fixture (printed as a block at the end of
# the run), and enforces its wall-clock budget.  Tolerances are stated
# inline; a missed bound fails the test rather than skipping.

import time

import numpy as np
import pytest
import scipy.linalg as la
from scipy.integrate import quad

from bresselab.characteristic import (
    boundary_determinant,
    branch_convergence,
    char_point,
    refine_char_root,
    track_branch,
)
from bresselab.decay import abscissa_ladder, fit_exponential
from bresselab.discretize import (
    assemble_generator,
    assemble_timoshenko_generator,
    build_memory_grid,
    build_spatial_grid,
    exact_memory_grid,
)
from bresselab.kernel import KernelSpec, evaluate, laplace, total_mass
from bresselab.model import BoundaryCondition, PhysicalParams, Regime, classify_regime
from bresselab.simulate import (
    collapsed_history_gap,
    initial_state,
    simulate,
)
from bresselab.spectra import (
    abscissa_window,
    compute_spectrum,
    envelope_anchors,
    fit_growth_exponent,
    refine_modes,
    resolution_cap,
    resolvent_scan,
)

ELASTIC_KERNEL = KernelSpec(0.5, 1.0)
THERMAL_KERNEL = KernelSpec(0.25, 1.0)
DDD = BoundaryCondition.from_string("ddd")
DDDD = BoundaryCondition.from_string("dddd")

ELASTIC_EXP = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1, ell=1.0)
ELASTIC_P1 = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1, ell=1.0)
ELASTIC_P12 = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=2, ell=1.0)
THERMAL_EXP = PhysicalParams(
    rho1=1, rho2=3.0, k1=1, k2=1, k3=1, ell=1.0,
    thermal=True, rho3=1.0, delta=1.0, tau=2.0, beta=1.0,
)
THERMAL_P1 = PhysicalParams(
    rho1=1, rho2=3.5, k1=1, k2=1, k3=1, ell=1.0,
    thermal=True, rho3=1.0, delta=1.0, tau=2.0, beta=1.0,
)
THERMAL_P12 = PhysicalParams(
    rho1=1, rho2=3.5, k1=1, k2=1, k3=2, ell=1.0,
    thermal=True, rho3=1.0, delta=1.0, tau=2.0, beta=1.0,
)
STRAIGHT = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1, ell=0.0)

REGIME_CONFIGS = (
    ("elastic-exp", ELASTIC_EXP, ELASTIC_KERNEL, DDD),
    ("elastic-poly1", ELASTIC_P1, ELASTIC_KERNEL, DDD),
    ("elastic-poly12", ELASTIC_P12, ELASTIC_KERNEL, DDD),
    ("thermal-exp", THERMAL_EXP, THERMAL_KERNEL, DDDD),
    ("thermal-poly1", THERMAL_P1, THERMAL_KERNEL, DDDD),
    ("thermal-poly12", THERMAL_P12, THERMAL_KERNEL, DDDD),
)


def _build(params, kernel, bc, nx, ns):
    return assemble_generator(
        params, kernel, bc, build_spatial_grid(params.length, nx),
        build_memory_grid(kernel, ns=ns),
    )


def _exp_fit(params, kernel, bc, nx):
    gen = _build(params, kernel, bc, nx, ns=32)
    trace = simulate(gen, initial_state(gen, "smooth_bump"), T=100.0, dt=0.05)
    return fit_exponential(trace.t, trace.E, window=(40.0, 100.0))


# =====================================================================
# 1: one-sided energy and spectrum for all six covered configurations
# =====================================================================

def test_criterion_01_dissipativity_sign(acceptance):
    worst_ratio = -np.inf
    worst_re = -np.inf
    worst_time = 0.0
    ok = True
    for tag, params, kernel, bc in REGIME_CONFIGS:
        t0 = time.monotonic()
        gen = _build(params, kernel, bc, nx=40, ns=32)
        trace = simulate(gen, initial_state(gen, "smooth_bump"), T=100.0, dt=0.05)
        ratio = float(np.max(trace.E[1:] / trace.E[:-1]))
        max_re = compute_spectrum(gen).max_real_part
        elapsed = time.monotonic() - t0
        worst_ratio = max(worst_ratio, ratio)
        worst_re = max(worst_re, max_re)
        worst_time = max(worst_time, elapsed)
        ok = ok and ratio <= 1.0 + 1e-10 and max_re <= 1e-8 and elapsed <= 120.0
    detail = (
        f"6 configs nx=40 ns=32 T=100: worst step ratio {worst_ratio:.12f} "
        f"(<= 1+1e-10), worst max Re {worst_re:+.3e} (<= 1e-8), "
        f"slowest {worst_time:.0f}s (<= 120s)"
    )
    acceptance(1, ok, detail)
    assert ok, detail


# =====================================================================
# 2: exact conservation in the undamped limit
# =====================================================================

def test_criterion_02_conservative_limit(acceptance):
    t0 = time.monotonic()
    params = PhysicalParams(
        rho1=1, rho2=3.0, k1=1, k2=1, k3=1, ell=1.0,
        thermal=True, rho3=1.0, delta=0.0, tau=2.0, beta=0.0,
    )
    kernel = KernelSpec(0.0, 1.0)
    gen = _build(params, kernel, DDDD, nx=40, ns=32)
    trace = simulate(gen, initial_state(gen, "smooth_bump"), T=100.0, dt=0.05)
    drift = float(np.max(np.abs(trace.E - trace.E[0])) / trace.E[0])
    elapsed = time.monotonic() - t0
    ok = drift <= 1e-8 and elapsed <= 60.0
    detail = f"a=0, beta=delta=0, T=100: relative drift {drift:.3e} (<= 1e-8), {elapsed:.0f}s (<= 60s)"
    acceptance(2, ok, detail)
    assert ok, detail


# =====================================================================
# 3: equal-speed exponential decay, rate stable under refinement
# =====================================================================

def test_criterion_03_equal_speed_exponential_fit(acceptance):
    t0 = time.monotonic()
    fit40 = _exp_fit(ELASTIC_EXP, ELASTIC_KERNEL, DDD, nx=40)
    fit80 = _exp_fit(ELASTIC_EXP, ELASTIC_KERNEL, DDD, nx=80)
    drift = abs(fit80.rate - fit40.rate) / fit40.rate
    elapsed = time.monotonic() - t0
    ok = (
        fit40.r2 >= 0.99 and fit40.rate > 0.0
        and fit80.r2 >= 0.99 and fit80.rate > 0.0
        and drift <= 0.25 and elapsed <= 300.0
    )
    detail = (
        f"fit on t in [40,100]: r2 {fit40.r2:.5f}/{fit80.r2:.5f} (>= 0.99), "
        f"eps {fit40.rate:.5f}->{fit80.rate:.5f} drift {100 * drift:.1f}% (<= 25%), "
        f"{elapsed:.0f}s (<= 300s)"
    )
    acceptance(3, ok, detail)
    assert ok, detail


# =====================================================================
# 4: abscissa ladder separates uniform from non-uniform stability
# =====================================================================

def test_criterion_04_abscissa_ladder_dichotomy(acceptance):
    t0 = time.monotonic()
    poly = abscissa_ladder(ELASTIC_P1, ELASTIC_KERNEL, DDD, (40, 80, 160), ns=32)
    eq = abscissa_ladder(ELASTIC_EXP, ELASTIC_KERNEL, DDD, (40, 80, 160), ns=32)
    elapsed = time.monotonic() - t0
    ok = (
        all(s >= 2.0 for s in poly.shrink_factors)
        and all(s <= 1.5 for s in eq.shrink_factors)
        and elapsed <= 600.0
    )
    detail = (
        f"nx 40->80->160: unequal-speed shrink "
        f"{poly.shrink_factors[0]:.2f},{poly.shrink_factors[1]:.2f} (>= 2), "
        f"equal-speed {eq.shrink_factors[0]:.2f},{eq.shrink_factors[1]:.2f} (<= 1.5), "
        f"{elapsed:.0f}s (<= 600s)"
    )
    acceptance(4, ok, detail)
    assert ok, detail


# =====================================================================
# 5: resolvent growth along the axis distinguishes the three regimes
# =====================================================================

def test_criterion_05_resolvent_growth(acceptance):
    t0 = time.monotonic()
    slopes = {}
    for tag, params in (
        ("eq", ELASTIC_EXP), ("p1", ELASTIC_P1), ("p12", ELASTIC_P12)
    ):
        gen = _build(params, ELASTIC_KERNEL, DDD, nx=200, ns=32)
        cap = resolution_cap(gen)
        spec = compute_spectrum(gen)
        anchors = envelope_anchors(spec.eigenvalues, 5.0, cap)
        win = min(cap, abscissa_window(gen))
        scan = resolvent_scan(gen, anchors[anchors <= win])
        fit = fit_growth_exponent(scan)
        slopes[tag] = fit.exponent
    elapsed = time.monotonic() - t0
    ok = (
        abs(slopes["eq"]) <= 0.2
        and slopes["p1"] >= 0.5
        and slopes["p12"] >= 0.5
        and elapsed <= 900.0
    )
    detail = (
        f"envelope anchors in [5, 315.7] up to the fit window top 189.4: "
        f"equal-speed slope {slopes['eq']:+.3f} (|.| <= 0.2), "
        f"poly slopes {slopes['p1']:+.3f}/{slopes['p12']:+.3f} (>= 0.5), "
        f"{elapsed:.0f}s (<= 900s)"
    )
    acceptance(5, ok, detail)
    assert ok, detail


# =====================================================================
# 6: characteristic branch asymptotics
# =====================================================================

def test_criterion_06_branch_asymptotics(acceptance):
    t0 = time.monotonic()
    roots0 = track_branch(STRAIGHT, ELASTIC_KERNEL, range(10, 31), branch=0)
    roots1 = track_branch(STRAIGHT, ELASTIC_KERNEL, range(10, 31), branch=1)
    trend0 = branch_convergence(roots0, STRAIGHT, ELASTIC_KERNEL)
    trend1 = branch_convergence(roots1, STRAIGHT, ELASTIC_KERNEL)
    worst0 = max(abs(r.root.real + 0.125) for r in roots0)
    last1 = abs(roots1[-1].root.real)
    elapsed = time.monotonic() - t0
    ok = (
        all(r.converged for r in roots0 + roots1)
        and worst0 <= 0.05
        and roots1[-1].n == 30 and last1 <= 0.02
        and trend0.monotone_ok and trend1.monotone_ok
        and elapsed <= 60.0
    )
    detail = (
        f"n=10..30: max |Re + 0.125| on damped branch {worst0:.4f} (<= 0.05), "
        f"|Re| at n=30 on wave branch {last1:.4f} (<= 0.02), "
        f"deviation envelopes decreasing {trend0.monotone_ok}/{trend1.monotone_ok}, "
        f"{elapsed:.0f}s (<= 60s)"
    )
    acceptance(6, ok, detail)
    assert ok, detail


# =====================================================================
# 7: closed-form boundary determinant identity
# =====================================================================

def test_criterion_07_determinant_identity(acceptance):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    ok = True
    for _ in range(100):
        lam = complex(rng.uniform(-1.0, 0.0), rng.uniform(1.0, 100.0))
        det = boundary_determinant(STRAIGHT, ELASTIC_KERNEL, lam)
        f_val = char_point(STRAIGHT, ELASTIC_KERNEL, lam).F
        err = abs(det + 4.0 * STRAIGHT.rho1 * f_val) / (1.0 + abs(det))
        worst = max(worst, err)
        ok = ok and err <= 1e-8
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 60.0
    detail = (
        f"100 random lam, Re in [-1,0], Im in [1,100]: "
        f"max |det M + 4 rho1 F| / (1+|det M|) = {worst:.2e} (<= 1e-8), {elapsed:.0f}s"
    )
    acceptance(7, ok, detail)
    assert ok, detail


# =====================================================================
# 8: discrete spectrum against analytic characteristic roots
# =====================================================================

def _strip_roots(params, kernel):
    """Characteristic roots with Re in (-0.5, 0], Im in [0.5, 20].

    Newton sweep over a seed rectangle; duplicates merged.  The Im floor
    excludes the spurious near-origin points Newton produces by
    collapsing into the degenerate zero of the determinant at lam = 0.
    """
    roots = []
    for re0 in np.linspace(-0.4, -0.01, 5):
        for im0 in np.arange(1.0, 20.5, 0.75):
            try:
                res = refine_char_root(params, kernel, complex(re0, im0))
            except (ValueError, ArithmeticError):
                continue
            z = res.root
            if not (res.converged and -0.5 < z.real <= 0.0 and 0.5 <= z.imag <= 20.0):
                continue
            if any(abs(z - u) < 1e-6 * max(1.0, abs(u)) for u in roots):
                continue
            roots.append(z)
    return sorted(roots, key=lambda z: z.imag)


def _in_strip(z):
    # beam modes live right of the memory-transport cluster (Re > -c/2)
    return z.real > -0.5 and 0.5 <= z.imag <= 20.0


def test_criterion_08_spectrum_matches_characteristic_roots(acceptance):
    t0 = time.monotonic()
    gen = assemble_timoshenko_generator(
        STRAIGHT, ELASTIC_KERNEL, build_spatial_grid(1.0, 200),
        build_memory_grid(ELASTIC_KERNEL, ns=64),
    )
    roots = _strip_roots(STRAIGHT, ELASTIC_KERNEL)
    # seeds: the roots, and the strip modes of exact memory, the one-slice
    # ladder (dimension 1000, solved dense); both refined on the ns = 64 ladder
    exact = gen.on_memory_grid(exact_memory_grid(ELASTIC_KERNEL))
    exact_modes = [z for z in la.eigvals(exact.A.toarray()) if _in_strip(z)]
    refined = refine_modes(gen, roots + exact_modes)
    beam = [z for z in refined.distinct if _in_strip(z)]
    worst_re = worst_im = 0.0
    ok = len(beam) > 0 and len(roots) > 0 and bool(refined.converged.all())
    for z in beam:
        near = min(roots, key=lambda r: abs(r - z))
        worst_re = max(worst_re, abs(near.real - z.real))
        worst_im = max(worst_im, abs(near.imag - z.imag) / near.imag)
    for r in roots:
        near = min(beam, key=lambda z: abs(z - r))
        worst_re = max(worst_re, abs(near.real - r.real))
        worst_im = max(worst_im, abs(near.imag - r.imag) / r.imag)
    elapsed = time.monotonic() - t0
    ok = ok and worst_re <= 0.05 and worst_im <= 0.02 and elapsed <= 300.0
    detail = (
        f"nx=200 ns=64, strip |Im| <= 20: {len(beam)} distinct converged ladder modes "
        f"from {refined.modes.size} seeds vs {len(roots)} analytic roots, max dRe {worst_re:.4f} (<= 0.05), "
        f"max dIm {100 * worst_im:.2f}% (<= 2%), {elapsed:.0f}s (<= 300s)"
    )
    acceptance(8, ok, detail)
    assert ok, detail


# =====================================================================
# 9: full history ladder against exact memory, the one-slice ladder
# =====================================================================

def test_criterion_09_memory_reduction_cross_validation(acceptance):
    t0 = time.monotonic()
    gen = _build(ELASTIC_P1, ELASTIC_KERNEL, DDD, nx=8, ns=16384)
    u0 = initial_state(gen, "smooth_bump")
    gap = collapsed_history_gap(gen, u0, T=10.0, dt=0.02)
    elapsed = time.monotonic() - t0
    ok = gap <= 1e-3 and elapsed <= 120.0
    detail = (
        f"nx=8 ns=16384 T=10: relative (phi,psi) trajectory gap {gap:.2e} "
        f"(<= 1e-3), {elapsed:.0f}s (<= 120s)"
    )
    acceptance(9, ok, detail)
    assert ok, detail


# =====================================================================
# 10: heat-coupled regimes keyed on the stability number
# =====================================================================

def test_criterion_10_cattaneo_regimes(acceptance):
    t0 = time.monotonic()
    rep_exp = classify_regime(THERMAL_EXP, THERMAL_KERNEL)
    rep_p1 = classify_regime(THERMAL_P1, THERMAL_KERNEL)

    fit40 = _exp_fit(THERMAL_EXP, THERMAL_KERNEL, DDDD, nx=40)
    fit80 = _exp_fit(THERMAL_EXP, THERMAL_KERNEL, DDDD, nx=80)
    drift = abs(fit80.rate - fit40.rate) / fit40.rate

    ladder = abscissa_ladder(THERMAL_P1, THERMAL_KERNEL, DDDD, (40, 80, 160), ns=32)
    elapsed = time.monotonic() - t0
    ok = (
        rep_exp.regime is Regime.EXPONENTIAL and rep_exp.chi0 == 0.0
        and fit40.r2 >= 0.99 and fit80.r2 >= 0.99
        and fit40.rate > 0.0 and fit80.rate > 0.0 and drift <= 0.25
        and rep_p1.regime is Regime.POLY_ONE and abs(rep_p1.chi0) > 0.0
        and all(s >= 2.0 for s in ladder.shrink_factors)
        and elapsed <= 600.0
    )
    detail = (
        f"chi0 {rep_exp.chi0:.1f} -> {rep_exp.regime.value} "
        f"(fit r2 {fit40.r2:.5f}/{fit80.r2:.5f}, eps drift {100 * drift:.1f}%); "
        f"rho2=3.5: chi0 {rep_p1.chi0:.1f} -> {rep_p1.regime.value}, "
        f"shrink {ladder.shrink_factors[0]:.2f},{ladder.shrink_factors[1]:.2f} (>= 2), "
        f"{elapsed:.0f}s (<= 600s)"
    )
    acceptance(10, ok, detail)
    assert ok, detail


# =====================================================================
# 11: kernel closed forms against quadrature
# =====================================================================

def test_criterion_11_kernel_quadrature_oracles(acceptance):
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    ok = True
    for _ in range(50):
        a = float(rng.uniform(0.1, 2.0))
        c = float(rng.uniform(0.5, 3.0))
        k = KernelSpec(a, c)
        lam = complex(rng.uniform(-c / 2.0, 2.0), rng.uniform(-10.0, 10.0))

        mass_q, _ = quad(lambda s: evaluate(k, s), 0.0, np.inf, limit=400, epsabs=1e-13)
        err_mass = abs(total_mass(k) - mass_q)

        # Fourier-weighted quadrature (QAWF) for the oscillatory factor;
        # plain infinite-range quadrature loses digits once Im(lam) grows
        damped = lambda s: evaluate(k, s) * np.exp(-lam.real * s)  # noqa: E731
        w = abs(lam.imag)
        re_q, _ = quad(damped, 0.0, np.inf, weight="cos", wvar=w)
        im_q, _ = quad(damped, 0.0, np.inf, weight="sin", wvar=w)
        lap_q = complex(re_q, -np.sign(lam.imag) * im_q)
        err_lap = abs(laplace(k, lam) - lap_q)

        worst = max(worst, err_mass, err_lap)
        ok = ok and err_mass <= 1e-10 and err_lap <= 1e-10
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 60.0
    detail = (
        f"50 random kernels and lam: max |closed form - quadrature| = "
        f"{worst:.2e} (<= 1e-10), {elapsed:.0f}s"
    )
    acceptance(11, ok, detail)
    assert ok, detail
