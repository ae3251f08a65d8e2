# =====================================================================
# Decay-law fitting, trace classification, refinement ladders
# =====================================================================

import numpy as np
import pytest

from bresselab.kernel import KernelSpec
from bresselab.model import BoundaryCondition, PhysicalParams
from bresselab.decay import (
    AbscissaLadder,
    abscissa_ladder,
    classify_decay,
    fit_exponential,
    fit_polynomial,
)


class TestExponentialFit:
    def test_recovers_synthetic_rate(self):
        t = np.linspace(0.0, 50.0, 500)
        E = 2.0 * np.exp(-0.3 * t)
        fit = fit_exponential(t, E)
        assert fit.rate == pytest.approx(0.3, rel=1e-10)
        assert fit.amplitude == pytest.approx(2.0, rel=1e-8)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert not fit.non_decaying

    def test_explicit_window(self):
        t = np.linspace(0.0, 100.0, 1000)
        E = np.exp(-0.1 * t) + np.exp(-2.0 * t)  # fast transient
        fit = fit_exponential(t, E, window=(40.0, 100.0))
        assert fit.window == (40.0, 100.0)
        assert fit.rate == pytest.approx(0.1, rel=1e-6)

    def test_flat_trace_flagged(self):
        t = np.linspace(0.0, 20.0, 50)
        fit = fit_exponential(t, np.full(50, 3.0))
        assert fit.non_decaying and fit.rate == 0.0

    def test_guards(self):
        t = np.linspace(0.0, 10.0, 100)
        with pytest.raises(ValueError):
            fit_exponential(t, np.exp(-t), window=(9.99, 10.0))
        bad = np.exp(-t)
        bad[-1] = 0.0
        with pytest.raises(ValueError):
            fit_exponential(t, bad, window=(5.0, 10.0))


class TestPolynomialFit:
    def test_recovers_one_over_t(self):
        t = np.linspace(1.0, 200.0, 800)
        fit = fit_polynomial(t, 5.0 / t)
        assert fit.rate == pytest.approx(1.0, rel=1e-10)
        assert fit.amplitude == pytest.approx(5.0, rel=1e-8)

    def test_recovers_inverse_sqrt(self):
        t = np.linspace(1.0, 400.0, 800)
        fit = fit_polynomial(t, 3.0 / np.sqrt(t))
        assert fit.rate == pytest.approx(0.5, rel=1e-10)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-8)

    def test_window_below_one_rejected(self):
        t = np.linspace(0.1, 50.0, 300)
        with pytest.raises(ValueError, match="t >= 1"):
            fit_polynomial(t, 1.0 / t, window=(0.5, 50.0))


class TestClassification:
    def test_exponential_trace_labeled(self):
        t = np.linspace(0.0, 80.0, 600)
        v = classify_decay(t, 4.0 * np.exp(-0.2 * t))
        assert v.label == "Exponential"
        assert v.exponential.r2 > v.polynomial.r2

    def test_polynomial_trace_labeled(self):
        t = np.linspace(0.0, 300.0, 900)
        v = classify_decay(t, 10.0 / (1.0 + t) ** 1.0)
        assert v.label == "Polynomial"

    def test_flat_trace_undecided(self):
        t = np.linspace(0.0, 30.0, 100)
        v = classify_decay(t, np.ones(100))
        assert v.label == "Undecided"
        assert "not decay" in v.note

    def test_short_trace_rejected(self):
        t = np.linspace(0.0, 5.0, 100)
        with pytest.raises(ValueError):
            classify_decay(t, np.exp(-t))


class TestAbscissaLadder:
    def test_shrink_factors_and_signature(self):
        ladder = AbscissaLadder(
            nx_values=[40, 80, 160],
            abscissas=[-8e-5, -2e-5, -5e-6],
            raw_abscissas=[-1e-6, -1e-7, -1e-8],
            shrink_factors=[4.0, 4.0],
            polynomial_signature=True,
        )
        assert ladder.shrink_factors == [4.0, 4.0]

    def test_elastic_ladders_separate_regimes(self):
        # small desk-scale version of the refinement dichotomy: the
        # equal-speed configuration's windowed abscissa stabilizes while
        # the unequal-speed one keeps collapsing
        kern = KernelSpec(0.5, 1.0)
        bc = BoundaryCondition.from_string("ddd")
        eq = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1, ell=1.0)
        uneq = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1, ell=1.0)
        lad_eq = abscissa_ladder(eq, kern, bc, [40, 80], ns=24)
        lad_uneq = abscissa_ladder(uneq, kern, bc, [40, 80], ns=24)
        assert len(lad_eq.abscissas) == 2 and len(lad_eq.shrink_factors) == 1
        assert all(a < 0 for a in lad_eq.abscissas)
        assert lad_uneq.shrink_factors[0] >= 2.0, (
            f"unequal speeds should collapse: {lad_uneq.shrink_factors}"
        )
        assert lad_eq.shrink_factors[0] <= 1.5, (
            f"equal speeds should stabilize: {lad_eq.shrink_factors}"
        )
        assert lad_uneq.polynomial_signature and not lad_eq.polynomial_signature
        # the raw abscissa is closer to zero than the windowed one:
        # near-cutoff modes always float nearer the axis
        for raw, win in zip(lad_eq.raw_abscissas, lad_eq.abscissas):
            assert raw >= win
