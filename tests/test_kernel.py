# =====================================================================
# Memory kernel: closed forms against quadrature oracles
# =====================================================================

import numpy as np
import pytest
from scipy.integrate import quad

from bresselab.kernel import (
    KernelSpec,
    evaluate,
    laplace,
    total_mass,
    truncation_length,
    validate_hypotheses,
)


class TestEvaluate:
    def test_frozen_value(self):
        # g(s) = a e^{-c s}; a=2, c=0.5, s=2 -> 2 e^{-1}
        got = evaluate(KernelSpec(2.0, 0.5), 2.0)
        want = 0.7357588823428847
        assert abs(got - want) < 1e-15, f"g(2) = {got}, expected {want}"

    def test_array_input(self):
        k = KernelSpec(1.5, 2.0)
        s = np.array([0.0, 0.25, 1.0])
        got = evaluate(k, s)
        want = 1.5 * np.exp(-2.0 * s)
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_zero_amplitude_is_identically_zero(self):
        k = KernelSpec(0.0, 1.0)
        assert evaluate(k, 3.7) == 0.0

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            evaluate(KernelSpec(1.0, 1.0), -0.1)


class TestTotalMass:
    def test_frozen_value(self):
        assert total_mass(KernelSpec(2.0, 0.5)) == pytest.approx(4.0, abs=1e-15)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = float(rng.uniform(0.1, 3.0))
            c = float(rng.uniform(0.2, 4.0))
            k = KernelSpec(a, c)
            oracle, err = quad(
                lambda s: evaluate(k, s), 0.0, np.inf, limit=200, epsabs=1e-13
            )
            # err is QUADPACK's own (conservative) estimate; the agreement
            # check below is the actual oracle
            assert err < 1e-7
            got = total_mass(k)
            assert abs(got - oracle) < 1e-10, (
                f"mass mismatch for a={a}, c={c}: closed {got}, quad {oracle}"
            )


class TestLaplace:
    def test_frozen_complex_value(self):
        # a=1, c=1, lam=i -> 1/(1+i) = 0.5 - 0.5i
        got = laplace(KernelSpec(1.0, 1.0), 1j)
        assert abs(got - (0.5 - 0.5j)) < 1e-15

    def test_quadrature_oracle_on_axis(self):
        # Fourier-weighted quadrature handles the oscillation exactly
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = float(rng.uniform(0.1, 2.0))
            c = float(rng.uniform(0.3, 3.0))
            w = float(rng.uniform(0.5, 40.0))
            k = KernelSpec(a, c)
            re, _ = quad(lambda s: evaluate(k, s), 0.0, np.inf, weight="cos", wvar=w)
            im, _ = quad(lambda s: -evaluate(k, s), 0.0, np.inf, weight="sin", wvar=w)
            got = laplace(k, 1j * w)
            assert abs(got - (re + 1j * im)) < 1e-10, (
                f"laplace mismatch at a={a}, c={c}, w={w}"
            )

    def test_domain_boundary_rejected(self):
        k = KernelSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            laplace(k, complex(-1.0, 2.0))


class TestHypotheses:
    def test_admissible_kernel(self):
        rep = validate_hypotheses(KernelSpec(0.5, 1.0), k2=1.0)
        assert rep.ok
        assert rep.k2_tilde == pytest.approx(0.5, abs=1e-15)
        assert rep.decay_rate == pytest.approx(1.0)

    def test_mass_exceeding_k2_flags_not_ok(self):
        rep = validate_hypotheses(KernelSpec(2.0, 1.0), k2=1.0)
        assert not rep.ok
        assert rep.k2_tilde == pytest.approx(-1.0, abs=1e-15)

    def test_truncation_length_frozen(self):
        got = truncation_length(KernelSpec(0.5, 1.0), 1e-8)
        assert got == pytest.approx(18.420680743952367, rel=1e-14), (
            f"S_max = {got}, expected ln(1e8)"
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(-0.5, 1.0)
        with pytest.raises(ValueError):
            KernelSpec(0.5, 0.0)
