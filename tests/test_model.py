# =====================================================================
# Physical parameters, wave speeds, and regime classification
# =====================================================================

import pytest

from bresselab.kernel import KernelSpec
from bresselab.model import (
    BoundaryCondition,
    PhysicalParams,
    Regime,
    characteristic_speeds,
    classify_regime,
    equal_speed_condition,
    stability_number,
    wave_speeds,
)

K_HALF = KernelSpec(0.5, 1.0)


class TestWaveSpeeds:
    def test_three_speeds(self):
        p = PhysicalParams(rho1=2.0, rho2=4.0, k1=4.0, k2=8.0, k3=8.0)
        got = wave_speeds(p)
        assert got == pytest.approx((2.0, 2.0, 4.0), abs=1e-15), (
            f"speeds {got}, expected (2, 2, 4)"
        )

    @pytest.mark.parametrize("thermal,tau,want", [
        (False, 2.0, (2.0, 2.0, 4.0)),
        (True, 2.0, (2.0, 2.0, 4.0, 0.25)),
        # tau = 0: Fourier heat, no finite heat speed
        (True, 0.0, (2.0, 2.0, 4.0)),
    ], ids=["elastic", "cattaneo", "fourier"])
    def test_characteristic_speeds_add_the_heat_flux(self, thermal, tau, want):
        p = PhysicalParams(rho1=2.0, rho2=4.0, k1=4.0, k2=8.0, k3=8.0, thermal=thermal, rho3=2.0, tau=tau)
        assert characteristic_speeds(p) == want

    def test_equal_speed_condition_holds(self):
        p = PhysicalParams(rho1=1.0, rho2=2.0, k1=3.0, k2=6.0, k3=2.0)
        assert equal_speed_condition(p)

    def test_equal_speed_condition_fails(self):
        p = PhysicalParams(rho1=1.0, rho2=1.0, k1=1.0, k2=2.0, k3=1.0)
        assert not equal_speed_condition(p)

    def test_scaling_invariance(self):
        # speeds are ratios, so a common factor cannot change the verdict
        base = PhysicalParams(rho1=1.0, rho2=2.0, k1=3.0, k2=6.0, k3=3.0)
        scaled = PhysicalParams(rho1=5.0, rho2=10.0, k1=15.0, k2=30.0, k3=15.0)
        assert equal_speed_condition(base) == equal_speed_condition(scaled) is True


class TestStabilityNumber:
    def test_all_ones_value(self):
        # (tau - rho1/(rho3 k1))(rho2 - k2 rho1/k1) - tau rho1 delta^2/(rho3 k1)
        # with every parameter 1: (1-1)(1-1) - 1 = -1
        p = PhysicalParams(
            rho1=1, rho2=1, k1=1, k2=1, k3=1,
            thermal=True, rho3=1, delta=1, tau=1, beta=1,
        )
        assert stability_number(p) == pytest.approx(-1.0, abs=1e-15)

    def test_tuned_zero(self):
        # tau=2, rho3=k1=rho1=delta=1, k2=1, rho2=3:
        # (2-1)(3-1) - 2 = 0
        p = PhysicalParams(
            rho1=1, rho2=3, k1=1, k2=1, k3=1,
            thermal=True, rho3=1, delta=1, tau=2, beta=1,
        )
        assert stability_number(p) == pytest.approx(0.0, abs=1e-15)

    def test_perturbed_nonzero(self):
        p = PhysicalParams(
            rho1=1, rho2=3.5, k1=1, k2=1, k3=1,
            thermal=True, rho3=1, delta=1, tau=2, beta=1,
        )
        assert stability_number(p) == pytest.approx(0.5, abs=1e-14)

    def test_elastic_params_rejected(self):
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1)
        with pytest.raises(ValueError):
            stability_number(p)


class TestElasticRegimes:
    def test_equal_speeds_same_k_exponential(self):
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1, ell=1.0)
        rep = classify_regime(p, K_HALF)
        assert rep.regime is Regime.EXPONENTIAL

    def test_unequal_speeds_same_k_poly_one(self):
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1, ell=1.0)
        rep = classify_regime(p, K_HALF)
        assert rep.regime is Regime.POLY_ONE

    def test_unequal_speeds_different_k_poly_half(self):
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=2, ell=1.0)
        rep = classify_regime(p, K_HALF)
        assert rep.regime is Regime.POLY_HALF

    def test_equal_speeds_different_k_uncovered(self):
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=2, ell=1.0)
        rep = classify_regime(p, K_HALF)
        assert rep.regime is Regime.UNCOVERED

    def test_regimes_mutually_exclusive(self):
        # a config lands in exactly one row of the table
        seen = set()
        for k2, k3 in [(1, 1), (2, 1), (2, 2), (1, 2)]:
            p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=k2, k3=k3, ell=1.0)
            seen.add(classify_regime(p, K_HALF).regime)
        assert seen == {
            Regime.EXPONENTIAL,
            Regime.POLY_ONE,
            Regime.POLY_HALF,
            Regime.UNCOVERED,
        }

    def test_inadmissible_kernel_raises(self):
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1, ell=1.0)
        with pytest.raises(ValueError):
            classify_regime(p, KernelSpec(2.0, 1.0))  # mass 2 >= k2

    def test_near_degenerate_flag(self):
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1 + 1e-8, k3=1, ell=1.0)
        rep = classify_regime(p, K_HALF)
        assert rep.near_degenerate, "k2/rho2 within 1e-6 of k1/rho1 should be flagged"


class TestThermalRegimes:
    def test_chi0_zero_same_k_exponential(self):
        p = PhysicalParams(
            rho1=1, rho2=3, k1=1, k2=1, k3=1, ell=1.0,
            thermal=True, rho3=1, delta=1, tau=2, beta=1,
        )
        rep = classify_regime(p, KernelSpec(0.25, 1.0))
        assert rep.regime is Regime.EXPONENTIAL
        assert rep.chi0 == pytest.approx(0.0, abs=1e-15)

    def test_chi0_nonzero_same_k_poly_one(self):
        p = PhysicalParams(
            rho1=1, rho2=3.5, k1=1, k2=1, k3=1, ell=1.0,
            thermal=True, rho3=1, delta=1, tau=2, beta=1,
        )
        rep = classify_regime(p, KernelSpec(0.25, 1.0))
        assert rep.regime is Regime.POLY_ONE

    def test_chi0_nonzero_different_k_poly_half(self):
        p = PhysicalParams(
            rho1=1, rho2=3.5, k1=1, k2=1, k3=2, ell=1.0,
            thermal=True, rho3=1, delta=1, tau=2, beta=1,
        )
        rep = classify_regime(p, KernelSpec(0.25, 1.0))
        assert rep.regime is Regime.POLY_HALF

    def test_chi0_zero_different_k_uncovered(self):
        p = PhysicalParams(
            rho1=1, rho2=3, k1=1, k2=1, k3=2, ell=1.0,
            thermal=True, rho3=1, delta=1, tau=2, beta=1,
        )
        rep = classify_regime(p, KernelSpec(0.25, 1.0))
        assert rep.regime is Regime.UNCOVERED


class TestParamsValidation:
    def test_nonpositive_stiffness_rejected(self):
        with pytest.raises(ValueError):
            PhysicalParams(rho1=1, rho2=1, k1=0.0, k2=1, k3=1)

    def test_negative_curvature_rejected(self):
        with pytest.raises(ValueError):
            PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1, ell=-0.5)

    def test_timoshenko_property(self):
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1)
        assert p.timoshenko
        q = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1, ell=0.3)
        assert not q.timoshenko


class TestBoundaryConditions:
    def test_from_string_roundtrip(self):
        for name in ("ddd", "dddd", "dndd", "dnnd"):
            bc = BoundaryCondition.from_string(name)
            assert bc.value == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCondition.from_string("xyz")

    def test_elastic_variant_incompatible_with_thermal(self):
        p = PhysicalParams(
            rho1=1, rho2=1, k1=1, k2=1, k3=1,
            thermal=True, rho3=1, delta=1, tau=1, beta=1,
        )
        bc = BoundaryCondition.from_string("ddd")
        with pytest.raises(ValueError):
            bc.check_compatible(p)
