# =====================================================================
# Closed-form boundary determinant, radicals, branch tracking
# =====================================================================

import numpy as np
import pytest

from bresselab.kernel import KernelSpec, laplace
from bresselab.model import PhysicalParams
from bresselab.characteristic import (
    BranchRoot,
    boundary_determinant,
    branch_asymptote,
    branch_convergence,
    branch_seeds,
    char_point,
    refine_char_root,
    track_branch,
)

STRAIGHT = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1)
K_HALF = KernelSpec(0.5, 1.0)


def random_lams(count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.95, -0.01, count) + 1j * rng.uniform(1.0, 100.0, count)


class TestRadicals:
    def test_sum_and_product_identities(self):
        # r1^2 + r3^2 = (P + Q) lam^2 and
        # r1^2 r3^2 = P Q lam^4 + rho1 lam^2 / k2bar, straight from the
        # quartic the radicals solve
        p = STRAIGHT
        for lam in random_lams(25, 42):
            pt = char_point(p, K_HALF, lam)
            P = p.rho1 / p.k1
            Q = p.rho2 / pt.k2bar
            s = pt.r1 ** 2 + pt.r3 ** 2
            want_s = (P + Q) * lam ** 2
            assert abs(s - want_s) <= 1e-10 * abs(want_s), f"sum identity at {lam}"
            prod = (pt.r1 * pt.r3) ** 2
            want_p = P * Q * lam ** 4 + p.rho1 * lam ** 2 / pt.k2bar
            assert abs(prod - want_p) <= 1e-10 * abs(want_p), f"product identity at {lam}"

    def test_boundary_traces_closed_form(self):
        p = STRAIGHT
        lam = complex(-0.3, 17.0)
        pt = char_point(p, K_HALF, lam)
        Q = p.rho2 / pt.k2bar
        assert pt.f1 == pytest.approx(pt.r1 ** 3 - Q * pt.r1 * lam ** 2, rel=1e-13)
        assert pt.f3 == pytest.approx(pt.r3 ** 3 - Q * pt.r3 * lam ** 2, rel=1e-13)

    def test_k2bar_uses_kernel_transform(self):
        lam = complex(-0.2, 3.0)
        pt = char_point(STRAIGHT, K_HALF, lam)
        assert pt.k2bar == pytest.approx(2.0 - laplace(K_HALF, lam), rel=1e-14)

    def test_merged_roots_flagged(self):
        # with the kernel off, the discriminant vanishes exactly at
        # lam = 2 sqrt(rho1/k2) / |P - Q|
        pt = char_point(STRAIGHT, KernelSpec(0.0, 1.0), complex(2.8284271247461903, 0.0))
        assert pt.disc_near_zero
        pt2 = char_point(STRAIGHT, K_HALF, complex(-0.3, 17.0))
        assert not pt2.disc_near_zero


class TestDeterminantIdentity:
    @pytest.mark.parametrize("params", [
        STRAIGHT,
        PhysicalParams(rho1=1.5, rho2=2.0, k1=0.8, k2=3.0, k3=1.0),
    ])
    def test_det_equals_minus_4_rho1_F(self, params):
        for lam in random_lams(30, 7):
            pt = char_point(params, K_HALF, lam)
            det = boundary_determinant(params, K_HALF, lam)
            lhs = abs(det + 4.0 * params.rho1 * pt.F)
            assert lhs <= 1e-8 * (1.0 + abs(det)), (
                f"identity off by {lhs:.3e} at lambda = {lam}"
            )

    def test_scaled_evaluation_survives_deep_real_parts(self):
        # |F| ~ e^{|Re r|}: at lam = 400 the plain value overflows but
        # the scaled pieces stay O(1)
        pt = char_point(STRAIGHT, K_HALF, complex(400.0, 1.0))
        assert np.isfinite(pt.F_scaled)
        assert pt.log_scale > 300.0
        assert not np.isfinite(pt.F)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            char_point(PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1, ell=1.0),
                       K_HALF, 1j)
        with pytest.raises(ValueError):
            char_point(STRAIGHT, K_HALF, 0.0)
        with pytest.raises(ValueError):
            char_point(STRAIGHT, K_HALF, complex(-1.5, 3.0))


class TestSeedsAndAsymptotes:
    def test_frozen_seed_values(self):
        (n0, s0), = branch_seeds(STRAIGHT, K_HALF, [10], branch=0)
        assert n0 == 10
        assert s0 == pytest.approx(complex(-0.125, 44.42882938158366), rel=1e-14)
        (_, s1), = branch_seeds(STRAIGHT, K_HALF, [10], branch=1)
        assert s1 == pytest.approx(complex(0.0, 31.41592653589793), rel=1e-14)

    def test_asymptote_values(self):
        assert branch_asymptote(STRAIGHT, K_HALF, 0) == pytest.approx(-0.125)
        assert branch_asymptote(STRAIGHT, K_HALF, 1) == 0.0
        with pytest.raises(ValueError):
            branch_asymptote(STRAIGHT, K_HALF, 2)

    def test_equal_speeds_rejected(self):
        eq = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1)
        with pytest.raises(ValueError, match="equal"):
            branch_seeds(eq, K_HALF, [5], branch=0)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            branch_seeds(STRAIGHT, K_HALF, [0], branch=0)


class TestNewton:
    def test_char_root_near_seed(self):
        seed = branch_seeds(STRAIGHT, K_HALF, [12], branch=0)[0][1]
        res = refine_char_root(STRAIGHT, K_HALF, seed)
        assert res.converged
        assert res.residual <= 1e-9
        assert abs(res.root - seed) < 0.5
        # the refined root kills the boundary determinant
        det_seed = abs(boundary_determinant(STRAIGHT, K_HALF, seed))
        det_root = abs(boundary_determinant(STRAIGHT, K_HALF, res.root))
        assert det_root < 1e-6 * det_seed


class TestBranchTracking:
    def test_shear_branch_approaches_shifted_asymptote(self):
        roots = track_branch(STRAIGHT, K_HALF, range(10, 31, 5), branch=0)
        assert all(r.converged for r in roots)
        for r in roots:
            assert abs(r.root.real + 0.125) <= 0.05, (
                f"n={r.n}: Re = {r.root.real} strays from -0.125"
            )
        trend = branch_convergence(roots, STRAIGHT, K_HALF)
        assert trend.monotone_ok

    def test_wave_branch_returns_to_axis(self):
        roots = track_branch(STRAIGHT, K_HALF, range(10, 31, 5), branch=1)
        assert all(r.converged for r in roots)
        assert abs(roots[-1].root.real) <= 0.02

    def test_envelope_tolerates_resonance_spikes(self):
        # deviations with one avoided-crossing spike still summarize as
        # decreasing; a genuinely growing tail does not
        def fake(devs):
            return [BranchRoot(branch=1, n=i + 1, seed=0j, root=complex(-d, 10.0),
                               residual=0.0, iterations=1, converged=True,
                               basin_escape=False)
                    for i, d in enumerate(devs)]

        spiky = [9e-3, 1e-3, 4e-4, 2e-4, 1.7e-2, 3e-4, 1e-4, 9e-5, 4e-3, 8e-5, 6e-5, 5e-5]
        good = branch_convergence(fake(spiky), STRAIGHT, K_HALF)
        assert good.monotone_ok
        assert good.envelope == [2e-4, 9e-5, 5e-5]

        growing = [1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3, 3.2e-3]
        bad = branch_convergence(fake(growing), STRAIGHT, K_HALF)
        assert not bad.monotone_ok

    def test_flat_sequence_rejected(self):
        flat = [1e-4] * 8
        roots = [BranchRoot(branch=0, n=i + 1, seed=0j,
                            root=complex(-0.125 - d, 5.0), residual=0.0,
                            iterations=1, converged=True, basin_escape=False)
                 for i, d in enumerate(flat)]
        trend = branch_convergence(roots, STRAIGHT, K_HALF)
        assert not trend.monotone_ok

    def test_mixed_branches_rejected(self):
        r0 = track_branch(STRAIGHT, K_HALF, [10], branch=0)
        r1 = track_branch(STRAIGHT, K_HALF, [10], branch=1)
        with pytest.raises(ValueError):
            branch_convergence(r0 + r1, STRAIGHT, K_HALF)
