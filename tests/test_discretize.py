# =====================================================================
# Spatial/memory grids, generator assembly, discrete energy identities
# =====================================================================

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from bresselab.kernel import KernelSpec, evaluate, laplace, total_mass
from bresselab.model import BoundaryCondition, PhysicalParams
from bresselab.discretize import (
    SLICE_BLOCK,
    CondensedFront,
    Generator,
    ShiftedSolver,
    SliceSolver,
    assemble_generator,
    assemble_timoshenko_generator,
    build_memory_grid,
    build_spatial_grid,
    coordinates,
    dissipation_rates,
    energy,
    exact_memory_grid,
)
from bresselab.simulate import BandLU
from bresselab.spectra import compute_spectrum

K_HALF = KernelSpec(0.5, 1.0)
ALL_ONES = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1, ell=1.0)
THERMAL = PhysicalParams(
    rho1=1, rho2=3, k1=1, k2=1, k3=1, ell=1.0,
    thermal=True, rho3=1, delta=1, tau=2, beta=1,
)
STRAIGHT = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1, ell=0.0)


def small_generator(bc_name="ddd", params=None, nx=12, ns=16, kernel=K_HALF):
    params = params or ALL_ONES
    bc = BoundaryCondition.from_string(bc_name)
    return assemble_generator(
        params, kernel, bc, build_spatial_grid(params.length, nx),
        build_memory_grid(kernel, ns=ns),
    )


def variant_generator(bc_name, kernel, grid, mgrid):
    """ddd (ALL_ONES), a thermal variant (THERMAL) or the two-field straight beam."""
    if bc_name == "two-field":
        return assemble_timoshenko_generator(STRAIGHT, kernel, grid, mgrid)
    params = ALL_ONES if bc_name == "ddd" else THERMAL
    return assemble_generator(params, kernel, BoundaryCondition.from_string(bc_name), grid, mgrid)


class TestSpatialGrid:
    def test_uniform_spacing(self):
        g = build_spatial_grid(1.0, 9)
        assert g.h == pytest.approx(0.1, abs=1e-15)
        assert len(g.nodes_dirichlet) == 9
        assert len(g.nodes_neumann) == 11
        assert len(g.midpoints) == 10

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            build_spatial_grid(1.0, 3)


class TestMemoryGrid:
    def test_truncation_length_frozen(self):
        mg = build_memory_grid(K_HALF, ns=32)
        assert mg.s_max == pytest.approx(18.420680743952367, rel=1e-13)
        assert mg.ds == pytest.approx(mg.s_max / 32, rel=1e-13)

    def test_weights_reproduce_kernel_mass(self):
        # the product-trapezoid weights integrate g exactly up to the
        # truncated tail, so sum(w_j g(s_j)) ~ g0 with error ~ g0 * tol
        mg = build_memory_grid(K_HALF, ns=64)
        mass = float(np.sum(mg.weights * np.exp(-mg.s)) * K_HALF.a)
        assert abs(mass - total_mass(K_HALF)) < 1e-6, (
            f"quadrature mass {mass} vs exact {total_mass(K_HALF)}"
        )
        assert mg.mass_error < 1e-6

    def test_too_few_slices_rejected(self):
        with pytest.raises(ValueError):
            build_memory_grid(K_HALF, ns=4)

    def test_zero_kernel_plain_trapezoid(self):
        mg = build_memory_grid(KernelSpec(0.0, 1.0), ns=16)
        # interior weights ds, end weights ds/2
        assert mg.weights[0] == pytest.approx(0.5 * mg.ds, rel=1e-13)
        assert mg.weights[1] == pytest.approx(mg.ds, rel=1e-13)
        assert mg.weights[-1] == pytest.approx(0.5 * mg.ds, rel=1e-13)


def memory_transfer(mgrid, kernel, z):
    """sigma(z) = w^T L(z)^-1 1 of the ladder on mgrid, w_k = W_k g(s_k)."""
    w = mgrid.weights[1:] * evaluate(kernel, mgrid.s[1:])
    slices = SliceSolver(z + 1.0 / mgrid.ds, 1.0 / mgrid.ds, mgrid.ns)
    return w @ slices.solve(np.ones((mgrid.ns, 1)))[:, 0]


class TestExactMemory:
    # the continuum's transfer int g(s) (1 - exp(-z s)) / z ds = g0 / (z + c)
    # is the kernel's Laplace transform over c
    @pytest.mark.parametrize("kernel", [K_HALF, KernelSpec(0.7, 2.5), KernelSpec(3.0, 0.2)],
                             ids=["a0.5-c1", "a0.7-c2.5", "a3-c0.2"])
    def test_one_slice_grid_is_exact_memory(self, kernel):
        mg = exact_memory_grid(kernel)
        assert mg.ns == 1 and mg.ds == pytest.approx(1.0 / kernel.c, rel=1e-15)
        assert mg.weights[1] * evaluate(kernel, mg.s[1]) == pytest.approx(total_mass(kernel), rel=1e-15)
        assert mg.mass_error <= 1e-15 * total_mass(kernel)
        for z in (0.3 + 7j, -0.1 + 2j, 40.0, 1e-3j, 1e3j):
            exact = laplace(kernel, z) / kernel.c
            assert abs(memory_transfer(mg, kernel, z) / exact - 1.0) <= 1e-14, z

    @pytest.mark.parametrize("ns,gap", [(32, 0.240), (64, 0.131), (128, 0.069)])
    def test_ladder_high_frequency_gap_is_the_unheld_node_weight(self, ns, gap):
        # z sigma(z) tends to g0 - w0, with w0 = W_0 g(0) the weight of the
        # s = 0 node, whose slice the state does not carry
        mg = build_memory_grid(K_HALF, ns=ns)
        w0 = mg.weights[0] * K_HALF.a / total_mass(K_HALF)
        assert w0 == pytest.approx(gap, abs=5e-4)
        for lam in (20.0, 190.0):
            sigma = memory_transfer(mg, K_HALF, 1j * lam)
            assert abs(sigma / (laplace(K_HALF, 1j * lam) / K_HALF.c) - 1.0) == pytest.approx(w0, rel=2e-3), lam

    @pytest.mark.parametrize("nx", [6, 13])
    @pytest.mark.parametrize("bc", ["ddd", "dddd", "dndd", "dnnd"])
    def test_one_slice_generator_is_dissipative_and_mirror_symmetric(self, bc, nx):
        # thermal and gradient history included; compute_spectrum refuses
        # a generator that breaks the mirror
        params = ALL_ONES if bc == "ddd" else THERMAL
        gen = assemble_generator(params, K_HALF, BoundaryCondition.from_string(bc),
                                 build_spatial_grid(1.0, nx), exact_memory_grid(K_HALF))
        assert gen.ns_active == 1 and gen.sizes["eta"] == gen.n_eta
        ba = (gen.B @ gen.A).toarray()
        lam = np.linalg.eigvalsh(ba + ba.T)
        assert lam[-1] <= 1e-13 * np.abs(lam).max(), f"{bc}: lambda_max(BA + A^T B) = {lam[-1]:.3e}"
        assert compute_spectrum(gen).eigenvalues.size == gen.dim


class TestStiffnessStencil:
    def test_dirichlet_laplacian_eigenvalue(self):
        # pure second-difference block: eigenvector sin(pi x) has
        # eigenvalue (2 - 2 cos(pi h)) / h^2
        nx = 24
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1)  # straight beam
        gen = assemble_timoshenko_generator(
            p, KernelSpec(0.0, 1.0), build_spatial_grid(1.0, nx),
            build_memory_grid(KernelSpec(0.0, 1.0), ns=8),
        )
        h = gen.grid.h
        x = gen.grid.nodes_dirichlet
        v = np.sin(np.pi * x)
        # apply A twice: d/dt (phi, psi, ...) with psi=0 gives
        # dphi block = -(k1/rho1) G^T M G phi on the velocity rows
        u = np.zeros(gen.dim)
        u[gen.layout["phi"]] = v
        du = gen.A @ u
        dv = du[gen.layout["dphi"]]
        lam = (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
        assert np.allclose(-dv / v, lam, rtol=1e-12), (
            f"stencil eigenvalue mismatch: {(-dv/v)[:3]} vs {lam}"
        )


class TestEnergy:
    def test_kinetic_energy_of_unit_velocity(self):
        # E = 1/2 rho1 * integral(phi_t^2); trapezoid over interior
        # nodes of a Dirichlet field gives nx * h weights
        gen = small_generator(params=PhysicalParams(
            rho1=2.0, rho2=1, k1=1, k2=1, k3=1, ell=1.0))
        u = np.zeros(gen.dim)
        u[gen.layout["dphi"]] = 1.0
        nx, h = 12, gen.grid.h
        want = 0.5 * 2.0 * nx * h
        assert energy(gen, u) == pytest.approx(want, rel=1e-13)

    def test_shear_strain_energy_of_sine(self):
        # psi = sin(pi x), everything else zero (straight beam so no
        # ell-coupling): E = 1/2 [k1 |psi|^2_mid + k2t |psi_x|^2_mid]
        nx = 200
        p = PhysicalParams(rho1=1, rho2=1, k1=0.5, k2=1, k3=1)
        kern = KernelSpec(0.5, 1.0)   # k2 tilde = 0.5
        gen = assemble_generator(
            p, kern, BoundaryCondition.from_string("ddd"),
            build_spatial_grid(1.0, nx), build_memory_grid(kern, ns=16),
        )
        u = np.zeros(gen.dim)
        u[gen.layout["psi"]] = np.sin(np.pi * gen.grid.nodes_dirichlet)
        got = energy(gen, u)
        want = 0.5 * (0.5 * 0.5 + 0.5 * 0.5 * np.pi**2)
        assert got == pytest.approx(want, rel=1e-3), (
            f"strain energy {got} vs continuum {want}"
        )

    def test_energy_positive_definite(self):
        rng = np.random.default_rng(3)
        for bc in ("ddd", "dddd", "dndd", "dnnd"):
            params = ALL_ONES if bc == "ddd" else THERMAL
            gen = small_generator(bc, params)
            u = rng.standard_normal(gen.dim)
            assert energy(gen, u) > 0.0


class TestDissipativity:
    @pytest.mark.parametrize("bc", ["ddd", "dddd", "dndd", "dnnd"])
    def test_quadratic_form_nonpositive(self, bc):
        params = ALL_ONES if bc == "ddd" else THERMAL
        gen = small_generator(bc, params)
        rng = np.random.default_rng(17)
        for _ in range(5):
            u = rng.standard_normal(gen.dim)
            form = float(u @ (gen.B @ (gen.A @ u)))
            assert form <= 1e-12 * float(u @ (gen.B @ u)), (
                f"<Au,u>_B = {form} > 0 for bc={bc}"
            )

    @pytest.mark.parametrize("bc", ["ddd", "dddd", "dndd", "dnnd"])
    def test_rate_split_matches_quadratic_form(self, bc):
        # d/dt E = <Au,u>_B must equal the reported memory + heat rates
        params = ALL_ONES if bc == "ddd" else THERMAL
        gen = small_generator(bc, params)
        rng = np.random.default_rng(23)
        u = rng.standard_normal(gen.dim)
        form = float(u @ (gen.B @ (gen.A @ u)))
        mem, heat = dissipation_rates(gen, u)
        assert mem <= 0.0 and heat <= 0.0
        assert form == pytest.approx(mem + heat, rel=1e-10, abs=1e-12), (
            f"bc={bc}: <Au,u>_B = {form}, rates sum to {mem + heat}"
        )
        # a block of states gives one rate per row
        block = rng.standard_normal((5, gen.dim))
        forms = np.einsum("ij,ij->i", block, (gen.B @ (gen.A @ block.T)).T)
        mems, heats = dissipation_rates(gen, block)
        assert mems.shape == heats.shape == (5,)
        assert np.all(mems <= 0.0) and np.all(heats <= 0.0)
        np.testing.assert_allclose(mems + heats, forms, rtol=1e-10, atol=1e-12)

    def test_elastic_has_no_heat_rate(self):
        gen = small_generator("ddd", ALL_ONES)
        u = np.random.default_rng(5).standard_normal(gen.dim)
        _, heat = dissipation_rates(gen, u)
        assert heat == 0.0


class TestLayoutAndExport:
    def test_state_layout_covers_dim(self):
        for bc in ("ddd", "dddd", "dndd", "dnnd"):
            params = ALL_ONES if bc == "ddd" else THERMAL
            gen = small_generator(bc, params)
            covered = sum(s.stop - s.start for s in gen.layout.values())
            assert covered == gen.dim

    def test_coordinates_match_layout(self):
        gen = small_generator()
        coords = coordinates(gen)
        for name, slc in gen.layout.items():
            if name in coords:
                assert len(coords[name]) == slc.stop - slc.start

    def test_timoshenko_assembly_drops_w(self):
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1)
        gen = assemble_timoshenko_generator(
            p, K_HALF, build_spatial_grid(1.0, 10), build_memory_grid(K_HALF, ns=8),
        )
        assert "w" not in gen.layout and "dw" not in gen.layout


class TestLadderCoupling:
    # the assembly decides once how the ladder meets the shear velocity:
    # A[dpsi, eta] = kron(w^T, F) and A[eta, dpsi] = kron(1, J)
    @pytest.mark.parametrize("memory", ["ns12", "exact"])
    @pytest.mark.parametrize("bc", ["ddd", "dddd", "dndd", "dnnd", "two-field"])
    def test_ladder_blocks_are_the_slice_force_and_injection(self, bc, memory):
        mgrid = build_memory_grid(K_HALF, 12) if memory == "ns12" else exact_memory_grid(K_HALF)
        gen = variant_generator(bc, K_HALF, build_spatial_grid(1.0, 7), mgrid)
        dpsi, eta = gen.layout["dpsi"], gen.layout["eta"]
        assert gen.slice_force.shape == (dpsi.stop - dpsi.start, gen.n_eta)
        force = sp.kron(gen.slice_weights[np.newaxis, :], gen.slice_force)
        inject = sp.kron(np.ones((gen.ns_active, 1)), gen.slice_inject)
        assert (gen.A[dpsi][:, eta] != force).nnz == 0
        assert (gen.A[eta][:, dpsi] != inject).nnz == 0

    def test_no_memory_has_no_ladder(self):
        gen = small_generator(kernel=KernelSpec(0.0, 1.0))
        assert "eta" not in gen.layout
        assert gen.slice_force is None and gen.slice_inject is None


SHIFTS = {"0.3+7i": 0.3 + 7j, "-0.2+2i": -0.2 + 2j, "2/dt": 2.0 / 0.05}


class TestCondensedFront:
    # solves with z I - A, and with its adjoint under the "-adjoint" ids
    @pytest.mark.parametrize("z,adjoint", [
        pytest.param(z, adjoint, id=name + ("-adjoint" if adjoint else ""))
        for adjoint in (False, True) for name, z in SHIFTS.items()
    ])
    @pytest.mark.parametrize("nx,ns,a", [
        pytest.param(6, 12, 0.5, id="6"),
        pytest.param(40, 12, 0.5, id="40"),
        # four chained slice blocks
        pytest.param(6, 4 * SLICE_BLOCK, 0.5, id="6-ns256"),
        # no memory: the empty ladder, T(z) is z I - A
        pytest.param(6, 12, 0.0, id="6-a0"),
    ])
    @pytest.mark.parametrize("bc", ["ddd", "dddd", "dndd", "dnnd", "two-field"])
    def test_solve_matches_dense_solve(self, bc, nx, ns, a, z, adjoint):
        kernel = KernelSpec(a, 1.0)
        gen = variant_generator(bc, kernel, build_spatial_grid(1.0, nx), build_memory_grid(kernel, ns=ns))
        rng = np.random.default_rng(3)
        r = rng.standard_normal(gen.dim)
        if np.iscomplex(z):  # a real shift, the time step's, takes a real right-hand side
            r = r + 1j * rng.standard_normal(gen.dim)
        c = z * np.eye(gen.dim) - gen.A.toarray()
        want = np.linalg.solve(c.conj().T if adjoint else c, r)
        # the time step's real shift is also solved through the stepper's band factor
        for factor in (splu,) if np.iscomplex(z) else (splu, BandLU):
            got = ShiftedSolver(CondensedFront(gen), z, factor).solve(r, adjoint=adjoint)
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-12, (
                f"{bc} nx={nx} ns={ns} a={a} z={z} adjoint={adjoint} {factor.__name__}: off by {err:.3e}"
            )

    @pytest.mark.parametrize("a", [0.5, 0.0])
    @pytest.mark.parametrize("nx", [6, 13, 80])
    @pytest.mark.parametrize("bc", ["ddd", "dddd", "dndd", "dnnd", "two-field"])
    def test_node_ordered_step_operator_is_banded(self, bc, nx, a):
        # every coupling of the front reaches one node over at most, so in
        # node order no entry of T(2/dt) lies more than 13 off the diagonal
        kernel = KernelSpec(a, 1.0)
        gen = variant_generator(bc, kernel, build_spatial_grid(1.0, nx), build_memory_grid(kernel, ns=12))
        front = CondensedFront(gen)
        ladder_free = np.delete(np.arange(gen.dim), gen.layout.get("eta", slice(0, 0)))
        assert np.array_equal(np.sort(front.index), ladder_free)
        t = front.at(2.0 / 0.05)[0].tocoo()
        assert np.max(np.abs(t.row - t.col)) <= 13

    @pytest.mark.parametrize("bc", ["ddd", "dndd"])
    def test_transfer_and_derivative_match_the_dense_ladder(self, bc):
        # sigma(z) = w^T L(z)^-1 1 from a dense L(z) over three slice blocks,
        # and T'(z) against a central difference of T
        gen = small_generator(bc, params=ALL_ONES if bc == "ddd" else THERMAL, nx=6, ns=2 * SLICE_BLOCK + 5)
        front = CondensedFront(gen)
        w, ds = gen.slice_weights, gen.mgrid.ds
        z = -0.2 + 2j
        lz = (z + 1.0 / ds) * np.eye(w.size) - np.eye(w.size, k=-1) / ds
        sigma = w @ np.linalg.solve(lz, np.ones(w.size))
        t, t_prime = (m.toarray() for m in front.at(z))
        want = z * np.eye(front.index.size) - front.a_ff.toarray() - sigma * front.fj.toarray()
        assert np.abs(t - want).max() <= 1e-13 * np.abs(want).max()
        step = 1e-5
        slope = (front.at(z + step)[0] - front.at(z - step)[0]).toarray() / (2.0 * step)
        assert np.abs(t_prime - slope).max() <= 1e-7 * np.abs(t_prime).max()
