# =====================================================================
# Spectra, resolvent norms, frequency windows, growth-exponent fits
# =====================================================================

import dataclasses
import itertools
import mmap
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from scipy.linalg import blas

import bresselab
from bresselab import spectra
from bresselab.kernel import KernelSpec
from bresselab.model import BoundaryCondition, PhysicalParams
from bresselab.discretize import (
    assemble_generator,
    assemble_timoshenko_generator,
    build_memory_grid,
    build_spatial_grid,
    exact_memory_grid,
    reflection,
)
from bresselab.spectra import (
    ABSCISSA_TRUST_FRACTION,
    ResolventScan,
    abscissa_window,
    compute_spectrum,
    envelope_anchors,
    fit_growth_exponent,
    match_branches,
    resolution_cap,
    resolvent_scan,
    windowed_abscissa,
)

ALL_ONES = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1, ell=1.0)


def make_gen(params=None, a=0.5, nx=10, ns=12, bc="ddd"):
    params = params or ALL_ONES
    kern = KernelSpec(a, 1.0)
    return assemble_generator(
        params, kern, BoundaryCondition.from_string(bc),
        build_spatial_grid(params.length, nx), build_memory_grid(kern, ns=ns),
    )


class TestComputeSpectrum:
    def test_agrees_with_plain_eigensolver(self):
        # the Cholesky similarity transform must not move eigenvalues
        gen = make_gen(nx=8, ns=8)
        rep = compute_spectrum(gen)
        plain = la.eigvals(gen.A.toarray())
        scale = np.abs(plain).max()
        for v in plain:
            d = np.min(np.abs(rep.eigenvalues - v))
            assert d <= 1e-8 * scale, f"eigenvalue {v} missing (gap {d:.2e})"

    def test_left_half_plane_and_conjugate_symmetry(self):
        gen = make_gen()
        rep = compute_spectrum(gen)
        assert rep.symmetrized
        assert rep.max_real_part <= 1e-8
        vals = rep.eigenvalues
        for v in vals[np.abs(vals.imag) > 1e-9]:
            d = np.min(np.abs(vals - v.conjugate()))
            assert d <= 1e-8 * max(1.0, abs(v)), f"conjugate of {v} missing"

    def test_conservative_spectrum_is_imaginary(self):
        gen = make_gen(a=0.0)
        rep = compute_spectrum(gen)
        assert np.max(np.abs(rep.eigenvalues.real)) < 1e-10

    def test_halves_run_on_one_blas_thread_and_restore_the_count(self, monkeypatch):
        # scipy's bundled OpenBLAS, which runs every LAPACK call of a half,
        # sets its thread count for the whole process, so the solve pins it
        # to 1 around its worker pool and must give the caller's count back
        count = spectra._SCIPY_BLAS.scipy_openblas_get_num_threads
        seen = []
        eigvals = spectra._eigvals_inplace

        def counted(a):
            seen.append(count())
            return eigvals(a)

        monkeypatch.setattr(spectra, "_eigvals_inplace", counted)
        before = count()
        compute_spectrum(make_gen())
        assert count() == before
        assert seen == [1, 1]

    def test_failed_dgeev_raises_and_restores_the_count(self, monkeypatch):
        # a nonzero info from LAPACK must surface as an error, never as
        # the wr + i wi left in the output arrays
        count = spectra._SCIPY_BLAS.scipy_openblas_get_num_threads
        calls = []

        def failing(jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork, info, *lengths):
            calls.append(int(lwork[0]))
            if lwork[0] == -1:
                work[0] = 4 * n[0]
            else:
                wr[:], wi[:], info[0] = 0.0, 0.0, 3

        monkeypatch.setattr(spectra, "_DGEEV", failing)
        before = count()
        with pytest.raises(la.LinAlgError, match="info = 3"):
            compute_spectrum(make_gen())
        assert count() == before
        # each half queried the workspace, then solved with what it was told
        assert sorted(c > 0 for c in calls) == [False, False, True, True]

    def test_failed_workspace_query_raises(self, monkeypatch):
        def failing(*args):
            args[13][0] = -4

        monkeypatch.setattr(spectra, "_DGEEV", failing)
        with pytest.raises(la.LinAlgError, match="info = -4"):
            spectra._eigvals_inplace(np.asfortranarray(np.eye(3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_raises(self, bad):
        a = np.asfortranarray(np.diag([1.0, 2.0, 3.0]))
        a[2, 0] = bad
        with pytest.raises(la.LinAlgError, match="non-finite"):
            spectra._eigvals_inplace(a)
        # the same through a half, whose transformed block inherits it
        gen = make_gen()
        perm, sign = reflection(gen)
        a_bad = gen.A.tolil()
        a_bad[0, 0] = bad
        broken = dataclasses.replace(gen, A=a_bad.tocsr())
        q = spectra._parity_basis(perm, sign, 1.0)
        with pytest.raises(la.LinAlgError, match="non-finite"):
            spectra._half_spectrum(broken, q)

    def test_dgeev_matches_numpy_and_takes_only_fortran_arrays(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 40))
        want = np.sort_complex(np.linalg.eigvals(a))
        got = np.sort_complex(spectra._eigvals_inplace(np.asfortranarray(a)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()
        with pytest.raises(ValueError, match="Fortran"):
            spectra._eigvals_inplace(np.ascontiguousarray(a))

    def test_one_half_holds_about_one_dense_block(self, monkeypatch):
        # a half's only n x n array is the transformed block that dgeev
        # overwrites: no dense Gram, no dense R and no copy for the solver.
        # tracemalloc does not see the block's own mapping, so the mapped
        # bytes are counted beside the traced peak
        mapped = []
        dense_block = spectra._dense_block

        def recorded(n, order):
            block = dense_block(n, order)
            mapped.append(len(block.base))
            return block

        monkeypatch.setattr(spectra, "_dense_block", recorded)
        gen = make_gen(nx=40, ns=32)
        perm, sign = reflection(gen)
        q = spectra._parity_basis(perm, sign, 1.0)
        n = q.shape[1]
        tracemalloc.start()
        try:
            _, (dim, symmetrized) = spectra._half_spectrum(gen, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (dim, symmetrized) == (n, True)
        assert mapped == [8 * n * n]
        total = peak + sum(mapped)
        assert total <= 1.3 * 8 * n * n, f"one half peaked at {total / (8 * n * n):.2f} x 8 n^2"

    @pytest.mark.parametrize("bc", ["ddd", "dnnd"])
    def test_each_half_maps_and_releases_its_own_block(self, bc, monkeypatch):
        # every half takes one fresh anonymous mapping, hands that very
        # memory to dgeev (f2py and ctypes make no hidden copy) and lets it
        # go when it returns; dnnd's odd half takes the untransformed path
        maps, blocks, shared = [], {}, []
        dense_block, eigvals = spectra._dense_block, spectra._eigvals_inplace

        def recorded_block(n, order):
            block = dense_block(n, order)
            assert isinstance(block.base, mmap.mmap)
            maps.append(weakref.ref(block.base))
            blocks[threading.get_ident()] = weakref.ref(block)
            return block

        def recorded_eigvals(a):
            shared.append(np.shares_memory(a, blocks[threading.get_ident()]()))
            return eigvals(a)

        monkeypatch.setattr(spectra, "_dense_block", recorded_block)
        monkeypatch.setattr(spectra, "_eigvals_inplace", recorded_eigvals)
        rep = compute_spectrum(mirror_case(bc, 1.0, 0.5, 13))
        assert [s for _, s in rep.halves] == [True, bc != "dnnd"]
        assert len(maps) == 2 and shared == [True, True]
        assert all(ref() is None for ref in maps), "a half's mapping outlived the spectrum"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmRSS from /proc")
    def test_repeated_spectra_keep_the_resident_size_flat(self):
        # a freed malloc block of a half's size raises glibc's mmap
        # threshold, so from the second spectrum on the blocks would come
        # from an arena and stay resident (about 8.6 MiB at this size);
        # mapped blocks go back to the system after every call
        probe = textwrap.dedent("""
            from bresselab.discretize import assemble_generator, build_memory_grid, build_spatial_grid
            from bresselab.kernel import KernelSpec
            from bresselab.model import BoundaryCondition, PhysicalParams
            from bresselab.spectra import compute_spectrum

            params = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1, ell=1.0)
            kern = KernelSpec(0.5, 1.0)
            gen = assemble_generator(params, kern, BoundaryCondition.DDD_ELASTIC,
                                     build_spatial_grid(1.0, 40), build_memory_grid(kern, ns=32))
            for _ in range(4):
                compute_spectrum(gen)
                with open("/proc/self/status") as status:
                    print(next(line.split()[1] for line in status if line.startswith("VmRSS:")))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(bresselab.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=env)
        rss = [int(kib) / 1024 for kib in out.stdout.split()]
        assert len(rss) == 4
        assert max(abs(r - rss[0]) for r in rss[1:]) <= 2.0, f"VmRSS after each call (MiB): {rss}"

    def test_dimension_cap_enforced(self):
        gen = make_gen(nx=400, ns=48)
        assert gen.dim > 8000
        with pytest.raises(ValueError, match="refine_modes"):
            compute_spectrum(gen)


def mirror_case(bc, ell, a, nx):
    """Generator for one (bc, ell, a, nx); bc "two-field" is the straight two-field assembly."""
    thermal = bc not in ("ddd", "two-field")
    params = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1, ell=ell, thermal=thermal,
                            rho3=1, delta=1, tau=2, beta=1)
    kern = KernelSpec(a, 1.0)
    grid, mgrid = build_spatial_grid(1.0, nx), build_memory_grid(kern, ns=8)
    if bc == "two-field":
        return assemble_timoshenko_generator(params, kern, grid, mgrid)
    return assemble_generator(params, kern, BoundaryCondition.from_string(bc), grid, mgrid)


MIRROR_CASES = [
    *itertools.product(["ddd", "dddd", "dndd", "dnnd"], [0.0, 1.0], [0.0, 0.5], [6, 13]),
    *itertools.product(["two-field"], [0.0], [0.0, 0.5], [6, 13]),
]


def dense_transform_eigvals(gen, q, symmetrized):
    """Eigenvalues of one half by the dense Cholesky similarity R A R^-1.

    The solver this package used before the banded transform: a dense
    Gram matrix and a dense R, then numpy's eigvals on a copy.
    """
    a = (q.T @ gen.A @ q).toarray(order="F")
    if symmetrized:
        r = la.cholesky((q.T @ gen.B @ q).toarray(), lower=False)
        blas.dtrmm(1.0, r, a, overwrite_b=1)
        blas.dtrsm(1.0, r, a, side=1, overwrite_b=1)
    return np.linalg.eigvals(a)


def assert_same_spectrum(got, want, rtol, label):
    # dnnd's zero-energy mean mode is a 2x2 Jordan block at 0, which any
    # solver spreads by about sqrt(eps * ||A||) ~ 1e-8 of scale: compare
    # that cluster by count, every other eigenvalue by value
    scale = np.abs(want).max()
    zero = 1e-6 * scale
    assert np.sum(np.abs(got) <= zero) == np.sum(np.abs(want) <= zero), label
    for v in want[np.abs(want) > zero]:
        d = np.min(np.abs(got - v))
        assert d <= rtol * scale, f"{label}: eigenvalue {v} missing (gap {d:.2e})"


@pytest.mark.parametrize("bc,ell,a,nx", MIRROR_CASES)
class TestMirrorSplit:
    def test_assembly_commutes_exactly_with_reflection(self, bc, ell, a, nx):
        gen = mirror_case(bc, ell, a, nx)
        perm, sign = reflection(gen)
        assert np.array_equal(perm[perm], np.arange(gen.dim)), "the mirror must be an involution"
        assert np.array_equal(sign[perm], sign)
        p = sp.csr_matrix((sign, (np.arange(gen.dim), perm)), shape=(gen.dim, gen.dim))
        for m in (gen.A, gen.B):
            assert (p @ m != m @ p).nnz == 0, "commutation must hold bit for bit"

    def test_split_matches_whole_solve(self, bc, ell, a, nx):
        gen = mirror_case(bc, ell, a, nx)
        rep = compute_spectrum(gen)
        split = rep.eigenvalues
        whole = la.eigvals(gen.A.toarray())
        assert split.size == whole.size == gen.dim
        assert sum(d for d, _ in rep.halves) == gen.dim
        # only dnnd's odd half has a zero-energy mode, and a fixed pivot
        # tolerance, not round-off, keeps it out of the transform
        assert [s for _, s in rep.halves] == [True, bc != "dnnd"]
        assert_same_spectrum(split, whole, 1e-8, bc)

    def test_halves_match_the_dense_transform(self, bc, ell, a, nx):
        gen = mirror_case(bc, ell, a, nx)
        perm, sign = reflection(gen)
        for parity in (1.0, -1.0):
            q = spectra._parity_basis(perm, sign, parity)
            got, (_, symmetrized) = spectra._half_spectrum(gen, q)
            want = dense_transform_eigvals(gen, q, symmetrized)
            assert got.size == want.size == q.shape[1]
            assert_same_spectrum(got, want, 1e-10, f"{bc} parity {parity:+.0f}")

    def test_half_gram_stays_banded(self, bc, ell, a, nx):
        for n in (nx, 40, 41):
            gen = mirror_case(bc, ell, a, n)
            perm, sign = reflection(gen)
            # the front is in node order and each history slice couples only
            # itself, so the band does not grow with nx: 10 is the widest
            # measured over these cases
            for parity in (1.0, -1.0):
                q = spectra._parity_basis(perm, sign, parity)
                b = (q.T @ gen.B @ q).tocoo()
                kd = int(np.max(np.abs(b.col - b.row)))
                assert kd <= 10, f"{bc} nx={n}: half Gram band {kd} of {q.shape[1]}"

    def test_mirror_breaking_generator_raises(self, bc, ell, a, nx, monkeypatch):
        gen = mirror_case(bc, ell, a, nx)
        # entry (0, 1) couples the two left-most unknowns of the node-ordered
        # front, and its mirror image, at the right end, is left as it was
        bump = sp.csr_matrix(([1e-3], ([0], [1])), shape=gen.A.shape)
        broken = dataclasses.replace(gen, A=(gen.A + bump).tocsr())

        def solved(*args, **kwargs):
            raise AssertionError("a generator that breaks the mirror was solved")

        monkeypatch.setattr(spectra, "_half_spectrum", solved)
        with pytest.raises(ValueError, match="mirror"):
            compute_spectrum(broken)


THERMAL = PhysicalParams(rho1=1, rho2=3, k1=1, k2=1, k3=1, ell=1.0,
                         thermal=True, rho3=1, delta=1, tau=2, beta=1)


class TestRefineModes:
    @pytest.mark.parametrize("params,bc", [
        pytest.param(ALL_ONES, "ddd", id="ddd"),
        pytest.param(THERMAL, "dddd", id="dddd"),
        # Neumann shear ends: gradient history
        pytest.param(THERMAL, "dndd", id="dndd"),
    ])
    def test_perturbed_dense_modes_come_back(self, params, bc):
        gen = make_gen(params=params, nx=12, ns=12, bc=bc)
        dense = compute_spectrum(gen).eigenvalues
        # oscillatory modes right of the history-transport cluster
        targets = dense[(np.abs(dense.imag) >= 1.0) & (np.abs(dense.imag) <= 25.0)
                        & (dense.real >= -2.0)]
        assert len(targets) > 10
        # 1e-3 relative, but at most a quarter of the way to the nearest
        # other mode: the near-degenerate pairs of two families sit as
        # close as 9.5e-4, and a seed nearer the other mode of its pair
        # rightly converges there
        nearest = np.array([np.sort(np.abs(dense - v))[1] for v in targets])
        seeds = targets + np.minimum(1e-3 * np.abs(targets), 0.25 * nearest) * np.exp(0.7j)
        refined = spectra.refine_modes(gen, seeds)
        # Newton from within 1e-3: quadratic convergence in a few steps
        assert refined.converged.all() and refined.iterations.max() <= 6
        assert np.all(refined.duplicate_of == -1)
        assert np.all(refined.residuals <= 1e-10 * max(1.0, float(np.abs(gen.A).max())))
        gap = np.abs(refined.modes - targets)
        assert np.all(gap <= 1e-6 * np.maximum(1.0, np.abs(targets))), (
            f"{bc}: worst gap {gap.max():.2e} at {targets[np.argmax(gap)]}"
        )

    def test_repeated_seed_is_flagged_not_dropped(self):
        gen = make_gen(nx=12, ns=12)
        dense = compute_spectrum(gen).eigenvalues
        target = dense[(dense.imag >= 1.0) & (dense.real >= -2.0)][0]
        seed = target * (1.0 + 1e-3)
        refined = spectra.refine_modes(gen, [seed, 2.0 * seed, seed])
        assert refined.modes.size == 3 and refined.converged[[0, 2]].all()
        assert refined.duplicate_of[0] == -1 and refined.duplicate_of[2] == 0
        assert refined.modes[2] == refined.modes[0]
        assert np.sum(np.abs(refined.distinct - refined.modes[0]) <= 1e-8 * abs(target)) == 1

    def test_iteration_cap_flags_unconverged_seed(self, monkeypatch):
        gen = make_gen(nx=12, ns=12)
        dense = compute_spectrum(gen).eigenvalues
        target = dense[(dense.imag >= 1.0) & (dense.real >= -2.0)][0]
        monkeypatch.setattr(spectra, "REFINE_MAX_ITER", 1)
        refined = spectra.refine_modes(gen, [target * (1.0 + 1e-3)])
        assert refined.modes.size == 1 and np.isfinite(refined.modes[0])
        assert not refined.converged[0] and refined.iterations[0] == 1
        assert refined.duplicate_of[0] == -1 and refined.distinct.size == 0

    def test_ladder_modes_approach_the_exact_memory_mode(self):
        # one mode of the equal-speed elastic beam (ddd, nx = 40) refined on
        # ladders of growing ns, each seeded at the exact-memory mode: the
        # gap is first order in ds, so it falls about 4x per 4x in ns.  Re
        # alone is not monotone in ns (-1.30e-4 at ns = 32, -1.08e-4 at 128),
        # so the test bounds |gap| and its rate
        exact = make_gen(nx=40).on_memory_grid(exact_memory_grid(KernelSpec(0.5, 1.0)))
        found = spectra.refine_modes(exact, [-2.548072e-4 + 36.387576j])
        assert found.converged.all()
        target = found.modes[0]
        assert abs(target - (-2.548072e-4 + 36.387576j)) <= 1e-6
        gaps = []
        for ns in (32, 128, 512, 2048, 8192):
            refined = spectra.refine_modes(exact.on_memory_grid(build_memory_grid(exact.kernel, ns)), [target])
            assert refined.converged.all(), ns
            gaps.append(abs(refined.modes[0] - target))
        gaps = np.array(gaps)
        assert gaps[0] <= 1.5e-3 and gaps[-1] <= 5e-6, gaps
        rates = gaps[:-1] / gaps[1:]
        assert np.all((rates >= 3.5) & (rates <= 5.5)), rates


class TestFrequencyWindows:
    def test_resolution_cap_slowest_family(self):
        gen = make_gen(nx=10)
        want = 0.5 * np.pi / gen.grid.h
        assert resolution_cap(gen) == pytest.approx(want, rel=1e-12)
        slow = make_gen(PhysicalParams(rho1=4, rho2=1, k1=1, k2=1, k3=1, ell=1.0))
        assert resolution_cap(slow) == pytest.approx(0.5 * want, rel=1e-12)

    def test_abscissa_window_tracks_undamped_families(self):
        gen = make_gen(nx=10)
        want = ABSCISSA_TRUST_FRACTION * np.pi / gen.grid.h
        assert abscissa_window(gen) == pytest.approx(want, rel=1e-12)
        # making the directly damped shear family slow must NOT shrink
        # the window; making the vertical family slow must
        shear_slow = make_gen(PhysicalParams(rho1=1, rho2=9, k1=1, k2=1, k3=1, ell=1.0))
        assert abscissa_window(shear_slow) == pytest.approx(want, rel=1e-12)
        vert_slow = make_gen(PhysicalParams(rho1=4, rho2=1, k1=1, k2=1, k3=1, ell=1.0))
        assert abscissa_window(vert_slow) == pytest.approx(0.5 * want, rel=1e-12)
        # with the kernel off the shear family joins the undamped set
        shear_slow_off = make_gen(
            PhysicalParams(rho1=1, rho2=9, k1=1, k2=1, k3=1, ell=1.0), a=0.0)
        assert abscissa_window(shear_slow_off) == pytest.approx(want / 3, rel=1e-12)

    def test_windowed_abscissa_bounded_by_raw(self):
        gen = make_gen()
        rep = compute_spectrum(gen)
        wa = windowed_abscissa(gen, rep.eigenvalues)
        assert wa <= rep.max_real_part + 1e-15
        assert wa < 0.0

    def test_empty_window_rejected(self):
        gen = make_gen()
        far = np.array([1j * 1e9])
        with pytest.raises(ValueError):
            windowed_abscissa(gen, far)


class TestResolventScan:
    @pytest.mark.parametrize("case,lam", [
        # nodal history
        pytest.param("ddd", [3.0, 7.0, 12.0], id="ddd"),
        # gradient history and the heat pair, under a resolution cap of 8.16
        pytest.param("dndd", [2.0, 5.0, 8.0], id="dndd"),
        pytest.param("two-field", [3.0, 7.0, 12.0], id="two-field"),
        # no memory: the empty ladder
        pytest.param("a0", [3.0, 7.0, 12.0], id="a0"),
    ])
    def test_matches_dense_svd_oracle(self, case, lam):
        if case == "two-field":
            kern = KernelSpec(0.5, 1.0)
            straight = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1)
            gen = assemble_timoshenko_generator(
                straight, kern, build_spatial_grid(1.0, 8), build_memory_grid(kern, ns=8))
        else:
            gen = make_gen(params=THERMAL if case == "dndd" else None, a=0.0 if case == "a0" else 0.5,
                           nx=8, ns=8, bc="dndd" if case == "dndd" else "ddd")
        lam = np.array(lam)
        scan = resolvent_scan(gen, lam)
        a = gen.A.toarray()
        r = la.cholesky(gen.B.toarray(), lower=False)
        rinv = la.inv(r)
        eye = np.eye(gen.dim)
        for j, lv in enumerate(lam):
            m = r @ (1j * lv * eye - a) @ rinv
            want = 1.0 / la.svdvals(m)[-1]
            got = scan.inv_sigma_min[j]
            assert got == pytest.approx(want, rel=1e-3), (
                f"lam={lv}: inverse iteration {got} vs svd {want}"
            )

    @pytest.mark.parametrize("ell", [0.0, 1.0])
    def test_semidefinite_energy_raises_before_any_factor(self, ell, monkeypatch):
        # dnnd: the axial mean mode carries no energy.  The fixed pivot
        # rule refuses B at either curvature, while sparse LU of B meets an
        # exact zero pivot only at ell = 0
        def no_lu(*args, **kwargs):
            raise AssertionError("factored before the energy metric was checked")

        monkeypatch.setattr(spectra, "splu", no_lu)
        gen = make_gen(params=dataclasses.replace(THERMAL, ell=ell), nx=8, ns=8, bc="dnnd")
        with pytest.raises(ValueError, match="semidefinite"):
            resolvent_scan(gen, np.array([3.0]))

    def test_cap_enforced(self):
        gen = make_gen(nx=10)
        beyond = resolution_cap(gen) * 1.01
        with pytest.raises(ValueError, match="cap"):
            resolvent_scan(gen, np.array([beyond]))

    def test_records_iteration_counts(self):
        gen = make_gen(nx=8, ns=8)
        scan = resolvent_scan(gen, np.array([5.0]))
        assert scan.iterations[0] >= 1
        assert scan.converged[0]

    def test_iteration_cap_flags_unconverged_samples(self):
        # one iteration has no previous estimate to compare against, so
        # no sample can meet the tolerance, and every one must say so
        gen = make_gen(nx=8, ns=8)
        scan = resolvent_scan(gen, np.array([3.0, 7.0]), max_iter=1)
        assert scan.iterations.tolist() == [1, 1]
        assert scan.converged.tolist() == [False, False]
        assert np.all(np.isfinite(scan.inv_sigma_min))


class TestGrowthFit:
    @staticmethod
    def synthetic(vals, lam=None):
        lam = np.linspace(5.0, 50.0, len(vals)) if lam is None else lam
        return ResolventScan(
            lam=lam, inv_sigma_min=np.asarray(vals, dtype=float),
            iterations=np.ones(len(lam), dtype=int), converged=np.ones(len(lam), dtype=bool),
        )

    def test_flat_scan_gives_zero(self):
        fit = fit_growth_exponent(self.synthetic(np.full(5, 4.0)))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_recovers_power_law_in_any_sample_order(self):
        lam = np.array([33.0, 6.0, 19.0, 11.0, 55.0])
        fit = fit_growth_exponent(self.synthetic(lam ** 2, lam))
        assert fit.lam.tolist() == sorted(lam.tolist())
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)

    def test_majorant_ignores_damping_bumps(self):
        # a mid-window stretch where every mode is better damped dents the
        # raw peak heights; the sup the growth hypotheses bound is already
        # saturated, so the envelope slope must stay at zero
        lam = np.array([6.0, 12.0, 24.0, 48.0])
        fit = fit_growth_exponent(self.synthetic([100.0, 100.0, 30.0, 100.0], lam))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12), (
            f"saturated envelope read as slope {fit.exponent}"
        )

    def test_shrinking_envelope_reads_as_bounded(self):
        # growth exponent witnesses sup-growth; a decaying peak line is
        # bounded, hence exponent 0, not a negative slope
        lam = np.array([6.0, 12.0, 24.0, 48.0])
        fit = fit_growth_exponent(self.synthetic([100.0, 80.0, 60.0, 40.0], lam))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)


class TestEnvelopeAnchors:
    def test_picks_least_damped_per_band(self):
        # two modes per band of width 10; the weakly damped one must win
        vals = np.array([
            -1.0 + 6.0j, -1e-3 + 7.0j,
            -1e-4 + 16.0j, -1.0 + 17.0j,
            -1.0 + 30.0j, -1e-5 + 31.0j,
        ])
        got = envelope_anchors(vals, 5.0, 45.0, n_bands=4)
        assert 7.0 in got and 16.0 in got and 31.0 in got
        assert 6.0 not in got and 17.0 not in got and 30.0 not in got

    def test_empty_bands_skipped_and_conjugates_ignored(self):
        vals = np.array([-0.1 + 6.0j, -0.1 - 6.0j, -0.2 + 50.0j])
        got = envelope_anchors(vals, 5.0, 60.0, n_bands=6)
        assert got.tolist() == [6.0, 50.0]

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            envelope_anchors(np.array([1j]), 5.0, 5.0)
        with pytest.raises(ValueError):
            envelope_anchors(np.array([1j]), 5.0, 50.0, n_bands=2)


class TestMatchBranches:
    def test_tags_follow_predicted_frequencies(self):
        p = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1)
        kern = KernelSpec(0.5, 1.0)
        gen = assemble_timoshenko_generator(
            p, kern, build_spatial_grid(1.0, 60), build_memory_grid(kern, ns=16))
        rep = compute_spectrum(gen)
        tags = match_branches(rep, p, kern)
        hits = [(v, t) for v, t in zip(rep.eigenvalues, tags)
                if t is not None and 1.0 <= v.imag <= 30.0]
        # interleaved branch predictions leave only a handful unambiguous
        assert len(hits) >= 4
        for v, (branch, n, pred) in hits:
            assert abs(abs(v.imag) - pred) <= 0.1 * pred, (
                f"tag ({branch},{n}) predicts {pred}, eigenvalue at {v.imag}"
            )

    def test_curved_or_thermal_rejected(self):
        gen = make_gen()
        rep = compute_spectrum(gen)
        with pytest.raises(ValueError):
            match_branches(rep, gen.params, gen.kernel)
