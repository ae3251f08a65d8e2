# =====================================================================
# Implicit-midpoint integrator: conservation, accuracy, history collapse
# =====================================================================

import types

import numpy as np
import pytest
import scipy.linalg as la

from bresselab import simulate as simulate_module
from bresselab.kernel import KernelSpec
from bresselab.model import BoundaryCondition, PhysicalParams
from bresselab.discretize import SLICE_BLOCK, assemble_generator, build_memory_grid, build_spatial_grid
from bresselab.simulate import (
    SAMPLE_BLOCK,
    Stepper,
    collapsed_history_gap,
    default_dt,
    initial_state,
    simulate,
)

ALL_ONES = PhysicalParams(rho1=1, rho2=1, k1=1, k2=1, k3=1, ell=1.0)
THERMAL = PhysicalParams(rho1=1, rho2=3, k1=1, k2=1, k3=1, ell=1.0,
                         thermal=True, rho3=1, delta=1, tau=2, beta=1)


def make_gen(params=None, a=0.5, nx=10, ns=12, bc="ddd"):
    params = params or ALL_ONES
    kern = KernelSpec(a, 1.0)
    return assemble_generator(
        params, kern, BoundaryCondition.from_string(bc),
        build_spatial_grid(params.length, nx), build_memory_grid(kern, ns=ns),
    )


class TestInitialStates:
    def test_history_starts_empty(self):
        gen = make_gen()
        for kind in ("smooth_bump", "eigenmode", "random"):
            u = initial_state(gen, kind)
            assert np.all(u[gen.layout["eta"]] == 0.0), kind

    def test_random_is_seeded(self):
        gen = make_gen()
        assert np.array_equal(initial_state(gen, "random", seed=7),
                              initial_state(gen, "random", seed=7))
        assert not np.array_equal(initial_state(gen, "random", seed=7),
                                  initial_state(gen, "random", seed=8))

    def test_bad_inputs_rejected(self):
        gen = make_gen()
        with pytest.raises(ValueError):
            initial_state(gen, "sawtooth")
        with pytest.raises(ValueError):
            initial_state(gen, "eigenmode", index=0)


class TestStepper:
    @pytest.mark.parametrize("dt", [None, 0.05, 0.5], ids=["default_dt", "0.05", "0.5"])
    @pytest.mark.parametrize("nx,ns,a", [
        pytest.param(6, 12, 0.5, id="6"),
        pytest.param(40, 12, 0.5, id="40"),
        # four chained slice blocks
        pytest.param(6, 4 * SLICE_BLOCK, 0.5, id="6-ns256"),
        # no memory: the empty ladder, the whole state is the front
        pytest.param(6, 12, 0.0, id="6-a0"),
    ])
    @pytest.mark.parametrize("bc", ["ddd", "dddd", "dndd", "dnnd"])
    def test_one_step_matches_dense_solve(self, bc, nx, ns, a, dt):
        # u+ = 2 (I - dt/2 A)^-1 u - u, on a state with every block filled,
        # stepped with the history ladder condensed out
        gen = make_gen(params=ALL_ONES if bc == "ddd" else THERMAL, a=a, nx=nx, ns=ns, bc=bc)
        dt = default_dt(gen) if dt is None else dt
        u = np.random.default_rng(5).standard_normal(gen.dim)
        m = np.eye(gen.dim) - 0.5 * dt * gen.A.toarray()
        want = 2.0 * np.linalg.solve(m, u) - u
        got = Stepper(gen, dt).advance(u)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err <= 1e-12, f"bc={bc} nx={nx} dt={dt}: one step off by {err:.3e}"

    @pytest.mark.parametrize("nx", [80, 200])
    @pytest.mark.parametrize("bc", ["ddd", "dddd"])
    def test_factor_fill_stays_near_matrix_nnz(self, bc, nx, monkeypatch):
        # the factor comes through the module-level splu, and what it
        # factors is the front operator T(2/dt), history condensed out, in
        # node order.  The natural order with diagonal pivots fills it
        # 1.73x (ddd) and 2.17x (dddd) at nx = 80, all inside its band
        factored = []
        splu = simulate_module.splu

        def recording_splu(matrix, *args, **kwargs):
            factored.append((matrix, splu(matrix, *args, **kwargs)))
            return factored[-1][1]

        monkeypatch.setattr(simulate_module, "splu", recording_splu)
        gen = make_gen(params=ALL_ONES if bc == "ddd" else THERMAL, nx=nx, ns=32, bc=bc)
        Stepper(gen, 0.05)
        ((s, lu),) = factored
        assert s.shape[0] == gen.n_front
        fill = lu.L.nnz + lu.U.nnz
        assert fill <= {"ddd": 2.2, "dddd": 2.75}[bc] * s.nnz, f"bc={bc} nx={nx}: factor holds {fill} nonzeros for {s.nnz}"

    @pytest.mark.parametrize("perm", ["perm_r", "perm_c"])
    def test_permuted_factor_is_refused(self, perm, monkeypatch):
        # band storage holds T's own factor only when SuperLU permuted
        # nothing; a permuted factor must stop the stepper, not skew a step
        splu = simulate_module.splu

        def permuting_splu(matrix, *args, **kwargs):
            lu = splu(matrix, *args, **kwargs)
            parts = {"L": lu.L, "U": lu.U, "perm_r": lu.perm_r, "perm_c": lu.perm_c}
            parts[perm] = parts[perm][::-1]
            return types.SimpleNamespace(**parts)

        monkeypatch.setattr(simulate_module, "splu", permuting_splu)
        with pytest.raises(ValueError, match="permuted"):
            Stepper(make_gen(), 0.05)


class TestSampling:
    def test_nan_inside_a_block_names_its_step(self, monkeypatch):
        # the state goes non-finite at step 7; its block is sampled only
        # after step 15, and the guard must still name step 7
        advance = simulate_module.Stepper.advance
        calls = []

        def poisoned(self, u):
            calls.append(1)
            out = advance(self, u)
            return np.full_like(out, np.nan) if len(calls) == 7 else out

        monkeypatch.setattr(simulate_module.Stepper, "advance", poisoned)
        gen = make_gen()
        with pytest.raises(FloatingPointError, match=r"step 7 of 20\b"):
            simulate(gen, initial_state(gen, "smooth_bump"), T=1.0, dt=0.05)

    def test_stride_records_the_same_states_as_every_step(self):
        # 40 steps: stride 1 samples 41 states in three blocks, stride 3
        # the 15 states 0, 3, ..., 39, 40 in one
        gen = make_gen(params=THERMAL, bc="dddd")
        u0 = initial_state(gen, "random", seed=4)
        dt, n = 0.05, 40
        assert 41 > 2 * SAMPLE_BLOCK and 15 <= SAMPLE_BLOCK
        every = simulate(gen, u0, T=n * dt, dt=dt)
        strided = simulate(gen, u0, T=n * dt, dt=dt, stride=3)
        steps = [*range(0, n, 3), n]
        assert np.array_equal(strided.t, np.array(steps) * every.dt)
        assert np.array_equal(strided.t, every.t[steps])
        np.testing.assert_allclose(strided.E, every.E[steps], rtol=1e-14, atol=0.0)
        for name in ("mem_rate", "heat_rate"):
            want = getattr(every, name)[steps]
            np.testing.assert_allclose(getattr(strided, name), want, rtol=0.0,
                                       atol=1e-14 * np.max(np.abs(want)), err_msg=name)
        assert np.array_equal(strided.final_state, every.final_state)


class TestConservativeLimit:
    def test_energy_constant_without_damping(self):
        gen = make_gen(a=0.0)
        u0 = initial_state(gen, "smooth_bump")
        trace = simulate(gen, u0, T=20.0, dt=0.05)
        e0 = trace.E[0]
        drift = np.max(np.abs(trace.E - e0)) / e0
        assert drift < 1e-10, f"conservative energy drift {drift:.3e}"
        assert np.all(trace.mem_rate == 0.0)
        assert np.all(trace.heat_rate == 0.0)


class TestAccuracy:
    def test_matches_matrix_exponential(self):
        gen = make_gen(nx=8, ns=8)
        u0 = initial_state(gen, "smooth_bump")
        T = 0.5
        exact = la.expm(gen.A.toarray() * T) @ u0
        got = simulate(gen, u0, T=T, dt=5e-4).final_state
        err = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        assert err < 1e-5, f"trajectory error vs expm: {err:.3e}"

    def test_second_order_in_dt(self):
        gen = make_gen(nx=8, ns=8)
        u0 = initial_state(gen, "random", seed=2)
        T = 1.0
        exact = la.expm(gen.A.toarray() * T) @ u0
        errs = [np.linalg.norm(simulate(gen, u0, T=T, dt=dt).final_state - exact)
                for dt in (0.02, 0.01, 0.005)]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.3 < r1 < 4.7 and 3.3 < r2 < 4.7, (
            f"dt-halving error ratios {r1:.2f}, {r2:.2f} not ~4"
        )

    def test_zero_horizon_returns_single_sample(self):
        gen = make_gen()
        u0 = initial_state(gen, "smooth_bump")
        trace = simulate(gen, u0, T=0.0)
        assert len(trace.t) == 1 and trace.t[0] == 0.0
        assert np.array_equal(trace.final_state, u0)

    def test_bad_arguments_rejected(self):
        gen = make_gen()
        u0 = initial_state(gen, "smooth_bump")
        with pytest.raises(ValueError):
            simulate(gen, u0, T=-1.0)
        with pytest.raises(ValueError):
            simulate(gen, u0, T=1.0, stride=0)
        with pytest.raises(ValueError):
            simulate(gen, u0[:-1], T=1.0)


class TestMonotonicity:
    @pytest.mark.parametrize("bc,thermal", [("ddd", False), ("dddd", True)])
    def test_energy_never_increases(self, bc, thermal):
        p = THERMAL if thermal else ALL_ONES
        gen = make_gen(params=p, a=0.25 if thermal else 0.5, bc=bc)
        u0 = initial_state(gen, "random", seed=11)
        trace = simulate(gen, u0, T=10.0, dt=0.05)
        ratio = trace.E[1:] / trace.E[:-1]
        assert np.all(ratio <= 1.0 + 1e-12), (
            f"energy increased: max step ratio {ratio.max():.15f}"
        )

    def test_default_dt_scales_with_h(self):
        # Dirichlet spacing is L/(nx+1), so 10 -> 21 nodes halves h
        g1, g2 = make_gen(nx=10), make_gen(nx=21)
        assert default_dt(g1) == pytest.approx(2 * default_dt(g2), rel=1e-12)


class TestHistoryCollapse:
    @pytest.mark.parametrize("bc", ["ddd", "dddd", "dndd", "dnnd"])
    def test_gap_shrinks_first_order_in_ds(self, bc):
        # the one-slice ladder is exact memory for the exponential
        # kernel; the ladder converges to it at O(ds)
        if bc == "ddd":
            p, a = PhysicalParams(rho1=1, rho2=1, k1=1, k2=2, k3=1, ell=1.0), 0.5
        else:
            p, a = THERMAL, 0.25
        gaps = []
        for ns in (64, 128):
            gen = make_gen(params=p, a=a, nx=8, ns=ns, bc=bc)
            u0 = initial_state(gen, "smooth_bump")
            gaps.append(collapsed_history_gap(gen, u0, T=5.0, dt=0.02))
        ratio = gaps[0] / gaps[1]
        assert gaps[1] < gaps[0], f"gaps {gaps} not decreasing"
        assert 1.5 < ratio < 2.8, f"ds-halving gap ratio {ratio:.2f} not ~2"

    def test_rejects_nonzero_history_start(self):
        gen = make_gen(nx=8, ns=16)
        u0 = initial_state(gen, "smooth_bump")
        u0[gen.layout["eta"]] = 0.1
        with pytest.raises(ValueError):
            collapsed_history_gap(gen, u0, T=1.0, dt=0.05)
