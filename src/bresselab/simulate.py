"""Time integration of the semi-discrete system.

Implicit midpoint throughout: it is symplectic on the conservative part,
unconditionally stable, and for a dissipative generator the discrete
energy is exactly non-increasing step to step (0.25 dt^2 ||A u_mid||^2
terms cancel in the B-form), so energy traces can be checked against the
recorded dissipation rates without scheme slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .discretize import (
    Generator,
    _place_blocks,
    _position_fields,
    coordinates,
    dissipation_rates,
    energy,
)
from .model import wave_speeds


def default_dt(gen: Generator, cfl: float = 0.05) -> float:
    """Conservative step: cfl * h / (fastest characteristic speed)."""
    p = gen.params
    speeds = list(wave_speeds(p))
    if p.thermal and p.tau > 0.0:
        speeds.append(1.0 / (p.rho3 * p.tau))
    return cfl * gen.grid.h / float(np.sqrt(max(speeds)))


# Most history slices one dense Toeplitz block of L^-1 covers.
SLICE_BLOCK = 64
# Most recorded states sampled as one block: at the evolve configs'
# dimensions (up to 3201) a block and its images stay in cache.
SAMPLE_BLOCK = 16


class HistoryLadder(NamedTuple):
    """Where a state keeps its history: the contiguous, slice-major block
    eta of len(weights) slices, their weights W_k g(s_k) and their spacing
    ds.  A generator without memory has the empty ladder NO_HISTORY."""

    eta: slice
    weights: np.ndarray
    ds: float


NO_HISTORY = HistoryLadder(slice(0, 0), np.zeros(0), 1.0)


def history_ladder(gen: Generator) -> HistoryLadder:
    if gen.ns_active == 0:
        return NO_HISTORY
    return HistoryLadder(gen.layout["eta"], gen.slice_weights, gen.mgrid.ds)


class Stepper:
    """Prefactored implicit-midpoint stepper u -> (I - dt/2 A)^-1 (I + dt/2 A) u.

    Since I + dt/2 A = 2 I - M with M = I - dt/2 A, the same map is
    u -> 2 M^-1 u - u, solved with the history ladder condensed out.
    With h = dt/2, the history block of M is kron(L, I), where
    L = (1 + a) I - a N is lower bidiagonal (a = h/ds, N the sub-diagonal
    shift), and the history meets the front (positions, velocities, theta
    and q) only through -h kron(1, J) and -h kron(w^T, F): J injects the
    shear velocity into a slice and F is the force of one unit-weight
    slice on the dpsi rows.  Eliminating the history leaves the front
    Schur complement

        S = M_FF - h^2 (w^T b) F J,    b = L^-1 1,

    with the pattern of the memory-free step matrix.  A step is one solve
    with S, x_F = S^-1 (r_F + h F z) with z = c^T r_E and c = L^-T w,
    and then x_E = L^-1 (r_E + h 1 (J x_F)^T), which is e + h b (J x_F)^T
    with e = L^-1 r_E.  A generator without memory takes the same path
    with the empty ladder, where S is M.

    S is factored by the module-level splu with a minimum-degree ordering
    on the pattern of S + S^T and diagonal pivots.  Every diagonal entry
    of M_FF is at least 1 (positions, velocities and theta 1, q
    1 + dt beta/(2 tau)), and the correction only adds a nonnegative
    diagonal: w >= 0, b > 0, and -F J is a Gram form scaled by positive
    masses.  So S keeps a diagonal of at least 1 and diagonal pivots stay
    safe; eliminating a position on its unit pivot forms the velocity
    Schur complement I + dt^2/4 M^-1 K.

    L^-1 is lower-triangular Toeplitz with entries p^(i-j)/(1 + a),
    p = a/(1 + a).  It is applied in dense blocks of at most SLICE_BLOCK
    slices, each chained to the last slice of the block before by
    e_block = L_m^-1 r_block + p^(j+1) e_(k0-1), so no ns x ns array is
    formed.  c comes from the transposed recurrence, run as the same
    solve on the reversed weights (L^T is L with the slice order reversed).
    """

    def __init__(self, A: sp.spmatrix, dt: float, ladder: HistoryLadder = NO_HISTORY):
        if not (np.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        h = 0.5 * dt
        A = sp.csr_matrix(A)
        eta, w = ladder.eta, ladder.weights
        ns = w.size
        n_eta = (eta.stop - eta.start) // ns if ns else 0
        front = np.r_[0:eta.start, eta.stop:A.shape[0]]
        self._eta, self._shape = eta, (ns, n_eta)

        alpha = h / ladder.ds
        ratio = alpha / (1.0 + alpha)
        index = np.arange(min(ns, SLICE_BLOCK))
        lag = index[:, np.newaxis] - index
        self._toeplitz = np.where(lag >= 0, ratio ** np.abs(lag), 0.0) / (1.0 + alpha)
        self._carry = ratio ** np.arange(1, self._toeplitz.shape[0] + 1)[:, np.newaxis]
        b = self._solve_slices(np.ones((ns, 1)))[:, 0]
        self._c = self._solve_slices(w[::-1, np.newaxis])[::-1, 0]

        first = slice(eta.start, eta.start + n_eta)
        a_front = A[front]
        force = a_front[:, first] / (w[0] if ns else 1.0)
        inject = h * A[first][:, front]
        s = sp.identity(front.size) - h * a_front[:, front] - (h * (w @ b)) * (force @ inject)
        self._lu = splu(s.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
        # F and J touch only the dpsi rows and columns: kept as dense blocks
        # on those, they cost a small matmul a step, not a sparse dispatch
        self._force_rows = np.flatnonzero(force.getnnz(axis=1))
        self._force = h * force[self._force_rows].toarray()
        self._inject_cols = np.flatnonzero(inject.getnnz(axis=0))
        self._inject = inject[:, self._inject_cols].toarray()

    def _solve_slices(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """L^-1 r along the slice axis (rows of r), in chained Toeplitz blocks."""
        out = np.empty_like(r) if out is None else out
        for k0 in range(0, r.shape[0], SLICE_BLOCK):
            k1 = min(k0 + SLICE_BLOCK, r.shape[0])
            n = k1 - k0
            np.matmul(self._toeplitz[:n, :n], r[k0:k1], out=out[k0:k1])
            if k0:
                out[k0:k1] += self._carry[:n] * out[k0 - 1]
        return out

    def advance(self, u: np.ndarray) -> np.ndarray:
        e0, e1 = self._eta.start, self._eta.stop
        r_eta = u[e0:e1].reshape(self._shape)
        r_front = np.concatenate((u[:e0], u[e1:]))
        r_front[self._force_rows] += self._force @ (self._c @ r_eta)
        x_front = self._lu.solve(r_front)
        x = np.empty_like(u)
        x[:e0] = x_front[:e0]
        x[e1:] = x_front[e0:]
        self._solve_slices(r_eta + self._inject @ x_front[self._inject_cols], out=x[e0:e1].reshape(self._shape))
        x *= 2.0
        x -= u
        return x


# =====================================================================
# Initial states
# =====================================================================

def _shape(x: np.ndarray, length: float, neumann: bool, index: int = 1) -> np.ndarray:
    if neumann:
        return np.cos(index * np.pi * x / length)
    return np.sin(index * np.pi * x / length)


def _bump(x: np.ndarray, length: float, neumann: bool) -> np.ndarray:
    if neumann:
        return np.cos(np.pi * x / length)
    return 16.0 * x ** 2 * (length - x) ** 2 / length ** 4


def initial_state(gen: Generator, kind: str, index: int = 1, seed: int = 0) -> np.ndarray:
    """Build a state vector with vanishing history.

    kind: 'smooth_bump' (polynomial/cosine displacement profiles at
    rest), 'eigenmode' (index-th Fourier shape of each position field),
    or 'random' (seeded normal draw on positions, velocities and the
    heat pair).  All variants leave eta = 0: the system starts with no
    accumulated history.
    """
    u = np.zeros(gen.dim)
    x = coordinates(gen)
    L = gen.grid.length
    fields = _position_fields(gen.bc, gen.include_w)

    if kind == "smooth_bump":
        for name, neumann in fields:
            u[gen.layout[name]] = _bump(x[name], L, neumann)
        if gen.params.thermal:
            u[gen.layout["theta"]] = _bump(x["theta"], L, False)
    elif kind == "eigenmode":
        if index < 1:
            raise ValueError(f"mode index must be >= 1, got {index}")
        for name, neumann in fields:
            u[gen.layout[name]] = _shape(x[name], L, neumann, index)
    elif kind == "random":
        rng = np.random.default_rng(seed)
        for name, _ in fields:
            u[gen.layout[name]] = rng.standard_normal(gen.sizes[name])
            u[gen.layout["d" + name]] = rng.standard_normal(gen.sizes[name])
        if gen.params.thermal:
            u[gen.layout["theta"]] = rng.standard_normal(gen.sizes["theta"])
            u[gen.layout["q"]] = rng.standard_normal(gen.sizes["q"])
    else:
        raise ValueError(f"unknown initial condition kind {kind!r}")
    return u


# =====================================================================
# Simulation driver
# =====================================================================

@dataclass
class EnergyTrace:
    """Sampled energy history of one run."""

    t: np.ndarray
    E: np.ndarray
    mem_rate: np.ndarray
    heat_rate: np.ndarray
    final_state: np.ndarray
    dt: float

    def to_rows(self):
        for k in range(len(self.t)):
            yield self.t[k], self.E[k], self.mem_rate[k], self.heat_rate[k]


def simulate(
    gen: Generator,
    u0: np.ndarray,
    T: float,
    dt: float | None = None,
    stride: int = 1,
) -> EnergyTrace:
    """Advance u0 to time T, recording energy and dissipation rates.

    Records every stride-th step (plus the initial and final states).
    T = 0 returns the single initial sample.  Recorded states are held
    back in blocks of at most SAMPLE_BLOCK and each block goes through
    energy and dissipation_rates at once.  Any non-finite energy aborts
    with the offending step index; that is the NaN guard for blow-ups,
    not a recoverable condition.
    """
    if T < 0.0 or not np.isfinite(T):
        raise ValueError(f"T must be finite and >= 0, got {T}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    u = np.asarray(u0, dtype=float).copy()
    if u.shape != (gen.dim,):
        raise ValueError(f"state shape {u.shape} does not match dim {gen.dim}")

    n_steps = 0
    if T > 0.0:
        dt = min(default_dt(gen) if dt is None else dt, T)
        n_steps = int(np.ceil(T / dt - 1e-12))
        dt = T / n_steps  # land exactly on T
        stepper = Stepper(gen.A, dt, history_ladder(gen))
    else:
        dt = 0.0
    steps = [k for k in range(n_steps + 1) if k % stride == 0 or k == n_steps]
    E, mem, heat = np.empty((3, len(steps)))
    # Fortran order makes the transpose of every full block C-contiguous:
    # the column block that the sparse products in the samplers take.
    block = np.empty((SAMPLE_BLOCK, gen.dim), order="F")
    k = 0
    for start in range(0, len(steps), SAMPLE_BLOCK):
        chunk = steps[start:start + SAMPLE_BLOCK]
        for row, target in enumerate(chunk):
            while k < target:
                u = stepper.advance(u)
                k += 1
            block[row] = u
        rows, done = block[:len(chunk)], slice(start, start + len(chunk))
        E[done] = energy(gen, rows)
        bad = np.flatnonzero(~np.isfinite(E[done]))
        if bad.size:
            step = chunk[bad[0]]
            raise FloatingPointError(f"non-finite energy at t = {step * dt} (step {step} of {n_steps})")
        mem[done], heat[done] = dissipation_rates(gen, rows)
    return EnergyTrace(np.array(steps) * dt, E, mem, heat, u, dt)


# =====================================================================
# Collapsed-history cross-check
# =====================================================================

def assemble_collapsed_generator(gen: Generator):
    """First-order reduction of the memory column for the exponential kernel.

    The weighted history integral m(x,t) = int g(s) eta(x,t,s) ds obeys
    m_t = g0 psi_t - c m exactly when g is a single exponential, so the
    infinite-dimensional history column collapses to one extra field.
    Returns (A_red, layout) over (positions, velocities, m); m uses the
    same spatial representation as a nodal memory slice.  This is a
    validation tool: trajectories of the full ladder must converge to
    this system's at first order in ds.
    """
    if gen.ns_active == 0:
        raise ValueError("collapsed reduction needs an active memory block")
    if gen.eta_rep != "nodal":
        raise ValueError("collapsed reduction implemented for nodal memory slices")
    if gen.params.thermal:
        raise ValueError("collapsed reduction implemented for the elastic variant")
    p, kern = gen.params, gen.kernel
    g0 = kern.a / kern.c

    front = slice(0, gen.layout["eta"].start)  # positions and velocities
    dpsi = gen.layout["dpsi"]
    n_psi = dpsi.stop - dpsi.start
    m = slice(front.stop, front.stop + n_psi)
    # force of one unit-weight nodal slice on the shear velocity rows
    force_one = -sp.diags(1.0 / (p.rho2 * np.full(n_psi, gen.grid.h))) @ gen.slice_energy
    a_red = _place_blocks(m.stop, [
        (front, front, gen.A[front, front]),
        (dpsi, m, force_one),
        (m, dpsi, g0 * sp.identity(n_psi)),
        (m, m, -kern.c * sp.identity(n_psi)),
    ])
    layout = dict(gen.layout)
    layout.pop("eta", None)
    layout["m"] = m
    return a_red, layout


def collapsed_history_gap(gen: Generator, u0: np.ndarray, T: float, dt: float) -> float:
    """Relative trajectory gap between the history ladder and its collapse.

    Advances the full system and the collapsed one with the same
    implicit-midpoint step from the same (zero-history) start and
    returns ||(phi,psi) - (phi,psi)_red||_h / ||(phi,psi)_red||_h at
    time T.  First order in the history resolution ds by construction.
    """
    a_red, layout_red = assemble_collapsed_generator(gen)
    u_red = np.zeros(a_red.shape[0])
    n_front = layout_red["m"].start
    u_red[:n_front] = u0[:n_front]
    if np.max(np.abs(np.asarray(u0[gen.layout["eta"]]))) > 0.0:
        raise ValueError("cross-check starts from vanishing history")

    n_steps = max(1, int(round(T / dt)))

    trace = simulate(gen, u0, T=T, dt=T / n_steps, stride=n_steps)
    u_full = trace.final_state

    stepper = Stepper(a_red, T / n_steps)
    for _ in range(n_steps):
        u_red = stepper.advance(u_red)

    stop = gen.layout["psi"].stop
    ref = u_red[:stop]
    diff = u_full[:stop] - ref
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        raise ValueError("collapsed trajectory vanished; gap undefined")
    return float(np.linalg.norm(diff)) / denom
