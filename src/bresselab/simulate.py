"""Time integration of the semi-discrete system.

Implicit midpoint throughout: it is symplectic on the conservative part,
unconditionally stable, and for a dissipative generator the discrete
energy is exactly non-increasing step to step (0.25 dt^2 ||A u_mid||^2
terms cancel in the B-form), so energy traces can be checked against the
recorded dissipation rates without scheme slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.sparse.linalg import splu

from .discretize import (
    CondensedFront,
    Generator,
    ShiftedSolver,
    _position_fields,
    band_storage,
    coordinates,
    dissipation_rates,
    energy,
    exact_memory_grid,
)
from .model import wave_speeds


# Courant number of the default step.
CFL = 0.05


def default_dt(gen: Generator) -> float:
    """Conservative step: CFL * h / (fastest characteristic speed)."""
    p = gen.params
    speeds = list(wave_speeds(p))
    if p.thermal and p.tau > 0.0:
        speeds.append(1.0 / (p.rho3 * p.tau))
    return CFL * gen.grid.h / float(np.sqrt(max(speeds)))


# Most recorded states sampled as one block: at the evolve configs'
# dimensions (up to 3201) a block and its images stay in cache.
SAMPLE_BLOCK = 16


class BandLU:
    """T = L U without pivoting, held in LAPACK band storage; solve is two dtbsv sweeps.

    T is factored by the module-level splu in its natural order with
    diagonal pivots, and L and U are copied into band storage.  That is
    T's own factor only if SuperLU permuted neither rows nor columns (its
    column elimination-tree postorder can move columns even in the
    natural order), so any other permutation raises ValueError.  The
    band of L and U is T's own, which a node-ordered front
    (CondensedFront) keeps 13 or fewer places to each side of the diagonal.
    """

    def __init__(self, t):
        lu = splu(t, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        identity = np.arange(t.shape[0])
        if not (np.array_equal(lu.perm_r, identity) and np.array_equal(lu.perm_c, identity)):
            raise ValueError("SuperLU permuted the front operator; its factor is not banded in node order")
        self._lower, self._kl = band_storage(lu.L, lower=True)
        self._upper, self._ku = band_storage(lu.U, lower=False)

    def solve(self, v: np.ndarray, trans: str = "N") -> np.ndarray:
        """T^-1 v, or T^-T v for trans "T" or "H" (T is real)."""
        x = np.array(v, dtype=float)
        if trans == "N":
            dtbsv(self._kl, self._lower, x, lower=1, diag=1, overwrite_x=1)
            dtbsv(self._ku, self._upper, x, overwrite_x=1)
        else:
            dtbsv(self._ku, self._upper, x, trans=1, overwrite_x=1)
            dtbsv(self._kl, self._lower, x, lower=1, trans=1, diag=1, overwrite_x=1)
        return x


class Stepper:
    """Prefactored implicit-midpoint stepper u -> (I - dt/2 A)^-1 (I + dt/2 A) u.

    Since I + dt/2 A = 2 I - M with M = I - dt/2 A = (dt/2) (z I - A) at
    z = 2/dt, the map is u -> (4/dt) (z I - A)^-1 u - u, one forward
    solve of discretize.ShiftedSolver: the history ladder is condensed
    out, and a step costs one solve with the front operator T(2/dt).

    The front is in node order, so T(2/dt) is banded, and BandLU factors
    it in that order with diagonal pivots: a step is two banded
    triangular sweeps.  Every diagonal entry of z I - A_FF is at least z
    (positions, velocities and theta z, q z + beta/tau), and the ladder
    only adds a nonnegative diagonal (sigma(z) > 0 for real z > 0, and
    -F J is a Gram form scaled by positive masses), so diagonal pivots
    stay safe.
    """

    def __init__(self, gen: Generator, dt: float):
        if not (np.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        self._scale = 4.0 / dt
        self._solver = ShiftedSolver(CondensedFront(gen), 2.0 / dt, BandLU)

    def advance(self, u: np.ndarray) -> np.ndarray:
        x = self._solver.solve(u)
        x *= self._scale
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
        stepper = Stepper(gen, dt)
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
# Exact-memory cross-check
# =====================================================================

def collapsed_history_gap(gen: Generator, u0: np.ndarray, T: float, dt: float) -> float:
    """Relative trajectory gap between the history ladder and exact memory.

    Exact memory is gen's own variant reassembled on exact_memory_grid,
    the one-slice ladder whose slice is the collapsed history integral
    m = int g(s) eta(s) ds over g0.  Both are advanced with the same
    implicit-midpoint step from the same front (positions, velocities,
    theta, q) with vanishing history, and the gap is
    ||(phi,psi) - (phi,psi)_exact||_h / ||(phi,psi)_exact||_h at time T.
    First order in the history resolution ds.
    """
    eta = gen.layout.get("eta")
    if eta is None or np.any(np.asarray(u0)[eta] != 0.0):
        raise ValueError("cross-check needs a memory block and starts from vanishing history")
    exact = gen.on_memory_grid(exact_memory_grid(gen.kernel))
    n_steps = max(1, int(round(T / dt)))
    u_full = np.asarray(u0, dtype=float)
    u_exact = np.insert(np.delete(u_full, eta), exact.layout["eta"].start, np.zeros(exact.n_eta))
    full, one_slice = (Stepper(g, T / n_steps) for g in (gen, exact))
    for _ in range(n_steps):
        u_full, u_exact = full.advance(u_full), one_slice.advance(u_exact)

    stop = gen.layout["psi"].stop
    denom = float(np.linalg.norm(u_exact[:stop]))
    if denom == 0.0:
        raise ValueError("exact-memory trajectory vanished; gap undefined")
    return float(np.linalg.norm(u_full[:stop] - u_exact[:stop])) / denom
