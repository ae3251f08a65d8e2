"""Staggered finite-difference discretization of the damped beam system.

Positions and velocities live at nodes; strains, the heat flux and (for
Neumann shear ends) the memory slices live at the nx+1 cell midpoints.
Gradients map nodes to midpoints, averages likewise, and every field
carries a diagonal quadrature mass (trapezoid rule, so half weights at
included endpoints).  Evaluating strains at midpoints makes the
assembled stencils the usual second-order centered ones (interior rows
(1,-2,1)/h^2, Neumann rows the ghost-reflection stencil), but the scheme
also inherits exact summation-by-parts identities, so the discrete
energy is a genuine Lyapunov function: d/dt E equals the upwind memory
form (nonpositive) minus beta ||q||^2 in exact arithmetic, not merely up
to truncation error.

The memory direction is a uniform grid on [0, S_max] with first-order
upwind transport and product-trapezoid quadrature weights (exact for the
exponential kernel times piecewise-linear functions).  Those weights
satisfy W_{k+1} = exp(-c ds) W_k exactly, which is what the discrete
dissipativity argument needs.

Exact memory is the same ladder with one slice (exact_memory_grid): at
ds = 1/c and s_1 = 1/c the weight W_1 = e/c gives W_1 g(s_1) = g0, the
slice obeys eta_1' = J x_F - c eta_1, and m = g0 eta_1 is the Dafermos
history integral int g(s) eta(s) ds, whose transfer g0/(z + c) is that
of the continuum.  So every assembly, spectrum and solve below takes
exact memory with no code of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .kernel import KernelSpec, evaluate, total_mass, truncation_length, validate_hypotheses
from .model import BoundaryCondition, PhysicalParams

# Tail ratio g(S_max)/g(0) at which the history grid is truncated.
TRUNC_TOL = 1e-8
# Absolute tolerance of the kernel-mass reproduction check.
MASS_CHECK_TOL = 1e-6


# =====================================================================
# Grids
# =====================================================================

@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on [0, L] with nx interior nodes, h = L/(nx+1)."""

    nx: int
    length: float
    h: float

    @property
    def nodes_dirichlet(self) -> np.ndarray:
        """Interior nodes x_1 .. x_nx (pinned ends not stored)."""
        return self.h * np.arange(1, self.nx + 1)

    @property
    def nodes_neumann(self) -> np.ndarray:
        """All nodes x_0 .. x_{nx+1} including the free ends."""
        return self.h * np.arange(0, self.nx + 2)

    @property
    def midpoints(self) -> np.ndarray:
        return self.h * (np.arange(0, self.nx + 1) + 0.5)


def build_spatial_grid(length: float, nx: int) -> SpatialGrid:
    if not (np.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be finite and > 0, got {length}")
    if nx < 4:
        raise ValueError(f"need at least 4 interior nodes, got nx = {nx}")
    return SpatialGrid(nx=int(nx), length=float(length), h=float(length) / (nx + 1))


@dataclass(frozen=True)
class MemoryGrid:
    """Uniform history grid s_0 .. s_ns on [0, S_max].

    weights[j] is the quadrature weight of node j: sum_j weights[j] g(s_j)
    reproduces the kernel mass g0 to MASS_CHECK_TOL.  State vectors carry
    the slices k = 1 .. ns only (the s = 0 slice vanishes identically).
    """

    ns: int
    ds: float
    s_max: float
    s: np.ndarray
    weights: np.ndarray
    mass_error: float


def build_memory_grid(kernel: KernelSpec, ns: int = 32) -> MemoryGrid:
    """History grid plus quadrature weights for the given kernel.

    The weights are product-trapezoid: W_j = integral of g times the hat
    function of node j, evaluated in closed form, then divided by g(s_j).
    Plain trapezoid weights would miss the mass check by O(ds^2) of the
    kernel curvature, which at ns = 64 is three orders too coarse.
    """
    if ns < 8:
        raise ValueError(f"need at least 8 history intervals, got ns = {ns}")
    s_max = truncation_length(kernel, TRUNC_TOL)
    ns = int(ns)
    ds = s_max / ns
    s = np.linspace(0.0, s_max, ns + 1)

    if kernel.a == 0.0:
        weights = np.full(ns + 1, ds)
        weights[0] = weights[-1] = 0.5 * ds
        return MemoryGrid(ns=ns, ds=ds, s_max=s_max, s=s, weights=weights, mass_error=0.0)

    c = kernel.c
    decay = np.exp(-c * s)
    # Per interval [s_k, s_{k+1}]: a0 = int exp(-c s), a1 = int (s - s_k) exp(-c s).
    a0 = decay[:-1] * (-np.expm1(-c * ds)) / c
    a1 = -ds * decay[1:] / c + a0 / c
    hat_int = np.zeros(ns + 1)
    np.add.at(hat_int, np.arange(ns), kernel.a * (a0 - a1 / ds))
    np.add.at(hat_int, np.arange(1, ns + 1), kernel.a * (a1 / ds))
    g0 = total_mass(kernel)
    # an amplitude whose products underflow gives 0/0 (or x/0) weights and
    # a NaN (or inf) mass error, which the check refuses; numpy stays quiet
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = hat_int / (kernel.a * decay)
        mass_error = float(abs(np.sum(weights * kernel.a * decay) - g0))
    if not mass_error <= MASS_CHECK_TOL * max(1.0, g0):
        raise ValueError(
            f"memory quadrature mass check failed: |sum w g - g0| = {mass_error:.3e} "
            f"exceeds {MASS_CHECK_TOL * max(1.0, g0):.3e}; refine ns"
        )
    return MemoryGrid(ns=ns, ds=ds, s_max=s_max, s=s, weights=weights, mass_error=mass_error)


def exact_memory_grid(kernel: KernelSpec) -> MemoryGrid:
    """The one-slice history grid on which the ladder is exact memory.

    ds = s_1 = 1/c and W_1 = e/c, so W_1 g(s_1) = g0 for every a: the
    memory transfer w L(z)^-1 1 is g0/(z + c), the continuum's
    int g(s) (1 - exp(-z s)) / z ds.  The s = 0 node carries no weight.
    """
    s, weights = np.array([0.0, 1.0 / kernel.c]), np.array([0.0, np.e / kernel.c])
    mass_error = float(abs(weights @ evaluate(kernel, s) - total_mass(kernel)))
    return MemoryGrid(ns=1, ds=s[1], s_max=s[1], s=s, weights=weights, mass_error=mass_error)


# =====================================================================
# Per-field operators
# =====================================================================

def _ops_neumann(nx: int, h: float):
    """(gradient, average, mass) for a field with free (derivative) ends.

    End values are unknowns; their mass is the half trapezoid weight,
    which makes the assembled end row of grad^T M grad coincide with the
    ghost-reflection Neumann stencil (2 u_0 - 2 u_1)/h^2.
    """
    n = nx + 2
    m_idx = np.arange(nx + 1)
    rows = np.concatenate([m_idx, m_idx])
    cols = np.concatenate([m_idx, m_idx + 1])
    gv = np.concatenate([np.full(nx + 1, -1.0 / h), np.full(nx + 1, 1.0 / h)])
    av = np.full(2 * (nx + 1), 0.5)
    grad = sp.csr_matrix((gv, (rows, cols)), shape=(nx + 1, n))
    avg = sp.csr_matrix((av, (rows, cols)), shape=(nx + 1, n))
    mass = np.full(n, h)
    mass[0] = mass[-1] = 0.5 * h
    return grad, avg, mass


def _ops_dirichlet(nx: int, h: float):
    """(gradient, average, mass) for a field pinned to zero at both ends.

    The free stencil with the end values dropped: the field stores
    interior values only, and the zero ends vanish from the first and
    last midpoint rows.
    """
    grad, avg, mass = _ops_neumann(nx, h)
    return grad[:, 1:-1], avg[:, 1:-1], mass[1:-1]


def _place_blocks(dim: int, blocks) -> sp.csr_matrix:
    """The dim x dim CSR matrix holding each (row indices, column indices, block)."""
    index = np.arange(dim)
    rows, cols, vals = [], [], []
    for r, c, block in blocks:
        block = sp.coo_matrix(block)
        r, c = index[r], index[c]
        assert block.shape == (r.size, c.size)
        rows.append(r[block.row])
        cols.append(c[block.col])
        vals.append(block.data)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )


# =====================================================================
# Assembled generator
# =====================================================================

@dataclass
class Generator:
    """Semi-discrete system u' = A u with energy E(u) = u^T B u / 2.

    The state is the front (positions, velocities, theta and q) in node
    order, then the history ladder.  Node order sorts the front stably by
    coordinate, so the unknowns of one node (or of one midpoint) sit side
    by side in field order; every coupling of the front reaches one node
    over at most, so A and B restricted to the front are banded.  layout
    maps each front field to its state indices, in increasing coordinate,
    and eta to the slice [n_front, dim): ns slices, slice-major.  Memory
    slices store nodal values of psi on Dirichlet shear ends and midpoint
    x-gradients of psi on Neumann shear ends.
    """

    params: PhysicalParams
    kernel: KernelSpec
    bc: BoundaryCondition
    grid: SpatialGrid
    mgrid: MemoryGrid
    A: sp.csr_matrix
    B: sp.csr_matrix
    layout: dict[str, np.ndarray | slice]
    include_w: bool
    n_eta: int
    slice_weights: np.ndarray    # W_k, k = 1..ns (empty when a = 0)
    slice_force: sp.csr_matrix   # F: force of one unit-weight slice on dpsi (n_psi x n_eta, n_psi x 0 when a = 0)
    slice_inject: sp.csr_matrix  # J: dpsi injected into a slice (n_eta x n_psi, 0 x n_psi when a = 0)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def ns_active(self) -> int:
        return len(self.slice_weights)

    @property
    def n_front(self) -> int:
        """Length of the front, the state prefix ahead of the history ladder."""
        return self.dim - self.ns_active * self.n_eta

    @cached_property
    def damping(self) -> dict[str, sp.csr_matrix]:
        """(B A)_XX for each damped field X present: the history ladder eta and the heat flux q.

        Every other block of B A + (B A)^T cancels, so u^T B A u is the sum
        of x^T (B A)_XX x over these fields.
        """
        return {x: (self.B[i] @ self.A[:, i]).tocsr() for x, i in self.layout.items() if x in ("eta", "q")}

    @cached_property
    def front_blocks(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """(A_FF, F J placed on the dpsi rows and columns): the two fixed parts of T(z)."""
        nf, dpsi = self.n_front, self.layout["dpsi"]
        return self.A[:nf, :nf], _place_blocks(nf, [(dpsi, dpsi, self.slice_force @ self.slice_inject)])

    def front_operator(self, z: complex) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """(T(z), T'(z)): z I - A with its history ladder eliminated.

        The front is the state prefix ahead of the ladder (positions,
        velocities, theta and q), held in node order, so A_FF =
        A[:n_front, :n_front], F J and T(z) are banded: no entry of T(z)
        lies more than 13 places off its diagonal on any variant.  The
        history block of z I - A is kron(L(z), I) with L(z) = (z + 1/ds) I
        - (1/ds) N, and it meets the front only through -kron(1, J) and
        -kron(w^T, F), with F = slice_force and J = slice_inject on the
        dpsi rows and columns.  Eliminating it leaves

            T(z) = z I - A_FF - sigma(z) F J,    T'(z) = I - sigma'(z) F J,

        with sigma(z) = w^T L(z)^-1 1 the ladder's memory transfer function
        and sigma'(z) = -w^T L(z)^-2 1.  Without memory F and J are empty
        and T(z) is z I - A.  Off z = -1/ds, z is an eigenvalue of A
        exactly when T(z) is singular.
        """
        a_ff, fj = self.front_blocks
        w, ds = self.slice_weights, self.mgrid.ds
        slices = SliceSolver(z + 1.0 / ds, 1.0 / ds, w.size)
        b = slices.solve(np.ones((w.size, 1)))
        sigma, slope = w @ b[:, 0], -(w @ slices.solve(b)[:, 0])
        eye = sp.identity(self.n_front)
        return z * eye - a_ff - sigma * fj, eye - slope * fj

    def on_memory_grid(self, mgrid: MemoryGrid) -> Generator:
        """The same variant (include_w kept) reassembled on another history grid."""
        return _assemble(self.params, self.kernel, self.bc, self.grid, mgrid, self.include_w)


def _position_fields(bc: BoundaryCondition, include_w: bool) -> list[tuple[str, bool]]:
    """Ordered (name, is_neumann) pairs of the position fields."""
    fields = [("phi", False), ("psi", bc.psi_neumann)]
    if include_w:
        fields.append(("w", bc.w_neumann))
    return fields


# Parity of each field under x -> L - x: the rotation and the axial
# displacement are odd, and so is the heat flux, a directed quantity.
_MIRROR_SIGN = {"phi": 1.0, "psi": -1.0, "w": -1.0, "theta": 1.0, "q": -1.0}


def reflection(gen: Generator) -> tuple[np.ndarray, np.ndarray]:
    """(perm, sign) of the signed mirror x -> L - x: (P u)[i] = sign[i] * u[perm[i]].

    Every field's nodes and midpoints are symmetric about L/2, so the
    mirror reverses each field's indices (each history slice on its own).
    Velocities take the sign of their field, nodal history that of psi,
    and gradient history that of psi_x.  P is an involution, and every
    assembled A and B commute with it.
    """
    sign = dict(_MIRROR_SIGN)
    for name, _ in _position_fields(gen.bc, gen.include_w):
        sign["d" + name] = sign[name]
    sign["eta"] = 1.0 if gen.bc.psi_neumann else -1.0
    perm = np.arange(gen.dim)
    signs = np.empty(gen.dim)
    for name, index in gen.layout.items():
        width = gen.n_eta if name == "eta" else index.size
        perm[index] = perm[index].reshape(-1, width)[:, ::-1].ravel()
        signs[index] = sign[name]
    return perm, signs


def assemble_generator(
    params: PhysicalParams,
    kernel: KernelSpec,
    bc: BoundaryCondition,
    grid: SpatialGrid,
    mgrid: MemoryGrid,
) -> Generator:
    """Assemble the full first-order system for the given variant."""
    return _assemble(params, kernel, bc, grid, mgrid, include_w=True)


def assemble_timoshenko_generator(
    params: PhysicalParams,
    kernel: KernelSpec,
    grid: SpatialGrid,
    mgrid: MemoryGrid,
) -> Generator:
    """Two-field assembly for the straight beam (ell = 0, elastic).

    At zero curvature the longitudinal motion decouples exactly; this
    constructor drops it so spectra can be compared against the
    characteristic equation without the undamped longitudinal modes.
    """
    if params.ell != 0.0:
        raise ValueError("two-field assembly requires ell = 0")
    if params.thermal:
        raise ValueError("two-field assembly is for the elastic system")
    return _assemble(params, kernel, BoundaryCondition.DDD_ELASTIC, grid, mgrid, include_w=False)


def _assemble(params, kernel, bc, grid, mgrid, include_w):
    bc.check_compatible(params)
    hyp = validate_hypotheses(kernel, params.k2)
    if not hyp.ok:
        raise ValueError(
            f"cannot assemble: kernel mass {total_mass(kernel)} leaves no residual "
            f"shear stiffness (k2 = {params.k2})"
        )
    if params.thermal and params.tau == 0.0:
        raise ValueError("thermal assembly requires a positive relaxation time tau")

    nx, h = grid.nx, grid.h
    p = params
    k2t = p.k2 - total_mass(kernel)

    ops_d = _ops_dirichlet(nx, h)
    ops_n = _ops_neumann(nx, h)
    m_mid = np.full(nx + 1, h)

    fields = _position_fields(bc, include_w)
    grads, avgs, masses, dens = {}, {}, {}, {}
    for name, neumann in fields:
        g_, a_, m_ = ops_n if neumann else ops_d
        grads[name], avgs[name], masses[name] = g_, a_, m_
        dens[name] = p.rho2 if name == "psi" else p.rho1
    n_pos = sum(masses[name].size for name, _ in fields)

    # --- strain map: rows S1 (shear), S2 (bending), S3 (longitudinal) ---
    z = None
    if include_w:
        strain_rows = [
            [grads["phi"], avgs["psi"], p.ell * avgs["w"]],
            [z, grads["psi"], z],
            [-p.ell * avgs["phi"], z, grads["w"]],
        ]
        strain_weights = np.concatenate([p.k1 * m_mid, k2t * m_mid, p.k3 * m_mid])
    else:
        strain_rows = [
            [grads["phi"], avgs["psi"]],
            [z, grads["psi"]],
        ]
        strain_weights = np.concatenate([p.k1 * m_mid, k2t * m_mid])
    strain = sp.bmat(strain_rows, format="csr")
    k_pos = (strain.T @ sp.diags(strain_weights) @ strain).tocsr()

    mass_vel = np.concatenate([dens[name] * masses[name] for name, _ in fields])
    inv_mass_vel = sp.diags(1.0 / mass_vel)
    f_pos = (-inv_mass_vel @ k_pos).tocsr()

    # --- memory block ---
    ns = mgrid.ns
    w_slices = mgrid.weights[1:] * evaluate(kernel, mgrid.s[1:]) if kernel.a > 0.0 else np.zeros(0)
    has_memory = w_slices.size > 0
    g_psi = grads["psi"]
    # without memory the ladder is empty: F is n_psi x 0 and J is 0 x n_psi
    n_psi = masses["psi"].size
    n_eta, force_one, inject = 0, sp.csr_matrix((n_psi, 0)), sp.csr_matrix((0, n_psi))
    if has_memory:
        if bc.psi_neumann:
            n_eta = nx + 1
            gram = sp.diags(m_mid).tocsr()
            # force of one unit-weight slice on the shear velocity
            force_one = (-sp.diags(1.0 / (p.rho2 * masses["psi"])) @ (g_psi.T @ sp.diags(m_mid))).tocsr()
            inject = g_psi  # d/dt slice picks up grad of psi_t
        else:
            n_eta = masses["psi"].size
            gram = (g_psi.T @ sp.diags(m_mid) @ g_psi).tocsr()
            force_one = (-sp.diags(1.0 / (p.rho2 * masses["psi"])) @ gram).tocsr()
            inject = sp.identity(n_eta, format="csr")
        transport = sp.diags(
            [np.full(ns, -1.0 / mgrid.ds), np.full(ns - 1, 1.0 / mgrid.ds)],
            [0, -1],
        )
        a_eta_eta = sp.kron(transport, sp.identity(n_eta), format="csr")
        a_eta_vel_psi = sp.kron(np.ones((ns, 1)), inject, format="csr")
        a_vel_psi_eta = sp.kron(w_slices[np.newaxis, :], force_one, format="csr")
        b_eta = sp.kron(sp.diags(w_slices), gram, format="csr")

    # --- thermal block ---
    thermal = p.thermal
    if thermal:
        g_th, avg_th, mass_th = ops_d  # theta is Dirichlet in every variant
        n_q = nx + 1
        inv_mass_th = sp.diags(1.0 / (p.rho3 * mass_th))
        a_th_q = (inv_mass_th @ g_th.T @ sp.diags(m_mid)).tocsr()
        a_th_vel_psi = (-p.delta * inv_mass_th @ avg_th.T @ sp.diags(m_mid) @ g_psi).tocsr()
        a_vel_psi_th = (
            p.delta * sp.diags(1.0 / (p.rho2 * masses["psi"])) @ g_psi.T @ sp.diags(m_mid) @ avg_th
        ).tocsr()
        a_q_th = (-1.0 / p.tau) * g_th
        a_q_q = sp.diags(np.full(n_q, -p.beta / p.tau))

    # --- state layout: the front in node order, then the history ladder ---
    coords = _field_coordinates(grid, fields, thermal)
    x = np.concatenate(list(coords.values()))
    rank = np.empty(x.size, dtype=np.intp)
    rank[np.argsort(x, kind="stable")] = np.arange(x.size)
    layout = dict(zip(coords, np.split(rank, np.cumsum([c.size for c in coords.values()])[:-1])))
    dim = x.size
    if has_memory:
        layout["eta"] = slice(dim, dim + ns * n_eta)
        dim += ns * n_eta

    # --- place the blocks of A and B by their layout indices ---
    pos = np.concatenate([layout[name] for name, _ in fields])
    vel = np.concatenate([layout["d" + name] for name, _ in fields])
    dpsi = layout["dpsi"]
    blocks_a = [(pos, vel, sp.identity(n_pos)), (vel, pos, f_pos)]
    blocks_b = [(pos, pos, k_pos), (vel, vel, sp.diags(mass_vel))]
    if has_memory:
        eta = layout["eta"]
        blocks_a += [(dpsi, eta, a_vel_psi_eta), (eta, dpsi, a_eta_vel_psi), (eta, eta, a_eta_eta)]
        blocks_b.append((eta, eta, b_eta))
    if thermal:
        th, q = layout["theta"], layout["q"]
        blocks_a += [
            (dpsi, th, a_vel_psi_th), (th, dpsi, a_th_vel_psi),
            (th, q, a_th_q), (q, th, a_q_th), (q, q, a_q_q),
        ]
        blocks_b += [(th, th, sp.diags(p.rho3 * mass_th)), (q, q, sp.diags(p.tau * m_mid))]
    mat_a = _place_blocks(dim, blocks_a)
    mat_b = _place_blocks(dim, blocks_b)

    return Generator(
        params=params,
        kernel=kernel,
        bc=bc,
        grid=grid,
        mgrid=mgrid,
        A=mat_a,
        B=mat_b,
        layout=layout,
        include_w=include_w,
        n_eta=n_eta,
        slice_weights=np.asarray(w_slices, dtype=float),
        slice_force=force_one,
        slice_inject=inject,
    )


# =====================================================================
# The history ladder, condensed out of z I - A
# =====================================================================

# Most history slices one dense Toeplitz block of L^-1 covers.
SLICE_BLOCK = 64


class SliceSolver:
    """L^-1 along the slice axis for L = d I - o N, N the sub-diagonal shift; d, o may be complex.

    L^-1 is lower-triangular Toeplitz with column p^k / d, p = o / d,
    applied in dense blocks of at most SLICE_BLOCK slices, each chained
    to the last slice before it by e_block = L_m^-1 r_block + p^(j+1) e_(k0-1).
    """

    def __init__(self, diag: complex, off: complex, ns: int):
        p = off / diag
        index = np.arange(min(ns, SLICE_BLOCK))
        lag = index[:, np.newaxis] - index
        self._toeplitz = np.where(lag >= 0, p ** np.abs(lag), 0.0) / diag
        self._carry = p ** np.arange(1, self._toeplitz.shape[0] + 1)[:, np.newaxis]

    def solve(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """L^-1 r along the rows of r, into out when given."""
        out = np.empty(r.shape, np.result_type(r, self._toeplitz)) if out is None else out
        for k0 in range(0, r.shape[0], SLICE_BLOCK):
            n = min(SLICE_BLOCK, r.shape[0] - k0)
            np.matmul(self._toeplitz[:n, :n], r[k0:k0 + n], out=out[k0:k0 + n])
            if k0:
                out[k0:k0 + n] += self._carry[:n] * out[k0 - 1]
        return out


def band_storage(m: sp.spmatrix, lower: bool) -> tuple[np.ndarray, int]:
    """(ab, k): the lower or the upper triangle of m in LAPACK band storage, k its bandwidth.

    Lower: ab[i - j, j] = m[i, j] for i >= j.  Upper: ab[k + i - j, j] =
    m[i, j] for i <= j.  Fortran order, so LAPACK takes ab without a copy.
    """
    m = m.tocoo()
    keep = m.row >= m.col if lower else m.col >= m.row
    row, col = m.row[keep], m.col[keep]
    off = row - col if lower else col - row
    k = int(off.max(initial=0))
    ab = np.zeros((k + 1, m.shape[1]), order="F")
    ab[off if lower else k - off, col] = m.data[keep]
    return ab, k


class ShiftedSolver:
    """x with (z I - A) x = r, or with (z I - A)^H x = r, through the front T(z).

    With the history block of r and x held as (ns, n_eta) arrays and
    L = L(z) acting along the slices, the forward solve is

        x_F = T^-1 (r_F + F c^T r_E),  c = L^-T w,
        x_E = L^-1 (r_E + 1 (J x_F)^T),

    and the adjoint solve, with b = L^-1 1,

        x_F = T^-H (r_F + J^T b-bar^T r_E),
        x_E = L^-H (r_E + w (F^T x_F)^T),

    where L^-H = L(conj z)^-T is the slice solve at conj(z) run over the
    slices in reverse order.  T(z) is factored once by factor, which
    takes T(z) = gen.front_operator(z)[0] in CSC and returns an LU whose
    solve(v) is T^-1 v; the adjoint solve also calls solve(v, "H"), which
    splu's SuperLU serves and simulate.BandLU does not.  A real z takes a
    real r.  The front is the state prefix [0, n_front) of r and x, and F
    and J are dense blocks on its dpsi rows.
    """

    def __init__(self, gen: Generator, z: complex, factor):
        ns, ds = gen.ns_active, gen.mgrid.ds
        self._n_front, self._dpsi = gen.n_front, gen.layout["dpsi"]
        self._shape, self._weights = (ns, gen.n_eta), gen.slice_weights
        self._dtype = np.result_type(z, float)
        self._slices = SliceSolver(z + 1.0 / ds, 1.0 / ds, ns)
        self._slices_conj = SliceSolver(np.conj(z) + 1.0 / ds, 1.0 / ds, ns)
        self._c = self._slices.solve(gen.slice_weights[::-1, np.newaxis])[::-1, 0]
        self._b_conj = self._slices_conj.solve(np.ones((ns, 1)))[:, 0]
        self._lu = factor(gen.front_operator(z)[0].tocsc())
        self._force, self._inject = gen.slice_force.toarray(), gen.slice_inject.toarray()

    def solve(self, r: np.ndarray, adjoint: bool = False) -> np.ndarray:
        nf, dpsi = self._n_front, self._dpsi
        dtype = np.result_type(r, self._dtype)
        r_eta = r[nf:].reshape(self._shape)
        r_front = r[:nf].astype(dtype)
        x = np.empty(r.shape, dtype)
        if adjoint:
            r_front[dpsi] += self._inject.T @ (self._b_conj @ r_eta)
            x_front = self._lu.solve(r_front, "H")
            r_eta = r_eta + np.outer(self._weights, self._force.T @ x_front[dpsi])
            x[nf:] = self._slices_conj.solve(r_eta[::-1])[::-1].ravel()
        else:
            r_front[dpsi] += self._force @ (self._c @ r_eta)
            x_front = self._lu.solve(r_front)
            self._slices.solve(r_eta + self._inject @ x_front[dpsi], out=x[nf:].reshape(self._shape))
        x[:nf] = x_front
        return x


# =====================================================================
# Energy and dissipation
# =====================================================================

def energy(gen: Generator, u: np.ndarray) -> float | np.ndarray:
    """E(u) = u^T B u / 2 of a real state, or of each row of an (m, dim) block."""
    cols = np.ascontiguousarray(np.asarray(u).T)
    e = 0.5 * _pair(cols, gen.B @ cols)
    return float(e) if cols.ndim == 1 else e


def dissipation_rates(gen: Generator, u: np.ndarray):
    """(memory rate, heat rate): the exact split of d/dt E along the flow.

    Takes a real state, or an (m, dim) block of states and then returns
    one array per rate with a row per state.  Each rate is x^T (B A)_XX x
    with (B A)_XX = Generator.damping[X], X the history ladder eta or the
    heat flux q (rate 0 when absent).  The memory block is kron(diag(w)
    (N - I) / ds, K), N the slice shift and K the per-slice Gram, whose
    form summation by parts in s turns into the discrete (1/2) int int g'
    |eta_x|^2, -(1/(2 ds)) kron(diag(w - w_next) + Delta^T diag(w) Delta, K):
    nonpositive, since the weights w decrease.  The heat block is -beta
    times the midpoint mass.  The rates sum to <A u, u>_B exactly.
    """
    cols = np.ascontiguousarray(np.asarray(u).T)
    rates = dict.fromkeys(("eta", "q"), np.zeros(cols.shape[1:]))
    for name, block in gen.damping.items():
        x = cols[gen.layout[name]]
        rates[name] = _pair(x, block @ x)
    if cols.ndim == 1:
        return float(rates["eta"]), float(rates["q"])
    return rates["eta"], rates["q"]


def _pair(cols: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Column-wise inner products of two (n,) or (n, m) arrays."""
    return np.einsum("i...,i...->...", cols, image)


def coordinates(gen: Generator) -> dict[str, np.ndarray]:
    """Physical coordinates of each stored field outside the history ladder."""
    return _field_coordinates(gen.grid, _position_fields(gen.bc, gen.include_w), gen.params.thermal)


def _field_coordinates(g: SpatialGrid, fields, thermal: bool) -> dict[str, np.ndarray]:
    """Coordinates of the front fields in field order: positions, velocities, theta, q."""
    out = {name: g.nodes_neumann if neumann else g.nodes_dirichlet for name, neumann in fields}
    out.update({"d" + name: out[name] for name, _ in fields})
    if thermal:
        out["theta"], out["q"] = g.nodes_dirichlet, g.midpoints
    return out
