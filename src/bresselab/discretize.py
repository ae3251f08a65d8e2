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
    """The dim x dim CSR matrix holding each (row slice, column slice, block)."""
    rows, cols, vals = [], [], []
    for r, c, block in blocks:
        block = sp.coo_matrix(block)
        assert block.shape == (r.stop - r.start, c.stop - c.start)
        rows.append(block.row + r.start)
        cols.append(block.col + c.start)
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

    layout maps field names to slices of the state vector; eta is one
    contiguous block of ns slices, slice-major.  eta_rep records whether
    memory slices store nodal values ("nodal", Dirichlet shear ends) or
    midpoint x-gradients ("gradient", Neumann shear ends).
    """

    params: PhysicalParams
    kernel: KernelSpec
    bc: BoundaryCondition
    grid: SpatialGrid
    mgrid: MemoryGrid
    A: sp.csr_matrix
    B: sp.csr_matrix
    layout: dict[str, slice]
    sizes: dict[str, int]
    eta_rep: str
    include_w: bool
    n_eta: int
    slice_weights: np.ndarray          # W_k, k = 1..ns (empty when a = 0)
    slice_energy: sp.csr_matrix | None  # per-slice Gram of the memory term
    slice_force: sp.csr_matrix | None   # F: force of one unit-weight slice on dpsi (n_psi x n_eta)
    slice_inject: sp.csr_matrix | None  # J: dpsi injected into a slice (n_eta x n_psi)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def ns_active(self) -> int:
        return len(self.slice_weights)

    @cached_property
    def memory_form(self) -> sp.csr_matrix:
        """D on the history block, with the memory rate eta^T D eta:

            D = -(1/(2 ds)) kron(diag(w - w_next) + Delta^T diag(w) Delta, K),

        where w_next shifts the slice weights up by one slice (0 past the
        last), Delta is the slice difference with eta_0 = 0 and K is
        slice_energy.
        """
        w, ns = self.slice_weights, self.ns_active
        delta = sp.identity(ns) - sp.eye(ns, k=-1)
        across = sp.diags(w - np.append(w[1:], 0.0)) + delta.T @ sp.diags(w) @ delta
        return sp.kron((-0.5 / self.mgrid.ds) * across, self.slice_energy, format="csr")

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
    mirror reverses each field block (each history slice on its own).
    Velocities take the sign of their field, nodal history that of psi,
    and gradient history that of psi_x.  P is an involution, and every
    assembled A and B commute with it.
    """
    sign = dict(_MIRROR_SIGN)
    for name, _ in _position_fields(gen.bc, gen.include_w):
        sign["d" + name] = sign[name]
    sign["eta"] = -1.0 if gen.eta_rep == "nodal" else 1.0
    perm = np.arange(gen.dim)
    signs = np.empty(gen.dim)
    for name, sl in gen.layout.items():
        width = gen.n_eta if name == "eta" else sl.stop - sl.start
        perm[sl] = perm[sl].reshape(-1, width)[:, ::-1].ravel()
        signs[sl] = sign[name]
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
    n_of = {name: masses[name].size for name, _ in fields}
    n_pos = sum(n_of.values())

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
    eta_rep = "gradient" if bc.psi_neumann else "nodal"
    n_eta, slice_energy, force_one, inject = 0, None, None, None
    if has_memory:
        if bc.psi_neumann:
            n_eta = nx + 1
            slice_energy = sp.diags(m_mid).tocsr()
            # force of one unit-weight slice on the shear velocity
            force_one = (-sp.diags(1.0 / (p.rho2 * masses["psi"])) @ (g_psi.T @ sp.diags(m_mid))).tocsr()
            inject = g_psi  # d/dt slice picks up grad of psi_t
        else:
            n_eta = n_of["psi"]
            slice_energy = (g_psi.T @ sp.diags(m_mid) @ g_psi).tocsr()
            force_one = (-sp.diags(1.0 / (p.rho2 * masses["psi"])) @ slice_energy).tocsr()
            inject = sp.identity(n_eta, format="csr")
        transport = sp.diags(
            [np.full(ns, -1.0 / mgrid.ds), np.full(ns - 1, 1.0 / mgrid.ds)],
            [0, -1],
        )
        a_eta_eta = sp.kron(transport, sp.identity(n_eta), format="csr")
        a_eta_vel_psi = sp.kron(np.ones((ns, 1)), inject, format="csr")
        a_vel_psi_eta = sp.kron(w_slices[np.newaxis, :], force_one, format="csr")
        b_eta = sp.kron(sp.diags(w_slices), slice_energy, format="csr")

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

    # --- state layout ---
    sizes = {name: n_of[name] for name, _ in fields}
    sizes.update({"d" + name: n_of[name] for name, _ in fields})
    if has_memory:
        sizes["eta"] = ns * n_eta
    if thermal:
        sizes["theta"], sizes["q"] = nx, n_q
    layout, off = {}, 0
    for name, size in sizes.items():
        layout[name] = slice(off, off + size)
        off += size
    dim = off

    # --- place the blocks of A and B by their layout slices ---
    pos, vel = slice(0, n_pos), slice(n_pos, 2 * n_pos)
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
        sizes=sizes,
        eta_rep=eta_rep,
        include_w=include_w,
        n_eta=n_eta,
        slice_weights=np.asarray(w_slices, dtype=float),
        slice_energy=slice_energy,
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


def front_order(gen: Generator) -> np.ndarray:
    """The state indices outside the history ladder, in node order.

    Stably sorted by coordinate, so the unknowns of one node (or of one
    midpoint) sit side by side in layout order.  Every coupling of the
    front reaches one node over at most, so a front operator in this
    order is banded: no entry of T(z) lies more than 13 places off its
    diagonal on any variant.
    """
    eta = gen.layout.get("eta", slice(0, 0))
    coords = coordinates(gen)
    x = np.empty(gen.dim)
    for name, sl in gen.layout.items():
        if name != "eta":
            x[sl] = coords[name]
    free = np.r_[0:eta.start, eta.stop:gen.dim]
    return free[np.argsort(x[free], kind="stable")]


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


class CondensedFront:
    """z I - A with its history ladder eliminated: the front operator T(z).

    The front is every entry outside the ladder (positions, velocities,
    theta and q), held in node order: index is front_order(gen), and
    a_ff, fj and T(z) are assembled in that order, so T(z) is banded.
    dpsi holds the front positions of the shear velocities.  The history
    block of z I - A is kron(L(z), I) with L(z) = (z + 1/ds) I - (1/ds) N,
    and it meets the front only through -kron(1, J) and -kron(w^T, F),
    with F = gen.slice_force and J = gen.slice_inject on the dpsi rows
    and columns.  Eliminating it leaves

        T(z) = z I - A_FF - sigma(z) F J,    T'(z) = I - sigma'(z) F J,

    with sigma(z) = w^T L(z)^-1 1 the ladder's memory transfer function.
    Off z = -1/ds, z is an eigenvalue of A exactly when T(z) is singular.
    """

    def __init__(self, gen: Generator):
        self.weights, self.ds, self.n_eta = gen.slice_weights, gen.mgrid.ds, gen.n_eta
        self.eta, self.index = gen.layout.get("eta", slice(0, 0)), front_order(gen)
        # dpsi precedes eta in every layout, so its state index is its rank in the front
        self.dpsi = np.argsort(self.index)[gen.layout["dpsi"]]
        self.a_ff = gen.A[self.index][:, self.index]
        n_psi = self.dpsi.size
        self.force, self.inject = (
            (gen.slice_force, gen.slice_inject) if self.n_eta
            else (sp.csr_matrix((n_psi, 0)), sp.csr_matrix((0, n_psi)))
        )
        fj = (self.force @ self.inject).tocoo()
        self.fj = sp.csr_matrix((fj.data, (self.dpsi[fj.row], self.dpsi[fj.col])), shape=self.a_ff.shape)

    def at(self, z: complex) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """(T(z), T'(z)), with sigma'(z) = -w^T L(z)^-2 1."""
        slices = SliceSolver(z + 1.0 / self.ds, 1.0 / self.ds, self.weights.size)
        b = slices.solve(np.ones((self.weights.size, 1)))
        sigma, slope = self.weights @ b[:, 0], -(self.weights @ slices.solve(b)[:, 0])
        eye = sp.identity(self.index.size)
        return z * eye - self.a_ff - sigma * self.fj, eye - slope * self.fj


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
    takes T(z) in CSC and returns an LU with solve(v, trans); a real z
    takes a real r.  F and J are dense blocks on the dpsi rows of the front,
    which is gathered from r by one take and scattered back into x by one
    indexed store.
    """

    def __init__(self, front: CondensedFront, z: complex, factor):
        ns, ds = front.weights.size, front.ds
        self._eta, self._index, self._dpsi = front.eta, front.index, front.dpsi
        self._shape, self._weights = (ns, front.n_eta), front.weights
        self._dtype = np.result_type(z, float)
        self._slices = SliceSolver(z + 1.0 / ds, 1.0 / ds, ns)
        self._slices_conj = SliceSolver(np.conj(z) + 1.0 / ds, 1.0 / ds, ns)
        self._c = self._slices.solve(front.weights[::-1, np.newaxis])[::-1, 0]
        self._b_conj = self._slices_conj.solve(np.ones((ns, 1)))[:, 0]
        self._lu = factor(front.at(z)[0].tocsc())
        self._force, self._inject = front.force.toarray(), front.inject.toarray()

    def solve(self, r: np.ndarray, adjoint: bool = False) -> np.ndarray:
        index, dpsi = self._index, self._dpsi
        dtype = np.result_type(r, self._dtype)
        r_eta = r[self._eta].reshape(self._shape)
        r_front = r.take(index).astype(dtype, copy=False)
        x = np.empty(r.shape, dtype)
        if adjoint:
            r_front[dpsi] += self._inject.T @ (self._b_conj @ r_eta)
            x_front = self._lu.solve(r_front, "H")
            r_eta = r_eta + np.outer(self._weights, self._force.T @ x_front[dpsi])
            x[self._eta] = self._slices_conj.solve(r_eta[::-1])[::-1].ravel()
        else:
            r_front[dpsi] += self._force @ (self._c @ r_eta)
            x_front = self._lu.solve(r_front, "N")
            self._slices.solve(r_eta + self._inject @ x_front[dpsi], out=x[self._eta].reshape(self._shape))
        x[index] = x_front
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
    one array per rate with a row per state.  The memory rate is
    eta^T D eta with D = Generator.memory_form, the discrete realization
    of the continuous dissipation functional (1/2) int int g' |eta_x|^2:
    the upwind transport quadratic form after summation by parts in s.
    The heat rate is -beta ||q||^2 in the midpoint mass.  Both are
    nonpositive by construction and their sum equals <A u, u>_B exactly,
    which is what the energy-balance checks rely on.
    """
    cols = np.ascontiguousarray(np.asarray(u).T)
    mem, heat = np.zeros((2,) + cols.shape[1:])
    if gen.ns_active > 0:
        eta = cols[gen.layout["eta"]]
        mem = _pair(eta, gen.memory_form @ eta)
    if gen.params.thermal:
        q = cols[gen.layout["q"]]
        heat = -gen.params.beta * gen.grid.h * _pair(q, q)
    if cols.ndim == 1:
        return float(mem), float(heat)
    return mem, heat


def _pair(cols: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Column-wise inner products of two (n,) or (n, m) arrays."""
    return np.einsum("i...,i...->...", cols, image)


def coordinates(gen: Generator) -> dict[str, np.ndarray]:
    """Physical coordinates of each stored field outside the history ladder."""
    g = gen.grid
    out: dict[str, np.ndarray] = {}
    for name, neumann in _position_fields(gen.bc, gen.include_w):
        x = g.nodes_neumann if neumann else g.nodes_dirichlet
        out[name] = x
        out["d" + name] = x
    if gen.params.thermal:
        out["theta"] = g.nodes_dirichlet
        out["q"] = g.midpoints
    return out
