"""Discrete spectra and resolvent norms in the energy metric.

The generator is dissipative in the inner product <u, v>_B, so before
calling a dense eigensolver we similarity-transform with the Cholesky
factor of B.  The transformed matrix has numerical range in the closed
left half-plane; QR-algorithm backward stability then guarantees that
computed real parts cannot stray right of the axis by more than a small
multiple of machine precision times ||A||, which is what makes the
"max Re <= 1e-8" checks meaningful rather than wishful.
"""

from __future__ import annotations

import ctypes
import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.linalg._umath_linalg
import scipy.linalg as la
import scipy.linalg._flapack
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .characteristic import branch_seeds
from .discretize import CondensedFront, Generator, ShiftedSolver, band_storage, front_order, reflection
from .model import wave_speeds

# Largest dimension fed to the dense eigensolver.
DENSE_DIM_CAP = 8000

# numpy (dgeev) and scipy (cholesky_banded, dtbtrs) each bundle their own
# OpenBLAS.  dlsym through an extension module's handle also searches the
# libraries it links, so these handles reach the two thread counts.
_NUMPY_BLAS = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
_SCIPY_BLAS = ctypes.CDLL(scipy.linalg._flapack.__file__)

# LAPACK dgeev of numpy's OpenBLAS: 64-bit integers, Fortran calling
# convention with the two character lengths trailing.  ctypes releases
# the GIL for the whole call.
_I64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
_DGEEV = _NUMPY_BLAS.scipy_dgeev_64_
_DGEEV.restype = None
_DGEEV.argtypes = [
    ctypes.c_char_p, ctypes.c_char_p,   # jobvl, jobvr
    _I64, _F64, _I64,                   # n, a, lda
    _F64, _F64,                         # wr, wi
    _F64, _I64, _F64, _I64,             # vl, ldvl, vr, ldvr
    _F64, _I64, _I64,                   # work, lwork, info
    ctypes.c_size_t, ctypes.c_size_t,
]


@dataclass
class SpectrumReport:
    """Eigenvalues of one assembled generator, sorted by |Im| then Re."""

    eigenvalues: np.ndarray
    max_real_part: float
    dim: int
    halves: tuple[tuple[int, bool], ...]  # (dimension, Cholesky-transformed) of the even and the odd half

    @property
    def symmetrized(self) -> bool:
        """Whether every dense half took the Cholesky transform."""
        return all(s for _, s in self.halves)


def _parity_basis(perm: np.ndarray, sign: np.ndarray, parity: float) -> sp.csc_matrix:
    """Orthonormal basis of the eigenspace P v = parity * v of a signed reflection.

    One column (e_i + parity * sign_i * e_perm[i]) / sqrt(2) per swapped
    pair i < perm[i], and e_i for each fixed index whose sign is parity,
    ordered by that lower index i.  A fixed middle index thus sits beside
    the pairs of its own field (or history slice), which keeps the
    restricted Gram matrix banded about as wide as one field.
    """
    idx = np.arange(perm.size)
    lead = np.flatnonzero((idx < perm) | ((idx == perm) & (sign == parity)))
    paired = lead != perm[lead]
    col = np.arange(lead.size)
    r = np.sqrt(0.5)
    rows = np.concatenate([lead, perm[lead[paired]]])
    cols = np.concatenate([col, col[paired]])
    vals = np.concatenate([np.where(paired, r, 1.0), parity * r * sign[lead[paired]]])
    return sp.csc_matrix((vals, (rows, cols)), shape=(perm.size, lead.size))


def _energy_factor(b: sp.spmatrix) -> np.ndarray | None:
    """Upper banded Cholesky factor of a Gram matrix, or None if it is only semidefinite.

    Returns R with B = R^T R in LAPACK's upper band storage (row kd holds
    the diagonal).  The factor counts only when every pivot clears
    r_ii^2 > n * eps * B_ii: LAPACK dpstrf's default rank tolerance on
    the unit-diagonal scaling D^-1/2 B D^-1/2, whose pivots are
    r_ii^2 / B_ii.  So round-off does not decide whether a semidefinite
    matrix passes, and the tiny weights of the last history slices,
    which scale whole diagonal blocks, do not fail a definite one.
    """
    n = b.shape[0]
    ab, kd = band_storage(b, lower=False)
    diag = ab[kd].copy()
    try:
        r = la.cholesky_banded(ab, overwrite_ab=True, lower=False)
    except la.LinAlgError:
        return None
    return r if np.all(r[kd] ** 2 > n * np.finfo(float).eps * diag) else None


def _eigvals_inplace(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the square Fortran-ordered float64 array a, overwriting it.

    LAPACK dgeev without eigenvectors, after a workspace query.  A
    non-finite entry, or a nonzero info from either call, raises
    LinAlgError.
    """
    if not (a.dtype == np.float64 and a.flags.f_contiguous and a.ndim == 2 and a.shape[0] == a.shape[1]):
        raise ValueError("dgeev takes a square Fortran-ordered float64 array")
    # max and min propagate NaN and reach +-inf without an n x n mask
    if not (np.isfinite(a.max()) and np.isfinite(a.min())):
        raise la.LinAlgError("non-finite entry in the matrix handed to dgeev")
    n = a.shape[0]
    dim, lda, one = (np.array([k], dtype=np.int64) for k in (n, max(1, n), 1))
    wr, wi, unused = np.empty(n), np.empty(n), np.empty(1)
    head = (b"N", b"N", dim, a, lda, wr, wi, unused, one, unused, one)
    work, lwork, info = np.empty(1), np.array([-1], dtype=np.int64), np.zeros(1, dtype=np.int64)
    _DGEEV(*head, work, lwork, info, 1, 1)  # workspace query
    if info[0] == 0:
        lwork[0] = int(work[0])
        work = np.empty(lwork[0])
        _DGEEV(*head, work, lwork, info, 1, 1)
    if info[0] != 0:
        raise la.LinAlgError(f"dgeev failed with info = {info[0]}")
    return wr + 1j * wi


def _dense_block(n: int, order: str) -> np.ndarray:
    """An n x n float64 array over a fresh anonymous mapping, zero-filled.

    The mapping is unmapped when the last array over it dies.  A block
    from malloc would raise glibc's mmap threshold when freed, and later
    blocks of its size would come from an arena that keeps them resident.
    """
    return np.ndarray((n, n), dtype=np.float64, buffer=mmap.mmap(-1, 8 * n * n), order=order)


def _half_spectrum(gen: Generator, q: sp.csc_matrix) -> tuple[np.ndarray, tuple[int, bool]]:
    """(eigenvalues, (dimension, Cholesky-transformed)) of the half spanned by q.

    The half Gram matrix B = R^T R is factored banded (_energy_factor).
    R A is formed as a sparse product and made dense once, in C order;
    its transpose, Fortran-ordered in the same memory, becomes
    (R A R^-1)^T = R^-T (R A)^T by one in-place banded triangular solve
    (dtbtrs), and dgeev takes its eigenvalues in place.  So a half holds
    one dense n x n array and nothing else of that size.  When B is only
    semidefinite the half solves A itself, untransformed, in a
    Fortran-ordered block.  The block is an anonymous mapping of its own
    (_dense_block), unmapped when the half returns.
    """
    a = (q.T @ gen.A @ q).tocsr()
    r = _energy_factor(q.T @ gen.B @ q)
    n = a.shape[0]
    if r is None:
        return _eigvals_inplace(a.toarray(out=_dense_block(n, "F"))), (n, False)
    kd = r.shape[0] - 1
    upper = sp.dia_matrix((r[::-1], np.arange(kd + 1)), shape=a.shape).tocsr()
    ra = (upper @ a).toarray(out=_dense_block(n, "C"))
    x, info = lapack.dtbtrs(r, ra.T, uplo="U", trans="T", overwrite_b=1)
    if info != 0:
        raise la.LinAlgError(f"dtbtrs failed with info = {info}")
    return _eigvals_inplace(x), (x.shape[0], True)


def _set_blas_threads(counts: list[int]) -> list[int]:
    """Set the numpy and the scipy OpenBLAS thread counts; returns the previous ones."""
    return [lib.openblas_set_num_threads_local(k) for lib, k in zip((_NUMPY_BLAS, _SCIPY_BLAS), counts)]


def compute_spectrum(gen: Generator) -> SpectrumReport:
    """All eigenvalues of the generator by two half-size dense solves.

    A and B commute with the mirror x -> L - x (discretize.reflection),
    so the spectrum is the union of the spectra of their restrictions to
    the even and the odd subspace; each half costs an eighth of the
    whole solve.  A generator that breaks the mirror is a bug in its
    assembly and raises ValueError.

    The two halves run at the same time on min(2, BLAS thread cap)
    worker threads, each on one BLAS thread: dgeev gains little from a
    second BLAS thread, and two single-threaded solves side by side keep
    both cores busy.  A half holds one dense array of its own size, a
    quarter of a full-size dense matrix, in a mapping of its own
    (_half_spectrum).  The bundled OpenBLAS builds set their thread
    count for the whole process, so it is set to 1 around the pool and
    restored after it.  The pool size is read from the loaded library,
    so --threads 1 solves the halves in turn, and the eigenvalues do not
    depend on the cap.  Leaving the pool waits for both halves, so a half
    that raises cannot cancel the other before a worker picks it up.

    Refuses dimensions beyond DENSE_DIM_CAP; for bigger assemblies,
    refine_modes finds the eigenvalues near given seeds.  A half whose
    energy Gram matrix is only semidefinite (dnnd's odd half, with its
    zero-energy mean mode) skips the transform and the report reads
    symmetrized=False; _energy_factor decides that by a fixed pivot
    tolerance, not by whether round-off lets the factorization through.
    """
    n = gen.dim
    if n > DENSE_DIM_CAP:
        raise ValueError(
            f"dimension {n} exceeds the dense eigensolver cap {DENSE_DIM_CAP}; "
            "refine seeds with refine_modes instead"
        )
    perm, sign = reflection(gen)
    p = sp.csr_matrix((sign, (np.arange(n), perm)), shape=(n, n))
    for name, m in (("A", gen.A), ("B", gen.B)):
        if (p @ m != m @ p).nnz:
            raise ValueError(f"generator matrix {name} does not commute with the mirror x -> L - x")
    bases = [_parity_basis(perm, sign, parity) for parity in (1.0, -1.0)]
    workers = min(2, _NUMPY_BLAS.scipy_openblas_get_num_threads64_())
    saved = _set_blas_threads([1, 1])
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_half_spectrum, gen, q) for q in bases]
        halves = [f.result() for f in futures]
    finally:
        _set_blas_threads(saved)
    vals = np.concatenate([v for v, _ in halves])
    vals = vals[np.lexsort((vals.real, vals.imag, np.abs(vals.imag)))]
    return SpectrumReport(
        eigenvalues=vals,
        max_real_part=float(np.max(vals.real)),
        dim=n,
        halves=tuple(h for _, h in halves),
    )


# Newton steps refine_modes allows one seed, the relative eigenvalue update
# at which it has converged, and the relative gap under which two converged
# seeds reached the same mode.
REFINE_MAX_ITER = 30
REFINE_TOL = 1e-10
MODE_MERGE_RTOL = 1e-8


@dataclass
class ModeRefinement:
    """One refined eigenvalue per seed, in seed order; nothing is dropped."""

    modes: np.ndarray
    residuals: np.ndarray     # ||T(z) x|| / ||x|| at the returned mode and vector
    iterations: np.ndarray
    converged: np.ndarray
    duplicate_of: np.ndarray  # index of an earlier converged seed at the same mode, else -1

    @property
    def distinct(self) -> np.ndarray:
        """The converged modes, each once."""
        return self.modes[self.converged & (self.duplicate_of < 0)]


def refine_modes(gen: Generator, seeds) -> ModeRefinement:
    """Eigenvalues of the generator near each seed, by nonlinear inverse iteration on T(z).

    T(z) has the history ladder condensed out (discretize.CondensedFront),
    so every solve is front-sized and the ladder's transport cluster never
    enters.  Per seed: 4 steps of plain inverse iteration with T(seed) from
    a fixed start vector, then (Ruhe, SIAM J. Numer. Anal. 10, 1973) solve
    T(z) u = T'(z) x, set z <- z - x^H x / x^H u and x <- u / ||u||, until
    the update is at most REFINE_TOL * max(1, |z|).  A seed short of that
    after REFINE_MAX_ITER steps returns its last iterate, not converged.
    """
    front = CondensedFront(gen)
    start = np.random.default_rng(0).standard_normal(front.index.size).astype(complex)
    seeds = np.asarray(seeds, dtype=complex).ravel()
    modes, residuals, iterations = seeds.copy(), np.empty(seeds.size), np.zeros(seeds.size, int)
    converged, duplicate_of = np.zeros(seeds.size, bool), np.full(seeds.size, -1)
    for j, z in enumerate(seeds):
        t, t_prime = front.at(z)
        lu, x = splu(t.tocsc()), start
        for _ in range(4):
            x = lu.solve(x)
            x /= np.linalg.norm(x)
        for iterations[j] in range(1, REFINE_MAX_ITER + 1):
            u = lu.solve(t_prime @ x)
            step = 1.0 / np.vdot(x, u)
            z, x = z - step, u / np.linalg.norm(u)
            t, t_prime = front.at(z)
            converged[j] = abs(step) <= REFINE_TOL * max(1.0, abs(z))
            if converged[j] or not np.isfinite(z):
                break
            lu = splu(t.tocsc())
        modes[j], residuals[j] = z, np.linalg.norm(t @ x)
        same = np.flatnonzero(converged[:j] & (np.abs(modes[:j] - z) <= MODE_MERGE_RTOL * max(1.0, abs(z))))
        if converged[j] and same.size:
            duplicate_of[j] = same[0]
    return ModeRefinement(modes, residuals, iterations, converged, duplicate_of)


# =====================================================================
# Resolvent norms
# =====================================================================

@dataclass
class ResolventScan:
    """||(i lam - A)^-1|| in the energy norm along the imaginary axis."""

    lam: np.ndarray
    inv_sigma_min: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray  # False where a sample stopped at max_iter short of RESOLVENT_RTOL


def resolution_cap(gen: Generator) -> float:
    """Highest frequency the grid resolves: pi * c_min / (2 h)."""
    speeds = list(wave_speeds(gen.params))
    p = gen.params
    if p.thermal and p.tau > 0.0:
        speeds.append(1.0 / (p.rho3 * p.tau))
    return float(0.5 * np.pi * np.sqrt(min(speeds)) / gen.grid.h)


# Fraction of the grid cutoff frequency pi*c/h inside which the REAL
# PARTS of eigenvalues are trusted.  This is tighter than the 0.5 used
# for resolvent scans on purpose: the damping of the indirectly damped
# families travels through one or two midpoint averages whose symbol
# cos(xi h/2) decays toward the cutoff, so a mode at half the cutoff
# already has its decay rate suppressed by cos^4 ~ 0.4 while its
# frequency is still accurate.  At 0.3 the suppression stays above 0.8
# and abscissa ladders converge for uniformly damped configurations.
ABSCISSA_TRUST_FRACTION = 0.3


def abscissa_window(gen: Generator) -> float:
    """|Im| bound inside which eigenvalue real parts are trusted.

    Only families with no damping term in their own evolution equation
    can float arbitrarily close to the axis at high frequency, so the
    window is keyed to the slowest of THOSE wave speeds: vertical and
    longitudinal always, shear only when the memory kernel is off, the
    heat characteristic only when its relaxation damping is off.  Keying
    on the directly damped (slower) families would shrink the window for
    no gain: their modes sit at depth O(1) regardless of frequency.
    """
    p = gen.params
    speeds = [p.k1 / p.rho1, p.k3 / p.rho1]
    if gen.kernel.a == 0.0:
        speeds.append(p.k2 / p.rho2)
    if p.thermal and p.tau > 0.0 and p.beta == 0.0:
        speeds.append(1.0 / (p.rho3 * p.tau))
    c_und = float(np.sqrt(min(speeds)))
    return float(ABSCISSA_TRUST_FRACTION * np.pi * c_und / gen.grid.h)


def windowed_abscissa(gen: Generator, eigenvalues: np.ndarray) -> float:
    """Max real part over eigenvalues within the trusted frequency window.

    Centered second-order stencils lose the cross-field coupling that
    carries damping into the vertical and longitudinal families as the
    wavenumber approaches the grid cutoff (the averaging symbol vanishes
    there), so the raw abscissa of the matrix is dominated by near-cutoff
    modes whose weak decay says nothing about the continuum.  Restricting
    to |Im| below a fixed fraction of the cutoff keeps only modes whose
    decay rates the grid actually resolves.
    """
    cap = abscissa_window(gen)
    sel = eigenvalues[np.abs(eigenvalues.imag) <= cap]
    if len(sel) == 0:
        raise ValueError("no eigenvalues inside the trusted frequency window")
    return float(sel.real.max())


# Relative change of sigma_min^2 between inverse iterations at which a
# resolvent sample counts as converged.
RESOLVENT_RTOL = 1e-4


def energy_cholesky(gen: Generator) -> tuple[np.ndarray, np.ndarray]:
    """(R, p): banded Cholesky factor of B[p][:, p] (_energy_factor) and the order p.

    p is the front in node order (discretize.front_order) followed by the
    history ladder.  B is block-diagonal between the two, and node order
    keeps the front's band a few entries wide, where state order spreads
    it over whole field blocks.  ValueError if B is only semidefinite: a
    zero-energy mode (dnnd's axial mean mode) leaves the energy metric
    undefined, and the fixed pivot rule decides, not whether round-off
    lets a factorization through.
    """
    eta = gen.layout.get("eta", slice(0, 0))
    order = np.r_[front_order(gen), eta.start:eta.stop]
    r = _energy_factor(gen.B[order][:, order])
    if r is None:
        raise ValueError(
            "energy Gram matrix is only semidefinite (zero-energy mode); the resolvent "
            "norm in the energy metric is undefined for this variant"
        )
    return r, order


def resolvent_scan(gen: Generator, lam: np.ndarray, max_iter: int = 400) -> ResolventScan:
    """Energy-norm resolvent along i*lam by inverse iteration.

    For each sample the smallest singular value of C = i lam - A in the
    B-metric is found by inverse iteration on the normal equations:
    y = C^-1 B^-1 C^-H B x.  C^-1 and C^-H are the forward and adjoint
    solves of discretize.ShiftedSolver, so each sample factors only the
    front operator T(i lam); B^-1 is the banded Cholesky factor of
    energy_cholesky, applied in its node order (vectors permuted in and
    out), which refuses a semidefinite B with ValueError.
    Relative accuracy is driven well below 1e-3; iteration counts and a
    converged flag per sample are reported so stagnation is visible.
    """
    lam = np.asarray(lam, dtype=float)
    cap = resolution_cap(gen)
    if np.any(lam > cap * (1.0 + 1e-12)):
        raise ValueError(
            f"requested frequency {lam.max():.6g} exceeds the grid resolution cap {cap:.6g}"
        )
    r, order = energy_cholesky(gen)
    front = CondensedFront(gen)
    a, b = gen.A, gen.B
    n = gen.dim
    rng = np.random.default_rng(1234)
    x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    out = np.empty(lam.size)
    iters = np.empty(lam.size, dtype=int)
    converged = np.zeros(lam.size, dtype=bool)
    for j, lv in enumerate(lam):
        c = ShiftedSolver(front, 1j * lv, splu)
        x = x0.copy()
        x /= np.sqrt(abs(np.vdot(x, b @ x)))
        sig2_old = np.inf
        it = 0
        for it in range(1, max_iter + 1):
            # y = (C^H B C)^-1 B x
            v = c.solve(b @ x, adjoint=True)[order]
            parts = la.cho_solve_banded((r, False), np.column_stack((v.real, v.imag)), check_finite=False)
            v[order] = parts[:, 0] + 1j * parts[:, 1]
            y = c.solve(v)
            norm_y = np.sqrt(abs(np.vdot(y, b @ y)))
            y /= norm_y
            # Rayleigh quotient of the normal operator at y: ||C y||_B^2
            cy = (1j * lv) * y - a @ y
            sig2 = abs(np.vdot(cy, b @ cy))
            if sig2_old < np.inf and abs(sig2 - sig2_old) <= RESOLVENT_RTOL * sig2:
                converged[j] = True
                break
            sig2_old = sig2
            x = y
        out[j] = 1.0 / np.sqrt(sig2)
        iters[j] = it
    return ResolventScan(lam=lam, inv_sigma_min=out, iterations=iters, converged=converged)


def envelope_anchors(
    eigenvalues: np.ndarray,
    lam_min: float,
    lam_max: float,
    n_bands: int = 20,
) -> np.ndarray:
    """Frequencies where the resolvent envelope touches its peaks.

    The resolvent norm along the axis peaks at eigenvalue frequencies,
    with peak height set by the eigenvalue's distance to the axis, and
    the peaks are far narrower than any affordable uniform sample
    spacing (width ~ |Re|, often 1e-4).  A scan that wants to see the
    envelope must therefore place samples at the least-damped
    eigenvalue of each frequency band; everywhere else it reads the
    valley floor between resonances, which is the same for every
    configuration.  Bands are uniform in frequency and must stay wider
    than the modal spacing of the least-damped family (about pi times
    its wave speed over the length); log-spaced bands get narrower than
    one spacing at the low end, and a band that happens to contain only
    heavily damped modes anchors pure noise.  Empty bands are skipped.
    """
    if not (0.0 < lam_min < lam_max):
        raise ValueError(f"need 0 < lam_min < lam_max, got [{lam_min}, {lam_max}]")
    if n_bands < 4:
        raise ValueError(f"need at least 4 bands, got {n_bands}")
    vals = np.asarray(eigenvalues, dtype=complex)
    vals = vals[vals.imag > 0.0]
    edges = np.linspace(lam_min, lam_max, n_bands + 1)
    anchors = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        band = vals[(vals.imag >= lo) & (vals.imag <= hi)]
        if band.size == 0:
            continue
        anchors.append(float(band.imag[np.argmin(np.abs(band.real))]))
    return np.unique(np.asarray(anchors))


@dataclass
class GrowthFit:
    """Power-law fit of the resolvent envelope."""

    exponent: float
    lam: np.ndarray  # frequencies of the fitted samples


def fit_growth_exponent(scan: ResolventScan) -> GrowthFit:
    """Slope of log ||resolvent|| against log lam over the scan's running maximum.

    The growth hypotheses bound the SUP of the resolvent norm up to a
    frequency, a monotone quantity, so the envelope fitted here is the
    running maximum of the peak readings.  Fitting the raw peak heights
    instead would let local damping bumps (frequency stretches where
    every mode is temporarily better damped, real features of coupled
    systems) read as spurious negative slope even when the sup has long
    saturated; the majorant is insensitive to where those bumps fall.
    A shrinking envelope therefore reads as growth exponent 0, which is
    the honest answer for a bounded scan.

    Every sample is read as a peak, so the scan belongs at the envelope
    anchors (see envelope_anchors) inside the trusted frequency window;
    a sample between resonances reads the valley floor instead.
    """
    order = np.argsort(scan.lam)
    lam = scan.lam[order]
    y = np.log(np.maximum.accumulate(scan.inv_sigma_min[order]))
    return GrowthFit(exponent=float(np.polyfit(np.log(lam), y, 1)[0]), lam=lam)


# =====================================================================
# Branch tagging against the characteristic predictions
# =====================================================================

# Relative gap under which the two nearest branch predictions of an
# eigenvalue are too close to tell apart.
BRANCH_AMBIGUITY_RATIO = 0.10


def match_branches(report: SpectrumReport, params, kernel) -> list:
    """Tag eigenvalues with the asymptotic branch whose frequency is nearest.

    Predictions come from the characteristic branch seeds (shear branch
    at n pi sqrt(k2/rho2), longitudinal-wave branch at n pi
    sqrt(k1/rho1), unit length), one per branch past the spectrum's
    highest frequency.  An eigenvalue whose two nearest
    predictions differ by less than BRANCH_AMBIGUITY_RATIO relative to its
    own frequency is tagged None: the match would be a coin flip.
    Returns one (branch, n, predicted_im) or None per eigenvalue, and
    raises ValueError where characteristic.branch_refusal refuses params.
    """
    vals = report.eigenvalues
    cap = np.max(np.abs(vals.imag)) if vals.size else 0.0
    sp0 = np.pi * np.sqrt(params.k2 / params.rho2)
    sp1 = np.pi * np.sqrt(params.k1 / params.rho1)
    n0 = max(1, int(np.ceil(cap / sp0)) + 1)
    n1 = max(1, int(np.ceil(cap / sp1)) + 1)
    preds = []
    for branch, count in ((0, n0), (1, n1)):
        seeds = branch_seeds(params, kernel, range(1, count + 1), branch=branch)
        preds.extend((branch, n, seed.imag) for n, seed in seeds)
    pred_im = np.asarray([p[2] for p in preds])

    tags = []
    for v in vals:
        target = abs(v.imag)
        if target == 0.0:
            tags.append(None)
            continue
        d = np.abs(pred_im - target)
        i1 = int(np.argmin(d))
        d1 = d[i1]
        d[i1] = np.inf
        d2 = float(np.min(d))
        if (d2 - d1) < BRANCH_AMBIGUITY_RATIO * max(target, 1.0):
            tags.append(None)
            continue
        tags.append(preds[i1])
    return tags
