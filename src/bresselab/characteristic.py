"""Characteristic equation of the straight two-field beam (unit length).

With both fields pinned at the ends, eigenvalues of the damped straight
beam are the zeros of a 4x4 boundary determinant built from the four
exponential solutions e^{+-r1 x}, e^{+-r3 x} of the reduced quartic ODE.
The determinant has the closed form det M = -4 rho1 F(lambda) where F
combines sinh/cosh products of r1, r3; F is what gets root-tracked.

Two numerical points matter.  First, the radical pair (r1, r3) is only
defined up to sign; every formula here uses the product r1*r3 of the
actually chosen branches, never an independent square root, so the
closed form holds for any branch choice (both sides are odd under
r1 -> -r1).  Second, |F| grows like |lambda|^6 e^{|Re(r1+-r3)|}; all
evaluations rescale by exp(-scale) with scale = max |Re(r1 +- r3)|, and
a Newton step freezes the scale across its three evaluations so the
correction F/F' is exactly the unscaled one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import KernelSpec, laplace
from .model import PhysicalParams, equal_speed_condition

# Relative discriminant size below which the two root pairs nearly merge
# and the closed form loses accuracy.
DISC_FLAG_RTOL = 1e-8
# Residual |F| relative to max(1, |F(seed)|) at which a Newton root has
# converged, and the Newton steps one seed is allowed.
NEWTON_RTOL = 1e-9
NEWTON_MAX_ITER = 50


def _check_domain(params: PhysicalParams, kernel: KernelSpec, lam: complex) -> complex:
    if params.ell != 0.0:
        raise ValueError("characteristic analysis is for the straight beam (ell = 0)")
    if params.thermal:
        raise ValueError("characteristic analysis is for the elastic system")
    if params.length != 1.0:
        raise ValueError("characteristic analysis assumes unit length")
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda = 0 is outside the characteristic domain")
    if lam.real <= -kernel.c:
        raise ValueError(
            f"lambda must satisfy Re(lambda) > -c = {-kernel.c} for the kernel transform"
        )
    return lam


@dataclass
class CharPoint:
    """All intermediate quantities of one characteristic evaluation.

    F = exp(log_scale) * F_scaled; F itself may overflow for deep real
    parts, F_scaled never does.  disc_near_zero flags a nearly merged
    root pair (the evaluation is returned but not trustworthy).
    """

    lam: complex
    k2bar: complex
    r1: complex
    r3: complex
    f1: complex
    f3: complex
    F: complex
    F_scaled: complex
    log_scale: float
    disc_near_zero: bool


def _radicals(params: PhysicalParams, kernel: KernelSpec, lam: complex):
    p = params
    k2bar = p.k2 - laplace(kernel, lam)
    P = p.rho1 / p.k1
    Q = p.rho2 / k2bar
    disc = (Q - P) ** 2 - 4.0 * p.rho1 / (k2bar * lam ** 2)
    scale = abs(Q - P) ** 2 + abs(4.0 * p.rho1 / (k2bar * lam ** 2))
    near = abs(disc) <= DISC_FLAG_RTOL * scale
    sq = np.sqrt(disc)
    r1 = lam * np.sqrt((P + Q + sq) / 2.0)
    r3 = lam * np.sqrt((P + Q - sq) / 2.0)
    return k2bar, P, Q, r1, r3, near


def _f_pieces(params, kernel, lam, frozen_scale=None):
    """(F_scaled, log_scale, parts) with optionally imposed scale."""
    p = params
    k2bar, P, Q, r1, r3, near = _radicals(params, kernel, lam)
    rp, rm = r1 + r3, r1 - r3
    scale = max(abs(rp.real), abs(rm.real)) if frozen_scale is None else frozen_scale
    ep = np.exp(rp - scale)
    epm = np.exp(-rp - scale)
    em = np.exp(rm - scale)
    emm = np.exp(-rm - scale)
    ss = 0.25 * ((ep + epm) - (em + emm))          # sinh r1 sinh r3, rescaled
    cc = 0.25 * ((ep + epm) + (em + emm))          # cosh r1 cosh r3, rescaled
    one = np.exp(-scale)                            # the constant 1, rescaled
    rprod = r1 * r3 / lam ** 2
    base = (lam ** 6 / p.k1) * (P - Q) ** 2 - (lam ** 4 / k2bar) * (3.0 * P - Q)
    f_scaled = ss * base - (2.0 * lam ** 4 / k2bar) * rprod * (cc - one)
    return f_scaled, scale, (k2bar, P, Q, r1, r3, near)


def char_point(params: PhysicalParams, kernel: KernelSpec, lam: complex) -> CharPoint:
    """Evaluate radicals, boundary traces and F at one lambda."""
    lam = _check_domain(params, kernel, lam)
    f_scaled, scale, (k2bar, P, Q, r1, r3, near) = _f_pieces(params, kernel, lam)

    def f(r):
        return r ** 3 - Q * r * lam ** 2

    with np.errstate(over="ignore"):
        f_val = np.exp(scale) * f_scaled if scale < 700.0 else complex(np.inf, 0.0)
    return CharPoint(
        lam=lam,
        k2bar=k2bar,
        r1=r1,
        r3=r3,
        f1=f(r1),
        f3=f(r3),
        F=f_val,
        F_scaled=f_scaled,
        log_scale=scale,
        disc_near_zero=near,
    )


def characteristic_matrix(params: PhysicalParams, kernel: KernelSpec, lam: complex) -> np.ndarray:
    """The explicit 4x4 boundary matrix (value rows, then conjugate rows).

    Its determinant equals -4 rho1 F(lambda); building it explicitly is
    only reasonable while |Re r| stays moderate, which covers the strip
    where the identity is cross-checked.
    """
    pt = char_point(params, kernel, lam)
    r1, r3, f1, f3 = pt.r1, pt.r3, pt.f1, pt.f3
    e1, e1m, e3, e3m = np.exp(r1), np.exp(-r1), np.exp(r3), np.exp(-r3)
    return np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [e1, e1m, e3, e3m],
            [f1, -f1, f3, -f3],
            [f1 * e1, -f1 * e1m, f3 * e3, -f3 * e3m],
        ],
        dtype=complex,
    )


def boundary_determinant(params: PhysicalParams, kernel: KernelSpec, lam: complex) -> complex:
    return complex(np.linalg.det(characteristic_matrix(params, kernel, lam)))


# =====================================================================
# Branch seeds and Newton refinement
# =====================================================================

def branch_asymptote(params: PhysicalParams, kernel: KernelSpec, branch: int) -> float:
    """Limit of Re(lambda) along a branch: -g(0)/(2 k2) or 0."""
    if branch == 0:
        return -kernel.a / (2.0 * params.k2)
    if branch == 1:
        return 0.0
    raise ValueError(f"branch must be 0 or 1, got {branch}")


def branch_seeds(
    params: PhysicalParams,
    kernel: KernelSpec,
    n_values,
    branch: int,
) -> list[tuple[int, complex]]:
    """High-frequency starting guesses for branch roots.

    Branch 0 rides the shear wave family, i n pi sqrt(k2/rho2) shifted
    left by g(0)/(2 k2); branch 1 rides i n pi sqrt(k1/rho1) and drifts
    back to the axis.  Rejected for equal wave speeds: the two families
    then collide and seeds stop identifying a branch.
    """
    if params.ell != 0.0 or params.thermal or params.length != 1.0:
        raise ValueError("branch seeds are for the straight elastic unit-length beam")
    if equal_speed_condition(params):
        raise ValueError("equal wave speeds: the two asymptotic branches coincide")
    out = []
    for n in n_values:
        n = int(n)
        if n < 1:
            raise ValueError(f"branch index n must be >= 1, got {n}")
        if branch == 0:
            seed = complex(-kernel.a / (2.0 * params.k2), n * np.pi * np.sqrt(params.k2 / params.rho2))
        elif branch == 1:
            seed = complex(0.0, n * np.pi * np.sqrt(params.k1 / params.rho1))
        else:
            raise ValueError(f"branch must be 0 or 1, got {branch}")
        out.append((n, seed))
    return out


@dataclass
class RootResult:
    """Outcome of one Newton run."""

    root: complex
    residual: float          # |F(root)| relative to max(1, |F(seed)|)
    iterations: int
    converged: bool
    basin_escape: bool


def refine_char_root(
    params: PhysicalParams,
    kernel: KernelSpec,
    seed: complex,
) -> RootResult:
    """Newton on F with overflow-safe scaling.

    Works in log magnitude: each iteration evaluates F_scaled at the
    center and at lambda +- eps with the center's frozen scale, so the
    Newton correction equals the unscaled one while every intermediate
    stays O(1).  The residual reported is log-compensated, comparable
    with |F(root)| / max(1, |F(seed)|).
    """
    lam = _check_domain(params, kernel, complex(seed))
    fs_seed, sc_seed, _ = _f_pieces(params, kernel, lam)
    # log |F(seed)| without forming F
    log_f_seed = sc_seed + np.log(max(abs(fs_seed), 1e-300))
    log_target = np.log(NEWTON_RTOL) + max(0.0, log_f_seed)

    it = 0
    cur = lam
    for it in range(1, NEWTON_MAX_ITER + 1):
        fs, sc, _ = _f_pieces(params, kernel, cur)
        log_f = sc + np.log(max(abs(fs), 1e-300))
        if log_f <= log_target:
            resid = float(np.exp(log_f - max(0.0, log_f_seed)))
            return RootResult(cur, resid, it - 1, True, abs(cur - seed) > 1.0)
        eps = 1e-6 * (1.0 + abs(cur))
        fp, _, _ = _f_pieces(params, kernel, cur + eps, frozen_scale=sc)
        fm, _, _ = _f_pieces(params, kernel, cur - eps, frozen_scale=sc)
        deriv = (fp - fm) / (2.0 * eps)
        if deriv == 0:
            break
        step = -fs / deriv
        cur = cur + step
        if cur.real <= -kernel.c:
            # fell out of the transform's half-plane; clamp just inside
            cur = complex(-kernel.c + 1e-9, cur.imag)
        if abs(step) <= 1e-14 * (1.0 + abs(cur)):
            break
    fs, sc, _ = _f_pieces(params, kernel, cur)
    log_f = sc + np.log(max(abs(fs), 1e-300))
    resid = float(np.exp(min(log_f - max(0.0, log_f_seed), 300.0)))
    return RootResult(cur, resid, it, log_f <= log_target, abs(cur - seed) > 1.0)


@dataclass
class BranchRoot:
    branch: int
    n: int
    seed: complex
    root: complex
    residual: float
    iterations: int
    converged: bool
    basin_escape: bool


def track_branch(
    params: PhysicalParams,
    kernel: KernelSpec,
    n_values,
    branch: int,
) -> list[BranchRoot]:
    """Refine every seed of one branch."""
    out = []
    for n, seed in branch_seeds(params, kernel, n_values, branch):
        res = refine_char_root(params, kernel, seed)
        out.append(
            BranchRoot(
                branch=branch,
                n=n,
                seed=seed,
                root=res.root,
                residual=res.residual,
                iterations=res.iterations,
                converged=res.converged,
                basin_escape=res.basin_escape,
            )
        )
    return out


@dataclass
class BranchTrend:
    """Deviation of tracked roots from the branch asymptote."""

    branch: int
    n_values: list[int]
    deviations: list[float]
    envelope: list[float]
    monotone_ok: bool
    final_deviation: float


def branch_convergence(roots: list[BranchRoot], params, kernel) -> BranchTrend:
    """Check |Re(root) - asymptote| shrinks along the branch.

    The pointwise deviation sequence is NOT monotone for any faithful
    root finder: whenever n pi sqrt(k2/rho2) and m pi sqrt(k1/rho1)
    nearly coincide the two root families hybridize and the deviation
    spikes by an order of magnitude before relaxing (an avoided
    crossing, present in the exact roots).  The trend is therefore
    summarized on a windowed-minimum envelope: the index range is split
    into three contiguous blocks and each block contributes its smallest
    deviation.  Decreasing up to 10% jitter means each envelope value
    may exceed its predecessor by at most 10% and the last must lie
    strictly below the first (a flat sequence does not pass).
    """
    if not roots:
        raise ValueError("no roots to summarize")
    branch = roots[0].branch
    if any(r.branch != branch for r in roots):
        raise ValueError("mixed branches in one trend check")
    roots = sorted(roots, key=lambda r: r.n)
    target = branch_asymptote(params, kernel, branch)
    devs = [abs(r.root.real - target) for r in roots]
    if len(devs) >= 6:
        third = len(devs) // 3
        blocks = [devs[:third], devs[third : 2 * third], devs[2 * third :]]
        env = [min(b) for b in blocks]
    else:
        env = list(devs)
    ok = all(env[i + 1] <= 1.10 * env[i] for i in range(len(env) - 1))
    ok = ok and env[-1] < env[0]
    return BranchTrend(
        branch=branch,
        n_values=[r.n for r in roots],
        deviations=devs,
        envelope=env,
        monotone_ok=bool(ok),
        final_deviation=devs[-1],
    )
