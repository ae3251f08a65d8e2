"""Exponential fading-memory kernels g(s) = a exp(-c s).

The single-exponential family is the workhorse kernel for the shear
memory term: it satisfies g' = -c g exactly (so the admissibility
inequality g' <= -c g is sharp), |g''| = c^2 g, and every derived
quantity (total mass, Laplace transform, truncated moments) has a closed
form.  That makes it the right backbone for cross-checking the discrete
memory machinery against exact expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelSpec:
    """Kernel g(s) = a * exp(-c * s) on s >= 0.

    a is the amplitude (a >= 0; a = 0 switches the memory term off and
    is the conservative limit), c > 0 the decay rate.
    """

    a: float
    c: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"kernel amplitude a must be finite and >= 0, got {self.a}")
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"kernel decay rate c must be finite and > 0, got {self.c}")


def evaluate(kernel: KernelSpec, s):
    """g(s) for scalar or array s; rejects negative arguments."""
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("kernel argument s must be >= 0")
    out = kernel.a * np.exp(-kernel.c * arr)
    return float(out) if arr.ndim == 0 else out


def total_mass(kernel: KernelSpec) -> float:
    """g0 = integral of g over [0, inf) = a / c."""
    return kernel.a / kernel.c


def laplace(kernel: KernelSpec, lam) -> complex:
    """Laplace transform integral g(s) e^(-lam s) ds = a / (c + lam).

    Defined for Re(lam) > -c; outside that half-plane the integral
    diverges and the call is rejected.
    """
    lam = complex(lam)
    if lam.real <= -kernel.c:
        raise ValueError(
            f"laplace transform requires Re(lambda) > -c = {-kernel.c}, got {lam.real}"
        )
    return kernel.a / (kernel.c + lam)


def truncation_length(kernel: KernelSpec, tol: float) -> float:
    """Smallest S with g(S)/g(0) = tol, i.e. S = ln(1/tol) / c."""
    if not (0.0 < tol < 1.0):
        raise ValueError(f"truncation tolerance must be in (0, 1), got {tol}")
    return float(np.log(1.0 / tol) / kernel.c)


@dataclass(frozen=True)
class HypothesisReport:
    """Admissibility check of a kernel against a shear modulus k2.

    k2_tilde            residual stiffness k2 - g0
    decay_rate          largest c with g' <= -c g (exact for this family)
    curvature_bound     smallest c2 with |g''| <= c2 g (equals c^2 here)
    ok                  the damped shear modulus k2_tilde stays positive
    """

    k2_tilde: float
    decay_rate: float
    curvature_bound: float
    ok: bool


def validate_hypotheses(kernel: KernelSpec, k2: float) -> HypothesisReport:
    """Check the kernel against the damping admissibility conditions.

    Never raises on a failing condition; the report carries the verdict
    so callers can decide whether to proceed.
    """
    if not (np.isfinite(k2) and k2 > 0.0):
        raise ValueError(f"shear modulus k2 must be finite and > 0, got {k2}")
    g0 = total_mass(kernel)
    k2_tilde = k2 - g0
    return HypothesisReport(
        k2_tilde=k2_tilde,
        decay_rate=kernel.c,
        curvature_bound=kernel.c ** 2,
        ok=k2_tilde > 0.0,
    )
