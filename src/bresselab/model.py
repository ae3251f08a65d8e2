"""Physical parameters, boundary-condition variants and regime tables.

The decay regime of the damped system is decided by algebraic relations
between the coefficients: the two wave-speed ratios k1/rho1 and k2/rho2,
the stiffness pair (k1, k3), and for the heat-coupled system a single
stability number chi0 built from the Cattaneo constants.  This module
holds those relations and nothing numerical; everything here is exact
arithmetic on the coefficients plus explicit comparison tolerances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .kernel import KernelSpec, validate_hypotheses

# Relative tolerance for "two coefficients are equal" in regime tests.
EQUALITY_RTOL = 1e-12
# Relative distance below which a strict inequality is flagged as nearly
# degenerate (classification is kept, but the report warns).
NEAR_DEGENERATE_RTOL = 1e-6


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the beam system.

    rho1, rho2   densities of the vertical/shear equations
    k1, k2, k3   shear, bending and longitudinal stiffnesses
    ell          curvature; ell = 0 is the Timoshenko (straight) limit
    length       beam length L
    thermal      couple a Cattaneo heat flux to the shear equation
    rho3, delta, tau, beta   heat capacity, coupling, relaxation time and
                 flux damping; only meaningful when thermal is set.

    beta = 0 is allowed so the conservative limit can be assembled.
    tau = 0 (Fourier heat) serves classification and the characteristic
    speeds only: the thermal assembly needs tau > 0.  Everything else
    structural must be strictly positive.
    """

    rho1: float
    rho2: float
    k1: float
    k2: float
    k3: float
    ell: float = 0.0
    length: float = 1.0
    thermal: bool = False
    rho3: float = 1.0
    delta: float = 0.0
    tau: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("rho1", "rho2", "k1", "k2", "k3", "length"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in ("ell", "delta", "tau", "beta"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.thermal and not (np.isfinite(self.rho3) and self.rho3 > 0.0):
            raise ValueError(f"rho3 must be finite and > 0, got {self.rho3}")

    @property
    def timoshenko(self) -> bool:
        return self.ell == 0.0


class BoundaryCondition(enum.Enum):
    """End conditions for (phi, psi, w[, theta]).

    Letter i is the condition of field i at both ends, D = value pinned,
    N = derivative pinned.  The three-letter variant is the purely
    elastic system; the four-letter variants include theta (always D).

    DDD_ELASTIC  phi, psi, w Dirichlet, no heat flux
    DDDD         phi, psi, w, theta Dirichlet
    DNDD         psi Neumann, rest Dirichlet
    DNND         psi and w Neumann, phi and theta Dirichlet
    """

    DDD_ELASTIC = "ddd"
    DDDD = "dddd"
    DNDD = "dndd"
    DNND = "dnnd"

    @classmethod
    def from_string(cls, text: str) -> "BoundaryCondition":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(v.value for v in cls)
            raise ValueError(f"unknown boundary condition {text!r}; expected one of {valid}")

    @property
    def psi_neumann(self) -> bool:
        return self in (BoundaryCondition.DNDD, BoundaryCondition.DNND)

    @property
    def w_neumann(self) -> bool:
        return self is BoundaryCondition.DNND

    def check_compatible(self, params: PhysicalParams) -> None:
        if self is BoundaryCondition.DDD_ELASTIC and params.thermal:
            raise ValueError("boundary condition 'ddd' is the elastic variant; set thermal=False")
        if self is not BoundaryCondition.DDD_ELASTIC and not params.thermal:
            raise ValueError(
                f"boundary condition '{self.value}' includes a heat field; set thermal=True"
            )


class Regime(enum.Enum):
    """Predicted decay class of the energy."""

    EXPONENTIAL = "Exponential"
    POLY_ONE = "PolyOne"
    POLY_HALF = "PolyHalf"
    UNCOVERED = "Uncovered"


# Human-readable capability statement per regime.
_GUARANTEES = {
    Regime.EXPONENTIAL: "exponential decay: E(t) <= M exp(-eps t) E(0)",
    Regime.POLY_ONE: "polynomial decay: E(t) <= C/t for large t",
    Regime.POLY_HALF: "polynomial decay: E(t) <= C/sqrt(t) for large t",
    Regime.UNCOVERED: "no decay rate guaranteed for this coefficient combination",
}


# (deciding condition holds, k1 = k3) -> regime; see classify_regime.
_REGIME_TABLE = {
    (True, True): Regime.EXPONENTIAL,
    (False, True): Regime.POLY_ONE,
    (False, False): Regime.POLY_HALF,
    (True, False): Regime.UNCOVERED,
}


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the coefficient classification."""

    regime: Regime
    guarantee: str
    equal_speeds: bool
    k1_equals_k3: bool
    chi0: float | None
    near_degenerate: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


def wave_speeds(params: PhysicalParams) -> tuple[float, float, float]:
    """Squared propagation speeds (k1/rho1, k2/rho2, k3/rho1)."""
    return (params.k1 / params.rho1, params.k2 / params.rho2, params.k3 / params.rho1)


def characteristic_speeds(params: PhysicalParams) -> tuple[float, ...]:
    """Squared speeds of the propagating families: the wave speeds, and the heat flux's 1/(rho3 tau)."""
    if params.thermal and params.tau > 0.0:
        return (*wave_speeds(params), 1.0 / (params.rho3 * params.tau))
    return wave_speeds(params)


def _rel_equal(x: float, y: float, rtol: float = EQUALITY_RTOL) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def _near_degenerate(x: float, y: float) -> bool:
    d = abs(x - y)
    m = max(abs(x), abs(y))
    return (d > EQUALITY_RTOL * m) and (d <= NEAR_DEGENERATE_RTOL * m)


def equal_speed_condition(params: PhysicalParams) -> bool:
    """Whether k1/rho1 equals k2/rho2 (relative tolerance 1e-12)."""
    s1, s2, _ = wave_speeds(params)
    return _rel_equal(s1, s2)


def stability_number(params: PhysicalParams) -> float:
    """chi0, the coefficient functional deciding heat-coupled decay.

    chi0 = (tau - rho1/(rho3 k1)) (rho2 - k2 rho1 / k1)
           - tau rho1 delta^2 / (rho3 k1).

    Vanishing chi0 plays the role equal wave speeds play for the elastic
    system.  Only defined for the heat-coupled model.
    """
    if not params.thermal:
        raise ValueError("stability number is defined only for the thermal model")
    p = params
    lead = p.tau - p.rho1 / (p.rho3 * p.k1)
    mism = p.rho2 - p.k2 * p.rho1 / p.k1
    return lead * mism - p.tau * p.rho1 * p.delta ** 2 / (p.rho3 * p.k1)


def _chi0_zero(params: PhysicalParams) -> bool:
    """chi0 == 0 up to 1e-12 relative to its natural coefficient scale."""
    p = params
    scale = max(
        abs(p.tau - p.rho1 / (p.rho3 * p.k1)) * max(abs(p.rho2), abs(p.k2 * p.rho1 / p.k1)),
        abs(p.tau * p.rho1 * p.delta ** 2 / (p.rho3 * p.k1)),
        1e-300,
    )
    return abs(stability_number(params)) <= EQUALITY_RTOL * scale


def classify_regime(params: PhysicalParams, kernel: KernelSpec) -> RegimeReport:
    """Predict the decay class from the coefficients.

    One table for both variants, keyed on a deciding condition D and
    k1 = k3, where D is equal wave speeds for the elastic system and
    chi0 = 0 for the thermal one:
        D, k1 = k3          -> Exponential
        not D, k1 = k3      -> PolyOne
        not D, k1 != k3     -> PolyHalf
        D, k1 != k3         -> Uncovered

    An inadmissible kernel (k2_tilde <= 0) is a hard error: no regime
    statement exists without the residual stiffness.
    """
    hyp = validate_hypotheses(kernel, params.k2)
    if not hyp.ok:
        raise ValueError(
            f"kernel is inadmissible for k2 = {params.k2}: "
            f"k2 - g0 = {hyp.k2_tilde} is not positive"
        )

    s1, s2, _ = wave_speeds(params)
    k_eq = _rel_equal(params.k1, params.k3)
    notes: list[str] = []
    near = False

    if _near_degenerate(s1, s2):
        near = True
        notes.append("wave speeds nearly equal (within 1e-6 relative)")
    if _near_degenerate(params.k1, params.k3):
        near = True
        notes.append("k1 and k3 nearly equal (within 1e-6 relative)")

    equal_speeds = _rel_equal(s1, s2)
    chi0 = None
    decider = equal_speeds
    if params.thermal:
        chi0 = stability_number(params)
        decider = _chi0_zero(params)
        if params.delta == 0.0:
            notes.append("delta = 0: heat flux decouples from the shear motion")
    regime = _REGIME_TABLE[(decider, k_eq)]
    return RegimeReport(
        regime=regime,
        guarantee=_GUARANTEES[regime],
        equal_speeds=equal_speeds,
        k1_equals_k3=k_eq,
        chi0=chi0,
        near_degenerate=near,
        notes=tuple(notes),
    )
