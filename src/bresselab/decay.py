"""Decay-law fits on energy traces and discretization-refinement verdicts.

A semi-discrete system decays exponentially no matter what the PDE does;
polynomial laws of the continuum show up as a spectral abscissa that
collapses toward zero under grid refinement while finite-time energy
windows follow the power law.  The fits here are deliberately plain
least squares in log coordinates, with r^2 reported so a wrong model is
visible instead of silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Minimum r^2 advantage one model needs over the other to win.
CLASSIFY_GAP = 0.02
# Relative energy drop below which a trace counts as non-decaying.
FLAT_TRACE_RTOL = 1e-12


@dataclass
class DecayFit:
    """One least-squares decay fit on a trace window."""

    model: str               # "exponential" or "polynomial"
    amplitude: float         # M in M exp(-eps t), or C in C t^-alpha
    rate: float              # eps, or alpha
    r2: float
    window: tuple[float, float]
    non_decaying: bool


def _fit_decay(model: str, t: np.ndarray, E: np.ndarray, window: tuple[float, float],
               log_t: bool) -> DecayFit:
    """Fit log E = a - rate * x on the window, with x = log t when log_t else t.

    A flat trace (relative drop below FLAT_TRACE_RTOL) is reported with
    rate 0 and the non_decaying flag instead of fitting noise.
    """
    mask = (t >= window[0]) & (t <= window[1])
    tw, ew = t[mask], E[mask]
    if tw.size < 4:
        raise ValueError(f"{model} fit needs at least 4 samples in the window [{window[0]:g}, {window[1]:g}], got {tw.size}")
    if np.any(ew <= 0.0):
        raise ValueError(f"{model} fit needs strictly positive energies in the window")
    e0 = float(np.max(ew))
    if (e0 - float(np.min(ew))) <= FLAT_TRACE_RTOL * e0:
        return DecayFit(model, e0, 0.0, 1.0, window, True)
    x, y = (np.log(tw) if log_t else tw), np.log(ew)
    coef = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - np.polyval(coef, x)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(model, float(np.exp(float(coef[1]))), -float(coef[0]), r2, window, False)


def fit_exponential(t: np.ndarray, E: np.ndarray, window: tuple[float, float] | None = None) -> DecayFit:
    """Fit E ~ M exp(-eps t); default window is the last 60% of the trace."""
    t = np.asarray(t, dtype=float)
    E = np.asarray(E, dtype=float)
    if window is None:
        window = (t[0] + 0.4 * (t[-1] - t[0]), t[-1])
    return _fit_decay("exponential", t, E, window, log_t=False)


def fit_polynomial(t: np.ndarray, E: np.ndarray, window: tuple[float, float] | None = None) -> DecayFit:
    """Fit E ~ C t^-alpha on [T/5, T] by default; the window must start at t >= 1.

    Power laws are scale families in t, so samples at t < 1 would let
    the origin singularity dominate the fit; they are rejected.
    """
    t = np.asarray(t, dtype=float)
    E = np.asarray(E, dtype=float)
    if window is None:
        window = (max(1.0, t[-1] / 5.0), t[-1])
    if window[0] < 1.0:
        raise ValueError(f"polynomial fit window must start at t >= 1, got {window[0]}")
    return _fit_decay("polynomial", t, E, window, log_t=True)


@dataclass
class DecayVerdict:
    """Which decay model explains a trace better."""

    label: str               # "Exponential", "Polynomial" or "Undecided"
    exponential: DecayFit | None
    polynomial: DecayFit | None
    note: str = ""


def classify_decay(t: np.ndarray, E: np.ndarray) -> DecayVerdict:
    """Pick exponential vs polynomial by r^2 with a 0.02 decision gap.

    Both models are fitted on ONE shared window covering the last decade
    of the trace (from max(1, T/10) to T).  Per-model windows would make
    the duel unwinnable: the exponential model's r^2 on a pure power law
    depends only on the window's endpoint ratio, and on a short window
    it exceeds 0.98 for every exponent, burying the gap.  Requires the
    trace to reach t >= 10 so the shared window spans a decade.
    """
    t = np.asarray(t, dtype=float)
    E = np.asarray(E, dtype=float)
    if t[-1] < 10.0:
        raise ValueError("classification needs a trace reaching t >= 10 (a decade past t = 1)")
    e0 = float(np.max(E))
    if e0 <= 0.0 or (e0 - float(np.min(E))) <= FLAT_TRACE_RTOL * e0:
        return DecayVerdict("Undecided", None, None, note="trace does not decay")
    window = (max(1.0, t[-1] / 10.0), float(t[-1]))
    fe = fit_exponential(t, E, window=window)
    fp = fit_polynomial(t, E, window=window)
    if fe.r2 >= fp.r2 + CLASSIFY_GAP:
        return DecayVerdict("Exponential", fe, fp)
    if fp.r2 >= fe.r2 + CLASSIFY_GAP:
        return DecayVerdict("Polynomial", fe, fp)
    return DecayVerdict("Undecided", fe, fp, note=f"r2 gap below {CLASSIFY_GAP}")


# =====================================================================
# Refinement signatures
# =====================================================================

@dataclass
class AbscissaLadder:
    """Spectral abscissa across grid refinements.

    `abscissas` holds the resolved-window measurement (max Re over
    eigenvalues with |Im| below the grid's trust frequency); the raw
    whole-matrix maxima are kept alongside because the gap between the
    two is itself a useful diagnostic of near-cutoff contamination.
    """

    nx_values: list[int]
    abscissas: list[float]
    raw_abscissas: list[float]
    shrink_factors: list[float]
    polynomial_signature: bool


def abscissa_ladder(params, kernel, bc, nx_values, ns: int) -> AbscissaLadder:
    """Resolved-window spectral abscissa at each nx; the
    continuum-polynomial signature is every refinement pushing |max Re|
    down by at least a factor 2.

    Exponentially stable continua keep a bounded-away abscissa instead;
    that shows up as shrink factors near 1.  The window matters: the raw
    abscissa is set by near-cutoff modes whose damping path degenerates
    with the stencil (see `spectra.windowed_abscissa`), and those shrink
    under refinement for every parameter choice, damped or not.
    """
    from .discretize import assemble_generator, build_memory_grid, build_spatial_grid
    from .spectra import compute_spectrum, windowed_abscissa

    mgrid = build_memory_grid(kernel, ns=ns)
    abscs: list[float] = []
    raw: list[float] = []
    for nx in nx_values:
        gen = assemble_generator(params, kernel, bc, build_spatial_grid(params.length, nx), mgrid)
        rep = compute_spectrum(gen)
        raw.append(rep.max_real_part)
        abscs.append(windowed_abscissa(gen, rep.eigenvalues))
    mags = [abs(a) for a in abscs]
    shrink = [mags[i] / mags[i + 1] if mags[i + 1] > 0 else np.inf for i in range(len(mags) - 1)]
    return AbscissaLadder(
        nx_values=list(nx_values),
        abscissas=abscs,
        raw_abscissas=raw,
        shrink_factors=shrink,
        polynomial_signature=bool(all(s >= 2.0 for s in shrink)),
    )
