# =====================================================================
# Property tests over random admissible generators
# =====================================================================
#
# Parameters, kernels, boundary variants and grids are drawn at random
# (derandomized, so every run sees the same cases).  Each property is an
# identity of the assembly that must hold for every admissible draw, not
# only for the hand-picked cases of test_discretize and test_spectra.

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bresselab.configio import _KEYS, IC_KINDS, Required, parse_config
from bresselab.discretize import (
    assemble_generator,
    build_memory_grid,
    build_spatial_grid,
    dissipation_rates,
    energy,
    exact_memory_grid,
    reflection,
)
from bresselab.kernel import KernelSpec
from bresselab.model import BoundaryCondition, PhysicalParams
from bresselab.simulate import Stepper, default_dt

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)


def _coefficient(lo=0.2, hi=5.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def generators(draw):
    """A generator at random admissible parameters, kernel, bc and grids."""
    bc = draw(st.sampled_from(["ddd", "dddd", "dndd", "dnnd"]))
    params = PhysicalParams(
        rho1=draw(_coefficient()), rho2=draw(_coefficient()), k1=draw(_coefficient()),
        k2=draw(_coefficient()), k3=draw(_coefficient()), ell=draw(_coefficient(0.0, 3.0)),
        thermal=bc != "ddd", rho3=draw(_coefficient()), delta=draw(_coefficient(0.0, 3.0)),
        tau=draw(_coefficient(0.1, 5.0)), beta=draw(_coefficient(0.0, 3.0)),
    )
    # a / c < k2: the damped shear modulus k2 - a/c stays positive
    c = draw(_coefficient())
    kern = KernelSpec(draw(st.floats(0.0, 0.95)) * params.k2 * c, c)
    nx = draw(st.integers(4, 12))
    # the one-slice grid is exact memory: the same assembly, one history slice
    mgrid = draw(st.one_of(
        st.just(exact_memory_grid(kern)),
        st.integers(8, 16).map(lambda ns: build_memory_grid(kern, ns=ns)),
    ))
    return assemble_generator(
        params, kern, BoundaryCondition.from_string(bc), build_spatial_grid(params.length, nx), mgrid,
    )


@PROPERTY
@given(generators())
def test_energy_form_is_nonpositive(gen):
    # B A + A^T B <= 0: at the top eigenvector v of that symmetric matrix
    # the form <A v, v>_B = v^T (B A + A^T B) v / 2 must clear the bound
    # that test_quadratic_form_nonpositive puts on random states
    ba = (gen.B @ gen.A).toarray()
    lam, vecs = np.linalg.eigh(ba + ba.T)
    v = vecs[:, -1]
    assert 0.5 * lam[-1] <= 1e-12 * float(v @ (gen.B @ v)), (
        f"{gen.bc.value}: lambda_max(BA + A^T B) = {lam[-1]:.3e}"
    )


@PROPERTY
@given(generators())
def test_assembly_commutes_exactly_with_reflection(gen):
    perm, sign = reflection(gen)
    p = sp.csr_matrix((sign, (np.arange(gen.dim), perm)), shape=(gen.dim, gen.dim))
    for name, m in (("A", gen.A), ("B", gen.B)):
        assert (p @ m != m @ p).nnz == 0, f"{gen.bc.value}: {name} breaks the mirror"


@PROPERTY
@given(generators(), st.integers(0, 2**32 - 1))
def test_rate_split_matches_quadratic_form_on_a_block(gen, seed):
    block = np.random.default_rng(seed).standard_normal((4, gen.dim))
    forms = np.einsum("ij,ij->i", block, (gen.B @ (gen.A @ block.T)).T)
    mems, heats = dissipation_rates(gen, block)
    assert mems.shape == heats.shape == (4,)
    assert np.all(mems <= 0.0) and np.all(heats <= 0.0)
    np.testing.assert_allclose(mems + heats, forms, rtol=1e-10, atol=1e-12)


@PROPERTY
@given(generators(), st.integers(0, 2**32 - 1))
def test_steps_never_raise_the_energy(gen, seed):
    # implicit midpoint on a dissipative generator: E(u_n+1) <= E(u_n),
    # through the condensed step factor, on a state with every block filled
    u0 = np.random.default_rng(seed).standard_normal(gen.dim)
    e0 = energy(gen, u0)
    for dt in (default_dt(gen), 0.5):
        stepper, u, e = Stepper(gen, dt), u0, e0
        for _ in range(5):
            u = stepper.advance(u)
            e_next = energy(gen, u)
            assert e_next <= e + 1e-12 * e0, f"{gen.bc.value} dt={dt}: E {e:.17g} -> {e_next:.17g}"
            e = e_next


# ---------------------------------------------------------------------
# Configs: what is written is what is parsed, and the rest is defaulted
# ---------------------------------------------------------------------

REQUIRED_KEYS = {
    "experiment": "classify", "params.rho1": 1.5, "params.rho2": 0.5, "params.k1": 2.0,
    "params.k2": 3.0, "params.k3": 0.25, "kernel.a": 0.5, "kernel.c": 1.0,
}
HEAT_KEYS = {
    "params.rho3": _coefficient(), "params.delta": _coefficient(0.0, 3.0),
    "params.tau": _coefficient(0.0, 5.0), "params.beta": _coefficient(0.0, 3.0),
}


@st.composite
def config_values(draw):
    """Required keys plus a random subset of the optional ones, at admissible values."""
    thermal = draw(st.booleans())
    optional = {
        **HEAT_KEYS,
        "params.ell": _coefficient(0.0, 3.0), "params.L": _coefficient(),
        "bc": st.sampled_from(["dddd", "dndd", "dnnd"] if thermal else ["ddd"]),
        "disc.nx": st.integers(1, 10**6), "disc.ns": st.integers(1, 10**6),
        "sim.T": _coefficient(0.0, 1e4), "sim.dt": _coefficient(1e-6, 10.0),
        "sim.stride": st.integers(1, 10**6), "sim.ic": st.sampled_from(IC_KINDS),
        "sim.ic_index": st.integers(1, 10**6), "sim.seed": st.integers(0, 2**63),
        "spec.lambda_min": _coefficient(1e-3, 1e3), "spec.lambda_max": _coefficient(1e-3, 1e3),
    }
    keys = draw(st.sets(st.sampled_from(sorted(optional))))
    if thermal:
        keys |= HEAT_KEYS.keys()
    values = {**REQUIRED_KEYS, **{key: draw(optional[key]) for key in sorted(keys)}}
    if thermal or draw(st.booleans()):
        values["params.thermal"] = thermal
    # in any line order
    return {key: values[key] for key in draw(st.permutations(list(values)))}


def _parsed(cfg, key):
    section, _, name = key.rpartition(".")
    if key == "bc":
        return cfg.bc.value
    if section == "params":
        return getattr(cfg.params, "length" if name == "L" else name)
    return getattr(cfg.kernel if section == "kernel" else cfg, name)


def _default(key, thermal):
    default = _KEYS[key][1]
    if key == "bc":
        return "dddd" if thermal else "ddd"
    if key.startswith("params.") and (default is None or isinstance(default, Required)):
        fields = {f.name: f.default for f in dataclasses.fields(PhysicalParams)}
        return fields["length" if key == "params.L" else key.split(".")[1]]
    return default


def _spelled(val):
    """A value as a config line writes it; repr gives the float back exactly."""
    if isinstance(val, bool):
        return str(val).lower()
    return repr(val) if isinstance(val, float) else str(val)


@settings(PROPERTY, max_examples=200)
@given(config_values())
def test_parsed_config_round_trips(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.cfg"
        path.write_text("".join(f"{key} = {_spelled(val)}\n" for key, val in values.items()))
        cfg = parse_config(path)
    thermal = values.get("params.thermal", False)
    for key in _KEYS:
        want = values[key] if key in values else _default(key, thermal)
        assert _parsed(cfg, key) == want, (key, _parsed(cfg, key), want)
    assert cfg.config_id == "drawn"
