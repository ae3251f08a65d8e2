"""Flat key = value experiment configs.

One assignment per line, '#' starts a comment, dotted keys group
sections.  Unknown keys are rejected with their line number: configs
drive unattended batch runs, and a silently ignored typo (params.rho11)
is the classic way those go wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .kernel import KernelSpec
from .model import BoundaryCondition, PhysicalParams


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""


EXPERIMENTS = ("simulate", "spectrum", "resolvent", "characteristic", "classify", "full-report")

IC_KINDS = ("smooth_bump", "eigenmode", "random")

# key -> python type ('bool' handled separately)
_SCHEMA: dict[str, type] = {
    "experiment": str,
    "bc": str,
    "params.rho1": float,
    "params.rho2": float,
    "params.rho3": float,
    "params.k1": float,
    "params.k2": float,
    "params.k3": float,
    "params.ell": float,
    "params.delta": float,
    "params.tau": float,
    "params.beta": float,
    "params.L": float,
    "params.thermal": bool,
    "kernel.a": float,
    "kernel.c": float,
    "disc.nx": int,
    "disc.ns": int,
    "sim.T": float,
    "sim.dt": float,
    "sim.stride": int,
    "sim.ic": str,
    "sim.ic_index": int,
    "sim.seed": int,
    "spec.lambda_min": float,
    "spec.lambda_max": float,
}

_ALWAYS_REQUIRED = (
    "experiment",
    "params.rho1",
    "params.rho2",
    "params.k1",
    "params.k2",
    "params.k3",
    "kernel.a",
    "kernel.c",
)
_THERMAL_REQUIRED = ("params.rho3", "params.delta", "params.tau", "params.beta")


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description."""

    experiment: str
    params: PhysicalParams
    kernel: KernelSpec
    bc: BoundaryCondition
    nx: int
    ns: int
    T: float
    dt: float | None
    stride: int
    ic: str
    ic_index: int
    seed: int
    lambda_min: float
    lambda_max: float | None
    config_id: str


def _parse_scalar(key: str, raw: str, lineno: int):
    want = _SCHEMA[key]
    if want is bool:
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ConfigError(f"line {lineno}: {key} expects true or false, got {raw!r}")
    try:
        if want is int:
            return int(raw)
        if want is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects a {want.__name__}, got {raw!r}")
    return raw


def parse_config(path) -> ExperimentConfig:
    """Parse and validate one config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")

    values: dict[str, object] = {}
    lines_of: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines_of[key]})"
            )
        if raw == "":
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = _parse_scalar(key, raw, lineno)
        lines_of[key] = lineno

    for key in _ALWAYS_REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    thermal = bool(values.get("params.thermal", False))
    if thermal:
        for key in _THERMAL_REQUIRED:
            if key not in values:
                raise ConfigError(f"missing required key {key!r} (thermal model)")

    experiment = str(values["experiment"])
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"line {lines_of['experiment']}: unknown experiment {experiment!r}; "
            f"expected one of {', '.join(EXPERIMENTS)}"
        )

    try:
        params = PhysicalParams(
            rho1=values["params.rho1"],
            rho2=values["params.rho2"],
            k1=values["params.k1"],
            k2=values["params.k2"],
            k3=values["params.k3"],
            ell=values.get("params.ell", 0.0),
            length=values.get("params.L", 1.0),
            thermal=thermal,
            rho3=values.get("params.rho3", 1.0),
            delta=values.get("params.delta", 0.0),
            tau=values.get("params.tau", 1.0),
            beta=values.get("params.beta", 1.0),
        )
        kernel = KernelSpec(a=values["kernel.a"], c=values["kernel.c"])
    except ValueError as exc:
        raise ConfigError(str(exc))

    bc_text = values.get("bc", "ddd" if not thermal else "dddd")
    try:
        bc = BoundaryCondition.from_string(str(bc_text))
        bc.check_compatible(params)
    except ValueError as exc:
        raise ConfigError(str(exc))

    ic = str(values.get("sim.ic", "smooth_bump"))
    if ic not in IC_KINDS:
        raise ConfigError(
            f"line {lines_of.get('sim.ic', '?')}: unknown initial condition {ic!r}; "
            f"expected one of {', '.join(IC_KINDS)}"
        )

    def positive(key, val, strict=True):
        if val is None:
            return val
        if not math.isfinite(val) or (strict and val <= 0) or (not strict and val < 0):
            line = lines_of.get(key)
            where = f"line {line}: " if line else ""
            bound = ">" if strict else ">="
            raise ConfigError(f"{where}{key} must be finite and {bound} 0, got {val}")
        return val

    cfg = ExperimentConfig(
        experiment=experiment,
        params=params,
        kernel=kernel,
        bc=bc,
        nx=positive("disc.nx", int(values.get("disc.nx", 40))),
        ns=positive("disc.ns", int(values.get("disc.ns", 32))),
        T=positive("sim.T", float(values.get("sim.T", 100.0)), strict=False),
        dt=positive("sim.dt", values.get("sim.dt")),
        stride=positive("sim.stride", int(values.get("sim.stride", 1))),
        ic=ic,
        ic_index=positive("sim.ic_index", int(values.get("sim.ic_index", 1))),
        seed=positive("sim.seed", int(values.get("sim.seed", 0)), strict=False),
        lambda_min=positive("spec.lambda_min", float(values.get("spec.lambda_min", 5.0))),
        lambda_max=positive("spec.lambda_max", values.get("spec.lambda_max")),
        config_id=path.stem,
    )
    return cfg
