"""Flat key = value experiment configs.

One assignment per line, '#' starts a comment, dotted keys group
sections.  Unknown keys are rejected with their line number: configs
drive unattended batch runs, and a silently ignored typo (params.rho11)
is the classic way those go wrong.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

from .kernel import KernelSpec
from .model import BoundaryCondition, PhysicalParams


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""


EXPERIMENTS = ("simulate", "spectrum", "resolvent", "characteristic", "classify", "full-report")

IC_KINDS = ("smooth_bump", "eigenmode", "random")


class Required(enum.Enum):
    """A key without a default, always or for the thermal model; the value ends its message."""

    ALWAYS = ""
    THERMAL = " (thermal model)"


# key -> (type, default, bound).  A None default is left to PhysicalParams'
# own defaults, to params.thermal (bc) or to the run (sim.dt, spec.lambda_max).
# Bounds (finite and > or >= 0) are checked here only for the run keys, whose
# suffixes name ExperimentConfig's fields; PhysicalParams and KernelSpec check theirs.
_KEYS: dict[str, tuple[type, object, str | None]] = {
    "experiment": (str, Required.ALWAYS, None),
    "bc": (str, None, None),
    "params.rho1": (float, Required.ALWAYS, None),
    "params.rho2": (float, Required.ALWAYS, None),
    "params.rho3": (float, Required.THERMAL, None),
    "params.k1": (float, Required.ALWAYS, None),
    "params.k2": (float, Required.ALWAYS, None),
    "params.k3": (float, Required.ALWAYS, None),
    "params.ell": (float, None, None),
    "params.delta": (float, Required.THERMAL, None),
    "params.tau": (float, Required.THERMAL, None),
    "params.beta": (float, Required.THERMAL, None),
    "params.L": (float, None, None),
    "params.thermal": (bool, None, None),
    "kernel.a": (float, Required.ALWAYS, None),
    "kernel.c": (float, Required.ALWAYS, None),
    "disc.nx": (int, 40, ">"),
    "disc.ns": (int, 32, ">"),
    "sim.T": (float, 100.0, ">="),
    "sim.dt": (float, None, ">"),
    "sim.stride": (int, 1, ">"),
    "sim.ic": (str, "smooth_bump", None),
    "sim.ic_index": (int, 1, ">"),
    "sim.seed": (int, 0, ">="),
    "spec.lambda_min": (float, 5.0, ">"),
    "spec.lambda_max": (float, None, ">"),
}


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
    want = _KEYS[key][0]
    if want is bool:
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ConfigError(f"line {lineno}: {key} expects true or false, got {raw!r}")
    try:
        return want(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects a {want.__name__}, got {raw!r}")


def _section(values: dict[str, object], prefix: str) -> dict[str, object]:
    return {key[len(prefix):]: val for key, val in values.items() if key.startswith(prefix)}


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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines_of[key]})"
            )
        if raw == "":
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = _parse_scalar(key, raw, lineno)
        lines_of[key] = lineno

    thermal = bool(values.get("params.thermal"))
    for need in (Required.ALWAYS, Required.THERMAL) if thermal else (Required.ALWAYS,):
        for key, (_, default, _) in _KEYS.items():
            if default is need and key not in values:
                raise ConfigError(f"missing required key {key!r}{need.value}")

    experiment = values["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"line {lines_of['experiment']}: unknown experiment {experiment!r}; "
            f"expected one of {', '.join(EXPERIMENTS)}"
        )

    try:
        fields = _section(values, "params.")
        if "L" in fields:
            fields["length"] = fields.pop("L")
        params = PhysicalParams(**fields)
        kernel = KernelSpec(**_section(values, "kernel."))
        bc = BoundaryCondition.from_string(values.get("bc", "dddd" if thermal else "ddd"))
        bc.check_compatible(params)
    except ValueError as exc:
        raise ConfigError(str(exc))

    if "sim.ic" in values and values["sim.ic"] not in IC_KINDS:
        raise ConfigError(
            f"line {lines_of['sim.ic']}: unknown initial condition {values['sim.ic']!r}; "
            f"expected one of {', '.join(IC_KINDS)}"
        )

    run = {}
    for key, (_, default, bound) in _KEYS.items():
        if not key.startswith(("disc.", "sim.", "spec.")):
            continue
        val = run[key.split(".", 1)[1]] = values.get(key, default)
        if bound and key in values and not (math.isfinite(val) and (val > 0 if bound == ">" else val >= 0)):
            raise ConfigError(f"line {lines_of[key]}: {key} must be finite and {bound} 0, got {val}")
    return ExperimentConfig(experiment, params, kernel, bc, config_id=path.stem, **run)
