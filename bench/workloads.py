"""The benchmark's workloads: experiment configs made from a seed.

Each workload is a list of (config_id, config text) pairs that one
worker runs in order through ``bresselab.experiments.run_experiment``.
The parameter sets are the acceptance suite's regime configs, so every
config lies in a covered regime and no run is expected to raise.
"""

from __future__ import annotations

ELASTIC_KERNEL = "kernel.a = 0.5\nkernel.c = 1\n"
THERMAL_KERNEL = "kernel.a = 0.25\nkernel.c = 1\n"
THERMAL_HEAT = (
    "params.thermal = true\nparams.rho3 = 1\nparams.delta = 1\n"
    "params.tau = 2\nparams.beta = 1\n"
)


def _params(rho2, k2, k3, ell):
    return (
        f"params.rho1 = 1\nparams.rho2 = {rho2}\nparams.k1 = 1\n"
        f"params.k2 = {k2}\nparams.k3 = {k3}\nparams.ell = {ell}\n"
    )


REGIMES = {
    "elastic-exp": _params(1, 1, 1, 1) + ELASTIC_KERNEL + "bc = ddd\n",
    "elastic-poly1": _params(1, 2, 1, 1) + ELASTIC_KERNEL + "bc = ddd\n",
    "elastic-poly12": _params(1, 2, 2, 1) + ELASTIC_KERNEL + "bc = ddd\n",
    "thermal-exp": _params(3, 1, 1, 1) + THERMAL_HEAT + THERMAL_KERNEL + "bc = dddd\n",
    "thermal-poly1": _params(3.5, 1, 1, 1) + THERMAL_HEAT + THERMAL_KERNEL + "bc = dddd\n",
    "thermal-poly12": _params(3.5, 1, 2, 1) + THERMAL_HEAT + THERMAL_KERNEL + "bc = dddd\n",
}

# straight (ell = 0), elastic, unit-length beam: the only config on
# which full-report runs every module, the characteristic roots included
STRAIGHT = _params(1, 2, 1, 0) + ELASTIC_KERNEL

EVOLVE_RUN = "disc.nx = 80\ndisc.ns = 32\nsim.T = 100\nsim.dt = 0.05\n"


def evolve(seed: int) -> list[tuple[str, str]]:
    runs = [
        (f"evolve-{name}", "experiment = simulate\n" + text + EVOLVE_RUN)
        for name, text in REGIMES.items()
    ]
    for name in ("elastic-exp", "elastic-poly1"):
        runs.append((
            f"evolve-{name}-random",
            "experiment = simulate\n" + REGIMES[name] + EVOLVE_RUN
            + f"sim.ic = random\nsim.seed = {seed}\n",
        ))
    return runs


def spectral(seed: int) -> list[tuple[str, str]]:
    # the spectra depend on no random input, so the seed changes nothing
    return [
        (f"spectral-{name}-nx{nx}",
         "experiment = spectrum\n" + REGIMES[name] + f"disc.nx = {nx}\ndisc.ns = 32\n")
        for name in ("elastic-poly1", "thermal-poly1")
        for nx in (40, 80)
    ]


def full_report(seed: int) -> list[tuple[str, str]]:
    # smooth_bump initial data, so here too the seed changes nothing
    return [(
        "full-report-straight",
        "experiment = full-report\n" + STRAIGHT
        + "disc.nx = 60\ndisc.ns = 32\nsim.T = 100\nsim.dt = 0.05\n",
    )]


WORKLOADS = {"evolve": evolve, "spectral": spectral, "full-report": full_report}

# Report checks that are known to FAIL today and are recorded, not
# tuned away: a random initial state on the equal-speed elastic beam
# gives an exponential fit with r2 between 0.96 and 0.99, under the
# 0.99 bar, on every seed tried (0 to 30).  Any other check that reads
# FAIL, or a known one whose tag becomes UNCOVERED, makes the run
# incorrect; a known FAIL that starts to PASS is reported as a changed
# verdict.
KNOWN_FAIL = {("evolve-elastic-exp-random", "decay law")}
