"""Reading what an experiment run produced: verdict tags, artifacts, failures."""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

TAGS = ("PASS", "FAIL", "UNCOVERED")


def report_tags(lines: list[str]) -> list[list[str]]:
    """[topic, tag] for every report line that ends in a verdict tag."""
    out = []
    for line in lines:
        body, _, tag = line.rpartition(" | ")
        if body and tag in TAGS:
            out.append([line.split(":", 1)[0], tag])
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} is not {header}")
    if len(rows) < 2:
        raise ValueError(f"{path.name}: no data rows")
    return rows[1:]


def _floats(path: Path, rows, columns) -> list[list[float]]:
    out = [[float(row[c]) for c in columns] for row in rows]
    if not all(math.isfinite(v) for row in out for v in row):
        raise ValueError(f"{path.name}: non-finite value")
    return out


def check_artifact(path: Path) -> None:
    """Raise ValueError when a CSV artifact breaks what it must satisfy.

    These are read back from the files, independently of the report:
    energy never increases by more than 1e-10 E(0) per recorded step,
    no eigenvalue has a real part above 1e-8, and every number is
    finite.
    """
    path = Path(path)
    if path.name == "energy.csv":
        energy = [e for e, in _floats(path, _rows(path, ["t", "E", "mem_rate", "heat_rate"]), [1])]
        worst = max(b - a for a, b in zip(energy, energy[1:]))
        if worst > 1e-10 * energy[0]:
            raise ValueError(f"energy.csv: energy rises by {worst:.3e} in one step")
    elif path.name == "spectrum.csv":
        re = [r for r, in _floats(path, _rows(path, ["re", "im", "branch"]), [0])]
        if max(re) > 1e-8:
            raise ValueError(f"spectrum.csv: eigenvalue with real part {max(re):.3e}")
    elif path.name == "resolvent.csv":
        vals = _floats(path, _rows(path, ["lambda", "inv_sigma_min"]), [0, 1])
        if min(v for _, v in vals) <= 0.0:
            raise ValueError("resolvent.csv: non-positive resolvent norm")
    elif path.name == "branches.csv":
        header = ["branch", "n", "seed_re", "seed_im", "root_re", "root_im", "residual", "iters"]
        _floats(path, _rows(path, header), range(len(header)))
    elif path.name == "fits.csv":
        header = ["config_id", "model", "param1", "param2", "r2", "window_t0", "window_t1"]
        _floats(path, _rows(path, header), range(2, len(header)))


def count_failures(records: list[dict]) -> tuple[int, int, int]:
    """(attempted, raised, failed); a run fails when it raises or reports fail."""
    attempted = len(records)
    raised = sum(1 for r in records if r["error"] is not None)
    failed = sum(1 for r in records if r["error"] is not None or r["status"] == "fail")
    return attempted, raised, failed


def verdict_problems(records: list[dict], known_fail: set[tuple[str, str]]) -> list[str]:
    """Why the runs are not correct; empty when they are.

    A run is incorrect when it raised, when one of its artifacts failed
    its check, or when a report check reads anything but PASS, except
    a known FAIL, which may read FAIL or PASS.
    """
    problems = []
    for r in records:
        if r["error"] is not None:
            problems.append(f"{r['config']}: raised {r['error']}")
        problems.extend(f"{r['config']}: {p}" for p in r["artifact_problems"])
        for topic, tag in r["tags"]:
            if tag != "PASS" and not (tag == "FAIL" and (r["config"], topic) in known_fail):
                problems.append(f"{r['config']}: {topic} reads {tag}")
    return problems
