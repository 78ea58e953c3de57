"""Workload definitions, seeded inputs and output checks.

A report workload runs the ``curvewave report`` pipeline (a fresh
``Workspace`` with ``table(solve=True)`` and ``run_report``, the calls the
``report`` subcommand makes) on a fixed configuration; its seed is recorded
but changes nothing.  Its configurations keep the preset's launch geometry
(incidence, energy relative to the step, width relative to k0) on a lower
step so that one report takes seconds, not a minute (see the comments
on WORKLOADS).

The spectrum workload solves ``build_mode_table`` on the preset-B window for
a list of step heights drawn from the seed: each sample solves ``batch`` of
them, one from each equal slice of the V0 range, so every sample spans the
range and samples cost about the same.
"""

from __future__ import annotations

import math
from dataclasses import replace

#: golden-ratio step of the additive recurrence that places V0 within each
#: slice of its range, evenly spread over the samples of a run
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: relative tolerance of report values against the recorded reference
REL_TOL = 1.0e-6
#: largest |characteristic| accepted at a returned root
ROOT_TOL = 1.0e-8
#: roots re-verified per spectrum solve
ROOTS_CHECKED = 24

WORKLOADS = {
    # preset B pipeline: table, two expansions, GH fit on the 1200-node grid,
    # Husimi scan (82 at_points calls) on the 2400-node grid.  V0 = 1250 with
    # k0, m0 halved and sigma quartered keeps B's incidence angle and E0/V0.
    # The GH sample times move 0.1 further from the bounce because the wider
    # packet needs 3/sqrt(sigma) of clearance from the impact point.
    "report_B": {
        "kind": "report",
        "config": {"preset": "B", "v0": 1250.0, "m0": 60.0, "k0": 45.0,
                   "sigma": 25.0, "m_lo": 19, "m_hi": 108,
                   "resonance_k_max": 64.0,
                   "gh_times_pre": [0.1, 0.2, 0.3],
                   "gh_times_post": [1.7, 1.8, 1.9],
                   "husimi_d": [2.0, 7.0, 0.1], "husimi_h": [1.0, 4.0, 0.04]},
    },
    # preset D pipeline: table, two expansions on the outgoing-Hankel tail,
    # one 800-node evaluator grid and the transmitted fraction.  Same scaling
    # as report_B with V0 = 720 (E0/V0 = 1.95 as in D).
    "report_D": {
        "kind": "report",
        "config": {"preset": "D", "v0": 720.0, "m0": 53.0, "k0": 53.0,
                   "sigma": 14.4, "m_lo": 6, "m_hi": 105,
                   "resonance_k_max": 66.0},
    },
    # preset-B table window; V0 drawn from the seed
    "spectrum_scan": {
        "kind": "spectrum",
        "m_lo": 48, "m_hi": 203, "resonance_k_max": 130.0,
        "v0_range": [4000.0, 6000.0], "batch": 4,
    },
    # seconds-long versions of both kinds for the smoke test; threshold 0
    # keeps every entry and skips the table-coverage check, which a 5-m
    # window would fail
    "smoke_spectrum": {
        "kind": "spectrum",
        "m_lo": 118, "m_hi": 122, "resonance_k_max": 130.0,
        "v0_range": [4000.0, 6000.0], "batch": 2,
    },
    "smoke_report": {
        "kind": "report",
        "config": {"preset": "D", "v0": 720.0, "m0": 53.0, "k0": 53.0,
                   "sigma": 14.4, "m_lo": 50, "m_hi": 54,
                   "resonance_k_max": 60.0, "threshold": 0.0,
                   "grid_nr": 200, "grid_ntheta": 256},
    },
}


def scenario_config(spec: dict, jobs: int):
    """The ScenarioConfig of a report workload."""
    from curvewave import scenarios
    from curvewave.potential import PotentialSpec

    params = {k: tuple(v) if isinstance(v, list) else v
              for k, v in spec["config"].items()}
    base = scenarios.preset_config(params.pop("preset"), jobs=jobs)
    pot = PotentialSpec(radius=base.potential.radius, v0=params.pop("v0"))
    return replace(base, potential=pot, **params)


def step_heights(spec: dict, seed: int, index: int) -> list:
    """Step heights V0 of the index-th spectrum sample of a run with this seed."""
    lo, hi = spec["v0_range"]
    n = spec["batch"]
    offset = ((seed * 2654435761) % 2**32) / 2**32
    return [lo + (hi - lo) * (j + (offset + (index * n + j) * _GOLDEN) % 1.0) / n
            for j in range(n)]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1.0e-300


def check_report(report: dict, sizes: dict, reference: dict) -> list:
    """Names of the report metrics that depart from the reference.

    A size mismatch (mode counts, table size, entries) fails every metric.
    """
    metrics = report["metrics"]
    ref_metrics = reference["metrics"]
    if sizes != reference["sizes"] or set(metrics) != set(ref_metrics):
        return sorted(ref_metrics)
    bad = []
    for name, ref in ref_metrics.items():
        got = metrics[name]
        if got["pass"] != ref["pass"] or not _close(got["value"], ref["value"]):
            bad.append(name)
    return bad


def check_table(table, m_values, seed: int) -> list:
    """Problems found in a solved mode table: Sturm census and root residuals.

    The census covers every requested m, so an m whose modes all went
    missing fails it too.
    """
    import numpy as np
    from curvewave import spectrum

    pot = table.pot
    problems = []
    for m in m_values:
        bound = sum(1 for mo in table.by_m(m) if mo.klass == spectrum.BOUND)
        census = spectrum.count_bound_sturm(pot, m)
        if bound != census:
            problems.append(f"m={m}: {bound} bound modes, Sturm census {census}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(table), size=min(ROOTS_CHECKED, len(table)), replace=False)
    for i in sorted(picks):
        mo = table.modes[i]
        residual = abs(spectrum.characteristic(pot, mo.m, mo.k))
        if not residual <= ROOT_TOL:
            problems.append(f"(m={mo.m}, n={mo.n}) k={mo.k}: residual {residual:.3g}")
    return problems
