#!/usr/bin/env python3
"""Freeze the benchmark's reference values from the serial oracle path.

    python3 perfbench/freeze_refs.py

Writes refs/*.json.  Run it only to re-anchor the references on purpose;
the benchmark checks every later commit against the files as committed.
"""

from __future__ import annotations

import json
import math

import run

run.use_source_tree()

import numpy as np  # noqa: E402

from phasebeam import checks, experiments  # noqa: E402
from phasebeam.algebra import Family  # noqa: E402
from workloads import REFS, TWO_PI  # noqa: E402

ROUTE_SIZES = (10, 20, 40)
ROUTE_FAMILIES = (("pegg-barnett", None), ("kappa-neg", None), ("kappa-pos", 0.5))
# Off the symmetry points phi = 0, pi and r2 = 0, 1/2, 1.
ROUTE_PHI = [TWO_PI * (j + 0.25) / 16 for j in range(16)]
ROUTE_R2 = [(k + 0.5) / 10 for k in range(10)]


def write(name: str, data: dict) -> None:
    data = {"source": "phasebeam serial oracle path (split_phase_state, "
                      "reduced_density, linear_entropy), m = 0", **data}
    (REFS / f"{name}.json").write_text(json.dumps(data) + "\n", encoding="utf-8")


def main() -> None:
    REFS.mkdir(exist_ok=True)
    phis = np.linspace(0.0, TWO_PI, 128)
    r2s = np.linspace(0.0, 1.0, 101)
    table = experiments.sweep_r2_phi(2, phis, r2s, serial=True)
    write("qutrit_surface", {"axes": [["phi", phis.tolist()], ["r2", r2s.tolist()]],
                             "fixed": {"two_s": 2}, "S": table.grid().tolist()})

    phis = np.linspace(0.0, TWO_PI, 5)
    table = experiments.sweep_s_balanced(40, phis, serial=True)
    write("growth_table", {"axes": [["phi", phis.tolist()], ["two_s", list(range(1, 41))]],
                           "fixed": {"r2": 0.5}, "S": table.grid().tolist()})

    S = [[[[experiments.entropy_point(two_s, 0, phi, r2, Family(family), kappa)
            for r2 in ROUTE_R2] for phi in ROUTE_PHI]
          for family, kappa in ROUTE_FAMILIES] for two_s in ROUTE_SIZES]
    write("route_audit", {"two_s": list(ROUTE_SIZES), "families": list(ROUTE_FAMILIES),
                          "phi": ROUTE_PHI, "r2": ROUTE_R2, "S": S})

    results = checks.run_suites(["all"], seed=0)
    assert all(r.passed for r in results) and not any(
        math.isnan(x) for row in S for fam in row for line in fam for x in line)
    write("check_suites", {"names": [f"{r.suite}.{r.name}" for r in results]})


if __name__ == "__main__":
    main()
