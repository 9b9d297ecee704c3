"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

A smoke run of every workload on tiny grids, untraced and traced, must
report every declared metric with its unit and pass every check.  This
includes growth_table, which is kept for runs by hand.  A cell perturbed
by 1e-9 must land in the failure count.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_source_tree()

from phasebeam import experiments  # noqa: E402
from spans import NullTracer  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))

END_TO_END = {"setup_s": "s", "cells_per_s": "1/s", "cells_per_s_serial": "1/s",
              "cli_s": "s", "peak_rss_mb": "MB"}
FUNCTIONS = ("algebra.build_structure", "phase_states.phase_state",
             "splitter.split_phase_state", "splitter.reduced_density",
             "splitter.validate_density", "entropy.linear_entropy",
             "splitter.reduced_density_closed", "entropy.linear_entropy_closed")


def expected_per_layer() -> dict[str, str]:
    out = {}
    for fn in FUNCTIONS + ("cli.emit",):
        out[f"{fn}.calls"] = "count"
        out[f"{fn}.self_s"] = "s"
    for fn in FUNCTIONS:
        for two_s in workloads.LADDER_SIZES:
            out[f"{fn}.call_us.2s{two_s}"] = "us"
    out["splitter.split_phase_state.terms"] = "count"
    out["entropy.linear_entropy_closed.terms"] = "count"
    out["cli.emit.bytes"] = "B"
    for suite in workloads.SUITES:
        out[f"checks.{suite}_suite.self_s"] = "s"
        out[f"checks.{suite}_suite.checks"] = "count"
    out["experiments.overhead_s"] = "s"
    out["experiments.pool_speedup"] = "ratio"
    out["trace.overhead_frac"] = "ratio"
    return out


def test_declared_workloads_exist():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(workloads.WORKLOADS)


def test_declared_metrics_are_the_specified_ones():
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert declared == END_TO_END
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert declared == expected_per_layer()


@pytest.fixture(scope="module")
def ladder():
    values = workloads.size_ladder()
    assert all(v > 0 for v in values.values())
    return values


@pytest.fixture
def quick(monkeypatch, tmp_path, ladder):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "MIN_TRACED_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_PER_ROUND", 1)
    monkeypatch.setattr(workloads, "size_ladder", lambda: dict(ladder))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke(name, trace, quick):
    wl = workloads.make(name, seed=7, tiny=True)
    measure = run.measure_traced if trace else run.measure
    metrics, _, tally = measure(wl, 0.0, f"{name}-smoke")
    units = run.declared_units(bool(trace))
    line = run.result_line(metrics, tally, units)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {n: m["unit"] for n, m in line["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
        scale = metrics["probe_scale"]
        for name in ("cells_per_s", "cells_per_s_serial"):
            assert metrics[name] == pytest.approx(metrics[f"wall.{name}"] / scale)


def perturb_csv(data: bytes, row: int) -> bytes:
    lines = data.decode("utf-8").split("\n")
    fields = lines[row].split(",")
    fields[-1] = f"{float(fields[-1]) + 1e-9:.17g}"
    lines[row] = ",".join(fields)
    return "\n".join(lines).encode("utf-8")


@pytest.mark.parametrize("name", ["qutrit_surface", "growth_table"])
def test_perturbed_sweep_cell_fails(name):
    wl = workloads.make(name, seed=7, tiny=True)
    wl.prepare(NullTracer())
    table, (code, csv) = [part() for part in wl.parts(serial=True)]
    clean = workloads.Tally()
    wl.check([table, (code, csv)], clean)
    assert clean.failed == 0

    values = np.array(table.values)
    values[3] += 1e-9
    bad_table = experiments.SweepTable(axes=table.axes, values=values)
    for outs in ([bad_table, (code, csv)], [table, (code, perturb_csv(csv, 2))]):
        tally = workloads.Tally()
        wl.check(outs, tally)
        assert (tally.attempted, tally.failed) == (clean.attempted, 1)


def test_perturbed_route_cell_fails():
    wl = workloads.make("route_audit", seed=7, tiny=True)
    wl.prepare(NullTracer())
    outs = [part() for part in wl.parts(serial=False)]
    rho_t, rho_c, s_o, s_c = outs[1]
    outs[1] = (rho_t, rho_c, s_o, s_c + 1e-9)
    tally = workloads.Tally()
    wl.check(outs, tally)
    assert (tally.attempted, tally.failed) == (len(outs), 1)


def test_cell_off_the_frozen_grid_fails():
    wl = workloads.make("qutrit_surface", seed=7, tiny=True)
    coords = {"phi": np.array([0.1234]), "r2": np.array([0.5])}
    assert np.isnan(wl.ref.lookup(coords)).all()



def test_raising_pass_counts_its_cells_as_failed():
    wl = workloads.make("check_suites", seed=7, tiny=True)
    wl.parts = lambda serial: [lambda: 1 / 0]
    tally = workloads.Tally()
    run.PassTimer().run(wl, False, tally)
    assert (tally.attempted, tally.failed) == (wl.cells_per_pass, wl.cells_per_pass)
