"""The batched check suites against their one-cell-at-a-time loops."""

import json
from math import pi, sqrt
from pathlib import Path

import numpy as np
import pytest

from phasebeam import (
    Family,
    SplitterParams,
    apply_phase_operator,
    build_structure,
    checks,
    closure_matrix,
    evolve_vector,
    ladder_minus,
    ladder_plus,
    linear_entropy,
    linear_entropy_closed,
    number_operator,
    overlap_closed,
    overlap_direct,
    phase_operator,
    phase_state,
    reduced_density,
    reduced_density_closed,
    split_number_state,
    split_phase_state,
)
from phasebeam.checks import FAMILIES
from phasebeam.cli import main


def _algebra_suite_loop(seed):
    """The algebra suite's per-phase checks, with the operators built and
    checked one phase at a time."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("phase_operator_unitary", "ladder_plus_is_adjoint",
                           "ladder_products_diagonal", "number_commutators",
                           "commutator_equals_spacings", "polar_decomposition",
                           "phase_operator_cyclic"), 0.0)

    def note(name, *residuals):
        worst[name] = max(worst[name], *(float(np.max(np.abs(r))) for r in residuals))

    for family, kappa in FAMILIES:
        for two_s in range(1, 9):
            spec = build_structure(family, two_s, kappa)
            d = spec.dim
            eye = np.eye(d)
            num = number_operator(spec)
            for phi in rng.uniform(0.0, 4.0 * pi, size=4):
                e = phase_operator(spec, phi)
                am = ladder_minus(spec, phi)
                ap = ladder_plus(spec, phi)
                note("phase_operator_unitary", e.conj().T @ e - eye, e @ e.conj().T - eye)
                note("ladder_plus_is_adjoint", ap - am.conj().T)
                note("ladder_products_diagonal", ap @ am - np.diag(spec.levels[:d]),
                     am @ ap - np.diag(spec.levels[1:]))
                note("number_commutators", num @ am - am @ num + am, num @ ap - ap @ num - ap)
                note("commutator_equals_spacings", am @ ap - ap @ am - np.diag(spec.spacings))
                note("polar_decomposition", e @ np.diag(np.sqrt(spec.levels[:d])) - am)
                cycle = np.linalg.matrix_power(e, d)
                note("phase_operator_cyclic", cycle - cycle[0, 0] * eye)
    return worst


def _phase_suite_loop(seed):
    """The phase suite's looped checks, one label and one overlap per call,
    from the same draws as the suite."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("equiprobability", "orthonormality", "closure",
                           "eigenvalue_relation", "temporal_stability",
                           "overlap_closed_vs_direct", "evolution_unitary"), 0.0)

    def note(name, value):
        worst[name] = max(worst[name], float(value))

    for family, kappa in FAMILIES:
        for two_s in range(1, 11):
            spec = build_structure(family, two_s, kappa)
            d = spec.dim
            phi = float(rng.uniform(0.0, 4.0 * pi))
            states = [phase_state(spec, m, phi) for m in range(d)]
            for m, v in enumerate(states):
                note("equiprobability", np.max(np.abs(np.abs(v) - 1.0 / sqrt(d))))
                note("eigenvalue_relation", np.max(np.abs(
                    apply_phase_operator(spec, phi, v) - np.exp(2j * pi * m / d) * v)))
                for m2, w in enumerate(states):
                    note("orthonormality", abs(overlap_direct(v, w) - (m == m2)))
            note("closure", np.max(np.abs(closure_matrix(spec, phi) - np.eye(d))))
            labels = rng.integers(0, d, size=(2, 100))
            phases = rng.uniform(0.0, 4.0 * pi, size=(2, 100))
            for m, m2, p1, p2 in zip(*labels.tolist(), *phases.tolist()):
                direct = overlap_direct(phase_state(spec, m, p1), phase_state(spec, m2, p2))
                note("overlap_closed_vs_direct",
                     abs(direct - overlap_closed(spec, m, p1, m2, p2)))
            m = int(rng.integers(0, d))
            t = float(rng.uniform(-2.0 * pi, 2.0 * pi))
            note("temporal_stability", np.max(np.abs(
                evolve_vector(spec, phase_state(spec, m, phi), t)
                - phase_state(spec, m, phi + t))))
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            note("evolution_unitary",
                 abs(np.linalg.norm(evolve_vector(spec, v, t)) - np.linalg.norm(v)))
    return worst


def _entropy_suite_loop(seed):
    """closed_vs_oracle and m_independence with one oracle call per label m,
    folded_vs_unfolded with one scalar table call and one reference call per
    cell, reflection_swap_symmetry with one closed-form call per draw and side.
    Its scalar uniform draws read the stream as the suite's (10, 2) batches do."""
    rng = np.random.default_rng(seed)
    phis = np.linspace(0.0, 2.0 * pi, 5)
    r2s = np.linspace(0.0, 1.0, 5)
    grid = SplitterParams(r2s)
    worst = dict.fromkeys(("closed_vs_oracle", "folded_vs_unfolded", "m_independence",
                           "reflection_swap_symmetry"), 0.0)
    for family, kappa in FAMILIES:
        for two_s in range(1, 9):
            spec = build_structure(family, two_s, kappa)
            closed = linear_entropy_closed(spec, phis[:, None], grid).value
            for m in range(spec.dim):
                rho = reduced_density(split_phase_state(spec, m, phis[:, None], grid))
                worst["closed_vs_oracle"] = max(worst["closed_vs_oracle"], np.max(np.abs(
                    linear_entropy(rho).value - closed)))
            for phi in phis:
                for r2 in r2s:
                    one = linear_entropy_closed(spec, phi, SplitterParams(r2)).value
                    (want,), (imag,) = checks._quadruple_sum(spec, np.array([phi]), [r2])
                    worst["folded_vs_unfolded"] = max(worst["folded_vs_unfolded"],
                                                      abs(one - want[0]), abs(imag[0]))
    for two_s in range(1, 7):
        spec = build_structure(Family.KAPPA_NEG, two_s)
        for _ in range(10):
            phi = float(rng.uniform(0.0, 4.0 * pi))
            params = SplitterParams(float(rng.uniform(0.0, 1.0)))
            values = [linear_entropy(reduced_density(split_phase_state(spec, m, phi, params))).value
                      for m in range(spec.dim)]
            worst["m_independence"] = max(worst["m_independence"], max(values) - min(values))
    for family, kappa in FAMILIES:
        spec = build_structure(family, 3, kappa)
        for _ in range(10):
            phi = float(rng.uniform(0.0, 2.0 * pi))
            r2 = float(rng.uniform(0.0, 1.0))
            s_a = linear_entropy_closed(spec, phi, SplitterParams(r2)).value
            s_b = linear_entropy_closed(spec, phi, SplitterParams(1.0 - r2)).value
            worst["reflection_swap_symmetry"] = max(worst["reflection_swap_symmetry"],
                                                   abs(s_a - s_b))
    return worst


def _splitter_suite_loop(seed):
    """The splitter suite's seeded checks from the same draws as the suite,
    with one amplitude per get and one split, one partial trace and one
    closed-form rho per (m, phi, r2) draw."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("number_state_norm", "transmit_reflect_mirror",
                           "phase_state_norm", "reduced_density_two_routes"), 0.0)
    for n, r2 in enumerate(rng.uniform(0.0, 1.0, size=21).tolist()):
        b = split_number_state(n, SplitterParams(r2))
        worst["number_state_norm"] = max(worst["number_state_norm"], abs(b.norm() - 1.0))
        b_swapped = split_number_state(n, SplitterParams(1.0 - r2))
        for p in range(n + 1):
            worst["transmit_reflect_mirror"] = max(worst["transmit_reflect_mirror"], abs(
                abs(b.get(p, n - p)) - abs(b_swapped.get(n - p, p))))
    for family, kappa in FAMILIES:
        for two_s in range(1, 9):
            spec = build_structure(family, two_s, kappa)
            labels = rng.integers(0, spec.dim, size=20).tolist()
            draws = rng.uniform((0.0, 0.0), (4.0 * pi, 1.0), size=(20, 2)).tolist()
            for m, (phi, r2) in zip(labels, draws):
                params = SplitterParams(r2)
                b = split_phase_state(spec, m, phi, params)
                worst["phase_state_norm"] = max(worst["phase_state_norm"], abs(b.norm() - 1.0))
                worst["reduced_density_two_routes"] = max(
                    worst["reduced_density_two_routes"], np.max(np.abs(
                        reduced_density(b) - reduced_density_closed(spec, m, phi, params))))
    return worst


def _deviation(result):
    """The max deviation a check prints, as a float."""
    return float(result.detail.split()[2])


SUITE_LOOPS = {
    "algebra": _algebra_suite_loop,
    "phase": _phase_suite_loop,
    "splitter": _splitter_suite_loop,
    "entropy": _entropy_suite_loop,
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("suite", list(SUITE_LOOPS))
def test_suite_matches_loop(suite, seed):
    reference = SUITE_LOOPS[suite](seed)
    got = {r.name: r for r in checks.SUITES[suite](seed)}
    for name, worst in reference.items():
        # the same samples give the same worst deviation, to its printed digits
        assert _deviation(got[name]) == pytest.approx(worst, rel=1e-3, abs=1e-18)


def test_every_check_passes_on_the_first_ten_seeds():
    for seed in range(10):
        failed = [f"{r.suite}.{r.name}" for r in checks.run_suites(["all"], seed)
                  if not r.passed]
        assert failed == [], f"seed {seed}"


def test_m_spread_over_tolerance_is_a_fail(monkeypatch, capsys):
    """A spread above the tolerance is reported as FAIL, and the checks after
    it still run."""
    monkeypatch.setattr(checks, "M_SPREAD_TOL", -1.0)
    got = {r.name: r for r in checks.run_suites(["entropy"])}
    assert not got["m_independence"].passed
    later = ("reflection_swap_symmetry", "balanced_splitter_maximum",
             "qubit_analytic_form", "integer_family_periodicity", "cosine_parity")
    assert all(got[name].passed for name in later)
    assert main(["check", "--suite", "entropy"]) == 2
    out = capsys.readouterr().out
    assert "FAIL entropy.m_independence" in out
    assert out.endswith(f"{len(got) - 1} passed, 1 failed\n")


def test_shifted_quadruple_sum_is_a_fail(monkeypatch, capsys):
    """A reference off by 1e-9 is reported as FAIL, and the checks after it
    still run."""
    quadruple_sum = checks._quadruple_sum

    def shifted(spec, phis, r2s):
        s, imag = quadruple_sum(spec, phis, r2s)
        return s + 1e-9, imag

    monkeypatch.setattr(checks, "_quadruple_sum", shifted)
    got = {r.name: r for r in checks.run_suites(["entropy"])}
    assert not got["folded_vs_unfolded"].passed
    assert 1e-9 - 1e-12 <= _deviation(got["folded_vs_unfolded"]) <= 1e-9 + 1e-12
    assert all(r.passed for name, r in got.items() if name != "folded_vs_unfolded")
    assert main(["check", "--suite", "entropy"]) == 2
    out = capsys.readouterr().out
    assert "FAIL entropy.folded_vs_unfolded" in out
    assert out.endswith(f"{len(got) - 1} passed, 1 failed\n")


def test_check_names_are_the_benchmark_cells():
    """Every check, in order, is one cell of the check_suites benchmark
    workload, which counts a name it does not find as a failed cell."""
    refs = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "check_suites.json"
    names = json.loads(refs.read_text())["names"]
    assert len(names) == 31
    assert [f"{r.suite}.{r.name}" for r in checks.run_suites(["all"])] == names
