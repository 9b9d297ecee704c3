"""Self-contained invariant suites behind the `check` CLI command.

Each suite exercises one module's documented invariants over the built-in
families and a seeded sample of parameters, returning structured results
instead of raising, so the CLI can report every check even after a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, pi, sqrt

import numpy as np

from .algebra import (
    Family,
    build_structure,
    ladder_minus,
    ladder_plus,
    number_operator,
    phase_operator,
    structure_from_spacings,
)
from .entropy import linear_entropy, linear_entropy_closed, m_independence_report
from .numerics import ipow
from .phase_states import (
    apply_phase_operator,
    closure_matrix,
    evolve_vector,
    overlap_closed,
    overlap_direct,
    phase_state,
)
from .splitter import (
    SplitterParams,
    reduced_density,
    reduced_density_closed,
    split_number_state,
    split_phase_state,
)

# (family, kappa) pairs exercised everywhere below.
FAMILIES = (
    (Family.PEGG_BARNETT, None),
    (Family.KAPPA_NEG, None),
    (Family.KAPPA_POS, 0.5),
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite: str, name: str, worst: float, tol: float) -> CheckResult:
    return CheckResult(suite, name, worst <= tol, f"max deviation {worst:.3e} (tol {tol:.1e})")


def algebra_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst_unitary = worst_adjoint = worst_products = worst_number = 0.0
    worst_comm = worst_polar = worst_roundtrip = worst_cycle = 0.0
    for family, kappa in FAMILIES:
        for two_s in range(1, 9):
            spec = build_structure(family, two_s, kappa)
            d = spec.dim
            eye = np.eye(d)
            num = number_operator(spec)
            for phi in rng.uniform(0.0, 4.0 * pi, size=4):
                e = phase_operator(spec, phi)
                worst_unitary = max(
                    worst_unitary,
                    np.max(np.abs(e.conj().T @ e - eye)),
                    np.max(np.abs(e @ e.conj().T - eye)))
                am = ladder_minus(spec, phi)
                ap = ladder_plus(spec, phi)
                worst_adjoint = max(worst_adjoint, np.max(np.abs(ap - am.conj().T)))
                worst_products = max(
                    worst_products,
                    np.max(np.abs(ap @ am - np.diag(spec.levels[:d]))),
                    np.max(np.abs(am @ ap - np.diag(spec.levels[1:]))))
                worst_number = max(
                    worst_number,
                    np.max(np.abs(num @ am - am @ num + am)),
                    np.max(np.abs(num @ ap - ap @ num - ap)))
                worst_comm = max(
                    worst_comm,
                    np.max(np.abs(am @ ap - ap @ am - np.diag(spec.spacings))))
                worst_polar = max(
                    worst_polar,
                    np.max(np.abs(e @ np.diag(np.sqrt(spec.levels[:d])) - am)))
                cycle = np.linalg.matrix_power(e, d)
                worst_cycle = max(worst_cycle, np.max(np.abs(cycle - cycle[0, 0] * eye)))
            rebuilt = structure_from_spacings(spec.spacings)
            worst_roundtrip = max(worst_roundtrip,
                                  np.max(np.abs(rebuilt.levels - spec.levels)))
    out.append(_result("algebra", "phase_operator_unitary", worst_unitary, 1e-12))
    out.append(_result("algebra", "ladder_plus_is_adjoint", worst_adjoint, 0.0))
    out.append(_result("algebra", "ladder_products_diagonal", worst_products, 1e-12))
    out.append(_result("algebra", "number_commutators", worst_number, 1e-12))
    out.append(_result("algebra", "commutator_equals_spacings", worst_comm, 1e-12))
    out.append(_result("algebra", "polar_decomposition", worst_polar, 1e-12))
    out.append(_result("algebra", "spacings_roundtrip", worst_roundtrip, 1e-12))
    out.append(_result("algebra", "phase_operator_cyclic", worst_cycle, 1e-12))

    worst = 0.0
    for two_s in range(1, 41):
        spec = build_structure(Family.KAPPA_NEG, two_s)
        expected = np.array([n * (two_s + 1 - n) / two_s for n in range(two_s + 2)])
        worst = max(worst, np.max(np.abs(spec.levels - expected)))
    out.append(_result("algebra", "kappa_neg_closed_form", worst, 1e-14))
    return out


def phase_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst_equi = worst_ortho = worst_closure = worst_eigen = 0.0
    worst_temporal = worst_overlap = worst_unit = 0.0
    for family, kappa in FAMILIES:
        for two_s in range(1, 11):
            spec = build_structure(family, two_s, kappa)
            d = spec.dim
            phi = float(rng.uniform(0.0, 4.0 * pi))
            states = [phase_state(spec, m, phi) for m in range(d)]
            for m, v in enumerate(states):
                worst_equi = max(worst_equi, np.max(np.abs(np.abs(v) - 1.0 / sqrt(d))))
                ev = apply_phase_operator(spec, phi, v)
                worst_eigen = max(worst_eigen, np.max(np.abs(
                    ev - np.exp(2j * pi * m / d) * v)))
                for m2, w in enumerate(states):
                    got = overlap_direct(v, w)
                    worst_ortho = max(worst_ortho, abs(got - (1.0 if m == m2 else 0.0)))
            worst_closure = max(worst_closure, np.max(np.abs(
                closure_matrix(spec, phi) - np.eye(d))))
            for _ in range(100):
                m, m2 = rng.integers(0, d, size=2)
                p1, p2 = rng.uniform(0.0, 4.0 * pi, size=2)
                direct = overlap_direct(phase_state(spec, int(m), p1),
                                        phase_state(spec, int(m2), p2))
                closed = overlap_closed(spec, int(m), p1, int(m2), p2)
                worst_overlap = max(worst_overlap, abs(direct - closed))
            m = int(rng.integers(0, d))
            t = float(rng.uniform(-2.0 * pi, 2.0 * pi))
            worst_temporal = max(worst_temporal, np.max(np.abs(
                evolve_vector(spec, phase_state(spec, m, phi), t)
                - phase_state(spec, m, phi + t))))
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            worst_unit = max(worst_unit, abs(
                np.linalg.norm(evolve_vector(spec, v, t)) - np.linalg.norm(v)))
    out.append(_result("phase", "equiprobability", worst_equi, 1e-12))
    out.append(_result("phase", "orthonormality", worst_ortho, 1e-12))
    out.append(_result("phase", "closure", worst_closure, 1e-12))
    out.append(_result("phase", "eigenvalue_relation", worst_eigen, 1e-12))
    out.append(_result("phase", "temporal_stability", worst_temporal, 1e-12))
    out.append(_result("phase", "overlap_closed_vs_direct", worst_overlap, 1e-12))
    out.append(_result("phase", "evolution_unitary", worst_unit, 1e-12))

    worst = 0.0
    for two_s in range(1, 9):
        base = phase_state(build_structure(Family.PEGG_BARNETT, two_s), 1, 0.0)
        for family, kappa in FAMILIES[1:]:
            other = phase_state(build_structure(family, two_s, kappa), 1, 0.0)
            worst = max(worst, np.max(np.abs(base - other)))
    out.append(_result("phase", "phi_zero_family_degeneracy", worst, 0.0))
    return out


def splitter_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst_norm = 0.0
    worst_mirror = 0.0
    for n in range(0, 21):
        r2 = float(rng.uniform(0.0, 1.0))
        b = split_number_state(n, SplitterParams(r2))
        worst_norm = max(worst_norm, abs(b.norm() - 1.0))
        b_swapped = split_number_state(n, SplitterParams(1.0 - r2))
        for p in range(n + 1):
            worst_mirror = max(worst_mirror, abs(
                abs(b.get(p, n - p)) - abs(b_swapped.get(n - p, p))))
    out.append(_result("splitter", "number_state_norm", worst_norm, 1e-12))
    out.append(_result("splitter", "transmit_reflect_mirror", worst_mirror, 1e-12))

    worst_rho = worst_state_norm = 0.0
    for family, kappa in FAMILIES:
        for two_s in range(1, 9):
            spec = build_structure(family, two_s, kappa)
            for _ in range(20):
                m = int(rng.integers(0, spec.dim))
                phi = float(rng.uniform(0.0, 4.0 * pi))
                params = SplitterParams(float(rng.uniform(0.0, 1.0)))
                b = split_phase_state(spec, m, phi, params)
                worst_state_norm = max(worst_state_norm, abs(b.norm() - 1.0))
                rho_traced = reduced_density(b)
                rho_direct = reduced_density_closed(spec, m, phi, params)
                worst_rho = max(worst_rho, np.max(np.abs(rho_traced - rho_direct)))
    out.append(_result("splitter", "phase_state_norm", worst_state_norm, 1e-12))
    out.append(_result("splitter", "reduced_density_two_routes", worst_rho, 1e-12))

    # The routes' log-space weights against sqrt(binom(n, p)) t^p (ir)^(n-p).
    params = SplitterParams(0.3)
    split = {n: split_number_state(n, params) for n in (*range(0, 21), 40, 50, 60)}

    def rel_err(n: int, p: int) -> float:
        want = sqrt(comb(n, p)) * params.t**p * params.r**(n - p) * ipow(n - p)
        return abs(split[n].get(p, n - p) - want) / abs(want)

    worst_exact = max(rel_err(n, p) for n in range(0, 21) for p in range(n + 1))
    worst_large = max(rel_err(n, p) for n in (40, 50, 60) for p in range(0, n + 1, 5))
    out.append(_result("splitter", "sqrt_binomial_exact_small", worst_exact, 1e-13))
    out.append(_result("splitter", "sqrt_binomial_relative_large", worst_large, 1e-13))
    return out


def entropy_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    phis = np.linspace(0.0, 2.0 * pi, 5)
    r2s = np.linspace(0.0, 1.0, 5)
    worst_routes = 0.0
    worst_fold = 0.0
    for family, kappa in FAMILIES:
        for two_s in range(1, 9):
            spec = build_structure(family, two_s, kappa)
            for r2 in r2s:
                params = SplitterParams(float(r2))
                closed, unfolded = np.array([
                    [linear_entropy_closed(spec, float(phi), params, folded=f).value
                     for phi in phis] for f in (True, False)])
                worst_fold = max(worst_fold, np.max(np.abs(closed - unfolded)))
                for m in range(spec.dim):
                    rho = reduced_density(split_phase_state(spec, m, phis, params))
                    worst_routes = max(worst_routes, np.max(np.abs(
                        linear_entropy(rho).value - closed)))
    out.append(_result("entropy", "closed_vs_oracle", worst_routes, 1e-10))
    out.append(_result("entropy", "folded_vs_unfolded", worst_fold, 1e-12))

    worst_spread = 0.0
    for two_s in range(1, 7):
        spec = build_structure(Family.KAPPA_NEG, two_s)
        for _ in range(10):
            phi = float(rng.uniform(0.0, 4.0 * pi))
            params = SplitterParams(float(rng.uniform(0.0, 1.0)))
            report = m_independence_report(spec, phi, params)
            worst_spread = max(worst_spread, report.spread)
    out.append(_result("entropy", "m_independence", worst_spread, 1e-12))

    worst_swap = 0.0
    for family, kappa in FAMILIES:
        spec = build_structure(family, 3, kappa)
        for _ in range(10):
            phi = float(rng.uniform(0.0, 2.0 * pi))
            r2 = float(rng.uniform(0.0, 1.0))
            s_a = linear_entropy_closed(spec, phi, SplitterParams(r2)).value
            s_b = linear_entropy_closed(spec, phi, SplitterParams(1.0 - r2)).value
            worst_swap = max(worst_swap, abs(s_a - s_b))
    out.append(_result("entropy", "reflection_swap_symmetry", worst_swap, 1e-10))

    coarse = np.round(np.linspace(0.0, 1.0, 21), 10)
    balanced_ok = True
    for family, kappa in FAMILIES:
        for two_s in (1, 2, 3):
            spec = build_structure(family, two_s, kappa)
            for phi in (0.0, pi / 2, pi):
                vals = [linear_entropy_closed(spec, phi, SplitterParams(float(r2))).value
                        for r2 in coarse]
                balanced_ok = balanced_ok and int(np.argmax(vals)) == 10
    out.append(CheckResult("entropy", "balanced_splitter_maximum", balanced_ok,
                           "argmax over the 21-point r2 grid is 0.5"))

    worst_d2 = 0.0
    spec = build_structure(Family.KAPPA_NEG, 1)
    for phi in phis:
        for r2 in r2s:
            s = linear_entropy_closed(spec, float(phi), SplitterParams(float(r2))).value
            worst_d2 = max(worst_d2, abs(s - float(r2) * (1.0 - float(r2)) / 2.0))
    out.append(_result("entropy", "qubit_analytic_form", worst_d2, 1e-12))

    spec = build_structure(Family.KAPPA_NEG, 2)
    worst_period = worst_parity = 0.0
    for phi in np.linspace(0.0, 2.0 * pi, 17):
        params = SplitterParams(0.5)
        s = linear_entropy_closed(spec, float(phi), params).value
        worst_period = max(worst_period, abs(
            s - linear_entropy_closed(spec, float(phi) + 2.0 * pi, params).value))
        worst_parity = max(worst_parity, abs(
            s - linear_entropy_closed(spec, 2.0 * pi - float(phi), params).value))
    out.append(_result("entropy", "integer_family_periodicity", worst_period, 1e-12))
    out.append(_result("entropy", "cosine_parity", worst_parity, 1e-12))
    return out


SUITES = {
    "algebra": algebra_suite,
    "phase": phase_suite,
    "splitter": splitter_suite,
    "entropy": entropy_suite,
}


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    """Run the named suites (or all of them) and collect every result."""
    picked = list(SUITES) if "all" in names else list(names)
    results: list[CheckResult] = []
    for name in picked:
        results.extend(SUITES[name](seed))
    return results
