"""Self-contained invariant suites behind the `check` CLI command.

Each suite exercises one module's documented invariants over the built-in
families and a seeded sample of parameters, returning structured results
instead of raising, so the CLI can report every check even after a failure.
The entropy suite checks the closed form against _quadruple_sum, the
paper's complex sum term by term, which shares no code with entropy.py.
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
from .entropy import linear_entropy, linear_entropy_closed
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
# entropy.m_independence fails where the entropies of the labels m at one
# (phi, r2) spread by more.
M_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite: str, name: str, worst: float, tol: float) -> CheckResult:
    return CheckResult(suite, name, worst <= tol, f"max deviation {worst:.3e} (tol {tol:.1e})")


def _quadruple_sum(spec, phis, r2s) -> tuple[np.ndarray, np.ndarray]:
    """S and the imaginary part, shape (phis, r2s), of the paper's complex sum
    1 - sum a(n,l) a(n',l) a(n,l') a(n',l') e^{-i [F(n+l) + F(n'+l') - F(n'+l)
    - F(n+l')] phi} / d^2 over max(n, n') + max(l, l') <= 2s, term by term,
    with a(n, l) = sqrt(comb(n+l, n) t2^n r2^l).  One r2 at a time; each cell
    has the bits of its own one-cell call.
    """
    two_s, d = spec.two_s, spec.dim
    n, n2, l, l2 = np.indices((d,) * 4).reshape(4, -1)
    inside = np.maximum(n, n2) + np.maximum(l, l2) <= two_s
    n, n2, l, l2 = n[inside], n2[inside], l[inside], l2[inside]
    levels = spec.levels
    angle = levels[n + l] + levels[n2 + l2] - levels[n2 + l] - levels[n + l2]
    phase = np.exp(-1j * np.multiply.outer(phis, angle))  # one row per phi
    binom = np.array([[comb(i + k, i) if i + k <= two_s else 0 for k in range(d)]
                      for i in range(d)], dtype=float)
    powers = np.arange(d)
    sums = []
    for r2 in r2s:
        a = np.sqrt(binom * ((1.0 - r2) ** powers)[:, None] * r2 ** powers)
        sums.append((phase * (a[n, l] * a[n2, l] * a[n, l2] * a[n2, l2])).sum(axis=-1))
    total = np.transpose(sums) / (d * d)
    return 1.0 - total.real, total.imag


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
            # The operators take one phase; every check runs once over their stacks.
            phis = rng.uniform(0.0, 4.0 * pi, size=4)
            e, am, ap = (np.array([op(spec, phi) for phi in phis])
                         for op in (phase_operator, ladder_minus, ladder_plus))
            e_h = e.conj().swapaxes(-1, -2)
            worst_unitary = max(worst_unitary, np.max(np.abs(e_h @ e - eye)),
                                np.max(np.abs(e @ e_h - eye)))
            worst_adjoint = max(worst_adjoint,
                                np.max(np.abs(ap - am.conj().swapaxes(-1, -2))))
            worst_products = max(
                worst_products,
                np.max(np.abs(ap @ am - np.diag(spec.levels[:d]))),
                np.max(np.abs(am @ ap - np.diag(spec.levels[1:]))))
            worst_number = max(worst_number, np.max(np.abs(num @ am - am @ num + am)),
                               np.max(np.abs(num @ ap - ap @ num - ap)))
            worst_comm = max(worst_comm, np.max(np.abs(
                am @ ap - ap @ am - np.diag(spec.spacings))))
            worst_polar = max(worst_polar, np.max(np.abs(
                e @ np.diag(np.sqrt(spec.levels[:d])) - am)))
            cycle = np.linalg.matrix_power(e, d)
            worst_cycle = max(worst_cycle, np.max(np.abs(cycle - cycle[:, :1, :1] * eye)))
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
            labels = np.arange(d)
            states = phase_state(spec, labels, phi)
            worst_equi = max(worst_equi, np.max(np.abs(np.abs(states) - 1.0 / sqrt(d))))
            worst_eigen = max(worst_eigen, np.max(np.abs(
                apply_phase_operator(spec, phi, states)
                - np.exp(2j * pi * labels / d)[:, None] * states)))
            gram = overlap_direct(states[:, None], states)
            worst_ortho = max(worst_ortho, np.max(np.abs(gram - np.eye(d))))
            worst_closure = max(worst_closure, np.max(np.abs(
                closure_matrix(spec, phi) - np.eye(d))))
            m, m2 = rng.integers(0, d, size=(2, 100))
            p1, p2 = rng.uniform(0.0, 4.0 * pi, size=(2, 100))
            direct = overlap_direct(phase_state(spec, m, p1), phase_state(spec, m2, p2))
            worst_overlap = max(worst_overlap, np.max(np.abs(
                direct - overlap_closed(spec, m, p1, m2, p2))))
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

    worst_norm = worst_mirror = 0.0
    for n, r2 in enumerate(rng.uniform(0.0, 1.0, size=21)):
        b = split_number_state(n, SplitterParams(r2))
        worst_norm = max(worst_norm, abs(b.norm() - 1.0))
        # amp(p, k) against the swapped splitter's amp(k, p), zero off the shell on both
        b_swapped = split_number_state(n, SplitterParams(1.0 - r2))
        worst_mirror = max(worst_mirror, np.max(np.abs(np.abs(b.amp) - np.abs(b_swapped.amp).T)))
    out.append(_result("splitter", "number_state_norm", worst_norm, 1e-12))
    out.append(_result("splitter", "transmit_reflect_mirror", worst_mirror, 1e-12))

    worst_rho = worst_state_norm = 0.0
    for family, kappa in FAMILIES:
        for two_s in range(1, 9):
            spec = build_structure(family, two_s, kappa)
            m = rng.integers(0, spec.dim, size=20)
            phi, r2 = rng.uniform((0.0, 0.0), (4.0 * pi, 1.0), size=(20, 2)).T
            params = SplitterParams(r2)
            b = split_phase_state(spec, m, phi, params)
            worst_state_norm = max(worst_state_norm, np.max(np.abs(b.norm() - 1.0)))
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
    grid = SplitterParams(r2s)
    worst_routes = 0.0
    worst_fold = 0.0
    for family, kappa in FAMILIES:
        for two_s in range(1, 9):
            spec = build_structure(family, two_s, kappa)
            closed = linear_entropy_closed(spec, phis[:, None], grid).value
            # The folded table against the complex sum, whose imaginary part must vanish.
            s_sum, imag = _quadruple_sum(spec, phis, r2s)
            worst_fold = max(worst_fold, np.max(np.abs(closed - s_sum)), np.max(np.abs(imag)))
            labels = np.arange(spec.dim)[:, None, None]
            rho = reduced_density(split_phase_state(spec, labels, phis[:, None], grid))
            worst_routes = max(worst_routes, np.max(np.abs(linear_entropy(rho).value - closed)))
    out.append(_result("entropy", "closed_vs_oracle", worst_routes, 1e-10))
    out.append(_result("entropy", "folded_vs_unfolded", worst_fold, 1e-12))

    worst_spread = 0.0
    for two_s in range(1, 7):
        spec = build_structure(Family.KAPPA_NEG, two_s)
        phi, r2 = rng.uniform((0.0, 0.0), (4.0 * pi, 1.0), size=(10, 2)).T
        # One oracle call over all labels, one column per draw.
        labels = np.arange(spec.dim)[:, None]
        values = linear_entropy(reduced_density(
            split_phase_state(spec, labels, phi, SplitterParams(r2)))).value
        worst_spread = max(worst_spread, float(np.max(values.max(axis=0) - values.min(axis=0))))
    out.append(_result("entropy", "m_independence", worst_spread, M_SPREAD_TOL))

    worst_swap = 0.0
    for family, kappa in FAMILIES:
        spec = build_structure(family, 3, kappa)
        phi, r2 = rng.uniform((0.0, 0.0), (2.0 * pi, 1.0), size=(10, 2)).T
        s_a, s_b = (linear_entropy_closed(spec, phi, SplitterParams(x)).value
                    for x in (r2, 1.0 - r2))
        worst_swap = max(worst_swap, np.max(np.abs(s_a - s_b)))
    out.append(_result("entropy", "reflection_swap_symmetry", worst_swap, 1e-10))

    coarse = SplitterParams(np.round(np.linspace(0.0, 1.0, 21), 10))
    balanced_ok = True
    for family, kappa in FAMILIES:
        for two_s in (1, 2, 3):
            spec = build_structure(family, two_s, kappa)
            vals = linear_entropy_closed(spec, np.array([0.0, pi / 2, pi])[:, None], coarse).value
            balanced_ok = balanced_ok and bool((np.argmax(vals, axis=-1) == 10).all())
    out.append(CheckResult("entropy", "balanced_splitter_maximum", balanced_ok,
                           "argmax over the 21-point r2 grid is 0.5"))

    s = linear_entropy_closed(build_structure(Family.KAPPA_NEG, 1), phis[:, None], grid).value
    worst_d2 = np.max(np.abs(s - r2s * (1.0 - r2s) / 2.0))
    out.append(_result("entropy", "qubit_analytic_form", worst_d2, 1e-12))

    spec = build_structure(Family.KAPPA_NEG, 2)
    params = SplitterParams(0.5)
    phis = np.linspace(0.0, 2.0 * pi, 17)
    s = linear_entropy_closed(spec, phis, params).value
    worst_period = np.max(np.abs(
        s - linear_entropy_closed(spec, phis + 2.0 * pi, params).value))
    worst_parity = np.max(np.abs(
        s - linear_entropy_closed(spec, 2.0 * pi - phis, params).value))
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
