from math import exp, fsum, pi

import numpy as np
import pytest

from phasebeam import (
    BipartiteVector,
    EntropyValue,
    Family,
    IndexOutOfRangeError,
    InvalidDensityError,
    NotNormalizedError,
    NumericalConsistencyError,
    SplitterParams,
    build_structure,
    linear_entropy,
    linear_entropy_closed,
    m_independence_report,
    phase_term,
    reduced_density,
    split_phase_state,
    structure_from_spacings,
    tri_size,
)
from phasebeam.numerics import log_factorials

FAMILIES = [
    (Family.PEGG_BARNETT, None),
    (Family.KAPPA_NEG, None),
    (Family.KAPPA_POS, 0.5),
]

BALANCED = SplitterParams(0.5)


def oracle_entropy(spec, m, phi, params):
    return linear_entropy(reduced_density(split_phase_state(spec, m, phi, params)))


def _closed_loop_reference(two_s, *, folded):
    """The closed-form sum as a plain loop over its terms.

    Nested loops visit (n, n', l, l') one term at a time, apart from the
    blocked index arrays of linear_entropy_closed, and record each term's
    indices and its magnitude without the splitter powers.  The returned function
    completes every term for one (spec, phi, r2), with a level bracket of
    exactly 0 where n == n' or l == l', and sums them with math.fsum.  It
    gives S and, unfolded, the imaginary part of the sum (must be zero).
    """
    d = two_s + 1
    lgf = log_factorials(two_s)
    terms = []
    for n in range(d):
        for n2 in range(n if folded else 0, d):
            lmax = two_s - max(n, n2)
            for l in range(lmax + 1):
                for l2 in range(l if folded else 0, lmax + 1):
                    mag = exp(0.5 * (lgf[n + l] + lgf[n2 + l2]
                                     + lgf[n + l2] + lgf[n2 + l])
                              - lgf[n] - lgf[n2] - lgf[l] - lgf[l2]) / (d * d)
                    if folded:
                        mag *= (1.0 if n == n2 else 2.0) * (1.0 if l == l2 else 2.0)
                    terms.append((mag, n, n2, l, l2))
    mag, n, n2, l, l2 = (np.array(col) for col in zip(*terms))
    flat = (n == n2) | (l == l2)

    def evaluate(spec, phi, r2):
        levels = spec.levels
        bracket = np.where(flat, 0.0, levels[n + l] + levels[n2 + l2]
                           - levels[n2 + l] - levels[n + l2])
        full = mag * (1.0 - r2) ** (n + n2) * r2 ** (l + l2)
        s = 1.0 - fsum((full * np.cos(bracket * phi)).tolist())
        if folded:
            return s, 0.0
        return s, -fsum((full * np.sin(bracket * phi)).tolist())

    return evaluate


class TestLinearEntropyFromRho:
    def test_pure_state_zero(self):
        v = np.array([0.6, 0.8j], dtype=complex)
        rho = np.outer(v, v.conj())
        result = linear_entropy(rho)
        assert result.value == 0.0
        assert result.method == "oracle"

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            result = linear_entropy(np.eye(d, dtype=complex) / d)
            assert result.value == pytest.approx(1.0 - 1.0 / d, abs=1e-15)

    def test_balanced_qubit_value(self):
        spec = build_structure(Family.KAPPA_NEG, 1)
        assert oracle_entropy(spec, 0, 0.0, BALANCED).value == pytest.approx(
            0.125, abs=1e-12)

    def test_rejects_invalid_density(self):
        with pytest.raises(InvalidDensityError):
            linear_entropy(np.eye(2, dtype=complex))


class TestEntropyValue:
    def test_bound_enforced(self):
        with pytest.raises(NumericalConsistencyError):
            EntropyValue(0.6, "oracle", 2)
        with pytest.raises(NumericalConsistencyError):
            EntropyValue(-0.1, "closed", 3)
        # every entry of a stack is checked, a NaN included
        for bad in (0.6, -0.1, np.nan):
            with pytest.raises(NumericalConsistencyError):
                EntropyValue(np.array([0.1, bad, 0.2]), "oracle", 2)

    def test_valid_range(self):
        ev = EntropyValue(0.5, "closed", 2)
        assert ev.value == 0.5
        assert ev.dim == 2


class TestPhaseTerm:
    def setup_method(self):
        self.spec = build_structure(Family.KAPPA_POS, 3, kappa=0.5)

    def test_zero_when_n_equal(self):
        assert phase_term(self.spec, 1, 1, 0, 2, 1.7) == 0.0

    def test_zero_when_l_equal(self):
        assert phase_term(self.spec, 0, 2, 1, 1, 1.7) == 0.0

    def test_value(self):
        # levels are [0, 1, 3, 6, 0]; bracket = F(1)+F(1)-F(2)-F(0) = -1
        assert phase_term(self.spec, 0, 1, 1, 0, 2.0) == pytest.approx(-2.0)

    def test_antisymmetric_in_l_swap(self):
        for args in [(0, 1, 1, 0), (0, 2, 1, 0), (1, 2, 0, 1)]:
            n, n2, l, l2 = args
            assert phase_term(self.spec, n, n2, l, l2, 0.9) == pytest.approx(
                -phase_term(self.spec, n, n2, l2, l, 0.9), abs=1e-14)

    def test_antisymmetric_in_n_swap(self):
        # swapping n <-> n' also flips the sign; only the simultaneous
        # swap of both pairs leaves the angle invariant
        for args in [(0, 1, 1, 0), (0, 2, 1, 0), (1, 2, 0, 1)]:
            n, n2, l, l2 = args
            assert phase_term(self.spec, n, n2, l, l2, 0.9) == pytest.approx(
                -phase_term(self.spec, n2, n, l, l2, 0.9), abs=1e-14)

    def test_invariant_under_double_swap(self):
        for args in [(0, 1, 1, 0), (0, 2, 1, 0), (1, 2, 0, 1)]:
            n, n2, l, l2 = args
            assert phase_term(self.spec, n, n2, l, l2, 0.9) == pytest.approx(
                phase_term(self.spec, n2, n, l2, l, 0.9), abs=1e-14)

    def test_index_range(self):
        with pytest.raises(IndexOutOfRangeError):
            phase_term(self.spec, 2, 0, 3, 0, 1.0)   # 2 + 3 > 2s + 1
        with pytest.raises(IndexOutOfRangeError):
            phase_term(self.spec, -1, 0, 0, 0, 1.0)

    def test_top_of_table_allowed(self):
        # n + l = 2s + 1 indexes the last table entry, which is legal
        assert phase_term(self.spec, 1, 0, 3, 0, 1.0) == pytest.approx(
            (0.0 + 0.0 - 6.0 - 1.0) * 1.0)


class TestLinearEntropyClosed:
    def test_fully_transmitting_is_pure(self):
        for family, kappa in FAMILIES:
            spec = build_structure(family, 3, kappa)
            assert linear_entropy_closed(spec, 1.9, SplitterParams(0.0)).value == 0.0

    def test_fully_reflecting_is_pure(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        assert linear_entropy_closed(spec, 1.9, SplitterParams(1.0)).value \
            == pytest.approx(0.0, abs=1e-13)

    def test_qubit_analytic_any_phi(self):
        spec = build_structure(Family.KAPPA_NEG, 1)
        for phi in np.linspace(0.0, 2 * pi, 8):
            for r2 in np.linspace(0.0, 1.0, 11):
                got = linear_entropy_closed(spec, float(phi), SplitterParams(float(r2)))
                assert got.value == pytest.approx(r2 * (1 - r2) / 2, abs=1e-12)
                assert got.method == "closed"

    def test_qutrit_phi_ordering(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        s_zero = linear_entropy_closed(spec, 0.0, BALANCED).value
        s_pi = linear_entropy_closed(spec, pi, BALANCED).value
        assert s_pi > s_zero

    def test_frozen_values(self):
        # references from an independent brute-force partial trace
        cases = [
            (Family.KAPPA_NEG, None, 2, 1.0, 0.3, 0.17928373411758292),
            (Family.KAPPA_NEG, None, 3, 2.0, 0.6, 0.45336314293206814),
            (Family.PEGG_BARNETT, None, 2, 1.0, 0.3, 0.11860673417851075),
            (Family.KAPPA_NEG, None, 2, 0.0, 0.5, 0.134531826402989),
            (Family.KAPPA_NEG, None, 2, pi, 0.5, 0.4488015069303436),
        ]
        for family, kappa, two_s, phi, r2, expected in cases:
            spec = build_structure(family, two_s, kappa)
            closed = linear_entropy_closed(spec, phi, SplitterParams(r2)).value
            assert closed == pytest.approx(expected, abs=1e-12)
            got = oracle_entropy(spec, 0, phi, SplitterParams(r2)).value
            assert got == pytest.approx(expected, abs=1e-12)

    def test_folded_matches_unfolded(self):
        rng = np.random.default_rng(61)
        for family, kappa in FAMILIES:
            for two_s in (1, 2, 4, 6):
                spec = build_structure(family, two_s, kappa)
                for _ in range(5):
                    phi = float(rng.uniform(0, 4 * pi))
                    params = SplitterParams(float(rng.uniform(0, 1)))
                    folded = linear_entropy_closed(spec, phi, params).value
                    unfolded = linear_entropy_closed(spec, phi, params,
                                                     folded=False).value
                    assert abs(folded - unfolded) <= 1e-13

    @pytest.mark.parametrize("two_s", [1, 2, 3, 8, 20, 30])
    def test_pinned_to_loop_reference(self, two_s):
        # 2s = 20 and 30 span several blocks of the numpy sum
        rng = np.random.default_rng(two_s)
        custom = rng.uniform(0.5, 3.0, two_s)
        specs = [build_structure(family, two_s, kappa) for family, kappa in FAMILIES]
        specs.append(structure_from_spacings(np.diff(np.r_[0.0, custom, 0.0])))
        for folded in (True, False):
            reference = _closed_loop_reference(two_s, folded=folded)
            for spec in specs:
                for phi in (0.0, 1.0, pi):
                    for r2 in (0.0, 0.5, 1.0):
                        want, imag = reference(spec, phi, r2)
                        got = linear_entropy_closed(spec, phi, SplitterParams(r2),
                                                    folded=folded).value
                        assert abs(got - want) <= 1e-13
                        assert abs(imag) <= 1e-13

    def test_matches_partial_trace_at_two_s_40(self):
        for family, kappa in FAMILIES:
            spec = build_structure(family, 40, kappa)
            for phi in (0.0, 1.0, pi):
                params = SplitterParams(0.3)
                closed = linear_entropy_closed(spec, phi, params).value
                assert abs(closed - oracle_entropy(spec, 0, phi, params).value) <= 1e-10

    def test_closed_vs_oracle_grid(self):
        phis = np.linspace(0.0, 2 * pi, 5)
        r2s = np.linspace(0.0, 1.0, 5)
        for family, kappa in FAMILIES:
            for two_s in (1, 2, 3, 4):
                spec = build_structure(family, two_s, kappa)
                for phi in phis:
                    params_list = [SplitterParams(float(r2)) for r2 in r2s]
                    for params in params_list:
                        closed = linear_entropy_closed(spec, float(phi), params).value
                        for m in range(spec.dim):
                            got = oracle_entropy(spec, m, float(phi), params).value
                            assert abs(got - closed) <= 1e-10

    def test_reflection_swap_symmetry(self):
        rng = np.random.default_rng(67)
        for family, kappa in FAMILIES:
            spec = build_structure(family, 4, kappa)
            for _ in range(8):
                phi = float(rng.uniform(0, 2 * pi))
                r2 = float(rng.uniform(0, 1))
                s_a = linear_entropy_closed(spec, phi, SplitterParams(r2)).value
                s_b = linear_entropy_closed(spec, phi, SplitterParams(1 - r2)).value
                assert abs(s_a - s_b) <= 1e-10

    def test_integer_spacing_periodicity_and_parity(self):
        # concave table at 2s = 2 has integer level gaps, so S is 2pi
        # periodic and even around pi
        spec = build_structure(Family.KAPPA_NEG, 2)
        for phi in np.linspace(0.0, 2 * pi, 17):
            s = linear_entropy_closed(spec, float(phi), BALANCED).value
            assert abs(s - linear_entropy_closed(
                spec, float(phi) + 2 * pi, BALANCED).value) <= 1e-12
            assert abs(s - linear_entropy_closed(
                spec, 2 * pi - float(phi), BALANCED).value) <= 1e-12

    def test_quartit_maximum_sits_below_pi(self):
        # the 2s = 3 curve peaks at (3/2) arccos(-c1/(4 c2)) ~ 2.9424,
        # slightly below pi; frozen from a fine-grid scan
        spec = build_structure(Family.KAPPA_NEG, 3)
        peak = 2.9423500713090815
        s_peak = linear_entropy_closed(spec, peak, BALANCED).value
        assert s_peak > linear_entropy_closed(spec, pi, BALANCED).value
        assert s_peak > linear_entropy_closed(spec, peak - 0.05, BALANCED).value
        assert s_peak > linear_entropy_closed(spec, peak + 0.05, BALANCED).value

    def test_upper_bound(self):
        for family, kappa in FAMILIES:
            for two_s in (1, 2, 5):
                spec = build_structure(family, two_s, kappa)
                s = linear_entropy_closed(spec, pi, BALANCED).value
                assert s <= 1.0 - 1.0 / spec.dim + 1e-12


class TestMIndependence:
    def test_spread_within_tolerance(self):
        rng = np.random.default_rng(71)
        for two_s in (1, 2, 3):
            spec = build_structure(Family.KAPPA_NEG, two_s)
            phi = float(rng.uniform(0, 4 * pi))
            report = m_independence_report(spec, phi, SplitterParams(0.3))
            assert report.spread <= 1e-12
            assert len(report.values) == spec.dim
            assert report.value == report.values[0]

    def test_zero_reflection_all_zero(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        report = m_independence_report(spec, 1.0, SplitterParams(0.0))
        assert all(v == 0.0 for v in report.values)

    def test_raises_on_absurd_tolerance(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        with pytest.raises(NumericalConsistencyError):
            m_independence_report(spec, 1.0, SplitterParams(0.4), tol=-1.0)


class TestClamping:
    def test_roundoff_excursions_clamped(self):
        from phasebeam.entropy import _clamp_unit_interval

        assert _clamp_unit_interval(-5e-11) == 0.0
        assert _clamp_unit_interval(1.0 + 5e-11) == 1.0
        assert _clamp_unit_interval(0.3) == 0.3
        got = _clamp_unit_interval(np.array([0.3, -5e-11, 1.0 + 5e-11]))
        assert np.array_equal(got, [0.3, 0.0, 1.0])
        assert EntropyValue(-5e-11, "oracle", 2).value == 0.0

    def test_large_excursions_refused(self):
        from phasebeam.entropy import _clamp_unit_interval

        with pytest.raises(NumericalConsistencyError):
            _clamp_unit_interval(-1e-9)
        with pytest.raises(NumericalConsistencyError):
            _clamp_unit_interval(1.0 + 1e-9)
        for bad in (-1e-9, 1.0 + 1e-9):
            with pytest.raises(NumericalConsistencyError):
                _clamp_unit_interval(np.array([0.3, bad, 0.5]))


def _stack_specs():
    """The three families and one spacing table, at 2s in {1, 2, 8, 40}."""
    rng = np.random.default_rng(11)
    for two_s in (1, 2, 8, 40):
        for family, kappa in FAMILIES:
            yield build_structure(family, two_s, kappa)
        g = rng.uniform(0.5, 1.5, two_s)
        yield structure_from_spacings(np.append(g, -g.sum()))


class TestPhaseStacks:
    """An array of phases gives the per-phase results on its leading axes."""

    PHIS = np.array([[0.0, 0.7, pi], [2.5, 4.0, 11.0]])
    PARAMS = SplitterParams(0.3)

    @pytest.mark.parametrize(
        "spec", list(_stack_specs()),
        ids=lambda spec: f"{spec.family.value}-{spec.two_s}")
    def test_stack_matches_per_phase(self, spec):
        shape = self.PHIS.shape
        for m in sorted({0, 1, spec.two_s}):
            b = split_phase_state(spec, m, self.PHIS, self.PARAMS)
            rho = reduced_density(b)
            s = linear_entropy(rho).value
            assert b.amp.shape == shape + (tri_size(spec.two_s),)
            assert rho.shape == shape + (spec.dim, spec.dim)
            assert s.shape == shape
            assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
            for idx in np.ndindex(shape):
                one = split_phase_state(spec, m, float(self.PHIS[idx]), self.PARAMS)
                rho_one = reduced_density(one)
                assert np.max(np.abs(b.amp[idx] - one.amp)) <= 1e-15
                assert np.max(np.abs(rho[idx] - rho_one)) <= 1e-15
                assert abs(s[idx] - linear_entropy(rho_one).value) <= 1e-15

    def test_scalar_return_types(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        b = split_phase_state(spec, 1, 0.7, self.PARAMS)
        assert b.amp.shape == (tri_size(3),)
        assert type(b.get(1, 2)) is complex
        assert type(b.norm()) is float
        assert type(linear_entropy(reduced_density(b)).value) is float
        assert type(linear_entropy_closed(spec, 0.7, self.PARAMS).value) is float

    def test_norm_is_per_vector(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        b = split_phase_state(spec, 0, self.PHIS, self.PARAMS)
        assert b.norm().shape == self.PHIS.shape
        assert np.max(np.abs(b.norm() - 1.0)) <= 1e-12

    def test_one_unnormalised_vector_refused(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        amp = split_phase_state(spec, 0, self.PHIS, self.PARAMS).amp.copy()
        amp[1, 2] *= 1.1
        with pytest.raises(NotNormalizedError):
            reduced_density(BipartiteVector(3, amp))

    def test_one_entropy_beyond_clamp_refused(self):
        good = np.eye(2) / 2.0
        # PSD within 1e-10, but S = -2e-10, beyond the clamp band
        bad = np.diag([1.0 + 1e-10, -1e-10])
        stack = np.stack([good, bad, good]).astype(complex)
        with pytest.raises(NumericalConsistencyError):
            linear_entropy(stack)
        with pytest.raises(NumericalConsistencyError):
            linear_entropy(stack, validate=False)
