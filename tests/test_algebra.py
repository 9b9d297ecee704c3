from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebeam import (
    Family,
    InvalidDimensionError,
    InvalidStructureError,
    MissingKappaError,
    NonPositiveLevelError,
    StructureSpec,
    TraceNotZeroError,
    build_structure,
    hamiltonian,
    ladder_minus,
    ladder_plus,
    number_operator,
    phase_operator,
    structure_from_spacings,
)

FAMILIES = [
    (Family.PEGG_BARNETT, None),
    (Family.KAPPA_NEG, None),
    (Family.KAPPA_POS, 0.5),
]


class TestBuildStructure:
    def test_pegg_barnett_tables(self):
        spec = build_structure(Family.PEGG_BARNETT, 2)
        assert np.array_equal(spec.levels, [0.0, 1.0, 2.0, 0.0])
        assert np.array_equal(spec.spacings, [1.0, 1.0, -2.0])
        # last spacing is 1 - (2s+1)
        assert spec.spacings[-1] == 1 - (spec.two_s + 1)

    def test_kappa_neg_tables(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        assert spec.kappa == pytest.approx(-0.5)
        assert np.allclose(spec.levels, [0.0, 1.0, 1.0, 0.0], atol=1e-15)
        assert np.allclose(spec.spacings, [1.0, 0.0, -1.0], atol=1e-15)

    def test_kappa_neg_redundant_kappa_accepted(self):
        spec = build_structure(Family.KAPPA_NEG, 2, kappa=-0.5)
        assert spec.kappa == -0.5

    def test_kappa_neg_wrong_kappa_rejected(self):
        with pytest.raises(InvalidStructureError):
            build_structure(Family.KAPPA_NEG, 2, kappa=-0.3)

    def test_custom_matches_kappa_neg(self):
        spec = build_structure(Family.CUSTOM, 3,
                               levels=[0.0, 1.0, 4.0 / 3.0, 1.0, 0.0])
        reference = build_structure(Family.KAPPA_NEG, 3)
        assert np.allclose(spec.levels, reference.levels, atol=1e-15)

    def test_kappa_pos_levels(self):
        spec = build_structure(Family.KAPPA_POS, 2, kappa=1.0)
        assert np.array_equal(spec.levels, [0.0, 1.0, 4.0, 0.0])
        assert np.array_equal(spec.spacings, [1.0, 3.0, -4.0])

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            build_structure(Family.PEGG_BARNETT, 0)

    def test_missing_kappa(self):
        with pytest.raises(MissingKappaError):
            build_structure(Family.KAPPA_POS, 2)
        with pytest.raises(MissingKappaError):
            build_structure(Family.KAPPA_POS, 2, kappa=-1.0)

    def test_non_positive_levels_rejected(self):
        with pytest.raises(NonPositiveLevelError):
            build_structure(Family.CUSTOM, 2, levels=[0.0, 1.0, -0.5, 0.0])

    def test_truncation_violation_rejected(self):
        with pytest.raises(TraceNotZeroError):
            build_structure(Family.CUSTOM, 2, levels=[0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_kappa_rejected(self, bad):
        with pytest.raises(MissingKappaError):
            build_structure(Family.KAPPA_POS, 2, kappa=bad)
        with pytest.raises(InvalidStructureError):
            build_structure(Family.KAPPA_NEG, 2, kappa=bad)

    @pytest.mark.parametrize("two_s, kappa", [
        (3, 1.7976931348623157e308), (3, 1e308), (3, np.float64(1e308)), (40, 1e306)],
        ids=["largest-double", "1e308", "numpy-scalar", "2s40"])
    def test_levels_past_the_float_range_refused(self, two_s, kappa):
        # F(2s) = 2s (1 + kappa (2s - 1)) overflows a double; it is refused
        # before numpy forms it, so nothing warns under filterwarnings = error
        with pytest.raises(InvalidStructureError, match="^level table must be finite$"):
            build_structure(Family.KAPPA_POS, two_s, kappa)

    def test_largest_level_under_the_float_range_kept(self):
        # F(3) = 1.2e308 is finite; the formula at n = 2s + 1 would overflow,
        # but F(2s + 1) is 0 and never formed
        kappa = 2e307
        spec = build_structure(Family.KAPPA_POS, 3, kappa)
        assert spec.levels.tolist() == [0.0, 1.0, 2.0 * (1.0 + kappa),
                                        3.0 * (1.0 + kappa * 2.0), 0.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tables_rejected(self, bad):
        with pytest.raises(InvalidStructureError):
            build_structure(Family.CUSTOM, 3, levels=[0.0, 1.0, bad, 1.0, 0.0])
        with pytest.raises(InvalidStructureError):
            build_structure(Family.CUSTOM, 3, levels=[0.0, bad, bad, 1.0, 0.0])
        with pytest.raises(InvalidStructureError):
            StructureSpec(Family.CUSTOM, 2, None, levels=[0.0, 1.0, bad, 0.0])

    def test_custom_requires_table(self):
        with pytest.raises(InvalidStructureError):
            build_structure(Family.CUSTOM, 2)

    @pytest.mark.parametrize("family, kappa", FAMILIES)
    def test_spacings_are_the_level_differences(self, family, kappa):
        for two_s in range(1, 41):
            spec = build_structure(family, two_s, kappa)
            assert np.array_equal(spec.spacings, np.diff(spec.levels))
            assert not spec.spacings.flags.writeable

    def test_spacings_are_not_an_argument(self):
        with pytest.raises(TypeError):
            StructureSpec(Family.CUSTOM, 2, None, levels=[0.0, 1.0, 1.0, 0.0],
                          spacings=[1.0, 0.0, -1.0])

    def test_tables_are_read_only(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        with pytest.raises(ValueError):
            spec.levels[1] = 5.0
        with pytest.raises(ValueError):
            spec.spacings[0] = 5.0


class TestStructureFromSpacings:
    def test_prefix_sums(self):
        spec = structure_from_spacings([1.0, 1.0, -2.0])
        assert np.array_equal(spec.levels, [0.0, 1.0, 2.0, 0.0])

    def test_two_level(self):
        spec = structure_from_spacings([1.0, -1.0])
        assert np.array_equal(spec.levels, [0.0, 1.0, 0.0])

    def test_matches_kappa_neg(self):
        spec = structure_from_spacings([1.0, 0.0, -1.0])
        assert np.array_equal(spec.levels, [0.0, 1.0, 1.0, 0.0])

    def test_trace_not_zero(self):
        with pytest.raises(TraceNotZeroError):
            structure_from_spacings([1.0, 1.0])

    def test_non_positive_prefix(self):
        with pytest.raises(NonPositiveLevelError):
            structure_from_spacings([-1.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [[float("nan"), 1.0, -1.0],
                                     [float("inf"), -float("inf"), 0.0]])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidStructureError):
            structure_from_spacings(bad)

    @pytest.mark.parametrize("g, error, message", [
        ([1e308, 1e308, -1e308], TraceNotZeroError, "^spacings must sum to 0, got inf$"),
        # numpy's pairwise sum overflows both ways, to NaN; the levels decide
        ([1e308, -1e308] * 8, NonPositiveLevelError, r"^F\(2\) = 0.0 "),
        # the prefix sums overflow, whatever numpy's sum does
        ([1e308, 1e308, *[0.0] * 6, -1e308, -1e308, *[0.0] * 6], InvalidStructureError, None),
    ], ids=["sum", "pairwise-sum", "prefix-sums"])
    def test_sums_past_the_float_range_refused(self, g, error, message):
        # refused with the table's own error; nothing warns under
        # filterwarnings = error
        with pytest.raises(error, match=message):
            structure_from_spacings(g)

    def test_too_short(self):
        with pytest.raises(InvalidDimensionError):
            structure_from_spacings([0.0])

    def test_levels_are_the_prefix_sums(self):
        rng = np.random.default_rng(14)
        for two_s in (1, 2, 5, 20, 40):
            g = rng.uniform(0.5, 1.5, two_s)
            g = np.append(g, -g.sum())
            spec = structure_from_spacings(g)
            assert np.array_equal(spec.levels, np.concatenate(([0.0], np.cumsum(g))))
            # the spec's spacings are the levels' differences, a few ulps from g
            assert np.max(np.abs(spec.spacings - g)) <= 1e-15 * np.abs(spec.levels).max()

    def test_roundtrip_from_families(self):
        for family, kappa in FAMILIES:
            for two_s in range(1, 9):
                spec = build_structure(family, two_s, kappa)
                rebuilt = structure_from_spacings(spec.spacings)
                assert np.allclose(rebuilt.levels, spec.levels, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.05, max_value=10.0), min_size=1, max_size=12))
    def test_roundtrip_random_levels(self, interior):
        levels = np.concatenate(([0.0], np.array(interior), [0.0]))
        spacings = np.diff(levels)
        spec = structure_from_spacings(spacings)
        assert np.allclose(spec.levels, levels, atol=1e-12)


class TestLadders:
    def test_pegg_barnett_qubit(self):
        spec = build_structure(Family.PEGG_BARNETT, 1)
        assert np.array_equal(ladder_minus(spec, 0.0),
                              np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_kappa_neg_moduli(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        a = ladder_minus(spec, 1.37)
        assert abs(a[0, 1]) == pytest.approx(1.0, abs=1e-15)
        assert abs(a[1, 2]) == pytest.approx(1.0, abs=1e-15)

    def test_raising_is_exact_adjoint(self):
        for family, kappa in FAMILIES:
            spec = build_structure(family, 4, kappa)
            for phi in (0.0, 0.9, 3.7):
                assert np.array_equal(ladder_plus(spec, phi),
                                      ladder_minus(spec, phi).conj().T)

    def test_raising_annihilates_top_state(self):
        for family, kappa in FAMILIES:
            spec = build_structure(family, 3, kappa)
            ap = ladder_plus(spec, 0.8)
            assert np.all(ap[:, spec.two_s] == 0.0)

    def test_commutator_is_diagonal_spacings(self):
        for family, kappa in FAMILIES:
            for two_s in (1, 2, 5):
                spec = build_structure(family, two_s, kappa)
                for phi in (0.0, 1.1, 2 * pi, 11.0):
                    am = ladder_minus(spec, phi)
                    ap = ladder_plus(spec, phi)
                    comm = am @ ap - ap @ am
                    assert np.max(np.abs(comm - np.diag(spec.spacings))) <= 1e-12

    def test_number_commutators(self):
        spec = build_structure(Family.KAPPA_POS, 4, kappa=0.25)
        num = number_operator(spec)
        am = ladder_minus(spec, 0.6)
        ap = ladder_plus(spec, 0.6)
        assert np.max(np.abs(num @ am - am @ num + am)) <= 1e-12
        assert np.max(np.abs(num @ ap - ap @ num - ap)) <= 1e-12

    def test_ladder_products(self):
        for family, kappa in FAMILIES:
            spec = build_structure(family, 5, kappa)
            d = spec.dim
            am = ladder_minus(spec, 2.4)
            ap = ladder_plus(spec, 2.4)
            assert np.max(np.abs(ap @ am - np.diag(spec.levels[:d]))) <= 1e-12
            assert np.max(np.abs(am @ ap - np.diag(spec.levels[1:]))) <= 1e-12


class TestHamiltonian:
    def test_linear_spectrum(self):
        spec = build_structure(Family.PEGG_BARNETT, 2)
        assert np.array_equal(np.diag(hamiltonian(spec)).real, [0.0, 1.0, 2.0])

    def test_concave_spectrum(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        assert np.allclose(np.diag(hamiltonian(spec)).real, [0.0, 1.0, 1.0])

    def test_convex_spectrum(self):
        spec = build_structure(Family.KAPPA_POS, 2, kappa=1.0)
        assert np.array_equal(np.diag(hamiltonian(spec)).real, [0.0, 1.0, 4.0])

    def test_equals_ladder_product(self):
        for family, kappa in FAMILIES:
            spec = build_structure(family, 6, kappa)
            for phi in (0.0, 1.3, 9.9):
                product = ladder_plus(spec, phi) @ ladder_minus(spec, phi)
                assert np.max(np.abs(product - hamiltonian(spec))) <= 1e-12


class TestPhaseOperator:
    def test_zero_phi_is_cyclic_shift(self):
        spec = build_structure(Family.KAPPA_POS, 3, kappa=0.7)
        e = phase_operator(spec, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        for n in range(1, 4):
            expected[n - 1, n] = 1.0
        expected[3, 0] = 1.0
        assert np.array_equal(e, expected)

    def test_wraparound_phase(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        e = phase_operator(spec, pi)
        # e^{i (F(0) - F(2)) pi} = e^{-i pi} = -1
        assert e[2, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_unitary_over_phi_range(self):
        rng = np.random.default_rng(7)
        for family, kappa in FAMILIES:
            for two_s in range(1, 9):
                spec = build_structure(family, two_s, kappa)
                eye = np.eye(spec.dim)
                for phi in rng.uniform(0.0, 4.0 * pi, size=5):
                    e = phase_operator(spec, phi)
                    assert np.max(np.abs(e.conj().T @ e - eye)) <= 1e-12
                    assert np.max(np.abs(e @ e.conj().T - eye)) <= 1e-12

    def test_polar_decomposition(self):
        for family, kappa in FAMILIES:
            for two_s in (1, 3, 6):
                spec = build_structure(family, two_s, kappa)
                for phi in (0.0, 0.31, 4.0):
                    lhs = (phase_operator(spec, phi)
                           @ np.diag(np.sqrt(spec.levels[: spec.dim])))
                    assert np.max(np.abs(lhs - ladder_minus(spec, phi))) <= 1e-12

    def test_cyclic_of_order_d_up_to_phase(self):
        for family, kappa in FAMILIES:
            spec = build_structure(family, 4, kappa)
            e = phase_operator(spec, 1.9)
            cycle = np.linalg.matrix_power(e, spec.dim)
            global_phase = cycle[0, 0]
            assert abs(abs(global_phase) - 1.0) <= 1e-12
            assert np.max(np.abs(cycle - global_phase * np.eye(spec.dim))) <= 1e-12


def test_kappa_neg_matches_concave_closed_form():
    for two_s in range(1, 41):
        spec = build_structure(Family.KAPPA_NEG, two_s)
        expected = np.array(
            [n * (two_s + 1 - n) / two_s for n in range(two_s + 2)])
        assert np.max(np.abs(spec.levels - expected)) <= 1e-14
