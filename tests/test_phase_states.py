import re
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebeam import (
    DimensionMismatchError,
    Family,
    apply_phase_operator,
    build_structure,
    closure_matrix,
    evolve_vector,
    overlap_closed,
    overlap_direct,
    phase_state,
)
from phasebeam.phase_states import _root_powers, _unit_roots

FAMILIES = [
    (Family.PEGG_BARNETT, None),
    (Family.KAPPA_NEG, None),
    (Family.KAPPA_POS, 0.5),
]


class TestPhaseState:
    def test_qubit_uniform(self):
        spec = build_structure(Family.PEGG_BARNETT, 1)
        v = phase_state(spec, 0, 0.0)
        assert np.allclose(v, [1 / sqrt(2), 1 / sqrt(2)], atol=1e-15)

    def test_qutrit_fourier_column(self):
        spec = build_structure(Family.PEGG_BARNETT, 2)
        v = phase_state(spec, 1, 0.0)
        expected = np.exp(2j * pi * np.arange(3) / 3) / sqrt(3)
        assert np.allclose(v, expected, atol=1e-15)

    def test_concave_family_at_phi_pi(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        v = phase_state(spec, 0, pi)
        expected = np.array([1.0, -1.0, -1.0]) / sqrt(3)
        assert np.allclose(v, expected, atol=1e-13)

    def test_equiprobability(self):
        rng = np.random.default_rng(3)
        for family, kappa in FAMILIES:
            for two_s in range(1, 11):
                spec = build_structure(family, two_s, kappa)
                m = int(rng.integers(0, spec.dim))
                phi = float(rng.uniform(0.0, 4 * pi))
                v = phase_state(spec, m, phi)
                assert np.max(np.abs(np.abs(v) - 1 / sqrt(spec.dim))) <= 1e-12
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_label_is_mod_d(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        assert np.array_equal(phase_state(spec, 1, 0.4), phase_state(spec, 4, 0.4))
        assert np.array_equal(phase_state(spec, -2, 0.4), phase_state(spec, 1, 0.4))

    def test_label_beyond_int64(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        assert np.array_equal(phase_state(spec, 10**20, 0.4),
                              phase_state(spec, 10**20 % 3, 0.4))

    def test_overlap_label_beyond_int64(self):
        for family, kappa in FAMILIES:
            spec = build_structure(family, 5, kappa)
            d = spec.dim
            for m, m2 in ((10**20, 0), (0, 10**20), (-10**20, 3), (2**62, 1)):
                got = overlap_closed(spec, m, 0.4, m2, 1.3)
                assert type(got) is complex
                assert abs(got - overlap_closed(spec, m % d, 0.4, m2 % d, 1.3)) <= 1e-15
            # integer-array labels near the int64 limit, against the reduced
            # labels and the inner product of the two phase states (the two
            # routes differ by up to 2e-15 on labels in [0, d) already)
            m = np.array([2**62 + 1, 2**62, -2**62, 7, 2**63 - 1])
            m2 = np.array([0, 3, 1, 2**62 + 5, -2**63])
            got = overlap_closed(spec, m, 0.4, m2, 0.9)
            assert np.max(np.abs(got - overlap_closed(spec, m % d, 0.4, m2 % d, 0.9))) <= 1e-15
            direct = overlap_direct(phase_state(spec, m, 0.4), phase_state(spec, m2, 0.9))
            assert np.max(np.abs(got - direct)) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    def test_overlap_every_integer_dtype(self, dtype):
        # a difference of reduced unsigned labels wrapped: errors up to 1.0
        rng = np.random.default_rng(43)
        for family, kappa in FAMILIES:
            for two_s in (1, 2, 3, 4, 9):
                spec = build_structure(family, two_s, kappa)
                m, m2 = (a.ravel().astype(dtype) for a in np.indices((spec.dim, spec.dim)))
                p1, p2 = rng.uniform(0.0, 4 * pi, size=(2, m.size))
                closed = overlap_closed(spec, m, p1, m2, p2)
                direct = overlap_direct(phase_state(spec, m, p1), phase_state(spec, m2, p2))
                assert np.max(np.abs(closed - direct)) <= 1e-12

    def test_phi_zero_collapses_families(self):
        # at phi = 0 every family reduces to the Fourier transform of the
        # number basis, so all tables with the same dimension agree
        for two_s in range(1, 9):
            states = [phase_state(build_structure(f, two_s, k), 1, 0.0)
                      for f, k in FAMILIES]
            for other in states[1:]:
                assert np.array_equal(states[0], other)


class TestEigenvalueRelation:
    def test_m_zero_eigenvalue_one(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        v = phase_state(spec, 0, 1.8)
        assert np.max(np.abs(apply_phase_operator(spec, 1.8, v) - v)) <= 1e-12

    def test_qutrit_eigenvalue(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        v = phase_state(spec, 1, 0.6)
        got = apply_phase_operator(spec, 0.6, v)
        assert np.max(np.abs(got - np.exp(2j * pi / 3) * v)) <= 1e-12

    def test_all_families_all_labels(self):
        for family, kappa in FAMILIES:
            for two_s in range(1, 11):
                spec = build_structure(family, two_s, kappa)
                d = spec.dim
                phi = 0.37 * two_s
                for m in range(d):
                    v = phase_state(spec, m, phi)
                    got = apply_phase_operator(spec, phi, v)
                    assert np.max(np.abs(got - np.exp(2j * pi * m / d) * v)) <= 1e-12

    def test_norm_preserved_on_random_vector(self):
        rng = np.random.default_rng(11)
        spec = build_structure(Family.PEGG_BARNETT, 5)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert abs(np.linalg.norm(apply_phase_operator(spec, 2.2, v))
                   - np.linalg.norm(v)) <= 1e-12

    def test_dimension_mismatch(self):
        spec = build_structure(Family.PEGG_BARNETT, 2)
        with pytest.raises(DimensionMismatchError):
            apply_phase_operator(spec, 0.0, np.ones(5, dtype=complex))


class TestEvolution:
    def test_zero_time_identity(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        v = phase_state(spec, 1, 0.9)
        assert np.array_equal(evolve_vector(spec, v, 0.0), v)

    def test_relabeling(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        evolved = evolve_vector(spec, phase_state(spec, 0, 0.0), pi)
        assert np.max(np.abs(evolved - phase_state(spec, 0, pi))) <= 1e-12

    def test_relabeling_all_families(self):
        rng = np.random.default_rng(5)
        for family, kappa in FAMILIES:
            for two_s in range(1, 11):
                spec = build_structure(family, two_s, kappa)
                m = int(rng.integers(0, spec.dim))
                phi, t = rng.uniform(-2 * pi, 2 * pi, size=2)
                evolved = evolve_vector(spec, phase_state(spec, m, phi), t)
                assert np.max(np.abs(evolved - phase_state(spec, m, phi + t))) <= 1e-12

    @pytest.mark.parametrize("shape", [(4,), (2, 3)])
    def test_vector_dimension_mismatch(self, shape):
        spec = build_structure(Family.KAPPA_NEG, 2)
        message = f"state has shape {shape}, expected (3,)"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            evolve_vector(spec, np.zeros(shape), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(t1=st.floats(-20, 20), t2=st.floats(-20, 20))
    def test_two_step_composition(self, t1, t2):
        spec = build_structure(Family.KAPPA_NEG, 3)
        v = phase_state(spec, 2, 0.4)
        stepped = evolve_vector(spec, evolve_vector(spec, v, t1), t2)
        direct = evolve_vector(spec, v, t1 + t2)
        assert np.max(np.abs(stepped - direct)) <= 1e-12

    def test_unitary_on_arbitrary_vectors(self):
        rng = np.random.default_rng(17)
        spec = build_structure(Family.KAPPA_POS, 6, kappa=0.3)
        for _ in range(20):
            v = rng.normal(size=7) + 1j * rng.normal(size=7)
            t = float(rng.uniform(-30, 30))
            assert abs(np.linalg.norm(evolve_vector(spec, v, t))
                       - np.linalg.norm(v)) <= 1e-12


class TestOverlap:
    def test_self_overlap(self):
        spec = build_structure(Family.KAPPA_NEG, 4)
        v = phase_state(spec, 2, 1.1)
        assert overlap_direct(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormality_fixed_phi(self):
        for family, kappa in FAMILIES:
            spec = build_structure(family, 2, kappa)
            for m in range(3):
                for m2 in range(3):
                    got = overlap_direct(phase_state(spec, m, 0.83),
                                         phase_state(spec, m2, 0.83))
                    assert got == pytest.approx(1.0 if m == m2 else 0.0, abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=5) + 1j * rng.normal(size=5)
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert overlap_direct(a, b) == pytest.approx(
            overlap_direct(b, a).conjugate(), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            overlap_direct(np.ones(2), np.ones(3))

    def test_closed_form_same_label_phi_shift(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        got = overlap_closed(spec, 0, pi, 0, 0.0)
        assert got == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_closed_form_identity(self):
        spec = build_structure(Family.KAPPA_POS, 3, kappa=0.9)
        assert overlap_closed(spec, 2, 1.4, 2, 1.4) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_orthogonality(self):
        spec = build_structure(Family.PEGG_BARNETT, 4)
        assert overlap_closed(spec, 1, 0.7, 3, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_closed_vs_direct_frozen_value(self):
        # reference from an independent brute-force inner product
        spec = build_structure(Family.KAPPA_NEG, 3)
        expected = 0.15941056138083162 + 0.23300977149180663j
        assert overlap_direct(phase_state(spec, 1, 0.4), phase_state(spec, 2, 1.3)) \
            == pytest.approx(expected, abs=1e-12)
        assert overlap_closed(spec, 1, 0.4, 2, 1.3) == pytest.approx(expected, abs=1e-12)

    def test_closed_vs_direct_random_tuples(self):
        rng = np.random.default_rng(31)
        for family, kappa in FAMILIES:
            for two_s in range(1, 11):
                spec = build_structure(family, two_s, kappa)
                for _ in range(100):
                    m, m2 = (int(v) for v in rng.integers(0, spec.dim, size=2))
                    p1, p2 = rng.uniform(0.0, 4 * pi, size=2)
                    direct = overlap_direct(phase_state(spec, m, p1),
                                            phase_state(spec, m2, p2))
                    assert abs(overlap_closed(spec, m, p1, m2, p2) - direct) <= 1e-12


class TestClosure:
    def test_qubit_identity(self):
        spec = build_structure(Family.PEGG_BARNETT, 1)
        assert np.max(np.abs(closure_matrix(spec, 0.0) - np.eye(2))) <= 1e-12

    def test_concave_family_identity(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        assert np.max(np.abs(closure_matrix(spec, 2.5) - np.eye(4))) <= 1e-12

    def test_all_families(self):
        for family, kappa in FAMILIES:
            for two_s in range(1, 11):
                spec = build_structure(family, two_s, kappa)
                deviation = np.max(np.abs(closure_matrix(spec, 1.23) - np.eye(spec.dim)))
                assert deviation <= 1e-12


class TestLabelAxis:
    """m and phi broadcast to one label shape; each cell is its scalar call."""

    # m of shape (), (3,) and (3, 1); phi of shape () and (4,)
    M_CASES = (2, np.array([0, 1, 5]), np.array([[0], [4], [-7]]))
    PHI_CASES = (1.9, np.array([0.0, 0.7, pi, 11.0]))

    @pytest.mark.parametrize("family, kappa", FAMILIES)
    def test_phase_state_cells_bitwise(self, family, kappa):
        spec = build_structure(family, 3, kappa)
        for m in self.M_CASES:
            for phi in self.PHI_CASES:
                if np.ndim(m) == 1 and np.ndim(phi) == 1:
                    with pytest.raises(ValueError):  # (3,) and (4,) do not broadcast
                        phase_state(spec, m, phi)
                    continue
                label = np.broadcast_shapes(np.shape(m), np.shape(phi))
                states = phase_state(spec, m, phi)
                assert states.shape == label + (spec.dim,)
                ms, phis = np.broadcast_arrays(m, phi)
                for i in np.ndindex(label):
                    one = phase_state(spec, int(ms[i]), float(phis[i]))
                    assert np.array_equal(states[i], one)

    def test_overlaps_on_stacks(self):
        rng = np.random.default_rng(41)
        for family, kappa in FAMILIES:
            spec = build_structure(family, 4, kappa)
            m = np.array([[0], [3], [-2]])
            m2 = np.array([1, 4, 0, 2])
            p1, p2 = rng.uniform(0.0, 4 * pi, size=(2, 3, 4))
            a, b = phase_state(spec, m, p1), phase_state(spec, m2, p2)
            direct = overlap_direct(a, b)
            closed = overlap_closed(spec, m, p1, m2, p2)
            assert direct.shape == closed.shape == (3, 4)
            for i, j in np.ndindex(3, 4):
                one = overlap_direct(a[i, j], b[i, j])
                assert type(one) is complex
                assert abs(direct[i, j] - one) <= 1e-15
                one = overlap_closed(spec, int(m[i, 0]), p1[i, j], int(m2[j]), p2[i, j])
                assert type(one) is complex
                assert abs(closed[i, j] - one) <= 1e-15
            states = phase_state(spec, np.arange(spec.dim), 0.9)
            gram = overlap_direct(states[:, None], states)
            assert np.max(np.abs(gram - np.eye(spec.dim))) <= 1e-12

    def test_phase_operator_on_a_stack(self):
        spec = build_structure(Family.KAPPA_POS, 5, kappa=0.3)
        states = phase_state(spec, np.array([[0], [2]]), np.array([0.4, 1.6, 9.0]))
        got = apply_phase_operator(spec, 1.1, states)
        assert got.shape == (2, 3, spec.dim)
        for i in np.ndindex(2, 3):
            assert np.array_equal(got[i], apply_phase_operator(spec, 1.1, states[i]))

    def test_float_labels_refused(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        with pytest.raises(ValueError, match="integers"):
            phase_state(spec, np.array([0.0, 1.0]), 0.3)

    def test_wrong_last_axis_refused(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        with pytest.raises(DimensionMismatchError):
            overlap_direct(np.ones((2, 3)), np.ones((2, 4)))
        with pytest.raises(DimensionMismatchError):
            apply_phase_operator(spec, 0.0, np.ones((4, 5)))


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64]


def _direct_roots(m, d):
    """q^{mn} as each entry was formed before the table of q^k: one exp per entry."""
    return np.exp(2j * pi * (np.multiply.outer(m % d, np.arange(d)) % d) / d)


class TestRootPowers:
    """_root_powers gathers from the table of q^k the bits of one exp per entry."""

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    @pytest.mark.parametrize("d", [2, 3, 41, 362])
    @pytest.mark.parametrize("dtype", INTEGER_DTYPES)
    def test_table_equals_direct_exp(self, d, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(d)
        m = np.concatenate([
            np.arange(max(info.min, -d - 2), min(info.max, 2 * d + 2) + 1, dtype=dtype),
            np.array([info.min, info.min + 1, info.max - 1, info.max], dtype=dtype),
            rng.integers(info.min, info.max, size=64, dtype=dtype, endpoint=True),
        ])
        assert m.dtype == dtype
        got = _root_powers(m, d)
        assert got.shape == (m.size, d)
        # the direct form on the labels reduced exactly (an int8 label
        # cannot take % 362 in its own type)
        reduced = np.array([v % d for v in m.tolist()], dtype=np.int64)
        assert np.array_equal(self._bits(got), self._bits(_direct_roots(reduced, d)))
        if d <= info.max:  # and on the labels themselves, where their type holds d
            assert np.array_equal(self._bits(got), self._bits(_direct_roots(m, d)))

    @pytest.mark.parametrize("d", [2, 3, 41, 362])
    def test_python_ints_beyond_int64(self, d):
        for m in (0, 1, -1, d, 2**63, 2**64 + 3, -(2**70) - 1, 10**30 + 7, True):
            got = _root_powers(m, d)
            assert got.shape == (d,)
            assert np.array_equal(self._bits(got), self._bits(_direct_roots(m, d)))

    def test_label_shapes_and_scalars(self):
        m = np.array([[0, 5], [-3, 2**40]])
        got = _root_powers(m, 7)
        assert got.shape == (2, 2, 7)
        for i in np.ndindex(2, 2):
            assert np.array_equal(self._bits(got[i]), self._bits(_root_powers(int(m[i]), 7)))
        assert np.array_equal(self._bits(_root_powers(np.int64(5), 7)),
                              self._bits(_root_powers(5, 7)))

    def test_table_is_kept_and_read_only(self):
        (table,) = _unit_roots(41)
        assert _unit_roots(41)[0] is table
        assert not table.flags.writeable
        assert table.shape == (41,)
        # a gathered row is the caller's own
        row = _root_powers(3, 41)
        row[0] = 0.0
        assert table[0] == 1.0
