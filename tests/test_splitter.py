from math import comb, log, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebeam import (
    BipartiteVector,
    Family,
    InvalidDensityError,
    NotNormalizedError,
    SplitterParams,
    build_structure,
    phase_state,
    reduced_density,
    reduced_density_closed,
    split_number_state,
    split_phase_state,
    structure_from_spacings,
    tri_size,
    validate_density,
)
from phasebeam.numerics import ipow
from phasebeam.splitter import PSD_TOL, _log_powers

FAMILIES = [
    (Family.PEGG_BARNETT, None),
    (Family.KAPPA_NEG, None),
    (Family.KAPPA_POS, 0.5),
]


def _split_loop_reference(state, params):
    """Splitter output of sum_n state[n] |n> (x) |0>, one amplitude at a time.

    Each |n> (x) |0> adds state[n] sqrt(binom(n, p)) t^p (ir)^(n-p) at the
    pair (p, n - p); a number state is a unit vector.
    """
    two_s = len(state) - 1
    t, r = params.t, params.r
    amp = np.zeros((two_s + 1, two_s + 1), dtype=complex)
    for n in range(two_s + 1):
        for p in range(n + 1):
            amp[p, n - p] += (
                state[n] * sqrt(comb(n, p)) * t**p * r ** (n - p) * ipow(n - p))
    return amp


def _partial_trace_loop_reference(b):
    """rho[p, p'] = sum_k amp(p, k) conj(amp(p', k)), one entry at a time.

    Row p of the square holds its pairs at k <= 2s - p.
    """
    two_s = b.two_s
    d = two_s + 1
    rho = np.zeros((d, d), dtype=complex)
    for p in range(d):
        row_p = b.amp[p, : (two_s - p) + 1]
        for p2 in range(p, d):
            common = two_s - p2 + 1
            row_p2 = b.amp[p2, :common]
            val = complex(np.vdot(row_p2, row_p[:common]))
            rho[p, p2] = val
            rho[p2, p] = val.conjugate()
    return rho


def _random_vector(rng, two_s):
    """A random unit vector on the square, zeroed off the triangle by a loop."""
    d = two_s + 1
    amp = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for p in range(d):
        for k in range(d):
            if p + k > two_s:
                amp[p, k] = 0.0
    return amp / np.linalg.norm(amp)


class TestSplitterParams:
    def test_probabilities_sum_exactly(self):
        for r2 in (0.0, 0.1, 0.3, 0.5, 0.77, 1.0):
            params = SplitterParams(r2)
            assert params.t2 + params.r2 == 1.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            SplitterParams(-0.01)
        with pytest.raises(ValueError):
            SplitterParams(1.01)

    def test_caller_array_copied(self):
        # a 0-d array as well as a row: changing the caller's array later
        # changes neither r2 nor t2
        for r2 in (np.array(0.3), np.array([0.3, 0.5])):
            params = SplitterParams(r2)
            r2[...] = 5.0
            assert np.all(params.r2 <= 0.5)
            assert np.all(params.t2 >= 0.5)
            assert not params.r2.flags.writeable
        # a Python float stays one, with the same t2
        assert type(SplitterParams(0.3).r2) is float
        assert SplitterParams(np.array(0.3)).t2 == SplitterParams(0.3).t2 == 1.0 - 0.3
        # a float32 scalar gets a float64 t2: the splitter output stays normalised
        params = SplitterParams(np.float32(0.3))
        assert params.t2 == 1.0 - float(np.float32(0.3))
        spec = build_structure(Family.KAPPA_NEG, 4)
        assert abs(split_phase_state(spec, 0, 0.7, params).norm() - 1.0) <= 1e-12

    def test_amplitudes(self):
        params = SplitterParams(0.5)
        assert params.t == pytest.approx(1 / sqrt(2))
        assert params.r == pytest.approx(1 / sqrt(2))

    def test_row_of_splitters(self):
        r2 = [0.0, 0.3, 1.0]
        params = SplitterParams(r2)
        assert params.r2.shape == (3,)
        assert not params.r2.flags.writeable
        assert np.array_equal(params.t, [sqrt(1.0 - v) for v in r2])
        assert np.array_equal(params.r, [sqrt(v) for v in r2])
        for bad in ([0.2, 1.5], [0.2, np.nan], [[0.5, -0.1]]):
            with pytest.raises(ValueError):
                SplitterParams(bad)
        assert SplitterParams([[0.5]]).r2.shape == (1, 1)  # any shape

    def test_row_accepted_by_every_route(self):
        from phasebeam import linear_entropy_closed

        spec = build_structure(Family.KAPPA_NEG, 2)
        params = SplitterParams([0.2, 0.5])
        assert split_number_state(2, params).amp.shape == (2, 3, 3)
        assert split_phase_state(spec, 0, 0.3, params).amp.shape == (2, 3, 3)
        assert linear_entropy_closed(spec, 0.3, params).value.shape == (2,)
        # a 2-D r2 broadcasts with m and phi like any other argument
        square = SplitterParams([[0.2, 0.5], [0.1, 0.9]])
        assert split_number_state(2, square).amp.shape == (2, 2, 3, 3)
        assert split_phase_state(spec, [[0], [2]], 0.3, square).amp.shape == (2, 2, 3, 3)
        assert reduced_density_closed(spec, 0, [0.3, 0.4], square).shape == (2, 2, 3, 3)
        assert linear_entropy_closed(spec, [0.3, 0.4], square).value.shape == (2, 2)
        with pytest.raises(ValueError):  # (3,) and (2,) do not broadcast
            linear_entropy_closed(spec, [0.3, 0.4, 0.5], params)


class TestTriangularLayout:
    def test_size(self):
        assert tri_size(1) == 3
        assert tri_size(2) == 6
        assert tri_size(40) == 41 * 42 // 2

    def test_out_of_triangle(self):
        b = split_number_state(2, SplitterParams(0.5))
        for p, k in ((2, 1), (-1, 0), (0, -1), (3, 0)):
            with pytest.raises(IndexError):
                b.get(p, k)

    def test_vector_length_check(self):
        # the trailing shape must be the (3, 3) square: not the packed
        # triangle's length, a non-square or the square of another size
        for shape in ((5,), (tri_size(2),), (2, tri_size(2)), (3, 4), (4, 3), (2, 4, 4)):
            with pytest.raises(ValueError, match="shape"):
                BipartiteVector(2, np.zeros(shape, dtype=complex))
        assert BipartiteVector(2, np.zeros((0, 3, 3))).amp.shape == (0, 3, 3)

    def test_one_amplitude_off_the_triangle_refused(self):
        two_s = 3
        for p in range(two_s + 1):
            for k in range(two_s + 1):
                for value in (1e-300, np.nan):
                    stack = np.zeros((2, 3, two_s + 1, two_s + 1), dtype=complex)
                    stack[1, 2, p, k] = value
                    for amp in (stack, stack[1, 2]):
                        if p + k <= two_s:
                            BipartiteVector(two_s, amp)
                        else:
                            with pytest.raises(ValueError, match="triangle"):
                                BipartiteVector(two_s, amp)
        # signed zeros are zeros
        BipartiteVector(two_s, np.full((two_s + 1, two_s + 1), -0.0 - 0.0j))

    def test_complex_array_is_kept_and_marked_read_only(self):
        # as documented: a C-contiguous complex amp is kept without a copy
        a = np.zeros((3, 3), complex)
        b = BipartiteVector(2, a)
        assert b.amp is a
        assert not a.flags.writeable
        # any other array is converted to a new one, and stays writable
        f = np.zeros((3, 3))
        assert not np.shares_memory(BipartiteVector(2, f).amp, f)
        assert f.flags.writeable

    def test_get_refuses_a_stack(self):
        b = split_number_state(2, SplitterParams([0.2, 0.5, 0.7]))
        for p, k in ((0, 0), (1, 1), (0, 2)):
            with pytest.raises(ValueError, match="stack"):
                b.get(p, k)
        one = split_number_state(2, SplitterParams([0.5]))  # a stack of one
        with pytest.raises(ValueError, match="stack"):
            one.get(1, 1)


class TestSplitNumberState:
    def test_vacuum_passes_through(self):
        b = split_number_state(0, SplitterParams(0.7))
        assert b.get(0, 0) == 1.0

    def test_single_photon(self):
        params = SplitterParams(0.4)
        b = split_number_state(1, params)
        assert b.get(1, 0) == pytest.approx(params.t, abs=1e-15)
        assert b.get(0, 1) == pytest.approx(1j * params.r, abs=1e-15)

    def test_two_photons(self):
        params = SplitterParams(0.3)
        t, r = params.t, params.r
        b = split_number_state(2, params)
        assert b.get(2, 0) == pytest.approx(t * t, abs=1e-15)
        assert b.get(1, 1) == pytest.approx(sqrt(2) * t * (1j * r), abs=1e-15)
        assert b.get(0, 2) == pytest.approx((1j * r) ** 2, abs=1e-15)

    def test_support_is_one_shell(self):
        for n in (3, 6):
            b = split_number_state(n, SplitterParams(0.5))
            assert b.two_s == n
            for p in range(n + 1):
                for k in range(n + 1 - p):
                    if p + k != n:
                        assert b.get(p, k) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 30), r2=st.floats(0.0, 1.0))
    def test_norm_one(self, n, r2):
        b = split_number_state(n, SplitterParams(r2))
        assert abs(b.norm() - 1.0) <= 1e-12

    def test_mirror_symmetry(self):
        # swapping t and r mirrors (p, k) -> (k, p) in modulus
        for n in (1, 2, 5, 9):
            fwd = split_number_state(n, SplitterParams(0.23))
            rev = split_number_state(n, SplitterParams(0.77))
            for p in range(n + 1):
                assert abs(fwd.get(p, n - p)) == pytest.approx(
                    abs(rev.get(n - p, p)), abs=1e-12)

    def test_negative_photon_number(self):
        with pytest.raises(ValueError):
            split_number_state(-1, SplitterParams(0.5))


class TestSplitPhaseState:
    def test_fully_transmitting_gives_product(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        v = phase_state(spec, 1, 0.9)
        b = split_phase_state(spec, 1, 0.9, SplitterParams(0.0))
        for p in range(4):
            assert b.get(p, 0) == pytest.approx(v[p], abs=1e-15)
            for k in range(1, 4 - p):
                assert b.get(p, k) == 0.0

    def test_fully_reflecting_moduli(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        b = split_phase_state(spec, 0, 1.7, SplitterParams(1.0))
        for k in range(4):
            assert abs(b.get(0, k)) == pytest.approx(1 / sqrt(4), abs=1e-12)
        for p in range(1, 4):
            for k in range(4 - p):
                assert b.get(p, k) == 0.0

    def test_balanced_qubit_amplitudes(self):
        spec = build_structure(Family.KAPPA_NEG, 1)
        b = split_phase_state(spec, 0, 0.0, SplitterParams(0.5))
        assert b.get(0, 0) == pytest.approx(1 / sqrt(2), abs=1e-14)
        assert b.get(1, 0) == pytest.approx(0.5, abs=1e-14)
        assert b.get(0, 1) == pytest.approx(0.5j, abs=1e-14)

    def test_norm_one_everywhere(self):
        rng = np.random.default_rng(41)
        for family, kappa in FAMILIES:
            for two_s in range(1, 9):
                spec = build_structure(family, two_s, kappa)
                m = int(rng.integers(0, spec.dim))
                phi = float(rng.uniform(0, 4 * pi))
                r2 = float(rng.uniform(0, 1))
                b = split_phase_state(spec, m, phi, SplitterParams(r2))
                assert abs(b.norm() - 1.0) <= 1e-12


class TestLoopReference:
    @pytest.mark.parametrize("two_s", [1, 2, 3, 8, 20, 40])
    def test_phase_state_route_pinned(self, two_s):
        rng = np.random.default_rng(two_s)
        custom = rng.uniform(0.5, 3.0, two_s)
        specs = [build_structure(family, two_s, kappa) for family, kappa in FAMILIES]
        specs.append(structure_from_spacings(np.diff(np.r_[0.0, custom, 0.0])))
        for spec in specs:
            for m in (0, 1, two_s):
                for r2 in (0.0, 0.5, 1.0):
                    params = SplitterParams(r2)
                    b = split_phase_state(spec, m, 0.9, params)
                    want = _split_loop_reference(phase_state(spec, m, 0.9), params)
                    assert np.max(np.abs(b.amp - want)) <= 1e-14
                    rho = reduced_density(b)
                    assert np.max(np.abs(rho - _partial_trace_loop_reference(b))) <= 1e-14

    def test_number_state_pinned(self):
        for n in range(21):
            unit = np.zeros(n + 1)
            unit[n] = 1.0
            for r2 in (0.0, 0.3, 0.5, 1.0):
                params = SplitterParams(r2)
                got = split_number_state(n, params).amp
                assert np.max(np.abs(got - _split_loop_reference(unit, params))) <= 1e-14

    @pytest.mark.parametrize("two_s", [1, 2, 3, 8, 20, 40])
    def test_partial_trace_pinned_on_random_vectors(self, two_s):
        rng = np.random.default_rng(100 + two_s)
        for _ in range(5):
            b = BipartiteVector(two_s, _random_vector(rng, two_s))
            rho = reduced_density(b)
            assert np.array_equal(rho, rho.conj().T)
            assert np.max(np.abs(rho - _partial_trace_loop_reference(b))) <= 1e-14


class TestLargeTwoS:
    def test_split_at_two_s_2200_is_finite_and_normalized(self):
        # sqrt(binom(2200, 1100)) alone is about 1e330, far past the float range
        spec = build_structure(Family.KAPPA_NEG, 2200)
        b = split_phase_state(spec, 0, 0.0, SplitterParams(0.5))
        assert np.isfinite(b.amp).all()
        assert abs(b.norm() - 1.0) <= 1e-9

    def test_exact_at_the_ends(self):
        # r2 = 0 passes the state through, r2 = 1 reflects it with i^k
        spec = build_structure(Family.KAPPA_POS, 6, kappa=0.3)
        v = phase_state(spec, 2, 1.3)
        k = np.arange(spec.dim)
        through = split_phase_state(spec, 2, 1.3, SplitterParams(0.0))
        reflected = split_phase_state(spec, 2, 1.3, SplitterParams(1.0))
        assert np.array_equal([through.get(p, 0) for p in k], v)
        assert np.array_equal([reflected.get(0, j) for j in k],
                              v * np.array([1, 1j, -1, -1j])[k % 4])
        assert np.count_nonzero(through.amp) == np.count_nonzero(reflected.amp) == spec.dim


    def test_log_powers_rows(self):
        # ln(x^j): 0 at j = 0 for every x, then j ln(x), or -inf at x = 0
        x = np.array([0.0, 0.25, 1.0])
        got = _log_powers(x, 4)
        assert np.array_equal(got[0], [0.0, -np.inf, -np.inf, -np.inf, -np.inf])
        assert np.array_equal(got[1], np.arange(5) * log(0.25))
        assert np.array_equal(got[2], np.zeros(5))
        for v, row in zip(x.tolist(), got):
            assert np.array_equal(_log_powers(v, 4), row)

class TestReducedDensity:
    def test_product_input_gives_projector(self):
        spec = build_structure(Family.KAPPA_POS, 2, kappa=0.4)
        v = phase_state(spec, 1, 0.8)
        rho = reduced_density(split_phase_state(spec, 1, 0.8, SplitterParams(0.0)))
        assert np.max(np.abs(rho - np.outer(v, v.conj()))) <= 1e-12
        assert np.vdot(rho, rho).real == pytest.approx(1.0, abs=1e-12)

    def test_balanced_qubit_matrix(self):
        # reference from an independent brute-force partial trace
        spec = build_structure(Family.KAPPA_NEG, 1)
        rho = reduced_density(split_phase_state(spec, 0, 0.0, SplitterParams(0.5)))
        expected = np.array([[0.75, 1 / (2 * sqrt(2))],
                             [1 / (2 * sqrt(2)), 0.25]], dtype=complex)
        assert np.max(np.abs(rho - expected)) <= 1e-12
        assert np.vdot(rho, rho).real == pytest.approx(7.0 / 8.0, abs=1e-12)

    def test_frozen_qutrit_matrix(self):
        # reference from an independent brute-force partial trace
        spec = build_structure(Family.KAPPA_NEG, 2)
        rho = reduced_density(split_phase_state(spec, 1, 0.9, SplitterParams(0.4)))
        expected = np.array([
            [0.5200000000000002, 0.02187804568753988 - 0.3666143900486501j,
             -0.19783719746813805 + 0.029333313790858413j],
            [0.02187804568753988 + 0.3666143900486501j, 0.3600000000000001,
             -0.07745966692414831 - 0.13416407864998742j],
            [-0.19783719746813805 - 0.029333313790858413j,
             -0.07745966692414831 + 0.13416407864998744j, 0.12000000000000001],
        ])
        assert np.max(np.abs(rho - expected)) <= 1e-12

    def test_trace_one_on_random_inputs(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            two_s = int(rng.integers(1, 7))
            rho = reduced_density(BipartiteVector(two_s, _random_vector(rng, two_s)))
            assert complex(np.trace(rho)).real == pytest.approx(1.0, abs=1e-12)
            assert abs(complex(np.trace(rho)).imag) <= 1e-15

    def test_density_invariants(self):
        rng = np.random.default_rng(47)
        for family, kappa in FAMILIES:
            spec = build_structure(family, 5, kappa)
            m = int(rng.integers(0, spec.dim))
            phi = float(rng.uniform(0, 4 * pi))
            rho = reduced_density(split_phase_state(
                spec, m, phi, SplitterParams(float(rng.uniform(0, 1)))))
            assert np.array_equal(rho, rho.conj().T)
            assert complex(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10

    def test_rejects_unnormalized(self):
        b = split_number_state(2, SplitterParams(0.5))
        with pytest.raises(NotNormalizedError):
            reduced_density(BipartiteVector(2, b.amp * 2.0))
        # a NaN norm fails the bound too
        with pytest.raises(NotNormalizedError):
            reduced_density(BipartiteVector(2, np.where(b.amp == 0.0, b.amp, np.nan)))


class TestReducedDensityClosed:
    def test_matches_partial_trace(self):
        rng = np.random.default_rng(53)
        for family, kappa in FAMILIES:
            for two_s in range(1, 6):
                spec = build_structure(family, two_s, kappa)
                for _ in range(5):
                    m = int(rng.integers(0, spec.dim))
                    phi = float(rng.uniform(0, 4 * pi))
                    params = SplitterParams(float(rng.uniform(0, 1)))
                    direct = reduced_density_closed(spec, m, phi, params)
                    traced = reduced_density(split_phase_state(spec, m, phi, params))
                    assert np.max(np.abs(direct - traced)) <= 1e-12

    def test_vacuum_coefficient(self):
        # the (0, 0) entry at r2 = 0 is |c(0,0)|^2 = 1/d
        for two_s in (1, 2, 5):
            spec = build_structure(Family.KAPPA_NEG, two_s)
            rho = reduced_density_closed(spec, 0, 0.0, SplitterParams(0.0))
            assert rho[0, 0] == pytest.approx(1.0 / spec.dim, abs=1e-13)

    def test_r2_axis_matches_scalar_calls_bitwise(self):
        r2s = np.array([0.0, 0.1, 0.5, 0.77, 1.0])
        phis = np.linspace(0.0, 2 * pi, 5)
        # the (phi, r2) product, a paired row, a paired (1, 5) row against a
        # 2-D r2 column, and one phase against a row of splitters
        cases = ((phis[:, None], r2s), (phis, r2s), (phis.reshape(1, 5), r2s[:, None]),
                 (0.9, r2s))
        for family, kappa in FAMILIES:
            for two_s in (1, 2, 7, 40):
                spec = build_structure(family, two_s, kappa)
                for phi, r2 in cases:
                    row = reduced_density_closed(spec, 3, phi, SplitterParams(r2))
                    shape = np.broadcast_shapes(np.shape(phi), r2.shape)
                    assert row.shape == shape + (spec.dim, spec.dim)
                    assert row.dtype == complex
                    phi_b, r2_b = np.broadcast_arrays(phi, r2)
                    for i in np.ndindex(shape):
                        one = reduced_density_closed(spec, 3, float(phi_b[i]),
                                                     SplitterParams(float(r2_b[i])))
                        assert one.shape == (spec.dim, spec.dim)
                        assert np.array_equal(row[i], one)

    def test_transmitting_row_moduli(self):
        # at r2 = 0 the only l = 0 column survives: rho[n, n] = |c(n, 0)|^2
        # with |c(n, 0)| = t^n / sqrt(d) and t = 1
        spec = build_structure(Family.KAPPA_POS, 3, kappa=0.2)
        rho = reduced_density_closed(spec, 2, 1.1, SplitterParams(0.0))
        assert np.allclose(np.diag(rho).real, 1.0 / spec.dim, atol=1e-13)


def _density_with_min_eig(rng, d, min_eig):
    """A random Hermitian unit-trace d x d matrix whose least eigenvalue is
    min_eig (to about 1e-15); the rest of the spectrum is positive."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(z)
    eigs = np.concatenate([[min_eig], (1.0 - min_eig) * rng.dirichlet(np.ones(d - 1))])
    rho = (u * eigs) @ u.conj().T
    return (rho + rho.conj().T) / 2


class TestValidateDensity:
    def test_accepts_valid(self):
        validate_density(np.eye(3) / 3.0)
        validate_density(np.stack([np.eye(3) / 3.0, np.diag([1.0, 0.0, 0.0])]))

    def test_accepts_exact_zero_eigenvalues(self):
        psi = np.exp(1j * np.arange(5)) / sqrt(5)
        validate_density(np.outer(psi, psi.conj()))
        validate_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        validate_density(np.zeros((2, 3, 3)) + np.diag([0.0, 1.0, 0.0]))

    def test_tolerance_band(self):
        rng = np.random.default_rng(11)
        validate_density(np.diag([1.0 + 5e-11, -5e-11]))
        validate_density(_density_with_min_eig(rng, 6, -5e-11))
        for bad in (np.diag([1.0 + 2e-10, -2e-10]), _density_with_min_eig(rng, 6, -2e-10)):
            with pytest.raises(InvalidDensityError, match="negative eigenvalue") as err:
                validate_density(bad)
            assert float(str(err.value).split()[-1]) == pytest.approx(-2e-10, abs=1e-14)

    def test_rejects_one_bad_cell_of_a_tile(self):
        rng = np.random.default_rng(12)
        d = 5
        tile = np.stack([_density_with_min_eig(rng, d, 1e-3) for _ in range(12)])
        tile = tile.reshape(4, 3, d, d)
        validate_density(tile)
        tile[2, 1] = _density_with_min_eig(rng, d, -2e-10)
        with pytest.raises(InvalidDensityError, match="negative eigenvalue"):
            validate_density(tile)

    def test_same_decision_as_the_spectrum(self):
        rng = np.random.default_rng(13)
        decided = []
        while len(decided) < 30:
            min_eig = rng.uniform(-1e-9, 1e-12) if len(decided) % 2 else (
                rng.uniform(-1.2e-10, 1e-12))
            if abs(min_eig + PSD_TOL) <= 1e-13:
                continue
            rho = _density_with_min_eig(rng, int(rng.integers(2, 42)), min_eig)
            expected = np.linalg.eigvalsh(rho).min() >= -PSD_TOL
            try:
                validate_density(rho)
                decided.append(expected)
            except InvalidDensityError:
                decided.append(not expected)
        assert all(decided)

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvalidDensityError):
            validate_density(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidDensityError):
            validate_density(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        nan = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        # one bad matrix in a stack of good ones
        stack = np.stack([np.eye(2) / 2.0, rho, np.eye(2) / 2.0])
        for bad in (rho, nan, stack):
            with pytest.raises(InvalidDensityError):
                validate_density(bad)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidDensityError):
            validate_density(np.ones((2, 3)))
