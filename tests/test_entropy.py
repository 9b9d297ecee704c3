import tracemalloc
import warnings
from dataclasses import replace
from math import comb, exp, fsum, pi

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from phasebeam import (
    BipartiteVector,
    EntropyValue,
    Family,
    InvalidDensityError,
    NotNormalizedError,
    NumericalConsistencyError,
    SplitterParams,
    build_structure,
    entropy,
    linear_entropy,
    linear_entropy_closed,
    phase_state,
    reduced_density,
    reduced_density_closed,
    split_number_state,
    split_phase_state,
    structure_from_spacings,
)
from phasebeam.checks import _quadruple_sum
from phasebeam.numerics import log_factorials
from test_acceptance import _eigh_oracle_rho

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
    completes every term for each cell (phi, r2) of a grid and one spec, with
    a level bracket of exactly 0 where n == n' or l == l', and sums each
    cell's terms with math.fsum.  The bracket is formed once per spec, the
    splitter powers once per r2 and the cosines and sines once per phi.  It
    gives S and, unfolded, the imaginary part of the sum (must be zero), each
    as a list of rows over phi.
    """
    d = two_s + 1
    lgf = log_factorials(two_s).tolist()
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

    def evaluate(spec, phis, r2s):
        levels = spec.levels
        bracket = np.where(flat, 0.0, levels[n + l] + levels[n2 + l2]
                           - levels[n2 + l] - levels[n + l2])
        fulls = [mag * (1.0 - r2) ** (n + n2) * r2 ** (l + l2) for r2 in r2s]
        s_rows, imag_rows = [], []
        for phi in phis:
            cos = np.cos(bracket * phi)
            s_rows.append([1.0 - fsum((full * cos).tolist()) for full in fulls])
            if folded:
                imag_rows.append([0.0] * len(fulls))
                continue
            sin = np.sin(bracket * phi)
            imag_rows.append([-fsum((full * sin).tolist()) for full in fulls])
        return s_rows, imag_rows

    return evaluate


def _custom_spec(two_s):
    """A CUSTOM level table of dimension 2s + 1 that is not quadratic."""
    g = 0.5 + np.abs(np.sin(np.arange(1.0, two_s + 2.0)))
    g[-1] = -g[:-1].sum()
    return structure_from_spacings(g)


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

    @pytest.mark.parametrize("family, kappa", FAMILIES, ids=lambda v: getattr(v, "value", v))
    @pytest.mark.parametrize("two_s", [1, 2, 3, 5, 8])
    def test_oracle_is_a_polynomial_of_degree_d_minus_1_in_u(self, family, kappa, two_s):
        # every term is t2^a r2^b with a + b <= 2d - 2, and S(r2) = S(1 - r2),
        # so at a fixed phase S is a polynomial of degree d - 1 in
        # u = r2 (1 - r2), and of no lower degree; the oracle route shares
        # no code with the closed form's tables
        spec = build_structure(family, two_s, kappa)
        r2 = np.linspace(0.0, 0.5, 41)
        u = r2 * (1.0 - r2)
        s = oracle_entropy(spec, 0, 0.7, SplitterParams(r2)).value

        def residual(degree):
            return np.abs(np.polynomial.Chebyshev.fit(u, s, degree)(u) - s).max()

        assert residual(spec.dim - 1) <= 1e-13
        assert residual(spec.dim - 2) >= 1e-9

    @pytest.mark.parametrize("family, kappa", FAMILIES, ids=lambda v: getattr(v, "value", v))
    @pytest.mark.parametrize("two_s", [1, 2, 5, 10, 40])
    def test_oracle_weak_splitter_slope(self, family, kappa, two_s):
        # to first order in r the output is |phi>|0> + i r (a|phi>)|1>, so
        # S / u tends to (d - 1) - 2 |<a>|^2 as u = r2 (1 - r2) -> 0, with
        # <a> = sum_{n >= 1} sqrt(n) conj(c_{n-1}) c_n over the amplitudes
        # c_n = e^{-i F(n) phi} / sqrt(d) of |0, phi>, F(n) = n(1 + kappa(n-1))
        # and kappa the family's: the slope is formed here from the paper's
        # definitions alone, so it checks the levels, kappa and the splitter
        # convention that both routes share.  f = S / u = slope + b u + O(u^2)
        # at u1 and u2 ~ 2 u1 extrapolates, linearly in u, to slope + O(u^2).
        # Relative tolerance: S carries about d eps of roundoff, so f carries
        # d eps / u and the extrapolation about 2.5 d eps / u1, taken as
        # 4 d eps / (slope u1); the O(u^2) term is of order (d^2 u2)^2.
        spec = build_structure(family, two_s, kappa)
        d = spec.dim
        phis = np.linspace(0.0, 2 * pi, 9)
        r2 = np.array([1e-6, 2e-6])
        u = r2 * (1.0 - r2)
        f = oracle_entropy(spec, 0, phis[:, None], SplitterParams(r2)).value / u
        limit = (u[1] * f[:, 0] - u[0] * f[:, 1]) / (u[1] - u[0])
        rule = {Family.PEGG_BARNETT: 0.0, Family.KAPPA_NEG: -1.0 / two_s, Family.KAPPA_POS: kappa}
        n = np.arange(d)
        c = np.exp(-1j * np.multiply.outer(phis, n * (1.0 + rule[family] * (n - 1.0)))) / np.sqrt(d)
        a = (np.sqrt(n[1:]) * c[:, :-1].conj() * c[:, 1:]).sum(axis=-1)
        slope = (d - 1) - 2.0 * np.abs(a) ** 2
        tol = 4 * d * np.finfo(float).eps / (slope * u[0]) + (d * d * u[1]) ** 2
        assert (np.abs(limit - slope) <= tol * slope).all()

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
        # the folded table against the check suite's complex quadruple sum
        rng = np.random.default_rng(61)
        for family, kappa in FAMILIES:
            for two_s in (1, 2, 4, 6):
                spec = build_structure(family, two_s, kappa)
                for _ in range(5):
                    phi = float(rng.uniform(0, 4 * pi))
                    r2 = float(rng.uniform(0, 1))
                    folded = linear_entropy_closed(spec, phi, SplitterParams(r2)).value
                    (want,), (imag,) = _quadruple_sum(spec, np.array([phi]), [r2])
                    assert abs(folded - want[0]) <= 1e-13
                    assert abs(imag[0]) <= 1e-13

    @pytest.mark.parametrize("two_s", [1, 2, 3, 8, 20, 30, 40])
    def test_pinned_to_loop_reference(self, two_s):
        # 2s = 20, 30 and 40 span several blocks of the numpy sum; the one
        # folded table against the folded and the unfolded loop
        rng = np.random.default_rng(two_s)
        custom = rng.uniform(0.5, 3.0, two_s)
        specs = [build_structure(family, two_s, kappa) for family, kappa in FAMILIES]
        specs.append(structure_from_spacings(np.diff(np.r_[0.0, custom, 0.0])))
        phis, r2s = (0.0, 1.0, pi, 100.0), (0.0, 1e-9, 0.5, 1.0)
        references = [_closed_loop_reference(two_s, folded=f) for f in (True, False)]
        for spec in specs:
            grid = linear_entropy_closed(spec, np.array(phis)[:, None], SplitterParams(r2s)).value
            assert grid.shape == (4, 4)
            cells = [[linear_entropy_closed(spec, phi, SplitterParams(r2)).value for r2 in r2s]
                     for phi in phis]
            for reference in references:
                wants, imags = reference(spec, phis, r2s)
                for i in range(len(phis)):
                    for j in range(len(r2s)):
                        want = wants[i][j]
                        assert abs(cells[i][j] - want) <= 1e-13
                        assert abs(grid[i, j] - want) <= 1e-13
                        assert abs(imags[i][j]) <= 1e-13

    @pytest.mark.parametrize("two_s", [1, 2, 3, 8])
    def test_quadruple_sum_pinned_to_loop_reference(self, two_s):
        # the check suite's reference against the unfolded plain loop, S and
        # the imaginary part, on the three families
        phis, r2s = (0.0, 1.0, pi, 100.0), (0.0, 1e-9, 0.5, 1.0)
        reference = _closed_loop_reference(two_s, folded=False)
        for family, kappa in FAMILIES:
            spec = build_structure(family, two_s, kappa)
            got, got_imag = _quadruple_sum(spec, np.array(phis), r2s)
            wants, imags = reference(spec, phis, r2s)
            assert np.max(np.abs(got - np.array(wants))) <= 1e-13
            assert np.max(np.abs(got_imag - np.array(imags))) <= 1e-13

    def test_matches_partial_trace_at_two_s_40(self):
        for family, kappa in FAMILIES:
            spec = build_structure(family, 40, kappa)
            for phi in (0.0, 1.0, pi):
                params = SplitterParams(0.3)
                closed = linear_entropy_closed(spec, phi, params).value
                assert abs(closed - oracle_entropy(spec, 0, phi, params).value) <= 1e-10

    def test_pinned_to_eigh_oracle_at_two_s_80(self):
        # one cell per family against the tests-only eigh oracle's rho
        for (family, kappa), phi, r2 in zip(FAMILIES, (0.7, pi, 100.0), (0.3, 0.5, 0.8)):
            rho = _eigh_oracle_rho(family, 80, kappa, 0, phi, r2)
            want = 1.0 - float(np.sum(np.abs(rho) ** 2))
            spec = build_structure(family, 80, kappa)
            assert abs(linear_entropy_closed(spec, phi, SplitterParams(r2)).value - want) <= 1e-12

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

    @staticmethod
    def _traced_peak(spec, phi, params):
        """Peak traced bytes and value of one call, after a point call kept the tables."""
        linear_entropy_closed(spec, 1.0, BALANCED)
        tracemalloc.start()
        try:
            value = linear_entropy_closed(spec, phi, params).value
            return tracemalloc.get_traced_memory()[1], value
        finally:
            tracemalloc.stop()

    def test_many_r2_values_stay_bounded(self):
        # one table of 2 001 r2 values at 2s = 40 peaked at 384 MB; the
        # table builds its r2 cells in tiles
        spec = build_structure(Family.KAPPA_NEG, 40)
        r2 = np.linspace(0.0, 1.0, 2001)
        peak, value = self._traced_peak(spec, 1.0, SplitterParams(r2))
        assert peak <= 16 * 2**20
        assert value[700] == linear_entropy_closed(spec, 1.0, SplitterParams(r2[700])).value

    def test_custom_phases_stay_bounded(self):
        # C(123, 3) = 302 621 terms at 2s = 120: contracted at once, 8 phases
        # peaked at 6.2 times one phase; in blocks of entries, at most twice
        spec = _custom_spec(120)
        phis = np.linspace(0.0, 2.0, 8)
        one, value = self._traced_peak(spec, phis[3], BALANCED)
        eight, values = self._traced_peak(spec, phis, BALANCED)
        assert eight <= 2 * one
        assert values[3] == value

    @pytest.mark.parametrize("spec, phi, r2, bound", [
        (build_structure(Family.KAPPA_NEG, 40), np.linspace(0.0, 6.3, 400)[:, None],
         np.linspace(0.0, 1.0, 400), 16),
        (build_structure(Family.KAPPA_NEG, 80), np.linspace(0.0, 2 * pi, 128)[:, None],
         np.linspace(0.0, 1.0, 101), 12),
        (build_structure(Family.KAPPA_NEG, 40), np.linspace(0.0, 6.3, 300),
         np.linspace(0.0, 1.0, 300)[:, None], 16),
        (_custom_spec(40), np.linspace(0.0, 6.3, 64)[:, None], np.linspace(0.0, 1.0, 16), 12),
    ], ids=["400x400-at-40", "128x101-at-80", "r2-column-at-40", "custom-64x16-at-40"])
    def test_array_calls_stay_bounded(self, spec, phi, r2, bound):
        # contracted in one piece, these peaked at 277.3, 82.5, 156.2 and
        # 110.1 MB; the contraction tiles its cells
        peak, value = self._traced_peak(spec, phi, SplitterParams(r2))
        assert peak <= bound * 2**20
        cell = np.unravel_index(7 * value.size // 9, value.shape)
        phi_one, r2_one = (np.broadcast_to(a, value.shape)[cell] for a in (phi, r2))
        assert value[cell] == linear_entropy_closed(spec, phi_one, SplitterParams(r2_one)).value

    def test_contraction_blocks_add_in_order(self, monkeypatch):
        # 20 terms of a CUSTOM table at 2s = 3 in blocks of 6: the block sums
        # agree with one block to roundoff, and each cell is its scalar call
        spec = structure_from_spacings(np.array([1.0, 1.7, 0.6, -3.3]))
        phis, params = np.array([[0.0], [0.7], [2.5]]), SplitterParams(np.array([0.2, 0.5]))
        whole = linear_entropy_closed(spec, phis, params).value
        monkeypatch.setattr(entropy, "_TILE_ENTRIES", 6)
        blocks = linear_entropy_closed(spec, phis, params).value
        assert np.max(np.abs(blocks - whole)) <= 1e-15
        assert blocks[2, 1] == linear_entropy_closed(spec, 2.5, SplitterParams(0.5)).value


def _mpmath_entropy(family, two_s, kappa, phi, r2, levels=None):
    """S at 40 digits from rho[n, n'] = sum_l c(n, l) conj(c(n', l)) / d.

    c(n, l) = sqrt(binom(n+l, n) t2^n r2^l) e^{-i F(n+l) phi}, zero where
    n + l > 2s, with each family's levels in exact arithmetic
    (n(2s+1-n)/(2s) for kappa-neg), or F(0..2s) given as levels (taken as
    exact doubles, family ignored), and phi and r2 taken as exact doubles.
    The phases q^{m(n+l)} and i^l cancel from |rho|^2 and are left out.
    """
    with mpmath.workdps(40):
        d = two_s + 1
        if levels is not None:
            levels = [mpmath.mpf(float(v)) for v in levels]
        elif family is Family.PEGG_BARNETT:
            levels = [mpmath.mpf(n) for n in range(d)]
        elif family is Family.KAPPA_NEG:
            levels = [mpmath.mpf(n * (two_s + 1 - n)) / two_s for n in range(d)]
        else:
            levels = [n * (1 + mpmath.mpf(kappa) * (n - 1)) for n in range(d)]
        r2, phi = mpmath.mpf(r2), mpmath.mpf(phi)
        c = [[mpmath.sqrt(mpmath.binomial(n + l, n) * (1 - r2) ** n * r2 ** l)
              * mpmath.expj(-levels[n + l] * phi) if n + l < d else 0
              for l in range(d)] for n in range(d)]
        purity = mpmath.fsum(
            abs(mpmath.fsum(c[n][l] * mpmath.conj(c[n2][l]) for l in range(d)) / d) ** 2
            for n in range(d) for n2 in range(d))
        return 1 - purity


class TestLinearEntropySpectral:
    """linear_entropy_closed on quadratic level tables, whose Gram table it bins
    by the integer k = j (s' - s): the spectral table; and on other tables."""

    @staticmethod
    def _pin_to_eigh_oracle(two_s):
        # one cell per family against the tests-only eigh oracle's rho
        for (family, kappa), phi, r2 in zip(FAMILIES, (0.7, pi, 100.0), (0.3, 0.5, 0.8)):
            rho = _eigh_oracle_rho(family, two_s, kappa, 0, phi, r2)
            want = 1.0 - float(np.sum(np.abs(rho) ** 2))
            spec = build_structure(family, two_s, kappa)
            got = linear_entropy_closed(spec, phi, SplitterParams(r2)).value
            assert abs(got - want) <= 1e-12

    def test_pinned_to_eigh_oracle_at_two_s_80(self):
        self._pin_to_eigh_oracle(80)

    def test_pinned_to_eigh_oracle_at_two_s_100(self):
        self._pin_to_eigh_oracle(100)

    @pytest.mark.parametrize("two_s", [2, 10])
    def test_pinned_to_mpmath_reference(self, two_s):
        # the largest errors measured were 2.3e-16 (2s = 2) and 6.7e-16 (2s = 10),
        # against 8.0e-16 and 1.0e-15 by one rho per cell; a random CUSTOM
        # table, one Gram entry per term, measured 2.2e-16 and 2.5e-16
        rng = np.random.default_rng(two_s)

        def specs():  # the custom table is drawn after the families' cells
            yield from (build_structure(family, two_s, kappa) for family, kappa in FAMILIES)
            yield structure_from_spacings(np.diff(np.r_[0.0, rng.uniform(0.5, 3.0, two_s), 0.0]))

        for spec in specs():
            levels = spec.levels[:spec.dim] if spec.family is Family.CUSTOM else None
            for phi, r2 in rng.uniform((0.0, 0.0), (2 * pi, 1.0), (8, 2)).tolist():
                want = _mpmath_entropy(spec.family, two_s, spec.kappa, phi, r2, levels)
                got = linear_entropy_closed(spec, phi, SplitterParams(r2)).value
                assert abs(mpmath.mpf(got) - want) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(two_s=st.integers(1, 12), phi=st.floats(-10.0, 10.0),
           r2=st.floats(0.0, 1.0), kappa=st.floats(0.01, 2.0),
           scale=st.sampled_from((0.5, 2.0, 3.0, 0.1)))
    def test_depends_on_kappa_phi_and_even_in_kappa(self, two_s, phi, r2, kappa, scale):
        params = SplitterParams(r2)

        def closed(family, phi, kappa=None):
            spec = build_structure(family, two_s, kappa)
            return linear_entropy_closed(spec, phi, params).value

        def oracle(family, phi, kappa=None):  # the partial trace shares no code with the table
            return oracle_entropy(build_structure(family, two_s, kappa), 0, phi, params).value

        # S depends on phi only through kappa phi: exactly so for a power of two
        s = closed(Family.KAPPA_POS, phi, kappa)
        other = closed(Family.KAPPA_POS, phi / scale, kappa * scale)
        if scale in (0.5, 2.0):
            assert other == s
        assert abs(other - s) <= 1e-12
        assert abs(oracle(Family.KAPPA_POS, phi / scale, kappa * scale)
                   - oracle(Family.KAPPA_POS, phi, kappa)) <= 1e-12
        # even in kappa: kappa-neg is kappa-pos at kappa = 1/(2s)
        assert closed(Family.KAPPA_NEG, phi) == closed(Family.KAPPA_POS, phi, 1.0 / two_s)
        assert abs(oracle(Family.KAPPA_NEG, phi)
                   - oracle(Family.KAPPA_POS, phi, 1.0 / two_s)) <= 1e-12
        # Pegg-Barnett has kappa = 0
        assert closed(Family.PEGG_BARNETT, phi) == closed(Family.PEGG_BARNETT, 0.0)
        assert abs(oracle(Family.PEGG_BARNETT, phi) - oracle(Family.PEGG_BARNETT, 0.0)) <= 1e-12

    def test_quadratic_tables_only(self):
        def keyed_by_k(spec):
            table = entropy._gram_table(spec, BALANCED)
            return table.rates.size < comb(spec.dim + 2, 3)  # fewer entries than terms

        # the built-in families bin by k by construction; a CUSTOM table keeps
        # one entry per term, whatever its levels
        assert all(keyed_by_k(build_structure(family, 4, kappa)) for family, kappa in FAMILIES)
        rng = np.random.default_rng(17)
        g = rng.uniform(0.5, 1.5, 4)
        assert not keyed_by_k(structure_from_spacings(np.append(g, -g.sum())))
        # kappa-neg levels and F(n) = n as custom tables agree with their families
        for family, g in ((Family.KAPPA_NEG, build_structure(Family.KAPPA_NEG, 4).spacings),
                          (Family.PEGG_BARNETT, np.append(np.ones(4), -4.0))):
            custom = structure_from_spacings(g)
            assert not keyed_by_k(custom)
            assert abs(linear_entropy_closed(custom, 0.7, BALANCED).value - linear_entropy_closed(
                build_structure(family, 4), 0.7, BALANCED).value) <= 1e-15


class TestMIndependence:
    """One oracle call over every label m, as the check entropy.m_independence makes."""

    def test_spread_within_tolerance(self):
        rng = np.random.default_rng(71)
        for two_s in (1, 2, 3):
            spec = build_structure(Family.KAPPA_NEG, two_s)
            phi = float(rng.uniform(0, 4 * pi))
            values = oracle_entropy(spec, np.arange(spec.dim), phi, SplitterParams(0.3)).value
            assert values.shape == (spec.dim,)
            assert values.max() - values.min() <= 1e-12

    def test_values_match_scalar_calls(self):
        rng = np.random.default_rng(73)
        for family, kappa in FAMILIES:
            for two_s in (1, 2, 5, 9):
                spec = build_structure(family, two_s, kappa)
                phi, r2 = rng.uniform(0.0, 4 * pi), rng.uniform()
                values = oracle_entropy(spec, np.arange(spec.dim), phi, SplitterParams(r2)).value
                for m, value in enumerate(values):
                    one = oracle_entropy(spec, m, phi, SplitterParams(r2)).value
                    assert abs(value - one) <= 1e-15

    def test_zero_reflection_all_zero(self):
        spec = build_structure(Family.KAPPA_NEG, 2)
        values = oracle_entropy(spec, np.arange(spec.dim), 1.0, SplitterParams(0.0)).value
        assert np.all(values == 0.0)


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
    """m, phi and r2 broadcast together; each cell is its scalar call."""

    PHIS = np.array([[0.0, 0.7, pi], [2.5, 4.0, 11.0]])
    PARAMS = SplitterParams(0.3)
    PHI4 = np.array([0.0, 0.7, pi, 11.0])
    R2_4 = np.array([0.0, 0.5, 0.8, 1.0])
    R2_5 = np.array([0.0, 0.3, 0.5, 0.8, 1.0])
    # (phi, r2): scalars, a phase row, a splitter row, a paired row, the
    # (4, 5) product, a paired 2-D grid and a row against a 2-D r2
    CELL_CASES = ((1.9, 0.3), (PHI4, 0.3), (1.9, R2_5), (PHI4, R2_4),
                  (PHI4[:, None], R2_5), (PHIS, PHIS / 11.0), (PHIS[0], PHIS / 11.0))

    @staticmethod
    def _cells(*args):
        """The broadcast shape of args and, per cell, its index and scalars."""
        shape = np.broadcast_shapes(*map(np.shape, args))
        arrays = np.broadcast_arrays(*args)
        return shape, [(i, [a[i].item() for a in arrays]) for i in np.ndindex(shape)]

    @pytest.mark.parametrize(
        "spec", list(_stack_specs()),
        ids=lambda spec: f"{spec.family.value}-{spec.two_s}")
    def test_stack_matches_per_phase(self, spec):
        labels = sorted({0, 1, spec.two_s})
        for r2 in (0.3, self.R2_5, self.PHIS / 11.0):
            params = SplitterParams(r2)
            for n in labels:
                b = split_number_state(n, params)
                assert b.amp.shape == np.shape(r2) + (n + 1, n + 1)
                for j in np.ndindex(np.shape(r2)):
                    one = split_number_state(n, SplitterParams(float(np.asarray(r2)[j])))
                    assert np.max(np.abs(b.amp[j] - one.amp)) <= 1e-15
        for phis, r2 in self.CELL_CASES:
            shape, cells = self._cells(phis, r2)
            for m in labels:
                b = split_phase_state(spec, m, phis, SplitterParams(r2))
                rho = reduced_density(b)
                s = np.asarray(linear_entropy(rho).value)
                assert b.amp.shape == shape + (spec.dim, spec.dim)
                assert rho.shape == shape + (spec.dim, spec.dim)
                assert s.shape == shape
                assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
                for i, (phi, r2_one) in cells:
                    one = split_phase_state(spec, m, phi, SplitterParams(r2_one))
                    rho_one = reduced_density(one)
                    assert np.max(np.abs(b.amp[i] - one.amp)) <= 1e-15
                    assert np.max(np.abs(rho[i] - rho_one)) <= 1e-15
                    assert abs(s[i] - linear_entropy(rho_one).value) <= 1e-15

    @pytest.mark.parametrize(
        "spec", list(_stack_specs()),
        ids=lambda spec: f"{spec.family.value}-{spec.two_s}")
    def test_label_axis_matches_scalar_calls(self, spec):
        # m of shape (), (3,) and (3, 1), phi of shape () and (4,), r2 of
        # shape (), (4,), (5,) and (3, 1): paired, product, 2-D and refused
        m_cases = (2, np.array([0, 1, 5]), np.array([[0], [4], [-7]]))
        r2_cases = (0.3, self.R2_4, self.R2_5, np.array([[0.1], [0.5], [1.0]]))
        routes = (lambda *a: split_phase_state(*a).amp, reduced_density_closed)
        for r2 in r2_cases:
            params = SplitterParams(r2)
            for m in m_cases:
                for phis in (1.9, self.PHI4):
                    try:
                        shape, cells = self._cells(m, phis, r2)
                    except ValueError:
                        for route in routes:
                            with pytest.raises(ValueError):
                                route(spec, m, phis, params)
                        continue
                    for route in routes:
                        got = route(spec, m, phis, params)
                        assert got.shape[:len(shape)] == shape
                        for i, (m_one, phi, r2_one) in cells:
                            one = route(spec, m_one, phi, SplitterParams(r2_one))
                            assert np.array_equal(got[i], one)

    @pytest.mark.parametrize(
        "spec", list(_stack_specs()),
        ids=lambda spec: f"{spec.family.value}-{spec.two_s}")
    def test_closed_form_cells_equal_scalar_calls(self, spec):
        # every cell of an array call is its scalar call, to the bit
        for phis, r2 in self.CELL_CASES:
            got = linear_entropy_closed(spec, phis, SplitterParams(r2)).value
            shape, cells = self._cells(phis, r2)
            assert np.shape(got) == shape
            for i, (phi, r2_one) in cells:
                one = linear_entropy_closed(spec, phi, SplitterParams(r2_one))
                assert np.asarray(got)[i] == one.value
        with pytest.raises(ValueError):  # (4,) and (5,) do not broadcast
            linear_entropy_closed(spec, self.PHI4, SplitterParams(self.R2_5))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), two_s=st.sampled_from((1, 2, 5)),
           shapes=mutually_broadcastable_shapes(num_shapes=3, max_dims=2, max_side=3))
    def test_broadcast_cells_equal_scalar_calls(self, data, two_s, shapes):
        m_shape, phi_shape, r2_shape = shapes.input_shapes
        m = data.draw(arrays(np.int64, m_shape, elements=st.integers(-20, 20)))
        phi = data.draw(arrays(float, phi_shape, elements=st.floats(-20.0, 20.0)))
        r2 = data.draw(arrays(float, r2_shape, elements=st.floats(0.0, 1.0)))
        spec = build_structure(Family.KAPPA_POS, two_s, 0.7)
        params = SplitterParams(r2)
        shape, cells = self._cells(m, phi, r2)
        assert shape == shapes.result_shape

        def routes(m, phi, params):
            b = split_phase_state(spec, m, phi, params)
            rho = reduced_density(b)
            return (b.amp, rho, reduced_density_closed(spec, m, phi, params),
                    linear_entropy(rho).value)

        got = routes(m, phi, params)
        closed = linear_entropy_closed(spec, phi, params).value
        assert [np.shape(g)[:len(shape)] for g in got] == [shape] * 4
        assert np.shape(closed) == np.broadcast_shapes(phi_shape, r2_shape)
        closed = np.broadcast_to(closed, shape)  # S does not depend on m
        for i, (m_one, phi_one, r2_one) in cells:
            one_params = SplitterParams(r2_one)
            for g, one in zip(got, routes(m_one, phi_one, one_params)):
                assert np.array_equal(np.asarray(g)[i], one)
            assert closed[i] == linear_entropy_closed(spec, phi_one, one_params).value

    def test_scalar_return_types(self):
        spec = build_structure(Family.KAPPA_NEG, 3)
        b = split_phase_state(spec, 1, 0.7, self.PARAMS)
        assert b.amp.shape == (4, 4)
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
        amp[1, 0, 2, 1] *= 1.1  # one amplitude of one vector
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


class TestContractionTiles:
    """_GramTable.entropy contracts tiles of _TILE rows in blocks of tiles;
    every blocking gives the bits of one block."""

    PHI5 = np.array([0.0, 0.7, pi, 4.0, 11.0])
    R2_4 = np.array([0.0, 0.3, 0.8, 1.0])
    PHI40, R2_20 = np.linspace(0.0, 11.0, 40), np.linspace(0.0, 1.0, 20)
    # (phi, r2, tiles): scalars, a phase vector, an r2 vector, phi[:, None] x r2,
    # r2[:, None] x phi, an equal-shape pair, a 3-d broadcast, and 40 x 20
    # grids both ways and 40 pairs, which fill 3 x 2 and 3 tiles of 16 rows
    CASES = ((1.9, 0.3, 1), (PHI5, 0.3, 1), (1.9, R2_4, 1), (PHI5[:, None], R2_4, 1),
             (PHI5, R2_4[:, None], 1), (PHI5, PHI5 / 11.0, 1),
             (PHI5[:, None, None], np.linspace(0.0, 1.0, 6).reshape(2, 3), 1),
             (PHI40[:, None], R2_20, 6), (PHI40, R2_20[:, None], 6), (PHI40, PHI40 / 11.0, 3))

    @pytest.mark.parametrize("spec", [*(build_structure(family, 5, kappa)
                                        for family, kappa in FAMILIES), _custom_spec(5)],
                             ids=lambda spec: spec.family.value)
    def test_tiles_equal_one_tile(self, monkeypatch, spy_products, spec):
        k = entropy._gram_table(spec, BALANCED).rates.size
        products = []

        def spy(a, b, out):
            product = np.matmul(a, b, out=out)
            products.append(product.shape)
            return product

        def contract(bound):
            monkeypatch.setattr(entropy, "_BLOCK_ENTRIES", bound)
            out = []
            for phi, r2, tiles in self.CASES:
                products.clear()
                value = np.asarray(linear_entropy_closed(spec, phi, SplitterParams(r2)).value)
                # every product is of _TILE x _TILE tiles, and the tiles cover
                # the cells once, in as many products as the bound needs
                assert {shape[-2:] for shape in products} == {(16, 16)}
                assert sum(np.prod(shape[:-2], dtype=int) for shape in products) == tiles
                out.append((value, len(products)))
            return out

        spy_products(spy)
        whole = contract(1 << 40)
        assert [n for _, n in whole] == [1] * len(self.CASES)
        # a block holds the tiles of a side that fit in the bound, at least one:
        # one or two of 16 rows of K entries
        for bound, counts in ((16 * k, [1] * 7 + [6, 6, 3]), (32 * k, [1] * 7 + [2, 2, 2])):
            tiled = contract(bound)
            assert [n for _, n in tiled] == counts
            for (got, _), (want, _) in zip(tiled, whole):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("two_s", [1, 2, 3, 10, 40, 80])
@pytest.mark.parametrize("family, kappa", [*FAMILIES, (Family.CUSTOM, None)],
                         ids=lambda v: getattr(v, "value", v))
def test_cell_bits_do_not_depend_on_tile_position(family, kappa, two_s):
    # a Gram-table cell contracted alone equals, to the bit, the same cell at
    # other places of a tile: in a 128 x 101 grid, in the transposed grid and
    # in a paired call.  The CUSTOM table at 2s = 80 holds 91 881 entries per
    # r2 value, so its grid has 17 r2 values (two tiles), not 101
    spec = _custom_spec(two_s) if family is Family.CUSTOM else build_structure(family, two_s, kappa)
    phis = np.linspace(0.0, 2 * pi, 128)
    r2 = np.linspace(0.0, 1.0, 101)[::6 if family is Family.CUSTOM and two_s == 80 else 1]
    table = entropy._gram_table(spec, SplitterParams(r2))
    grid = table.entropy(phis[:, None]).value
    swapped = replace(table, weights=table.weights[:, None]).entropy(phis).value
    # tile edges and corners, and cells drawn once
    rows = np.r_[0, 15, 16, 17, 127, np.random.default_rng(two_s).integers(0, 128, 11)]
    cols = np.r_[0, 15, 16, r2.size - 2, r2.size - 1,
                 np.random.default_rng(two_s + 1).integers(0, r2.size, 11)]
    rows, cols = np.meshgrid(rows, cols)
    paired = replace(table, weights=table.weights[cols.ravel()]).entropy(phis[rows.ravel()]).value
    for cell, (i, j) in enumerate(zip(rows.ravel(), cols.ravel())):
        alone = replace(table, weights=table.weights[j]).entropy(phis[i]).value
        assert grid[i, j] == swapped[j, i] == paired[cell] == alone


class TestTiledBuild:
    """A Gram table builds its r2 cells in tiles of _BLOCK_ENTRIES // d^2 cells,
    each from the diagonal sums of its own Gram blocks; of its size it keeps
    the (j, tau) bins alone."""

    @pytest.mark.parametrize("family, kappa", FAMILIES, ids=lambda v: getattr(v, "value", v))
    def test_tiles_equal_one_value_calls(self, family, kappa):
        spec = build_structure(family, 95, kappa)
        r2 = np.linspace(0.0, 1.0, 15)
        assert -(-r2.size // (entropy._BLOCK_ENTRIES // spec.dim**2)) == 3  # build tiles
        got = linear_entropy_closed(spec, 0.9, SplitterParams(r2)).value
        for value, r2_one in zip(got, r2):
            assert value == linear_entropy_closed(spec, 0.9, SplitterParams(r2_one)).value

    def test_one_value_call_memory_is_bounded(self):
        # C(203, 3) = 1 373 701 terms at 2s = 200: a streamed slab plan of
        # them peaked at 4.27 MB with the pair-weight kernel and 3.96 MB with
        # per-term weights; the diagonal sums of the Gram blocks at 3.23 MB
        spec = build_structure(Family.KAPPA_NEG, 200)
        peak, _ = TestLinearEntropyClosed._traced_peak(spec, 0.7, SplitterParams(0.3))
        assert peak <= 4_273_074

    def test_multi_tile_call_memory_is_bounded(self):
        # 8 r2 values at 2s = 120 take two build tiles: a slab plan of the
        # C(123, 3) = 302 621 terms, built whole for the call, peaked at
        # 8.8 MB; the diagonal sums of each tile's Gram blocks at 4.7 MB
        spec = build_structure(Family.KAPPA_NEG, 120)
        r2 = np.linspace(0.0, 1.0, 8)
        peak, value = TestLinearEntropyClosed._traced_peak(spec, 0.7, SplitterParams(r2))
        assert peak <= 6 * 2**20
        assert value[5] == linear_entropy_closed(spec, 0.7, SplitterParams(r2[5])).value


# float.hex of linear_entropy_closed per (family, 2s): the scalar call at
# PIN_PHI, the phase vector PIN_PHIS, then the grid PIN_GRID_PHIS x PIN_R2S
# row-major, all at r2 = PIN_R2 but the grid.  Re-frozen when the contraction
# became products of fixed 16 x 16 tiles (47 of the 240 values moved, by at
# most 2.2e-16), and again when the table came to be binned from the diagonal
# sums of each G_j: 71 values moved.  49 of them moved by at most 2.2e-16 (1-16
# ulps of the value; 16 at S ~ 0.07-0.1 of pegg-barnett).  The other 22 are the
# cells at r2 = 1 - 2^-53, which moved by up to 8.9e-15, from 0-5 2^-53 to
# 2.2e-16-9.1e-15: a 40-digit mpmath reference at 2s = 40 reads 2.06e-15,
# 4.38e-15 and 4.44e-15 where they now read 2.00e-15, 4.33e-15 and 4.33e-15.
# Re-frozen for 2s <= 40 when those weights came from kept polynomials in r2:
# 116 of the 180 values there moved, by at most 1.2e-15 (1-32 ulps of the
# value).  Against 40-digit mpmath sums at 2s = 40 the moved cells read
# errors of 1.6e-15 to 2.5e-15 where they read 3.8e-16 to 1.7e-15; the cells
# at r2 = 1 - 2^-53 moved by one 2^-53 step.  2s = 95 did not move.
PIN_PHI, PIN_PHIS, PIN_GRID_PHIS = 0.7, np.array([0.0, 2.5, 100.0]), np.array([[1.3], [5.9]])
PIN_R2, PIN_R2S = 0.3, np.array([0.0, 0.1, 0.3, 0.5, 0.77, 0.9, 1 - 2**-53, 1.0])
PINNED_BITS = {
    (Family.KAPPA_NEG, 3): """
        0x1.67f66f9f793c8p-3 0x1.f7f3f9d398968p-4 0x1.dd8180a365814p-2 0x1.d7ab0de6f2ad8p-2
        0x0.0p+0 0x1.19c7162db4a48p-3 0x1.1fe9f704b6a3ap-2 0x1.489a027937fe4p-2
        0x1.f731edb029b2cp-3 0x1.19c7162db4a48p-3 0x1.0000000000000p-53 0x0.0p+0
        0x0.0p+0 0x1.e2cbe268d7b90p-3 0x1.dfc54aa731c4ap-2 0x1.0e09337dc1c9cp-1
        0x1.a742efe5f701ep-2 0x1.e2cbe268d7b90p-3 0x1.8000000000000p-52 0x0.0p+0""",
    (Family.KAPPA_NEG, 10): """
        0x1.5263dffe12600p-2 0x1.7bc72f07a56bcp-3 0x1.5f76fdc7cb8e1p-1 0x1.83b5c40b02023p-1
        0x0.0p+0 0x1.40828a6e1d59ep-2 0x1.044296d6eb778p-1 0x1.17d7b8b072ba5p-1
        0x1.e049e2041ef56p-2 0x1.40828a6e1d59cp-2 0x1.8000000000000p-51 0x0.0p+0
        0x0.0p+0 0x1.0c411c7816ed6p-1 0x1.83462de572937p-1 0x1.97ff9f8ddc8b2p-1
        0x1.6d734e505a26dp-1 0x1.0c411c7816ed5p-1 0x1.4000000000000p-50 0x0.0p+0""",
    (Family.KAPPA_NEG, 40): """
        0x1.3193be1d76048p-1 0x1.a5593e661f50cp-2 0x1.a8f8c48bec332p-1 0x1.ce02a1eda49ecp-1
        0x0.0p+0 0x1.2d2208224d560p-1 0x1.71c3846515958p-1 0x1.7d06b34d72a54p-1
        0x1.65e3a308cc254p-1 0x1.2d2208224d55fp-1 0x1.2000000000000p-49 0x0.0p+0
        0x0.0p+0 0x1.9fc7d522d04d4p-1 0x1.d2f5099d363bcp-1 0x1.d915176a9c91dp-1
        0x1.cb831d273f6a8p-1 0x1.9fc7d522d04d3p-1 0x1.3800000000000p-48 0x0.0p+0""",
    (Family.KAPPA_NEG, 95): """
        0x1.736d76c17119cp-1 0x1.232d206d29fe3p-1 0x1.c601758896f0dp-1 0x1.c987e783b4634p-1
        0x0.0p+0 0x1.70e19914195b0p-1 0x1.a08323d7b9299p-1 0x1.a83bb97a5898cp-1
        0x1.9857a95313c39p-1 0x1.70e19914195afp-1 0x1.c000000000000p-49 0x0.0p+0
        0x0.0p+0 0x1.ce267c01d2f5ap-1 0x1.e40ff86d56981p-1 0x1.e67af79d1ee79p-1
        0x1.e137aa334ba07p-1 0x1.ce267c01d2f5ap-1 0x1.3000000000000p-47 0x0.0p+0""",
    (Family.PEGG_BARNETT, 3): """
        0x1.f7f3f9d398968p-4 0x1.f7f3f9d398968p-4 0x1.f7f3f9d398968p-4 0x1.f7f3f9d398968p-4
        0x0.0p+0 0x1.0add0cca59030p-4 0x1.f7f3f9d398968p-4 0x1.1882c4e8fab30p-3
        0x1.c1da89ffe6210p-4 0x1.0add0cca59038p-4 0x1.0000000000000p-53 0x0.0p+0
        0x0.0p+0 0x1.0add0cca59030p-4 0x1.f7f3f9d398968p-4 0x1.1882c4e8fab30p-3
        0x1.c1da89ffe6210p-4 0x1.0add0cca59038p-4 0x1.0000000000000p-53 0x0.0p+0""",
    (Family.PEGG_BARNETT, 10): """
        0x1.7bc72f07a56bcp-3 0x1.7bc72f07a56bcp-3 0x1.7bc72f07a56bcp-3 0x1.7bc72f07a56bcp-3
        0x0.0p+0 0x1.a7059d5cdb790p-4 0x1.7bc72f07a56bcp-3 0x1.a91fa7acc92b4p-3
        0x1.535542c991c68p-3 0x1.a7059d5cdb788p-4 0x1.0000000000000p-52 0x0.0p+0
        0x0.0p+0 0x1.a7059d5cdb790p-4 0x1.7bc72f07a56bcp-3 0x1.a91fa7acc92b4p-3
        0x1.535542c991c68p-3 0x1.a7059d5cdb788p-4 0x1.0000000000000p-52 0x0.0p+0""",
    (Family.PEGG_BARNETT, 40): """
        0x1.a5593e661f50cp-2 0x1.a5593e661f50cp-2 0x1.a5593e661f50cp-2 0x1.a5593e661f50cp-2
        0x0.0p+0 0x1.0854e1636be3ep-2 0x1.a5593e661f50cp-2 0x1.c6e928d468f50p-2
        0x1.847e850e3fb9cp-2 0x1.0854e1636be3ap-2 0x1.4000000000000p-51 0x0.0p+0
        0x0.0p+0 0x1.0854e1636be3ep-2 0x1.a5593e661f50cp-2 0x1.c6e928d468f50p-2
        0x1.847e850e3fb9cp-2 0x1.0854e1636be3ap-2 0x1.4000000000000p-51 0x0.0p+0""",
    (Family.PEGG_BARNETT, 95): """
        0x1.232d206d29fe3p-1 0x1.232d206d29fe3p-1 0x1.232d206d29fe3p-1 0x1.232d206d29fe3p-1
        0x0.0p+0 0x1.a99c6b7311988p-2 0x1.232d206d29fe3p-1 0x1.31db8dbd96898p-1
        0x1.143f64c5af822p-1 0x1.a99c6b7311988p-2 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x1.a99c6b7311988p-2 0x1.232d206d29fe3p-1 0x1.31db8dbd96898p-1
        0x1.143f64c5af822p-1 0x1.a99c6b7311988p-2 0x0.0p+0 0x0.0p+0""",
    (Family.KAPPA_POS, 3): """
        0x1.de3b6e60ebeecp-3 0x1.f7f3f9d398968p-4 0x1.d33195b5d22ccp-2 0x1.8571b9a5d0eb4p-3
        0x0.0p+0 0x1.8d2ad18d7cc18p-3 0x1.9a878e563f23ap-2 0x1.d5cef4a2459f8p-2
        0x1.65c778e8fc002p-2 0x1.8d2ad18d7cc1cp-3 0x1.0000000000000p-52 0x0.0p+0
        0x0.0p+0 0x1.4e5dc07b3d618p-4 0x1.46254e6c64bb4p-3 0x1.6efd0b7b5fb84p-3
        0x1.20893cd771200p-3 0x1.4e5dc07b3d618p-4 0x1.0000000000000p-53 0x0.0p+0""",
    (Family.KAPPA_POS, 10): """
        0x1.7cc90dee357e0p-1 0x1.7bc72f07a56bcp-3 0x1.83fe5112e0c8ap-1 0x1.660677072950fp-1
        0x0.0p+0 0x1.0d5e45544f71cp-1 0x1.8405f7a74e2d0p-1 0x1.9804087be0ee7p-1
        0x1.6e7fbe7c77e12p-1 0x1.0d5e45544f71ap-1 0x1.6000000000000p-50 0x0.0p+0
        0x0.0p+0 0x1.b161269139d42p-2 0x1.3dfabd9a776eep-1 0x1.4e5c3a7548328p-1
        0x1.2c2ced433a786p-1 0x1.b161269139d40p-2 0x1.c000000000000p-51 0x0.0p+0""",
    (Family.KAPPA_POS, 40): """
        0x1.d63a135038d9ep-1 0x1.a5593e661f50cp-2 0x1.c54e4d14dbe34p-1 0x1.d913a25f56c0cp-1
        0x0.0p+0 0x1.a2f64a1eea6fcp-1 0x1.d67deee8e69a5p-1 0x1.dc150e1fb232fp-1
        0x1.cf3b41ca22df5p-1 0x1.a2f64a1eea6fbp-1 0x1.3800000000000p-48 0x0.0p+0
        0x0.0p+0 0x1.a1c80b99bb430p-1 0x1.d73a595b7458ep-1 0x1.df01062acb6cdp-1
        0x1.ced43590bc40dp-1 0x1.a1c80b99bb42fp-1 0x1.3000000000000p-48 0x0.0p+0""",
    (Family.KAPPA_POS, 95): """
        0x1.e6486d362ea4fp-1 0x1.232d206d29fe3p-1 0x1.e1c88f1c60c48p-1 0x1.ed691e43bc28cp-1
        0x0.0p+0 0x1.d3a61455f76bap-1 0x1.eee037ceea207p-1 0x1.f27d910fadfc6p-1
        0x1.eac4e05b0fe36p-1 0x1.d3a61455f76bap-1 0x1.4800000000000p-47 0x0.0p+0
        0x0.0p+0 0x1.d384c3f373585p-1 0x1.eec480d35ff84p-1 0x1.f2ae9828a28c4p-1
        0x1.ea90f0b1197c8p-1 0x1.d384c3f373584p-1 0x1.4000000000000p-47 0x0.0p+0""",
}


@pytest.mark.parametrize("family, two_s", PINNED_BITS,
                         ids=lambda v: getattr(v, "value", v))
def test_closed_form_bits_pinned(family, two_s):
    # at 2s = 95 the grid of 8 r2 values takes two build tiles
    spec = build_structure(family, two_s, 0.5 if family is Family.KAPPA_POS else None)
    values = [linear_entropy_closed(spec, PIN_PHI, SplitterParams(PIN_R2)).value,
              *linear_entropy_closed(spec, PIN_PHIS, SplitterParams(PIN_R2)).value,
              *linear_entropy_closed(spec, PIN_GRID_PHIS, SplitterParams(PIN_R2S)).value.ravel()]
    assert [float(v).hex() for v in values] == PINNED_BITS[family, two_s].split()


EMPTY = np.zeros(0)


@pytest.mark.parametrize("route, shape", [
    (lambda spec: linear_entropy_closed(spec, EMPTY, BALANCED).value, (0,)),
    (lambda spec: linear_entropy_closed(spec, 0.7, SplitterParams(EMPTY)).value, (0,)),
    (lambda spec: linear_entropy_closed(spec, EMPTY[:, None],
                                        SplitterParams(np.array([0.2, 0.5]))).value, (0, 2)),
    (lambda spec: linear_entropy_closed(spec, np.ones(3),
                                        SplitterParams(EMPTY[:, None])).value, (0, 3)),
    (lambda spec: linear_entropy(np.zeros((0, spec.dim, spec.dim))).value, (0,)),
    (lambda spec: reduced_density(split_phase_state(spec, 0, EMPTY, BALANCED)), (0, 4, 4)),
    (lambda spec: reduced_density(split_number_state(3, SplitterParams(EMPTY))), (0, 4, 4)),
    (lambda spec: reduced_density_closed(spec, 0, EMPTY, BALANCED), (0, 4, 4)),
], ids=["closed-phi", "closed-r2", "closed-phi-grid", "closed-r2-grid",
        "oracle-stack", "partial-trace", "number-state", "rho-closed"])
@pytest.mark.parametrize("spec", [build_structure(Family.KAPPA_NEG, 3), _custom_spec(3)],
                         ids=["kappa-neg", "custom"])
def test_zero_cells_give_empty_results(route, shape, spec):
    # every route gives an empty result for zero cells, with the cells' shape
    assert np.shape(route(spec)) == shape


@pytest.mark.parametrize("route", [
    lambda spec, phi: phase_state(spec, 1, phi),
    lambda spec, phi: split_phase_state(spec, 1, phi, BALANCED),
    lambda spec, phi: reduced_density_closed(spec, 1, phi, BALANCED),
    lambda spec, phi: linear_entropy_closed(spec, phi, BALANCED),
], ids=["phase-state", "partial-trace", "rho-closed", "closed"])
@pytest.mark.parametrize("phi, named", [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
    (np.array([[0.3, 1.0], [np.nan, 2.0]]), "nan"), (np.array([0.3, np.inf]), "inf"),
], ids=["nan", "inf", "-inf", "array-with-nan", "array-with-inf"])
def test_non_finite_phase_refused(route, phi, named):
    # one ValueError naming the phase on every route, before numpy warns
    spec = build_structure(Family.KAPPA_NEG, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"phase phi must be finite, got {named}$"):
            route(spec, phi)
