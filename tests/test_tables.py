"""Per-size tables: kept for reuse within a budget, read-only, and giving
every route the same bits as a table built afresh."""

import dataclasses
import hashlib
import sys
import threading
from collections import defaultdict
from math import comb, fsum

import mpmath
import numpy as np
import pytest

from phasebeam.algebra import Family, build_structure, structure_from_spacings
from phasebeam import entropy, phase_states, splitter
from phasebeam.entropy import (
    _POLY_TWO_S,
    _binomial_pmf,
    _binomial_table,
    _gram_rows,
    _gram_table,
    _k_bins,
    _pair_sums,
    _slab_blocks,
    _weight_poly,
    linear_entropy_closed,
)
from phasebeam.numerics import RETAIN_ENTRIES, log_factorials, per_size
from phasebeam.phase_states import _unit_roots
from phasebeam.splitter import (
    SplitterParams,
    _coefficient_table,
    reduced_density,
    reduced_density_closed,
    split_phase_state,
)

CACHES = (_k_bins, _slab_blocks, _binomial_table, _coefficient_table, _weight_poly, _pair_sums,
          _unit_roots)


@pytest.fixture
def clear_tables():
    """A function that drops every kept table."""
    def clear():
        for cache in CACHES:
            cache.cache_clear()
    return clear


def test_every_kept_table_is_cleared():
    # every module-level cache of the routes' modules is in CACHES, so that
    # the tests that clear the kept tables build all of them afresh
    kept = [value for module in (entropy, splitter, phase_states)
            for value in vars(module).values() if callable(getattr(value, "cache_clear", None))]
    assert kept
    assert [value for value in kept if value not in CACHES] == []


def _specs(two_s):
    """The three families and a CUSTOM table, all of dimension 2s + 1."""
    g = 0.5 + np.abs(np.sin(np.arange(1.0, two_s + 2.0)))
    g[-1] = -g[:-1].sum()
    return [build_structure(Family.KAPPA_NEG, two_s),
            build_structure(Family.PEGG_BARNETT, two_s),
            build_structure(Family.KAPPA_POS, two_s, 0.37),
            structure_from_spacings(g)]


def _every_route(spec, phis, params):
    """Every S and rho of spec on a (phi, r2) grid, as one list of arrays."""
    return [linear_entropy_closed(spec, phis[:, None], params).value,
            reduced_density(split_phase_state(spec, 1, phis[:, None], params)),
            reduced_density_closed(spec, 2, phis[:, None], params)]


@pytest.mark.parametrize("two_s", [3, 12, 30])
def test_kept_tables_give_the_bits_of_fresh_ones(clear_tables, two_s):
    rng = np.random.default_rng(two_s)
    phis = rng.uniform(0.0, 7.0, 3)
    params = SplitterParams(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 3)]))
    specs = _specs(two_s)
    clear_tables()
    fresh = []
    for spec in specs:  # each spec's first call builds what the next ones keep
        fresh.append(_every_route(spec, phis, params))
        clear_tables()
    for spec in specs:
        _every_route(spec, phis, params)
    # interleaved: every spec again, with the tables of the others kept
    for spec, want in zip(specs, fresh):
        for got, ref in zip(_every_route(spec, phis, params), want, strict=True):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def _arrays(table):
    for part in table:
        if dataclasses.is_dataclass(part):
            yield from (v for v in vars(part).values() if isinstance(v, np.ndarray))
        elif isinstance(part, np.ndarray):
            yield part


@pytest.mark.parametrize("table", [
    lambda: _k_bins(9),
    lambda: _k_bins(41),
    lambda: _binomial_table(9),
    lambda: _k_bins(1),
    lambda: _coefficient_table(8),
    lambda: (log_factorials(8),),
    lambda: _weight_poly(2),
    lambda: _weight_poly(_POLY_TWO_S + 1),
    lambda: _pair_sums(2),
    lambda: _pair_sums(_POLY_TWO_S + 1),
    lambda: _unit_roots(8),
])
def test_kept_arrays_are_read_only(table):
    arrays = list(_arrays(table()))
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def _terms(d):
    """The folded terms (j, s, s') of dimension d, j >= 0 and s <= s' < d - j,
    in (j, s, s') order, each with its fold weight (2 - [j == 0]) (2 - [s == s'])."""
    return [(j, s, t, (2 - (j == 0)) * (2 - (s == t)))
            for j in range(d) for s in range(d - j) for t in range(s, d - j)]


@pytest.mark.parametrize("d", [2, 5, 41])
def test_custom_table_keeps_one_entry_per_term(d):
    # one entry per folded term, in (j, s, s') order: its gap, and its
    # fold-weighted Gram entry
    spec = _specs(d - 1)[3]
    r2 = np.array([0.3, 0.8])
    table = _gram_table(spec, SplitterParams(r2))
    assert table.rates.size == comb(d + 2, 3)
    assert table.weights.shape == (2, comb(d + 2, 3))
    levels = spec.levels.tolist()
    gap = [(levels[s] - levels[min(s + j, d)]) - (levels[t] - levels[min(t + j, d)])
           for j, s, t, _ in _terms(d)]
    assert table.rates.tolist() == gap
    b = np.sqrt(_binomial_pmf(spec, r2))
    for row, cell in zip(table.weights, b):
        want = [w * fsum(cell[n, s] * cell[n + j, s + j] * cell[n, t] * cell[n + j, t + j]
                         for n in range(d - j)) for j, s, t, w in _terms(d)]
        assert np.abs(row - want).max() <= 4 * np.spacing(max(want))


@pytest.mark.parametrize("d", [1, 2, 5, 41, 82])
def test_k_bins_are_the_integer_gaps(d):
    # each (j, tau) with j + tau < d lands in the bin of k = j tau, which is
    # the gap of L(n) = n(n-1)/2 at the level indices s, s + j of every term
    # with s' - s = tau; every other (j, tau) lands in the dump bin
    ks, bins, folds = _k_bins(d)
    j, tau = np.indices((d, d))
    inside = j + tau < d
    assert np.array_equal(ks, np.unique((j * tau)[inside]))
    assert np.array_equal(ks[bins[inside]], (j * tau)[inside])
    assert (bins[~inside] == ks.size).all()
    assert np.array_equal(folds, inside * np.where(tau > 0, 2.0, 1.0))
    n = np.arange(d + 1)
    levels = n * (n - 1) // 2
    for j_, s, t, _ in _terms(d) if d < 82 else ():
        gap = (levels[s] - levels[s + j_]) - (levels[t] - levels[t + j_])
        assert ks[bins[j_, t - s]] == gap


def test_k_bins_are_kept_up_to_two_s_361():
    # d^2 entries: kept up to d = 362, and built afresh on each call above
    assert 362**2 <= RETAIN_ENTRIES < 363**2
    assert _k_bins(362) is _k_bins(362)
    assert _k_bins(363) is not _k_bins(363)


@pytest.mark.parametrize("family, kappa", [
    (Family.PEGG_BARNETT, None), (Family.KAPPA_NEG, None), (Family.KAPPA_POS, 0.37),
], ids=["pegg-barnett", "kappa-neg", "kappa-pos"])
@pytest.mark.parametrize("d", [2, 3, 11, 41, 42])
def test_weight_rows_are_the_sums_of_the_terms_of_each_k(family, kappa, d):
    # the built-in table's row of each r2 cell against math.fsum over the
    # fold-weighted Gram entries of the terms of each k = j (s' - s), at
    # t2 = 1 - r2 exactly: 1 - r2 rounds to t, and the pmf's t^n is taken to
    # t2^n = t^n (1 + n (t2 - t) / t), t2 - t = (1 - t) - r2 exact
    r2 = np.array([0.0, 0.3, 0.77, 1.0])
    spec = build_structure(family, d - 1, kappa)
    table = _gram_table(spec, SplitterParams(r2))
    ks = _k_bins(d)[0]
    assert np.array_equal(table.rates, 2.0 * (spec.kappa or 0.0) * ks)
    rounded = 1.0 - r2
    slip = np.divide((1.0 - rounded) - r2, rounded, out=np.zeros(r2.size), where=rounded > 0.0)
    b = np.sqrt(_binomial_pmf(spec, r2) * (1.0 + np.multiply.outer(slip, np.arange(d)))[:, :, None])
    for row, cell in zip(table.weights, b):
        by_k = defaultdict(list)
        for j, s, t, w in _terms(d):
            q = cell[:d - j, :d - j] * cell[j:, j:]  # Q_j[n, s] = b[n, s] b[n + j, s + j]
            by_k[j * (t - s)].append(w * fsum(q[:, s] * q[:, t]))
        want = np.array([fsum(by_k[k]) for k in ks.tolist()])
        assert np.abs(row - want).max() <= 4 * np.spacing(want.sum())


BUILT_IN = [(Family.PEGG_BARNETT, None), (Family.KAPPA_NEG, None), (Family.KAPPA_POS, 0.37)]


@pytest.mark.parametrize("family, kappa", BUILT_IN, ids=["pegg-barnett", "kappa-neg", "kappa-pos"])
def test_kept_weights_are_pure_at_r2_0_and_1(family, kappa):
    # at every kept size the rows of r2 = 0 and 1 are exactly (d^2, 0, ...),
    # so S = 0 there at any phase
    phis = np.array([0.0, 0.7, 2.5, 100.0])
    for d in range(2, _POLY_TWO_S + 2):
        spec = build_structure(family, d - 1, kappa)
        weights = _gram_table(spec, SplitterParams(np.array([0.0, 1.0]))).weights
        pure = np.zeros(weights.shape[1])
        pure[0] = d * d
        assert np.array_equal(weights, [pure, pure])
        assert not linear_entropy_closed(spec, phis[:, None], SplitterParams(np.array([0.0, 1.0]))).value.any()


def test_kept_weights_against_40_digit_sums():
    # at d = 11 the kept rows are within 1 eps of sum W of the Gram sums taken
    # with 40 digits at t2 = 1 - r2 exactly; a basis of powers of the rounded
    # 1 - r2 read up to 3.2 eps there (at r2 = 1e-9)
    d = 11
    r2 = np.array([1e-9, 0.1, 0.3, 0.45, 0.7])
    rows = _gram_table(build_structure(Family.KAPPA_NEG, d - 1), SplitterParams(r2)).weights
    ks = _k_bins(d)[0].tolist()
    with mpmath.workdps(40):
        for row, x in zip(rows, r2.tolist()):
            r = mpmath.mpf(x)
            b = [[mpmath.sqrt(comb(s, n) * (1 - r)**n * r**(s - n)) for s in range(d)] for n in range(d)]
            want = dict.fromkeys(ks, 0)
            for j, s, t, w in _terms(d):
                want[j * (t - s)] += w * mpmath.fsum(
                    b[n][s] * b[n + j][s + j] * b[n][t] * b[n + j][t + j] for n in range(d - j))
            err = max(abs(v - want[k]) for v, k in zip(row.tolist(), ks))
            assert err <= np.finfo(float).eps * mpmath.fsum(want.values())


@pytest.mark.parametrize("family, kappa", BUILT_IN, ids=["pegg-barnett", "kappa-neg", "kappa-pos"])
def test_kept_weights_match_the_gram_build(family, kappa):
    # every kept size's rows against the per-call Gram build that serves the
    # sizes above _POLY_TWO_S, within 4 d eps of sum W, the ends of r2 included
    r2 = np.array([0.0, 1e-9, 0.3, 0.5, 0.77, 1.0 - 1e-9, 1.0])
    for d in range(2, _POLY_TWO_S + 2):
        spec = build_structure(family, d - 1, kappa)
        table = _gram_table(spec, SplitterParams(r2))
        rates, rows = _gram_rows(spec, r2)
        assert table.rates.tobytes() == rates.tobytes()
        total = rows.sum(axis=1, keepdims=True)
        assert (np.abs(table.weights - rows) <= 4 * d * np.finfo(float).eps * total).all()


# sha256 of the bytes of ks (little-endian int64) then poly (little-endian
# float64) of _weight_poly(d), first 16 hex digits, frozen for every kept size
KEPT_DIGESTS = {
    2: "ed77788dba6b4453", 3: "f1857cea80a9b64d", 4: "3f32acf61a776d82", 5: "95e8b58cd358887b",
    6: "1be1c39f57c30864", 7: "39f236431885accd", 8: "c54a7fb89e7ad1d9", 9: "12659062b9ad555b",
    10: "a3c697ec5fa79f79", 11: "e7c018215bbfd5d3", 12: "f163395e0448b61a", 13: "5685503ede559f37",
    14: "040a3d9ed3f3f0d3", 15: "9edd290b26c8d1c5", 16: "438c56c0208d449f", 17: "f49906840d911b9d",
    18: "3bf1ff3a957a07e6", 19: "69b3343533826a53", 20: "354a974d63704bb3", 21: "5931c7afd404de76",
    22: "289f545052a62d37", 23: "b60d2211bca332dd", 24: "f704492d9c1b461d", 25: "af89a0f1288d6629",
    26: "0a52d91e909d7b51", 27: "9fca9744089a8d73", 28: "208a050ded3af143", 29: "87be89c9f789e7d4",
    30: "e74a43d4433d6742", 31: "669d29431f242500", 32: "cc4c38597c026dbb", 33: "5719aa41196cddb1",
    34: "5f721690214a8a81", 35: "c41515a5e0ee3fb7", 36: "8a2f71b6687d7fce", 37: "18ff1f6606df7bcb",
    38: "502e744304a04eae", 39: "c7db09fc134bea50", 40: "0143b08c0c84231d", 41: "b5839b683942c02d",
}


def test_kept_weights_keep_their_bits():
    assert sorted(KEPT_DIGESTS) == list(range(2, _POLY_TWO_S + 2))
    got = {}
    for d in KEPT_DIGESTS:
        ks, poly = _weight_poly(d)
        data = ks.astype("<i8").tobytes() + poly.astype("<f8").tobytes()
        got[d] = hashlib.sha256(data).hexdigest()[:16]
    assert got == KEPT_DIGESTS


def test_kept_weights_do_not_depend_on_the_sizes_before(clear_tables):
    # a size continued from a smaller one, from scratch, or after a larger
    # one has the same bits
    clear_tables()
    fresh = [_weight_poly(d) for d in (12, 30)]
    for order in ((5, 12, 30), (30, 12), (41, 30, 12)):
        clear_tables()
        got = {d: _weight_poly(d) for d in order}
        for d, want in zip((12, 30), fresh):
            for a, b in zip(got[d], want, strict=True):
                assert a.tobytes() == b.tobytes()


def test_a_first_call_builds_only_its_own_sizes(monkeypatch, clear_tables):
    # a first closed-form call at 2s = 2 builds the pair sums of d = 1, 2
    # and 3, the sizes its table continues, and of no larger size
    built = []
    pair_sums = entropy._pair_sums

    def spy(d):
        built.append(d)
        return pair_sums(d)

    clear_tables()
    monkeypatch.setattr(entropy, "_pair_sums", spy)
    linear_entropy_closed(build_structure(Family.KAPPA_NEG, 2), 0.7, SplitterParams(0.3))
    assert set(built) == {1, 2, 3}


def test_kept_weights_are_shared_safely_by_threads(clear_tables):
    # threads that build, read and clear the kept weights at mixed sizes get
    # the bits of serial calls
    sizes = (41, 12, 30, 5)
    clear_tables()
    want = {d: [a.tobytes() for a in _weight_poly(d)] for d in sizes}
    errors = []

    def work(seed):
        try:
            for i in range(24):
                d = sizes[(seed + i) % len(sizes)]
                assert [a.tobytes() for a in _weight_poly(d)] == want[d]
                if i % 5 == seed % 5:
                    _weight_poly.cache_clear()
                    _pair_sums.cache_clear()
        except Exception as exc:  # reported below with its thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


@pytest.mark.parametrize("two_s, built", [(_POLY_TWO_S, False), (_POLY_TWO_S + 1, True)])
def test_gram_build_only_above_the_kept_sizes(monkeypatch, two_s, built):
    # a built-in family reads its kept weights up to _POLY_TWO_S and builds
    # its Gram blocks above it; a CUSTOM table builds them at every size
    calls = []
    pmf = entropy._binomial_pmf

    def spy(spec, r2):
        calls.append(spec.family)
        return pmf(spec, r2)

    monkeypatch.setattr(entropy, "_binomial_pmf", spy)
    for spec in _specs(two_s):
        linear_entropy_closed(spec, 0.7, SplitterParams(0.3))
    assert calls == [*[Family.KAPPA_NEG, Family.PEGG_BARNETT, Family.KAPPA_POS] * built, Family.CUSTOM]


def test_per_size_budget_holds_every_kept_table():
    built = []

    @per_size(lambda n: n)
    def table(n):
        built.append(n)
        return (np.zeros(1),)

    half = RETAIN_ENTRIES // 2
    a = table(half)
    b = table(half - 1)
    assert table(half) is a and table(half - 1) is b  # 2 half - 1 entries fit
    assert built == [half, half - 1]
    table(2)  # one entry over: the least recently used table goes
    assert table(half - 1) is b
    table(half)
    assert built == [half, half - 1, 2, half]
    table(RETAIN_ENTRIES + 1)  # never kept, and evicts nothing
    table(RETAIN_ENTRIES + 1)
    assert built[-2:] == [RETAIN_ENTRIES + 1] * 2
    assert table(half - 1) is b


def test_per_size_is_shared_safely_by_threads():
    # Tables of 3/8 of the budget each, so that insertions keep evicting.
    @per_size(lambda n: 3 * RETAIN_ENTRIES // 8)
    def table(n):
        return (np.full(3, n),)

    errors = []

    def work(seed):
        try:
            for i in range(2000):
                n = (seed + 7 * i) % 5
                assert table(n)[0].tolist() == [n] * 3
                if i % 97 == 0:
                    table.cache_clear()
        except Exception as exc:  # reported below with its thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
