"""Per-size tables: kept for reuse within a budget, read-only, and giving
every route the same bits as a table built afresh."""

import dataclasses
import sys
import threading
from collections import defaultdict
from math import comb, fsum

import numpy as np
import pytest

from phasebeam.algebra import Family, build_structure, structure_from_spacings
from phasebeam.entropy import (
    _binomial_pmf,
    _binomial_table,
    _gram_table,
    _k_bins,
    _slab_blocks,
    linear_entropy_closed,
)
from phasebeam.numerics import RETAIN_ENTRIES, log_factorials, per_size
from phasebeam.splitter import (
    SplitterParams,
    _coefficient_table,
    reduced_density,
    reduced_density_closed,
    split_phase_state,
)

CACHES = (_k_bins, _slab_blocks, _binomial_table, _coefficient_table)


@pytest.fixture
def clear_tables():
    """A function that drops every kept table."""
    def clear():
        for cache in CACHES:
            cache.cache_clear()
    return clear


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
@pytest.mark.parametrize("d", [2, 3, 11, 41])
def test_weight_rows_are_the_sums_of_the_terms_of_each_k(family, kappa, d):
    # the built-in table's row of each r2 cell against math.fsum over the
    # fold-weighted Gram entries of the terms of each k = j (s' - s)
    r2 = np.array([0.0, 0.3, 0.77, 1.0])
    spec = build_structure(family, d - 1, kappa)
    table = _gram_table(spec, SplitterParams(r2))
    ks = _k_bins(d)[0]
    assert np.array_equal(table.rates, 2.0 * (spec.kappa or 0.0) * ks)
    b = np.sqrt(_binomial_pmf(spec, r2))
    for row, cell in zip(table.weights, b):
        by_k = defaultdict(list)
        for j, s, t, w in _terms(d):
            q = cell[:d - j, :d - j] * cell[j:, j:]  # Q_j[n, s] = b[n, s] b[n + j, s + j]
            by_k[j * (t - s)].append(w * fsum(q[:, s] * q[:, t]))
        want = np.array([fsum(by_k[k]) for k in ks.tolist()])
        assert np.abs(row - want).max() <= 4 * np.spacing(want.sum())


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
