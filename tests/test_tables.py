"""Per-size tables: kept for reuse within a budget, read-only, and giving
every route the same bits as a table built afresh."""

import dataclasses
import inspect
import sys
import threading

import numpy as np
import pytest

from phasebeam.algebra import Family, build_structure, structure_from_spacings
from phasebeam.entropy import (
    _binomial_table,
    _k_values,
    _plan_terms,
    _slab_plan,
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

CACHES = (_slab_plan, _k_values, _binomial_table, _coefficient_table)


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
    lambda: _slab_plan(9),
    lambda: _slab_plan(41),  # several blocks
    lambda: _binomial_table(9),
    lambda: _k_values(9),
    lambda: _coefficient_table(8),
    lambda: (log_factorials(8),),
])
def test_kept_arrays_are_read_only(table):
    arrays = list(_arrays(table()))
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


@pytest.mark.parametrize("d", [1, 2, 5, 41])
def test_plan_terms_counts_the_plan(d):
    assert sum(block.terms.size for block in _slab_plan(d)) == _plan_terms(d)


@pytest.mark.parametrize("d", [1, 2, 5, 41, 82])
def test_plan_bins_are_the_integer_gaps(d):
    # k of each term is the gap of L(n) = n(n-1)/2 at the level indices s
    # and s + j (clipped to the table) of its slab j; every distinct k is met
    (ks,) = _k_values(d)
    n = np.arange(d + 1)
    levels = n * (n - 1) // 2
    met = np.zeros(ks.size, dtype=bool)
    for block in _slab_plan(d):
        s = np.arange(block.side)
        e = levels[s] - levels.take(np.minimum(block.rows[:, None] + s, d))
        assert np.array_equal(ks[block.bins], (e[:, :, None] - e[:, None, :]).take(block.terms))
        met[block.bins] = True
    assert met.all()
    assert np.array_equal(ks, np.unique(ks))


def test_plan_over_the_budget_streams_without_being_built():
    assert _plan_terms(81) <= RETAIN_ENTRIES  # 2s = 80 is kept
    assert _slab_plan(81) is _slab_plan(81)
    assert _plan_terms(512) > RETAIN_ENTRIES
    plan = _slab_plan(512)
    assert inspect.getgeneratorstate(plan) == inspect.GEN_CREATED
    assert _slab_plan(512) is not plan


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
