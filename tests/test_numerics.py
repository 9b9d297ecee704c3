import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebeam.numerics import ipow, log_factorials, sqrt_binomial


def test_ipow_exact_cycle():
    expected = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}
    for k in range(32):
        assert ipow(k) == expected[k % 4]


def test_log_factorials_table():
    table = log_factorials(12)
    assert len(table) == 13
    for k in range(13):
        assert table[k] == pytest.approx(math.log(math.factorial(k)), abs=1e-12)


def test_sqrt_binomial_exact_small():
    for n in range(21):
        for p in range(n + 1):
            exact = math.sqrt(math.comb(n, p))
            assert abs(sqrt_binomial(n, p) - exact) <= 1e-13 * exact


def test_sqrt_binomial_relative_large():
    for n in range(21, 61):
        for p in range(0, n + 1, 3):
            exact = math.sqrt(math.comb(n, p))
            assert abs(sqrt_binomial(n, p) - exact) / exact <= 1e-13


def test_sqrt_binomial_rejects_bad_indices():
    with pytest.raises(ValueError):
        sqrt_binomial(3, 4)
    with pytest.raises(ValueError):
        sqrt_binomial(3, -1)
    with pytest.raises(ValueError):
        sqrt_binomial(-1, 0)
