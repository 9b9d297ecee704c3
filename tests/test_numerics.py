import math

import pytest

from phasebeam.numerics import ipow, log_factorials


def test_ipow_exact_cycle():
    expected = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}
    for k in range(32):
        assert ipow(k) == expected[k % 4]


def test_log_factorials_table():
    table = log_factorials(12)
    assert len(table) == 13
    for k in range(13):
        assert table[k] == pytest.approx(math.log(math.factorial(k)), abs=1e-12)
