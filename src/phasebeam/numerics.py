"""Small numerical helpers: exact quarter turns and log-factorial tables."""

from math import lgamma

import numpy as np

# Powers of the imaginary unit, exact to the bit.
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def ipow(k: "int | np.ndarray"):
    """i**k as an exact unit complex number (no rounding for any k).

    k is an int, giving a complex scalar, or an integer array, giving one
    quarter turn per element.
    """
    return _QUARTER_TURNS[np.bitwise_and(k, 3)]


def log_factorials(n_max: int) -> list[float]:
    """Table of ln(k!) for k = 0..n_max."""
    return [lgamma(k + 1) for k in range(n_max + 1)]
