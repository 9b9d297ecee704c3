"""Small numerical helpers: exact quarter turns, log-factorial tables,
log-space binomial square roots."""

from math import exp, lgamma

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


def sqrt_binomial(n: int, p: int) -> float:
    """sqrt(n! / (p! (n-p)!)) evaluated in log space.

    Stays accurate (relative error well under 1e-13) far beyond the point
    where the factorials themselves overflow intermediate integers cast to
    float.
    """
    if p < 0 or n < 0 or p > n:
        raise ValueError(f"binomial indices out of range: n={n}, p={p}")
    return exp(0.5 * (lgamma(n + 1) - lgamma(p + 1) - lgamma(n - p + 1)))
