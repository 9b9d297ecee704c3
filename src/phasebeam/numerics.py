"""Small numerical helpers: exact quarter turns, log-factorial tables, the
cache that keeps per-size tables for reuse and the routes' tile bound."""

from collections import OrderedDict
from functools import wraps
from math import lgamma
from threading import Lock

import numpy as np

# Powers of the imaginary unit, exact to the bit.
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])

# A table that depends only on a size is kept for the next call while it
# holds at most this many entries; each cache of such tables holds at most
# this many entries in all.  2^17 keeps every d x d table (the closed form's
# binomials and (j, tau) bins, the partial trace's coefficients) up to
# 2s = 361, d^2 = 131 044.
RETAIN_ENTRIES = 1 << 17

# Tile bound in entries, so that peak memory does not grow with the cells:
# a Gram table builds _BLOCK_ENTRIES // d^2 r2 cells at a time, and its
# contraction takes the tiles of each side in blocks of at most this many
# (row, entry) products (at least one tile); a sweep's rho tile holds 1 MiB.
_BLOCK_ENTRIES = 1 << 16


def ipow(k: "int | np.ndarray"):
    """i**k as an exact unit complex number (no rounding for any k).

    k is an int, giving a complex scalar, or an integer array, giving one
    quarter turn per element.
    """
    return _QUARTER_TURNS[np.bitwise_and(k, 3)]


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each marked read-only in place."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def per_size(entries):
    """Keep the tables of a builder whose result depends only on its arguments.

    entries(*args) counts the entries of the table for args before it is
    built.  A table of at most RETAIN_ENTRIES entries is kept; the least
    recently used are dropped while the kept tables hold more than
    RETAIN_ENTRIES entries in all.  A larger table is built afresh on every
    call.  The builder returns a tuple and marks its arrays read-only.
    """
    def wrap(build):
        kept = OrderedDict()
        lock = Lock()  # threads share the kept tables

        @wraps(build)
        def table(*args):
            with lock:
                if args in kept:
                    kept.move_to_end(args)
                    return kept[args][1]
            size, value = entries(*args), build(*args)
            if size <= RETAIN_ENTRIES:
                with lock:
                    kept[args] = size, value
                    while sum(n for n, _ in kept.values()) > RETAIN_ENTRIES:
                        kept.popitem(last=False)
            return value

        def cache_clear():
            with lock:
                kept.clear()

        table.cache_clear = cache_clear
        return table
    return wrap


def log_factorials(n_max: int) -> np.ndarray:
    """ln(k!) for k = 0..n_max, a read-only array; each entry is lgamma(k + 1).

    Its callers are per-size tables, so it runs once per size they keep.
    """
    return read_only(np.array([lgamma(k + 1) for k in range(n_max + 1)]))[0]
