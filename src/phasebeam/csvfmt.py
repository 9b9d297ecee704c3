"""The sweep CSV of the command line, written by numpy in blocks of rows.

Every number prints as "%.17g" % v.  Each axis value is formatted by Python
once; each S goes through g17_records, an exact decimal kernel whose bytes
equal Python's.  csv_blocks yields the CSV a block at a time, so a caller
can write each block as soon as it is formatted.  The CLI imports this
module on its first CSV, so that `compute` and `check` neither load nor
compile it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .experiments import SweepTable

# Rows per block of csv_blocks.  A row's record is about 70 bytes on the README
# grids.  Writing the qutrit surface again and again, 2^11 rows kept a
# process's peak RSS at that of per-row formatting (within 0.1 MB) and cost
# 0.3 ms more than 2^12 rows, which raised it by 0.8 MB.
BLOCK_ROWS = 1 << 11
# Dekker's splitter for doubles, 2^27 + 1.
_SPLIT = 134217729.0


@cache
def _pow10() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10^q for q = 0..22, each an exact double, and its Dekker halves."""
    pow10 = 10.0 ** np.arange(23)
    hi = _SPLIT * pow10 - (_SPLIT * pow10 - pow10)
    return pow10, hi, pow10 - hi


@cache
def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ASCII digits packed four to a uint32 word, NUL where none prints.

    z leading zeros and then the digit t, at 10 z + t (z <= 3); the four
    digits of k = 0..9999, in full and with the trailing zeros as NUL.
    """
    lead = np.array([b"0" * z + b"%d" % t for z in range(4) for t in range(10)], "S4")
    k = np.arange(10000)[:, None]
    place = np.array([1000, 100, 10, 1])
    quads = (k // place % 10 + 48).astype(np.uint8)
    kept = quads * (k % (10 * place) != 0)
    return lead.view(np.uint32), quads.view(np.uint32).ravel(), kept.view(np.uint32).ravel()


def _times_pow10(x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10^q exactly, as hi + lo with hi = fl(x * 10^q) (Dekker's two-product)."""
    pow10, pow10_hi, pow10_lo = _pow10()
    t = _SPLIT * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    p_hi = pow10_hi.take(q)
    p_lo = pow10_lo.take(q)
    hi = x * pow10.take(q)
    lo = ((x_hi * p_hi - hi) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    return hi, lo


def g17_records(values: np.ndarray) -> np.ndarray:
    """b"%.17g\\n" % v for each value, as NUL-padded records (dtype S28).

    A value in [1e-4, 1) prints as "0." and 17 significant digits with the
    trailing zeros dropped.  The digits are D = x 10^(16 - e10) rounded
    half-even to an integer in [10^16, 10^17), formed without rounding:
    10^q is an exact double for q <= 22, and x 10^q is the unevaluated sum
    hi + lo of a two-product.  hi is an integer above 2^53, hence even, so
    rounding lo half-even rounds hi + lo half-even.  e10 starts from
    floor(log10(x)) and moves by one where hi + lo lies outside
    [10^16, 10^17).  D never rounds up to 10^17: below each power of ten
    from 1e-4 to 1, the nearest double lies at least 8 units of the 17th
    digit away.  An exact +0.0 prints as "0".  Every other value (-0.0,
    subnormals, anything below 1e-4 or from 1 up, NaN) is formatted by
    Python, once per distinct bit pattern.

    A record is seven uint32 words: "0.", the leading zeros and the first
    digit, four groups of four digits, the newline.  Every byte not printed
    is NUL.  Each step works on whole columns: numpy pays per row on an
    axis a few entries long.
    """
    lead, quads, quads_kept = _digit_words()
    fast = (values >= 1e-4) & (values < 1.0)
    zero = values.view(np.int64) == 0  # +0.0 alone: -0.0 has its sign bit set
    x = np.where(fast, values, 0.5)
    e10 = np.floor(np.log10(x)).astype(np.int64)
    hi, lo = _times_pow10(x, 16 - e10)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    if below.any() or above.any():
        e10 += above.astype(np.int64) - below
        hi, lo = _times_pow10(x, 16 - e10)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    head = d // 10**8
    tail = d - head * 10**8
    top = head // 10**8
    head -= top * 10**8
    first, third = head // 10**4, tail // 10**4
    groups = (first, head - first * 10**4, third, tail - third * 10**4)
    # A group prints its trailing zeros where a later group has a nonzero digit.
    later = [(groups[1] | tail) != 0, tail != 0, groups[3] != 0]
    words = np.empty((len(x), 7), np.uint32)
    words[:, 0] = np.frombuffer(b"0.\0\0", np.uint32)
    words[:, 1] = lead.take(-10 * (1 + e10) + top)
    for j in range(3):
        words[:, 2 + j] = np.where(later[j], quads.take(groups[j]), quads_kept.take(groups[j]))
    words[:, 5] = quads_kept.take(groups[3])
    words[:, 6] = np.frombuffer(b"\n\0\0\0", np.uint32)
    text = words.view("S28").ravel()
    text[zero] = b"0\n"
    odd = np.flatnonzero(~(fast | zero))
    if odd.size:
        bits, inverse = np.unique(values[odd].view(np.int64), return_inverse=True)
        odd_text = np.array([b"%.17g\n" % v for v in bits.view(np.float64).tolist()], "S28")
        text[odd] = odd_text[inverse]
    return text


def csv_blocks(table: SweepTable):
    """Yield the CSV of cli.emit(table, "csv"): the header, then blocks of rows.

    A block is an array of records in one reused buffer: a field per axis,
    each cell formatted once and NUL-padded, and one for S; deleting the NULs
    leaves its rows.  Where the last axis fits in BLOCK_ROWS, a block holds
    whole runs of it, whose field is tiled into the buffer once; a longer one
    goes a slice of one run, at most BLOCK_ROWS rows, at a time.
    """
    yield (",".join([axis.name for axis in table.axes] + ["S"]) + "\n").encode("utf-8")
    cells = [np.array([b"%.17g," % v for v in axis.values]) for axis in table.axes]
    *outer, last = cells
    values = table.values.reshape(-1, len(last))
    runs, width = len(values), min(len(last), BLOCK_ROWS)
    per_block = min(runs, BLOCK_ROWS // width)
    record = np.dtype([(f"a{i}", c.dtype) for i, c in enumerate(cells)] + [("S", "S28")])
    buf = bytearray(per_block * width * record.itemsize)
    block = np.frombuffer(buf, record)
    if width == len(last):
        block[f"a{len(outer)}"] = np.tile(last, per_block)
    for r0 in range(0, runs, per_block):
        run = np.arange(r0, min(r0 + per_block, runs))
        # a leading axis of length 1 gives a one-axis table its one run
        index = np.unravel_index(run, (1, *table.shape[:-1]))[1:]
        texts = [c.take(i) for c, i in zip(outer, index)]
        for lo in range(0, len(last), width):
            hi = min(lo + width, len(last))
            rows = block[:run.size * (hi - lo)]
            for i, t in enumerate(texts):
                rows[f"a{i}"] = np.repeat(t, hi - lo)
            if width < len(last):
                rows[f"a{len(outer)}"] = last[lo:hi]
            rows["S"] = g17_records(values[run[0]:run[-1] + 1, lo:hi].ravel())
            yield (buf if rows.size == block.size else buf[:rows.nbytes]).translate(None, b"\0")
