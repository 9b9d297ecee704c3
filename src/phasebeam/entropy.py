"""Linear entropy S = 1 - Tr(rho^2) of the beam splitter output.

Two routes are provided.  The oracle route squares an explicit reduced
density matrix.  The closed-form route evaluates the quadruple sum over
(n, n', l, l') whose terms carry the angle
    [F(n+l) + F(n'+l') - F(n'+l) - F(n+l')] * phi.
With j = n' - n, s = n + l and s' = n + l' the angle depends on (j, s, s')
alone, and the magnitudes summed over n form one Gram matrix G_j per j, from
real products of sqrt(binom(s, n)) t^n r^(s-n).  The sum is real, folded
onto j >= 0, s <= s', each term times its fold weight 1, 2 or 4 (checks.py
holds the complex sum, term by term, that checks it).  It goes into one
table keyed by the gap, one row per r2 cell, built in tiles of r2 cells.
On the quadratic levels F(n) = n(1 + kappa(n-1)) of every built-in family
the gap is 2 kappa k, the same for every entry of the diagonal tau = s' - s
of G_j, k = j tau: the diagonal sums are binned by k through a (j, tau) ->
bin table, kept (numerics.per_size) up to 2s = 361.  Up to 2s = _POLY_TWO_S
the weights are not built per call: each W_k is a polynomial of degree
2d - 2 in r2 with non-negative coefficients, the same for every built-in
family, kept one table per size (_weight_poly), and a call's rows are one
small product of the powers of its r2 values against it.  A size's table is
binned from its pair sums (_pair_sums), which continue those of the size
below it by one shell of terms.  On a CUSTOM table each term is an entry of
its own.  The table gives
S = 1 - sum_g W_g cos(g phi) / d^2 per (phi, r2) cell, each cell one entry
of a matrix product of 16 cosine rows cos(g phi) against 16 weight rows W.
Every product has that one shape, so a cell has the same bits wherever it
sits in a call, and in a call of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby
from math import inf

import numpy as np

from .algebra import Family, StructureSpec
from .errors import NumericalConsistencyError
from .numerics import _BLOCK_ENTRIES, log_factorials, per_size, read_only
from .phase_states import _finite_phases
from .splitter import SplitterParams, validate_density

ORACLE = "oracle"
CLOSED_FORM = "closed"

# Excursions beyond [0, 1] by at most this much are roundoff and get
# clamped; anything larger is a genuine inconsistency and is refused.
CLAMP_TOL = 1e-10

# Terms per block of the Gram sum, counted as (s, s') square entries.
# At 2s = 40 on a 2-core x86 host, 2^11 ran as fast as 2^12 and 2^13 and
# kept the peak traced memory of one call at 0.3 MB (0.9 MB at 2^13).
# Re-measured with per-term fold weights (one r2 value, medians of 7
# interleaved rounds): 2^12 took 0.90-0.97 of the time of 2^11 at 2s = 20,
# 40 and 80, the same at 2s = 10 and on a 101-value grid at 2s = 80, and
# peaked at 0.34 against 0.19 MB at 2s = 40.  The block bounds set the
# shapes of the Gram products, so 2^12 would move the last bits of S; 2^11
# stays.
_BLOCK_TERMS = 1 << 11

# Every column of a Gram table's binomial pmf must sum to 1 this closely;
# the largest deviations measured were 5.6e-14 at 2s = 80 (101 r2 values)
# and 7.4e-13 at 511 (2001 r2 values).
PMF_TOL = 1e-12

# The largest 2s whose built-in Gram weights are kept, one table per size, as
# polynomials in r2 (_weight_poly); a call there forms its rows as one small
# product.  Above it, and on every CUSTOM table, each call builds its rows from
# the Gram blocks.  A first call at a size also builds the pair sums of the
# sizes below it, down to the last size built, at a cost that grows as d^4
# from scratch.  With the bound raised to 80, a first one-value call took
# 9.5 / 17 / 23 / 38 / 98 ms at 2s = 40 / 48 / 56 / 64 / 80, a Gram build
# 1.3-3.9 ms, and each later kept call saved 0.4-2.5 ms: the table pays back
# after 19 calls at 2s = 40 and after 31-38 calls from 48 to 80 (medians of
# 7 fresh processes, x86).  Raising the bound would also move the last bits
# of S above 40.
_POLY_TWO_S = 40

# Every cell of a contraction is entry (i, j) of one a @ b^T product of a
# tile a of _TILE cosine rows cos(phi rates) and a tile b of _TILE weight
# rows, zero-padded.  OpenBLAS sums a cell in an order that depends on the
# product's shape: on random data, a cell's bits differed from those of a
# 16-row tile at side 1 (a dot product), at sides 2-3 and 64 from K = 65
# entries on, and at side 32 at K = 2 973.  So every product has this one
# shape, and a cell's bits depend on K alone, not on its place or the call.
_TILE = 16
# Entries per block of a tile: a table of more entries is contracted in
# blocks of this many, fixed by K alone, whose products add in order.  A
# tile of one block holds _BLOCK_ENTRIES (row, entry) products.
_TILE_ENTRIES = _BLOCK_ENTRIES // _TILE


@dataclass(frozen=True)
class EntropyValue:
    """A linear entropy together with the route that produced it.

    value is a float for one matrix, or an array with one entropy per
    matrix of a stack.  It is clamped to [0, 1] as _clamp_unit_interval
    does, and every entry must then lie in [0, 1 - 1/d].
    """

    value: float | np.ndarray
    method: str
    dim: int

    def __post_init__(self) -> None:
        value = _clamp_unit_interval(self.value)
        hi = value.max(initial=0.0)  # NaN if value holds a NaN
        if not hi <= 1.0 - 1.0 / self.dim + 1e-12:
            raise NumericalConsistencyError(
                f"S = {hi} outside [0, 1 - 1/d] for d = {self.dim}")
        object.__setattr__(self, "value", float(value) if value.ndim == 0 else value)


def _clamp_unit_interval(s):
    """s clipped to [0, 1]; s is a float or an array of entropies.

    The range checks are monotone, so the extremes stand for every entry.
    """
    s = np.asarray(s, dtype=float)
    lo, hi = s.min(initial=0.0), s.max(initial=0.0)
    if lo < -CLAMP_TOL or hi > 1.0 + CLAMP_TOL:
        raise NumericalConsistencyError(
            f"entropy {lo if lo < -CLAMP_TOL else hi} outside [0, 1]")
    return s.clip(0.0, 1.0) if lo < 0.0 or hi > 1.0 else s


def linear_entropy(rho: np.ndarray, *, validate: bool = True) -> EntropyValue:
    """S = 1 - sum |rho[a, b]|^2 for a Hermitian rho (oracle route).

    rho is one (d, d) matrix, giving a float value, or a stack (..., d, d),
    giving one entropy per matrix; validate checks every matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    if validate:
        validate_density(rho)
    purity = (rho.real**2 + rho.imag**2).sum(axis=(-2, -1))
    return EntropyValue(1.0 - purity, ORACLE, rho.shape[-1])


@per_size(lambda d: d * d)
def _binomial_table(d: int):
    """binom(s, n) at [n, s], zero for n > s, with its index tables, read-only.

    Also 0..d-1 and the gap s - n, which is negative for n > s.
    """
    # ln(k!) for k < d, then +inf: a negative index s - n lands there.
    lgf = np.concatenate([log_factorials(d - 1), np.full(d, inf)])
    k = np.arange(d)
    gap = k - k[:, None]
    return read_only(np.exp(lgf[:d] - lgf[k[:, None]] - lgf[gap]), k, gap)


def _binomial_pmf(spec: StructureSpec, r2: np.ndarray) -> np.ndarray:
    """pmf[..., n, s] = binom(s, n) t2^n r2^(s-n), t2 = 1 - r2, zero for n > s, after the
    axes of r2: column s is the binomial distribution of the n of s photons transmitted."""
    binom, k, gap = _binomial_table(spec.dim)
    t2_pow, r2_pow = np.power.outer((1.0 - r2, r2), k)
    return binom * t2_pow[..., None] * r2_pow[..., gap]


@per_size(lambda d: d * d)
def _k_bins(d: int):
    """ks, the distinct k = j tau of the Gram diagonals j + tau < d, ascending;
    bins[j, tau], the place of j tau in ks there and ks.size, a dump bin,
    elsewhere; and folds[r, tau], 2 - [tau == 0] where r + tau < d and 0
    elsewhere, whose rows from j on mask a block of side d - j.  Read-only.
    """
    j = np.arange(d)
    k, inside = np.multiply.outer(j, j), np.add.outer(j, j) < d
    seen = np.zeros(d * d, dtype=bool)
    seen[k[inside]] = True
    ks = seen.nonzero()[0]
    return read_only(ks, np.where(inside, seen.cumsum()[k] - 1, ks.size),
                     inside * (2.0 - (j == 0)))


@lru_cache(maxsize=1)
def _pair_sums(d: int):
    """(binom, j, tau, sums) of size d, read-only: binom(n, m) at [n, m],
    n < d, m < 2d, exact and zero for m > n; j and tau of the pairs j <= tau,
    j + tau < d, by v = j + tau, then by j, so that each size's pairs are the
    first ones of the next size's; and the pair sums Y, one row of 2d - 1 per
    pair.

    The term (j, tau, s, n) of the folded sum, x = s - n, a = n + j, is
    E t2^(2n+j) r2^(2x+tau), E^2 = binom(e, a) binom(e-j, e-a) binom(e-tau, a)
    binom(e-v, x), on the shell e = s + v, v = j + tau.  A pair's sums at
    size d are Y[i] = sum E binom(2(d-1-e), i - 2x) over its shells e < d:
    size d - 1's sums times (1 + z)^2, plus the terms of shell d - 1.  Only
    the last size built is kept, for the next larger one to continue from.
    """
    if d == 1:  # the one pair (0, 0), and its one term, on shell 0
        pair = np.zeros(1, dtype=np.intp)
        return read_only(np.eye(1, 2), pair, pair, np.ones((1, 1)))
    e = d - 1
    old_binom, old_j, old_tau, old = _pair_sums(e)
    binom = np.zeros((d, 2 * d))
    binom[:e, :2 * e] = old_binom
    binom[e, 0] = 1.0
    binom[e, 1:2 * e] = old_binom[e - 1, 1:] + old_binom[e - 1, :-1]
    new = np.arange(e // 2 + 1)  # j of the new pairs, those of v = e
    j, tau = np.concatenate((old_j, new)), np.concatenate((old_tau, e - new))
    # times (1 + z)^2: Y[i] + 2 Y[i-1] + Y[i-2], added in that order
    n, w = old.shape
    sums = np.zeros((j.size, 2 * d - 1))
    np.multiply(old, 2.0, out=sums[:n, 1:w + 1])
    sums[:n, :w] += old
    sums[:n, 2:] += old
    # E of shell e at [pair, x], zero where x > e - v: binom(e, a) =
    # binom(e, tau + x) and binom(e-tau, a) = binom(e-tau, x), the same four
    # exact binomials multiplied in the same order
    outer = binom[e] * binom[e - new]  # binom(e, m) binom(e-j, m) at [j, m]
    at_tau = np.ndarray((len(outer), d, d), float, outer, 0, (*outer.strides, 8))  # [j, tau, x]: m = tau + x
    terms = at_tau[j, tau]
    terms *= binom[e - tau, :d]
    terms *= binom[e - j - tau, :d]
    sums[:, ::2] += np.sqrt(terms, out=terms)
    return read_only(binom, j, tau, sums)


@per_size(lambda d: _k_bins(d)[0].size * (2 * d - 1))
def _weight_poly(d: int):
    """(ks, poly) of size d <= _POLY_TWO_S + 1, read-only: W_k(r2) of the k in
    ks, those of _k_bins(d), is sum_i poly[k, i] t2^(2d-2-i) r2^i, t2 = 1 - r2.

    The weight of pair (j, tau) is t2^j r2^tau (t2 + r2)^v sum_i Y[i]
    t2^(2(d-1-v)-i) r2^i, Y its _pair_sums.  Swapping t2 and r2 maps the
    terms of (j, tau) to those of (tau, j), so poly is the sum over the pairs
    j <= tau of each k plus its mirror image, those with j == tau at half
    weight.  Each coefficient is a sum of non-negative terms; at r2 = 0 and at
    r2 = 1 the weights are exactly (d^2, 0, ...), so S = 0 there.
    """
    ks, bins, _ = _k_bins(d)
    binom, j, tau, sums = _pair_sums(d)
    w = 2 * d - 1
    pascal = np.zeros((d, 4 * d))  # binom(n, m) at [n, 2d + m], zero-padded
    pascal[:, 2 * d:] = binom
    raised = np.zeros(sums.shape)
    first = 0
    for v in range(d):  # each pair's sums times (1 + z)^v, z = r2 / t2
        n, rows, cols = v // 2 + 1, 2 * (d - 1 - v) + 1, w - v
        # binom(v, c - r) at [r, c], a view of Pascal row v
        band = np.ndarray((rows, cols), float, pascal, 8 * (4 * d * v + 2 * d), (-8, 8))
        np.matmul(sums[first:first + n, :rows], band, out=raised[first:first + n, :cols])
        first += n
    # the fold weight (2 - [j == 0]) (2 - [tau == 0]), halved where j == tau:
    # a power of 2, so weighting the raised sums is weighting every term
    raised *= ((2.0 - (j == 0)) * (2.0 - (tau == 0)) / (1.0 + (j == tau)))[:, None]
    # times t2^j r2^tau: column i of pair (j, tau) adds to [k, tau + i], k = j tau,
    # in pair order; the columns past w - 1 take only zeros
    keys = (bins[j, tau] * (w + d) + tau)[:, None] + np.arange(w)
    half = np.bincount(keys.ravel(), raised.ravel(), ks.size * (w + d)).reshape(-1, w + d)[:, :w]
    poly = half + half[:, ::-1]
    pure = np.zeros(ks.size)
    pure[0] = d * d
    if not (poly.min() >= 0.0 and poly.max() < inf
            and np.array_equal(poly[:, 0], pure) and np.array_equal(poly[:, -1], pure)):
        raise NumericalConsistencyError(
            f"the kept Gram weights of d = {d} are not finite, non-negative and "
            f"(d^2, 0, ...) at r2 = 0 and 1")
    return read_only(ks, poly)


def _poly_rows(poly: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """The weight row of each r2 cell: products of tiles of _TILE rows
    t2^(2d-2-i) r2^i, zero-padded, against poly, so that no row's bits depend
    on the call.

    t2 = 1 - r2 rounds to t, and a power t^m would raise that rounding m
    times; t2^m is taken as t^m (1 + m (t2 - t) / t) instead, with t2 - t =
    (1 - t) - r2 exact.
    """
    powers = np.arange(poly.shape[1])
    t = 1.0 - r2
    slip = np.divide((1.0 - t) - r2, t, out=np.zeros(r2.size), where=t > 0.0)
    basis = np.zeros((-(-r2.size // _TILE) * _TILE, powers.size))
    cells = basis[:r2.size]
    np.multiply(np.power.outer(t, powers[::-1]), np.power.outer(r2, powers), out=cells)
    cells += cells * np.multiply.outer(slip, powers[::-1])
    return np.matmul(basis.reshape(-1, _TILE, powers.size), poly.T).reshape(-1, len(poly))[:r2.size]


@per_size(lambda d: d)
def _slab_blocks(d: int):
    """(j, slabs) per block of whole j slabs of side d - j, in j order: a block
    starts at each slab whose first square entry passes a multiple of _BLOCK_TERMS."""
    starts = list(accumulate((m * m for m in range(d, 0, -1)), initial=0))
    runs = [list(run) for _, run in groupby(range(d), lambda j: starts[j] // _BLOCK_TERMS)]
    return tuple((run[0], len(run)) for run in runs)


def _gram_slabs(spec: StructureSpec, pmf: np.ndarray):
    """Yield (j, gram, diagonals) per block of whole slabs, j its first slab.

    With b[n, s] = sqrt(pmf[n, s]) and Q_j[n, s] = b[n, s] b[n+j, s+j], the
    term magnitudes summed over n are G_j = Q_j^T Q_j, exactly 0 where s or
    s' >= d - j.  gram is the block's C-contiguous (..., slabs, m, m) stack,
    m = d - j, the cells of pmf leading; diagonals[..., i, s, tau] =
    gram[..., i, s, s + tau] is a view of it, which past s + tau = m - 1
    reads on into the next row or into m spare zeros after the stack.
    """
    d = spec.dim
    # b[..., n, s], zero for n > s and in the padding.
    b = np.zeros(pmf.shape[:-2] + (2 * d, 2 * d))
    np.sqrt(pmf, out=b[..., :d, :d])
    rs, cs = b.strides[-2:]  # win[..., i, u, v] = b[..., i + u, i + v], a view
    win = np.ndarray(b.shape[:-2] + (d, d, d), float, b, 0, b.strides[:-2] + (rs + cs, rs, cs))
    for j, slabs in _slab_blocks(d):
        m = d - j
        q = b[..., None, :m, :m] * win[..., j:j + slabs, :m, :m]
        buffer = np.zeros(q.size + m)
        gram = np.ndarray(q.shape, float, buffer)
        # A copy in the same layout: two buffers keep numpy off syrk (8 ms
        # at d = 81), and a C-order copy would move the bits.
        np.matmul(q.swapaxes(-1, -2).copy(order="K"), q, out=gram)
        rs, cs = gram.strides[-2:]
        yield j, gram, np.ndarray(q.shape, float, buffer, 0, gram.strides[:-2] + (rs + cs, cs))


def linear_entropy_closed(spec: StructureSpec, phi,
                          params: SplitterParams) -> EntropyValue:
    """Closed-form linear entropy of the split phase state, from its Gram table.

    The result carries no dependence on the label m.  phi and r2 broadcast
    together, and it has one entropy per cell, shape
    np.broadcast_shapes(phi, r2), each cell equal to its scalar call to the
    bit.  The sum runs over the folded half-domain with cosine terms.
    """
    return _gram_table(spec, params).entropy(_finite_phases(phi))


def _tiles(buffer: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rows (n, e) copied into buffer, as ceil(n / _TILE) tiles (t, _TILE, e), a view of it.

    The rows of buffer past n pad the last tile: zeros, or in a side's
    shorter last block rows of the block before, which reach only cells past
    the end of the side.
    """
    n, e = rows.shape
    buffer[:n, :e] = rows
    return buffer[:-(-n // _TILE) * _TILE, :e].reshape(-1, _TILE, e)


@dataclass(frozen=True, eq=False)
class _GramTable:
    """S = 1 - sum_g weights[..., g] cos(rates[g] phi) / dim^2 for the cells of r2.

    rates holds the angle per unit phi of each entry of the folded sum,
    weights one row per r2 cell.  entropy contracts them as products of
    tiles of _TILE cosine rows against tiles of _TILE weight rows, one tile
    shape for every call, so that no cell's bits depend on the call.
    """

    rates: np.ndarray
    weights: np.ndarray
    dim: int

    def entropy(self, phi) -> EntropyValue:
        """One entropy per cell of np.broadcast_shapes(phi, r2), each its scalar call's bits.

        Where phi and r2 never both vary along one axis (a grid, a scalar
        call included: one tile) every phase meets every r2 cell in _grid;
        any other broadcast pairs each cell's own phase and r2 in _pairs.
        """
        rows = self.weights.reshape(-1, self.rates.size)
        phi_shape, cells = np.shape(phi), self.weights.shape[:-1]
        n = max(len(phi_shape), len(cells))
        phi_shape = (1,) * (n - len(phi_shape)) + phi_shape
        r2_shape = (1,) * (n - len(cells)) + cells
        if all(1 in sides for sides in zip(phi_shape, r2_shape)):
            purity = self._grid(np.ravel(phi), rows)
            if 1 not in purity.shape:
                # Axis a of the cells is axis a of phi or of r2, whichever has length > 1.
                order = [i for a in range(n) for i in (a, n + a)]
                purity = purity.reshape(phi_shape + r2_shape).transpose(order)
            purity = purity.reshape([p * r for p, r in zip(phi_shape, r2_shape)])
        else:
            shape = np.broadcast_shapes(np.shape(phi), cells)
            pairs = np.broadcast_to(np.arange(len(rows)).reshape(cells), shape).ravel()
            purity = self._pairs(np.broadcast_to(phi, shape).ravel(), rows, pairs).reshape(shape)
        return EntropyValue(1.0 - purity / (self.dim * self.dim), CLOSED_FORM, self.dim)

    def _blocks(self):
        """(entries, width, step): the entries go in blocks of width, the tiles
        of a side in blocks of step rows, at most _BLOCK_ENTRIES (row, entry)
        products (at least one tile)."""
        entries = self.rates.size
        width = min(entries, _TILE_ENTRIES)
        return entries, width, _TILE * max(1, _BLOCK_ENTRIES // (_TILE * width))

    def _grid(self, phis, rows):
        """purity[p, r] = sum_g rows[r, g] cos(rates[g] phis[p]) for every phase and row.

        Cell (p, r) is entry (p % _TILE, r % _TILE) of the product of phase
        tile p // _TILE and row tile r // _TILE; each block of entries adds its
        products in order.
        """
        entries, width, step = self._blocks()
        side, cols = -(-len(phis) // _TILE) * _TILE, -(-len(rows) // _TILE) * _TILE
        # One buffer per side for a block of its rows, and one for the cells of
        # a block of phase tiles; a call of more blocks copies each one's live
        # cells to out, so that no phase holds the padding of the r2 side.
        a_rows, b_rows = np.zeros((2, min(step, max(side, cols)), width))
        cells = np.empty((min(step, side), cols))
        # tiles[t, u] is cells[16 t:16 t + 16, 16 u:16 u + 16], a view.
        tiles = cells.reshape(len(cells) // _TILE, _TILE, cols // _TILE, _TILE).swapaxes(1, 2)
        out = cells if side <= step else np.empty((len(phis), len(rows)))
        for p in range(0, len(phis), step):
            for g in range(0, entries, width):
                a = _tiles(a_rows, np.cos(np.multiply.outer(phis[p:p + step], self.rates[g:g + width])))
                for r in range(0, len(rows), step):
                    b = _tiles(b_rows, rows[r:r + step, g:g + width])[None].swapaxes(-1, -2)
                    block = tiles[:len(a), r // _TILE:(r + step) // _TILE]
                    if g:
                        block += np.matmul(a[:, None], b)
                    else:  # the products of the first block go straight into the tiles
                        np.matmul(a[:, None], b, out=block)
            if out is not cells:
                out[p:p + step] = cells[:len(phis) - p, :len(rows)]
        return out[:len(phis), :len(rows)]

    def _pairs(self, phis, rows, pairs):
        """purity[c] = sum_g rows[pairs[c], g] cos(rates[g] phis[c]) for each cell c.

        Cell c is entry (c % _TILE, c % _TILE) of the product of tile
        c // _TILE of its phases and tile c // _TILE of its rows.
        """
        entries, width, step = self._blocks()
        out = np.zeros((-(-len(phis) // _TILE), _TILE))
        a_rows, b_rows = np.zeros((2, min(step, out.size), width))
        for p in range(0, len(phis), step):
            for g in range(0, entries, width):
                a = _tiles(a_rows, np.cos(np.multiply.outer(phis[p:p + step], self.rates[g:g + width])))
                b = _tiles(b_rows, rows[pairs[p:p + step], g:g + width]).swapaxes(-1, -2)
                out[p // _TILE:(p + step) // _TILE] += np.matmul(a, b).diagonal(axis1=-2, axis2=-1)
        return out.reshape(-1)[:len(phis)]


def _gram_table(spec: StructureSpec, params: SplitterParams) -> _GramTable:
    """The Gram entries keyed by their gap, one row per r2 cell.

    The gap of the term (j, s, s') is (F(s) - F(s+j)) - (F(s') - F(s'+j)),
    exactly 0 where j == 0 or s == s'.  On every built-in family's levels it
    is 2 kappa k, k = j tau, tau = s' - s: each diagonal tau of G_j is summed
    over s, and one np.bincount per tile of r2 cells adds the sums per (r2
    cell, k) in (j, tau) order; up to 2s = _POLY_TWO_S the rows of those k
    come from the kept polynomials instead.  On a CUSTOM table each term is
    an entry of its own.  The tiles hold at most _BLOCK_ENTRIES // d^2 r2 cells.
    """
    r2 = np.ravel(params.r2)
    if spec.family is not Family.CUSTOM and spec.two_s <= _POLY_TWO_S:
        ks, poly = _weight_poly(spec.dim)
        rates, weights = _rates(spec, ks), _poly_rows(poly, r2)
    else:
        step = max(1, _BLOCK_ENTRIES // spec.dim**2)
        tiles = [_gram_rows(spec, r2[c:c + step]) for c in range(0, max(r2.size, 1), step)]
        rates, weights = tiles[0]
        if len(tiles) > 1:
            weights = np.concatenate([rows for _, rows in tiles])
    return _GramTable(rates, weights.reshape(np.shape(params.r2) + rates.shape), spec.dim)


def _rates(spec: StructureSpec, ks: np.ndarray) -> np.ndarray:
    """The angle per unit phi of each k: kappa (2 k), not (2 kappa) k, since
    doubling an int is exact, and 2 kappa overflows from kappa = 2^1023 on,
    where inf * 0 at k = 0 is NaN."""
    return (spec.kappa or 0.0) * (2 * ks)


def _gram_rows(spec: StructureSpec, r2: np.ndarray):
    """(rates, weights) of _gram_table for a vector of r2 cells, each entry
    times its fold weight (2 - [j == 0]) (2 - [s == s'])."""
    pmf = _binomial_pmf(spec, r2)
    dev = np.abs(pmf.sum(axis=-2) - 1.0).max(initial=0.0)
    if not dev <= PMF_TOL:
        raise NumericalConsistencyError(f"a column of the binomial pmf is off 1 by {dev}")
    d = spec.dim
    if spec.family is Family.CUSTOM:
        k, levels = np.arange(d), spec.levels
        mags, gaps = [], []
        for j, gram, _ in _gram_slabs(spec, pmf):
            slabs, m = gram.shape[-3:-1]
            j, s = k[j:j + slabs], k[:m]
            # The terms s <= s' < d - j of each slab, in (j, s, s') order.
            keep = np.less_equal.outer(s, s) & np.less.outer(j, d - s)[:, None, :]
            weights = np.multiply.outer(1.0 + (j > 0), 1.0 + np.less.outer(s, s))
            flat = gram.reshape(gram.shape[:-3] + (keep.size,))  # a view
            mags.append(np.compress(keep.ravel(), flat, axis=-1) * weights[keep])
            # F(s) - F(s + j); level indices past the table lie outside the domain.
            e = levels[s] - levels.take(np.minimum(j[:, None] + s, d))
            gaps.append((e[:, :, None] - e[:, None, :])[keep])
        return np.concatenate(gaps), np.concatenate(mags, axis=-1)
    ks, bins, folds = _k_bins(d)
    # sums[c, j, tau] = sum_s G_j[s, s + tau] of the c-th r2 cell, times its
    # fold weight (2 - [j == 0]) (2 - [tau == 0]); 0 past the blocks.
    sums = np.zeros(pmf.shape[:-2] + (d, d))
    for j, gram, diagonals in _gram_slabs(spec, pmf):
        slabs, m = gram.shape[-3:-1]
        np.einsum("...st,st->...t", diagonals, folds[j:, :m], out=sums[:, j:j + slabs, :m])
    sums[:, 1:] *= 2.0
    width = ks.size + 1
    # Bin b of the c-th r2 cell is c * width + b; the last one of each cell is the dump bin.
    keys = bins if len(sums) == 1 else np.add.outer(np.arange(0, len(sums) * width, width), bins)
    table = np.bincount(keys.ravel(), sums.ravel(), len(sums) * width)
    return _rates(spec, ks), table.reshape(-1, width)[:, :-1]
