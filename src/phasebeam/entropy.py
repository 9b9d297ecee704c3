"""Linear entropy S = 1 - Tr(rho^2) of the beam splitter output.

Two routes are provided.  The oracle route squares an explicit reduced
density matrix.  The closed-form route evaluates the quadruple sum over
(n, n', l, l') whose terms carry the angle
    [F(n+l) + F(n'+l') - F(n'+l) - F(n+l')] * phi.
With j = n' - n, s = n + l and s' = n + l' the angle depends on (j, s, s')
alone, and the magnitudes summed over n form one Gram matrix per j, from
real products of sqrt(binom(s, n)) t^n r^(s-n).  The sum is real and is
evaluated once, folded onto j >= 0, s <= s', in blocks of whole j slabs,
each term times its fold weight 1, 2 or 4 (checks.py holds the complex sum,
term by term, that checks it).  That slab plan depends on d alone; it is
kept (numerics.per_size) while it holds at most RETAIN_ENTRIES terms, up to
2s = 90.  A larger plan is built once per call that has more than one r2
build tile, for that call alone, and streams from the same builder in a
call of one tile.  The Gram entries go into one table keyed by
the gap, one row per r2 cell, built in tiles of r2 cells.  On the quadratic
tables F(n) = n(1 + kappa(n-1)) of every built-in family the gap is
2 kappa k with the integer k = j (s' - s), and the entries are binned by
k; on a CUSTOM table each term is an entry of its own.  The table gives
S = 1 - sum_g W_g cos(g phi) / d^2 per (phi, r2) cell, each cell one entry
of a matrix product of 16 cosine rows cos(g phi) against 16 weight rows W.
Every product has that one shape, so a cell has the same bits wherever it
sits in a call, and in a call of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, groupby
from math import inf, prod

import numpy as np

from .algebra import Family, StructureSpec
from .errors import NumericalConsistencyError
from .numerics import _BLOCK_ENTRIES, log_factorials, per_size, read_only
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
# peaked at 0.34 against 0.19 MB at 2s = 40.  The block bounds set the order
# in which the block sums add, so 2^12 would move the last bits of S; 2^11
# stays.
_BLOCK_TERMS = 1 << 11

# Every column of a Gram table's binomial pmf must sum to 1 this closely;
# the largest deviations measured were 5.6e-14 at 2s = 80 (101 r2 values)
# and 7.4e-13 at 511 (2001 r2 values).
PMF_TOL = 1e-12

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


def _binomial_pmf(spec: StructureSpec, params: SplitterParams) -> np.ndarray:
    """pmf[..., n, s] = binom(s, n) t2^n r2^(s-n), zero for n > s, after any r2 axes.

    Column s is the binomial distribution of the n of s photons transmitted.
    """
    binom, k, gap = _binomial_table(spec.dim)
    t2_pow, r2_pow = np.power.outer((params.t2, params.r2), k)
    return binom * t2_pow[..., None] * r2_pow[..., gap]


def _plan_terms(d: int) -> int:
    """Terms of the slab plan, C(d + 2, 3)."""
    return d * (d + 1) * (d + 2) // 6


@dataclass(frozen=True, eq=False)
class _SlabBlock:
    """One block of whole j slabs of the folded Gram sum; it depends on d alone.

    rows holds the slab index j of each slab, consecutive, and side the
    widest slab's side m.  terms holds the flat indices of the block's terms
    in its (slabs, m, m) Gram stack, weights the fold weight of each term
    (1, 2 or 4, as uint8) and bins the position of each term's
    k = j (s' - s) in _k_values.  Every array is read-only.
    """

    rows: np.ndarray
    side: int
    terms: np.ndarray
    weights: np.ndarray
    bins: np.ndarray


@per_size(lambda d: d * d)
def _k_values(d: int):
    """The distinct k = j (s' - s) of the slab plan's terms, ascending, read-only.

    The terms have j, s' - s >= 0 and j + s' - s <= d - 1, and every such
    product occurs.
    """
    j = np.arange(d)
    seen = np.zeros(d * d, dtype=bool)
    seen[np.multiply.outer(j, j)[np.add.outer(j, j) < d]] = True
    return read_only(seen.nonzero()[0])


@per_size(_plan_terms)
def _slab_plan(d: int):
    """Yield the _SlabBlock of each block of whole j slabs, in j order.

    Slab j >= 0 holds s <= s' < side_j = d - j, with the per-term fold weight
    (2 - [j == 0]) (2 - [s == s']).  A block holds whole slabs, about
    _BLOCK_TERMS square entries per cell.  Kept plans are tuples; a plan over
    the budget is this generator, which _gram_table builds once per call when
    the call has more than one r2 tile.
    """
    (ks,) = _k_values(d)
    j = k = np.arange(d)
    side = d - j
    inside = np.greater.outer(side, k)
    upper = np.less_equal.outer(k, k)
    # Fold weights, powers of two: 2 - [s == s'] for s <= s', and 2 - [j == 0].
    pair_w = np.less.outer(k, k) + np.uint8(1)
    slab_w = (j > 0) + np.uint8(1)
    sides = side.tolist()
    # A block starts at each slab whose first entry passes a multiple of _BLOCK_TERMS.
    starts = list(accumulate((m * m for m in sides), initial=0))
    for _, run in groupby(range(j.size), lambda i: starts[i] // _BLOCK_TERMS):
        run = list(run)
        block = slice(run[0], run[-1] + 1)
        m = max(sides[block])
        keep = upper[:m, :m] & inside[block, :m][:, None, :]
        terms = keep.ravel().nonzero()[0]
        # Entry (u, u') of slab j has k = j (u' - u).
        k_terms = (j[block, None, None] * (k[:m] - k[:m, None])).reshape(-1).take(terms)
        bins = np.searchsorted(ks, k_terms).astype(np.int32)
        weights = (slab_w[block, None, None] * pair_w[:m, :m]).reshape(-1).take(terms)
        rows = j[block]
        read_only(rows, terms, weights, bins)
        yield _SlabBlock(rows, m, terms, weights, bins)


def _gram_slabs(spec: StructureSpec, pmf: np.ndarray, plan):
    """Yield, per block of plan, the block and its weighted Gram entries.

    With b[n, s] = sqrt(pmf[n, s]) and Q_j[n, s] = b[n, s] b[n+j, s+j], the
    term magnitudes summed over n are G_j = Q_j^T Q_j.  Each item is
    (block, w G_j[s, s']): the entries with the cells of pmf leading and one
    axis of the block's terms.  w is 1, 2 or 4, so w G_j is exact.
    """
    d = spec.dim
    # b[..., n, s], zero for n > s and in the padding.
    b = np.zeros(pmf.shape[:-2] + (2 * d, 2 * d))
    np.sqrt(pmf, out=b[..., :d, :d])
    rs, cs = b.strides[-2:]  # win[..., i, u, v] = b[..., i + u, i + v], a view
    win = np.ndarray(b.shape[:-2] + (d, d, d), buffer=b,
                     strides=b.strides[:-2] + (rs + cs, rs, cs))
    for block in plan:
        m = block.side
        j0, slabs = block.rows[0], block.rows.size
        q = b[..., None, :m, :m] * win[..., j0:j0 + slabs, :m, :m]
        # A copy in the same layout: two buffers keep numpy off syrk (8 ms
        # at d = 81), and a C-order copy would move the bits.
        gram = np.matmul(q.swapaxes(-1, -2).copy(order="K"), q)
        mag = gram.reshape(*gram.shape[:-3], slabs * m * m).take(block.terms, axis=-1)
        mag *= block.weights
        yield block, mag


def linear_entropy_closed(spec: StructureSpec, phi,
                          params: SplitterParams) -> EntropyValue:
    """Closed-form linear entropy of the split phase state, from its Gram table.

    The result carries no dependence on the label m.  phi and r2 broadcast
    together, and it has one entropy per cell, shape
    np.broadcast_shapes(phi, r2), each cell equal to its scalar call to the
    bit.  The sum runs over the folded half-domain with cosine terms.
    """
    return _gram_table(spec, params).entropy(phi)


def _tiles(rows: np.ndarray) -> np.ndarray:
    """rows (n, e) as ceil(n / _TILE) tiles (t, _TILE, e), zero-padded; a view when n fills them."""
    if len(rows) % _TILE:
        rows = np.concatenate((rows, np.zeros((-len(rows) % _TILE, rows.shape[1]))))
    return rows.reshape(-1, _TILE, rows.shape[1])


def _tile_products(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b^T for the _TILE x e tiles of a and b, whose leading axes broadcast."""
    return np.matmul(a, b.swapaxes(-1, -2), out=out)


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
        cells = self.weights.shape[:-1]
        shape = np.broadcast_shapes(np.shape(phi), cells)
        n = len(shape)
        phi_shape = (1,) * (n - np.ndim(phi)) + np.shape(phi)
        r2_shape = (1,) * (n - len(cells)) + cells
        if all(1 in sides for sides in zip(phi_shape, r2_shape)):
            # Axis a of the cells is axis a of phi or of r2, whichever has length > 1.
            order = [i for a in range(n) for i in (a, n + a)]
            purity = self._grid(np.ravel(phi), rows).reshape(phi_shape + r2_shape)
            purity = purity.transpose(order).reshape(shape)
        else:
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
        out = np.empty((-(-len(phis) // _TILE) * _TILE, -(-len(rows) // _TILE) * _TILE))
        # tiles[t, u] is out[16 t:16 t + 16, 16 u:16 u + 16], a view.
        tiles = out.reshape(len(out) // _TILE, _TILE, out.shape[1] // _TILE, _TILE).swapaxes(1, 2)
        for p in range(0, len(phis), step):
            for g in range(0, entries, width):
                a = _tiles(np.cos(np.multiply.outer(phis[p:p + step], self.rates[g:g + width])))
                for r in range(0, len(rows), step):
                    b = _tiles(rows[r:r + step, g:g + width])[None]
                    block = tiles[p // _TILE:(p + step) // _TILE, r // _TILE:(r + step) // _TILE]
                    if g:
                        block += _tile_products(a[:, None], b)
                    else:  # the products of the first block go straight into out
                        _tile_products(a[:, None], b, block)
        return out[:len(phis), :len(rows)]

    def _pairs(self, phis, rows, pairs):
        """purity[c] = sum_g rows[pairs[c], g] cos(rates[g] phis[c]) for each cell c.

        Cell c is entry (c % _TILE, c % _TILE) of the product of tile
        c // _TILE of its phases and tile c // _TILE of its rows.
        """
        entries, width, step = self._blocks()
        out = np.zeros((-(-len(phis) // _TILE), _TILE))
        for p in range(0, len(phis), step):
            for g in range(0, entries, width):
                a = _tiles(np.cos(np.multiply.outer(phis[p:p + step], self.rates[g:g + width])))
                b = _tiles(rows[pairs[p:p + step], g:g + width])
                out[p // _TILE:(p + step) // _TILE] += (
                    _tile_products(a, b).diagonal(axis1=-2, axis2=-1))
        return out.reshape(-1)[:len(phis)]


def _gram_table(spec: StructureSpec, params: SplitterParams) -> _GramTable:
    """The Gram entries w G_j[s, s'] keyed by their gap, one row per r2 cell.

    The gap of the term (j, s, s') is (F(s) - F(s+j)) - (F(s') - F(s'+j)),
    exactly 0 where j == 0 or s == s'.  Every built-in family's levels are
    F(n) = n(1 + kappa(n-1)), where it is 2 kappa k with the integer
    k = j (s' - s), so the entries are binned by k: np.bincount sums each
    block's entries per (r2 cell, k) in term order, and the block sums are
    added in block order.  On a CUSTOM table each term is an entry of its
    own.  The r2 cells go in tiles of at most _BLOCK_ENTRIES // d^2; no row
    depends on another.  A call of more than one tile builds a streamed slab
    plan once, for its tiles alone.
    """
    plan = _slab_plan(spec.dim)
    step = max(1, _BLOCK_ENTRIES // spec.dim**2)
    if np.size(params.r2) <= step:
        return _gram_rows(spec, params, plan)
    plan = tuple(plan)
    r2 = params.r2.ravel()
    tiles = (_gram_rows(spec, SplitterParams(r2[c:c + step]), plan)
             for c in range(0, r2.size, step))
    first = next(tiles)
    weights = np.concatenate([first.weights, *(tile.weights for tile in tiles)])
    return replace(first, weights=weights.reshape(params.r2.shape + (-1,)))


def _gram_rows(spec: StructureSpec, params: SplitterParams, plan) -> _GramTable:
    """_gram_table of one tile of r2 cells, from the blocks of plan."""
    pmf = _binomial_pmf(spec, params)
    dev = np.abs(pmf.sum(axis=-2) - 1.0).max(initial=0.0)
    if not dev <= PMF_TOL:
        raise NumericalConsistencyError(f"a column of the binomial pmf is off 1 by {dev}")
    if spec.family is Family.CUSTOM:
        mags, gaps = [], []
        levels = spec.levels
        for block, mag in _gram_slabs(spec, pmf, plan):
            # F(s) - F(s + j); level indices past the table lie outside the domain.
            s = np.arange(block.side)
            e = levels[s] - levels.take(np.minimum(block.rows[:, None] + s, spec.dim))
            gaps.append((e[:, :, None] - e[:, None, :]).take(block.terms))
            mags.append(mag)
        return _GramTable(np.concatenate(gaps), np.concatenate(mags, axis=-1), spec.dim)
    (ks,) = _k_values(spec.dim)
    cells = pmf.shape[:-2]
    count = prod(cells)
    table = np.zeros(count * ks.size)
    # Bin b of the c-th r2 cell (row-major) is c * ks.size + b.
    first = np.arange(0, table.size, ks.size)[:, None]
    for block, mag in _gram_slabs(spec, pmf, plan):
        bins = block.bins if count == 1 else (first + block.bins).ravel()
        table += np.bincount(bins, mag.ravel(), table.size)
    return _GramTable(2.0 * (spec.kappa or 0.0) * ks, table.reshape(cells + (ks.size,)),
                      spec.dim)

