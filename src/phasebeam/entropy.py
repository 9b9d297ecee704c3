"""Linear entropy S = 1 - Tr(rho^2) of the beam splitter output.

Three routes are provided.  The oracle route squares an explicit reduced
density matrix.  The closed-form route evaluates the quadruple sum over
(n, n', l, l') whose terms carry the angle
    [F(n+l) + F(n'+l') - F(n'+l) - F(n+l')] * phi.
With j = n' - n, s = n + l and s' = n + l' the angle depends on (j, s, s')
alone, and the magnitudes summed over n form one Gram matrix per j, from
real products of sqrt(binom(s, n)) t^n r^(s-n).  The sum is real and is
folded onto j >= 0, s <= s' with one cosine per (j, s, s'), in blocks of
whole j slabs; numpy sums each block and math.fsum combines the block sums.
Which terms each block holds, with their weights and the level indices of
their gaps, depends on d alone: that slab plan is built once per size and
kept (numerics.per_size) while it holds at most RETAIN_ENTRIES terms, which
keeps 2s <= 80 folded; larger plans stream block by block from the same
builder on every call.  A call then forms sqrt(pmf), gathers Q_j, runs the
matrix products and takes the plan's terms, with the same operations in
the same order as when the plan was built per call, so every value is
unchanged to the bit.
The spectral route serves the quadratic tables F(n) = n(1 + kappa(n-1)) of
every built-in family, where that angle is 2 kappa k phi with the integer
k = j (s' - s): it bins the same Gram entries by k into a table W_k(r2),
once per r2, and S = 1 - sum_k W_k cos(2 kappa k phi) / d^2 per phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from math import fsum, inf

import numpy as np

from .algebra import StructureSpec
from .errors import (
    IndexOutOfRangeError,
    NonQuadraticLevelsError,
    NumericalConsistencyError,
)
from .numerics import log_factorials, per_size, read_only
from .splitter import (
    SplitterParams,
    reduced_density,
    split_phase_state,
    validate_density,
)

ORACLE = "oracle"
CLOSED_FORM = "closed"
SPECTRAL = "spectral"

# Excursions beyond [0, 1] by at most this much are roundoff and get
# clamped; anything larger is a genuine inconsistency and is refused.
CLAMP_TOL = 1e-10

# Terms per block of the closed-form sum, counted as (s, s') square entries.
# At 2s = 40 on a 2-core x86 host, 2^11 ran as fast as 2^12 and 2^13 and
# kept the peak traced memory of one call at 0.3 MB (0.9 MB at 2^13).
_BLOCK_TERMS = 1 << 11

# The spectral route takes F(0..2s) as n(1 + kappa(n-1)) when they agree
# this closely, relative to max |F|.
QUADRATIC_TOL = 1e-14
# Every column of a spectral table's binomial pmf must sum to 1 this closely;
# the largest deviations measured were 5.6e-14 at 2s = 80 (101 r2 values)
# and 7.4e-13 at 511 (2001 r2 values).
PMF_TOL = 1e-12
# m_independence_report refuses entropies that vary with m by more.
M_SPREAD_TOL = 1e-12


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
        hi = value.item(value.argmax())  # NaN if value holds a NaN
        if not hi <= 1.0 - 1.0 / self.dim + 1e-12:
            raise NumericalConsistencyError(
                f"S = {hi} outside [0, 1 - 1/d] for d = {self.dim}")
        object.__setattr__(self, "value", float(value) if value.ndim == 0 else value)


@dataclass(frozen=True)
class MIndependenceReport:
    """Entropy spread over all phase-state labels m at fixed (phi, r2)."""

    value: float
    spread: float
    values: tuple[float, ...]


def _clamp_unit_interval(s):
    """s clipped to [0, 1]; s is a float or an array of entropies.

    The range checks are monotone, so the extremes stand for every entry.
    """
    s = np.asarray(s, dtype=float)
    lo, hi = s.item(s.argmin()), s.item(s.argmax())
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


def phase_term(spec: StructureSpec, n: int, n2: int, l: int, l2: int,
               phi: float) -> float:
    """Angle [F(n+l) + F(n2+l2) - F(n2+l) - F(n+l2)] * phi of one term.

    Vanishes whenever n == n2 or l == l2; changes sign under swapping
    l <-> l2 (and likewise under n <-> n2), and is invariant under swapping
    both pairs simultaneously.
    """
    top = spec.two_s + 1
    for idx in (n, n2, l, l2):
        if idx < 0:
            raise IndexOutOfRangeError(f"negative index {idx}")
    for idx in (n + l, n2 + l2, n2 + l, n + l2):
        if idx > top:
            raise IndexOutOfRangeError(f"level index {idx} exceeds 2s+1 = {top}")
    levels = spec.levels
    return float(levels[n + l] + levels[n2 + l2]
                 - levels[n2 + l] - levels[n + l2]) * phi


@per_size(lambda d: d * d)
def _binomial_table(d: int):
    """binom(s, n) at [n, s], zero for n > s, with its index tables, read-only.

    Also n and s as a column and the gap s - n, which is negative for n > s.
    """
    # ln(k!) for k < d, then +inf: a negative index s - n lands there.
    lgf = np.concatenate([log_factorials(d - 1), np.full(d, inf)])
    k = np.arange(d)
    col = k[:, None]
    gap = k - col
    return read_only(np.exp(lgf[:d] - lgf[col] - lgf[gap]), k, col, gap)


def _binomial_pmf(spec: StructureSpec, params: SplitterParams) -> np.ndarray:
    """pmf[..., n, s] = binom(s, n) t2^n r2^(s-n), zero for n > s, after any r2 axes.

    Column s is the binomial distribution of the n of s photons transmitted.
    """
    binom, k, col, gap = _binomial_table(spec.dim)
    t2_pow, r2_pow = np.power.outer((params.t2, params.r2), k)
    return binom * t2_pow[..., col] * r2_pow[..., gap]


def _plan_terms(d: int, folded: bool) -> int:
    """Terms of the slab plan: C(d + 2, 3) folded, d (2 d^2 + 1) / 3 unfolded."""
    return d * (d + 1) * (d + 2) // 6 if folded else d * (2 * d * d + 1) // 3


@dataclass(frozen=True, eq=False)
class _SlabBlock:
    """One block of whole j slabs of the Gram sum; it depends on d alone.

    rows[0] and rows[1] hold lo_j and hi_j = lo_j + j of each slab, side the
    widest slab's side m and slab_w the fold weight of each slab, shape
    (slabs, 1, 1).  pair_w holds the pair weights of (s, s'), shape (m, m),
    and terms the flat indices of the block's terms in its (slabs, m, m)
    Gram stack.  edges[0] and edges[1] hold the level indices s and s + j at
    s = lo_j + u, u < m, clipped to the table, shape (2, slabs, m).  Every
    array is read-only.
    """

    rows: np.ndarray
    side: int
    slab_w: np.ndarray
    pair_w: np.ndarray
    terms: np.ndarray
    edges: np.ndarray


@per_size(_plan_terms)
def _slab_plan(d: int, folded: bool):
    """Yield the _SlabBlock of each block of whole j slabs, in j order.

    Slab j holds s, s' = lo_j + u, u < side_j = d - |j|, lo_j = max(0, -j):
    folded, j >= 0 and s <= s' with fold weight w = 2 - [j == 0] times
    2 - [s == s']; unfolded, every j and the whole square with w = 1.  A
    block holds whole slabs, about _BLOCK_TERMS square entries per cell.
    Kept plans are tuples; a plan over the budget is this generator.
    """
    k = np.arange(d)
    j = np.arange(0 if folded else 1 - d, d)
    side = d - abs(j)
    rows = np.stack([np.maximum(-j, 0), np.maximum(j, 0)])
    # Indices past the level table lie outside the domain.
    edges = np.minimum(rows[..., None] + k, d)
    inside = np.greater.outer(side, k)
    # Fold weights, powers of two: 2 - [s == s'] for s <= s' (0 below), and
    # 2 for j > 0, which is row 0 of pair_w; all 1 unfolded.
    pair_w = np.sign(k - k[:, None]) + 1.0 if folded else np.ones((d, d))
    slab_w = pair_w[0, abs(j), None, None]
    upper = pair_w > 0.0
    read_only(rows, edges, pair_w, slab_w)
    sides = side.tolist()
    # A block starts at each slab whose first entry passes a multiple of _BLOCK_TERMS.
    starts = list(accumulate((m * m for m in sides), initial=0))
    for _, run in groupby(range(j.size), lambda i: starts[i] // _BLOCK_TERMS):
        run = list(run)
        block = slice(run[0], run[-1] + 1)
        m = max(sides[block])
        ok = inside[block, :m]
        keep = upper[:m, :m] & ok[:, None, :]
        if not folded:
            keep &= ok[:, :, None]
        terms = keep.ravel().nonzero()[0]
        terms.setflags(write=False)
        yield _SlabBlock(rows[:, block], m, slab_w[block], pair_w[:m, :m], terms,
                         edges[:, block, :m])


def _gram_slabs(spec: StructureSpec, pmf: np.ndarray, levels: np.ndarray, *,
                folded: bool = True):
    """Yield, per block of _slab_plan, the weighted Gram entries and their gaps.

    With b[n, s] = sqrt(pmf[n, s]) and Q_j[n, s] = b[n, s] b[n+j, s+j], the
    term magnitudes summed over n are G_j = Q_j^T Q_j.  Each item is
    (w G_j[s, s'], gap): the entries with the cells of pmf leading and one
    axis of terms, and per term the gap (L(s) - L(s+j)) - (L(s') - L(s'+j))
    of the table levels = L(0..2s+1), exactly 0 where j == 0 or s == s'.
    """
    d = spec.dim
    # b[..., n, s], zero for n > s and in the padding.
    b = np.zeros(pmf.shape[:-2] + (2 * d, 2 * d))
    b[..., :d, :d] = np.sqrt(pmf)
    rs, cs = b.strides[-2:]  # win[..., i, u, v] = b[..., i + u, i + v], a view
    win = np.ndarray(b.shape[:-2] + (d, d, d), buffer=b,
                     strides=b.strides[:-2] + (rs + cs, rs, cs))
    for block in _slab_plan(d, folded):
        m = block.side
        lo, hi = block.rows
        q = win[..., lo, :m, :m] * win[..., hi, :m, :m]
        # w_j G_j = (w_j Q_j)^T Q_j exactly; two buffers keep numpy off syrk (8 ms at d = 81).
        gram = np.matmul(q.swapaxes(-1, -2) * block.slab_w, q) * block.pair_w
        edge_s, edge_sj = levels.take(block.edges)
        e = edge_s - edge_sj
        yield (gram.reshape(gram.shape[:-3] + (-1,)).take(block.terms, axis=-1),
               (e[:, :, None] - e[:, None, :]).take(block.terms))


def linear_entropy_closed(spec: StructureSpec, phi,
                          params: SplitterParams, *,
                          folded: bool = True) -> EntropyValue:
    """Closed-form linear entropy of the split phase state.

    The result carries no dependence on the label m.  phi and r2 broadcast
    together, and it has one entropy per cell, shape
    np.broadcast_shapes(phi, r2).  With folded=True (the default) the sum
    runs over the half-domain with cosine terms; folded=False keeps the full
    complex sum, whose imaginary part must come out <= 1e-12 in every cell,
    as a cross-check path.

    Each block of _gram_slabs gives its terms w G_j[s, s'] the angle
    phi [(F(s) - F(s+j)) - (F(s') - F(s'+j))]; numpy sums each block per
    cell and math.fsum combines the block sums.
    """
    d = spec.dim
    re, im = [], []
    pmf = _binomial_pmf(spec, params)
    for mag, gap in _gram_slabs(spec, pmf, spec.levels, folded=folded):
        angle = np.multiply.outer(phi, gap)
        re.append((mag * np.cos(angle)).sum(axis=-1))
        if not folded:
            im.append(-(mag * np.sin(angle)).sum(axis=-1))
    total = _fsum_blocks(re) / (d * d)
    residual = 0.0 if folded else np.abs(_fsum_blocks(im)).max() / (d * d)
    if residual > 1e-12:
        raise NumericalConsistencyError(
            f"imaginary residual {residual} in the unfolded sum")
    return EntropyValue(1.0 - total, CLOSED_FORM, d)


@dataclass(frozen=True, eq=False)
class _SpectralTable:
    """S = 1 - sum_k weights[..., k] cos(rates[k] phi) / dim^2 for the cells of r2.

    rates holds 2 kappa k for each distinct k, weights one row per r2 cell.
    """

    rates: np.ndarray
    weights: np.ndarray
    dim: int

    def entropy(self, phi) -> EntropyValue:
        """One entropy per cell of np.broadcast_shapes(phi, r2).

        The contraction is an elementwise product summed over k, so every
        cell of an array call equals its scalar call to the bit.
        """
        cos = np.cos(np.multiply.outer(phi, self.rates))
        purity = (self.weights * cos).sum(axis=-1) / (self.dim * self.dim)
        return EntropyValue(1.0 - purity, SPECTRAL, self.dim)


def _quadratic_kappa(spec: StructureSpec) -> float:
    """spec.kappa (0 where it has none), once F(0..2s) fit n(1 + kappa(n-1)).

    F(2s+1) = 0 is the truncation and takes no part in the fit.
    """
    kappa = spec.kappa or 0.0
    levels = spec.levels[:spec.dim]
    n = np.arange(spec.dim, dtype=float)
    dev = np.abs(levels - n * (1.0 + kappa * (n - 1.0))).max()
    if not dev <= QUADRATIC_TOL * np.abs(levels).max():
        raise NonQuadraticLevelsError(
            f"{spec.family.value} levels are off n(1 + kappa(n-1)) at kappa = "
            f"{kappa} by {dev}; the spectral route needs that form")
    return kappa


def _spectral_table(spec: StructureSpec, params: SplitterParams) -> _SpectralTable:
    """The closed form's Gram entries binned by k = j (s' - s), one row per r2 cell.

    With F(n) = n(1 + kappa(n-1)) the angle of the term (j, s, s') is
    2 kappa k phi, so S = 1 - sum_k W_k cos(2 kappa k phi) / d^2, where W_k
    sums w G_j[s, s'] over the terms with that k, 0 <= k <= (2s)^2 / 4.
    np.bincount sums each block's entries per (r2 cell, k) in term order, and
    the block sums are added into W in block order.
    """
    kappa = _quadratic_kappa(spec)
    pmf = _binomial_pmf(spec, params)
    dev = np.abs(pmf.sum(axis=-2) - 1.0).max()
    if not dev <= PMF_TOL:
        raise NumericalConsistencyError(f"a column of the binomial pmf is off 1 by {dev}")
    cells = pmf.shape[:-2]
    width = spec.two_s**2 // 4 + 1
    # Bin k of the c-th r2 cell (row-major) is c * width + k.
    first = np.arange(0, pmf[..., 0, 0].size * width, width)[:, None]
    table = np.zeros(first.size * width)
    seen = np.zeros(width, dtype=bool)
    # The gap of L(n) = n(n-1)/2, exact in integers, is k itself.
    n = np.arange(spec.dim + 1)
    for mag, key in _gram_slabs(spec, pmf, n * (n - 1) // 2):
        table += np.bincount((first + key).ravel(), mag.ravel(), table.size)
        seen[key] = True
    keys = seen.nonzero()[0]
    weights = table.reshape(cells + (width,)).take(keys, axis=-1)
    return _SpectralTable(2.0 * kappa * keys, weights, spec.dim)


def linear_entropy_spectral(spec: StructureSpec, phi,
                            params: SplitterParams) -> EntropyValue:
    """Linear entropy from the spectral table, for quadratic level tables.

    Same axis contract as linear_entropy_closed: one entropy per cell of
    np.broadcast_shapes(phi, r2), each cell equal to its scalar call to the
    bit.  The built-in families all qualify (Pegg-Barnett has kappa = 0);
    a table that does not fit n(1 + kappa(n-1)) within QUADRATIC_TOL raises
    NonQuadraticLevelsError, and linear_entropy_closed takes it instead.
    """
    return _spectral_table(spec, params).entropy(phi)


def _fsum_blocks(sums) -> np.ndarray:
    """math.fsum over the blocks of each cell; sums holds the cells of each block."""
    blocks = np.array(sums)
    cells = blocks.reshape(len(blocks), -1).T.tolist()
    return np.array([fsum(c) for c in cells]).reshape(blocks.shape[1:])


def m_independence_report(spec: StructureSpec, phi: float,
                          params: SplitterParams) -> MIndependenceReport:
    """Oracle entropy for every m from one split; the spread must not exceed M_SPREAD_TOL."""
    rho = reduced_density(split_phase_state(spec, np.arange(spec.dim), phi, params))
    values = linear_entropy(rho).value.tolist()
    spread = max(values) - min(values)
    if spread > M_SPREAD_TOL:
        raise NumericalConsistencyError(
            f"entropy varies with m by {spread} (tolerance {M_SPREAD_TOL})")
    return MIndependenceReport(values[0], spread, tuple(values))
