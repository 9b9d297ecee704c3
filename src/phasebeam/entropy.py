"""Linear entropy S = 1 - Tr(rho^2) of the beam splitter output.

Two routes are provided.  The oracle route squares an explicit reduced
density matrix.  The closed-form route evaluates a quadruple sum over
(n, n', l, l') whose terms carry the phase
    angle = [F(n+l) + F(n'+l') - F(n'+l) - F(n+l')] * phi
and whose magnitude involves ratios of factorials, computed in log space.
The angle is antisymmetric under l <-> l' and under n <-> n' separately,
and invariant under swapping both pairs at once, so the sum is real and can
be folded onto the half-domain n <= n', l <= l' with cosine terms.
The terms are gathered as numpy arrays, a block of whole (n, n') pairs at
a time; numpy sums each block and math.fsum combines the block sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .algebra import StructureSpec
from .errors import IndexOutOfRangeError, NumericalConsistencyError
from .numerics import log_factorials
from .splitter import (
    SplitterParams,
    _label_axes,
    reduced_density,
    split_phase_state,
    validate_density,
)

ORACLE = "oracle"
CLOSED_FORM = "closed"

# Excursions beyond [0, 1] by at most this much are roundoff and get
# clamped; anything larger is a genuine inconsistency and is refused.
CLAMP_TOL = 1e-10

# Terms per block of the closed-form sum.  The folded domain holds
# C(2s+4, 4) terms, 1.9e6 at 2s = 80.  Blocks of about 2^11 terms keep the
# per-term arrays small and in cache: on a 2-core x86 host, 2^11 ran
# 2s = 40 in about half the time of 2^14 and raised peak memory by 0.1 MB
# where 2^14 raised it by 1.9 MB.
_BLOCK_TERMS = 1 << 11


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


def linear_entropy_closed(spec: StructureSpec, phi,
                          params: SplitterParams, *,
                          folded: bool = True) -> EntropyValue:
    """Closed-form linear entropy of the split phase state.

    The result carries no dependence on the label m.  It has one entropy
    per (phi, r2) cell, shape phi.shape + r2.shape.  With folded=True (the
    default) the sum runs over the half-domain with cosine terms;
    folded=False keeps the full complex sum, whose imaginary part must come
    out <= 1e-12 in every cell, as a cross-check path.

    The domain is a list of (n, n') pairs, each carrying a prefix of one
    (l, l') enumeration.  Folded: pairs n <= n' and the triangle
    l <= l' <= 2s - n', a prefix of the lower triangle (as from
    np.tril_indices(d)) ordered by l'.  Unfolded: all pairs and the square
    l, l' <= 2s - max(n, n'), a prefix of the grid ordered by max(l, l').
    Blocks hold whole pairs, at most about _BLOCK_TERMS terms per cell.
    """
    two_s = spec.two_s
    d = spec.dim
    if folded:
        # (n, n') and (l, l') run over the same lower triangle.
        n2, n = np.nonzero(np.tri(d, dtype=bool))
        l2, l = n2, n
        side = two_s + 1 - n2
        lengths = side * (side + 1) // 2
        pair_w = pos_w = 2.0 - (n == n2)
    else:
        n, n2 = np.divmod(np.arange(d * d), d)
        # The same grid for (l, l'), reordered by max(l, l').
        l, l2 = np.divmod(np.argsort(np.maximum(n, n2), kind="stable"), d)
        side = two_s + 1 - np.maximum(n, n2)
        lengths = side * side
        pair_w = pos_w = 1.0
    lgf = np.array(log_factorials(two_s))
    half_lgf = 0.5 * lgf
    powers = np.arange(2 * d - 1)
    pair_w = pair_w * np.power.outer(params.t2, powers[n + n2])
    pos_w = pos_w * np.power.outer(params.r2, powers[l + l2])
    pair_log = -(lgf[n] + lgf[n2])
    pos_log = -(lgf[l] + lgf[l2])
    levels = spec.levels
    phi = _label_axes(phi, params)
    ends = np.cumsum(lengths)
    starts = ends - lengths

    def block_sums(lo: int, hi: int):
        """Real and imaginary sums over the terms of pairs lo..hi-1, per cell."""
        pair = np.repeat(np.arange(lo, hi), lengths[lo:hi])
        pos = np.arange(starts[lo], ends[hi - 1]) - starts[pair]
        bn, bn2, bl, bl2 = n[pair], n2[pair], l[pos], l2[pos]
        k11, k22, k12, k21 = bn + bl, bn2 + bl2, bn + bl2, bn2 + bl
        mag = pair_w.take(pair, axis=-1) * pos_w.take(pos, axis=-1)
        mag *= np.exp(half_lgf[k11] + half_lgf[k22] + half_lgf[k12]
                      + half_lgf[k21] + pair_log[pair] + pos_log[pos])
        # Grouped so that n == n' or l == l' gives exactly x - x = 0.
        angle = np.multiply.outer(
            phi, (levels[k11] - levels[k21]) - (levels[k12] - levels[k22]))
        im = 0.0 if folded else -(mag * np.sin(angle)).sum(axis=-1)
        return (mag * np.cos(angle)).sum(axis=-1), im

    bounds = [0, *(np.flatnonzero(np.diff(starts // _BLOCK_TERMS)) + 1).tolist(),
              n.size]
    re, im = zip(*(block_sums(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])))
    total = _fsum_blocks(re) / (d * d)
    residual = 0.0 if folded else np.abs(_fsum_blocks(im)).max() / (d * d)
    if residual > 1e-12:
        raise NumericalConsistencyError(
            f"imaginary residual {residual} in the unfolded sum")
    return EntropyValue(1.0 - total, CLOSED_FORM, d)


def _fsum_blocks(sums) -> np.ndarray:
    """math.fsum over the blocks of each cell; sums holds the cells of each block."""
    blocks = np.array(sums)
    cells = blocks.reshape(len(blocks), -1).T.tolist()
    return np.reshape([fsum(c) for c in cells], blocks.shape[1:])


def m_independence_report(spec: StructureSpec, phi: float,
                          params: SplitterParams, *,
                          tol: float = 1e-12) -> MIndependenceReport:
    """Oracle entropy for every m from one split; the spread must not exceed tol."""
    rho = reduced_density(split_phase_state(spec, np.arange(spec.dim), phi, params))
    values = linear_entropy(rho).value.tolist()
    spread = max(values) - min(values)
    if spread > tol:
        raise NumericalConsistencyError(
            f"entropy varies with m by {spread} (tolerance {tol})")
    return MIndependenceReport(values[0], spread, tuple(values))
