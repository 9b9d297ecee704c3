"""Finite-dimensional generalized Weyl-Heisenberg algebras.

An algebra instance is specified by a table of energy levels F(0)..F(2s+1)
with F(0) = F(2s+1) = 0 and F(n) > 0 in between.  The table fixes the level
spacings G(n) = F(n+1) - F(n), the ladder operators, the Hamiltonian
diag(F) and the unitary phase operator obtained from the polar
decomposition of the lowering operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import inf, isfinite

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidStructureError,
    MissingKappaError,
    NonPositiveLevelError,
    TraceNotZeroError,
)

# Absolute tolerance for validating user-supplied (decimal) tables.
TABLE_TOL = 1e-9
# Stricter gate for spacing tables built programmatically.
SPACING_SUM_TOL = 1e-12


class Family(str, Enum):
    """Built-in level-table families plus a user-tabulated escape hatch."""

    PEGG_BARNETT = "pegg-barnett"   # F(n) = n, linear spectrum
    KAPPA_NEG = "kappa-neg"         # F(n) = n(2s+1-n)/(2s), kappa = -1/(2s)
    KAPPA_POS = "kappa-pos"         # F(n) = n(1 + kappa(n-1)), kappa > 0
    CUSTOM = "custom"               # levels supplied by the caller


@dataclass(frozen=True, eq=False)
class StructureSpec:
    """Validated level table of one algebra, with its spacings.

    Attributes
    ----------
    family : Family
        Which construction produced the tables.
    two_s : int
        2s; the Fock space has dimension d = 2s + 1.
    kappa : float or None
        Deformation parameter, where the family has one.
    levels : ndarray, shape (2s+2,)
        F(0)..F(2s+1).  F(0) = F(2s+1) = 0, F(n) > 0 for 0 < n <= 2s.
    spacings : ndarray, shape (2s+1,)
        G(0)..G(2s) = np.diff(levels), set once the levels pass their checks
        (not an argument); sum(G) = F(2s+1) - F(0).
    """

    family: Family
    two_s: int
    kappa: float | None
    levels: np.ndarray = field(repr=False)
    spacings: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.two_s < 1:
            raise InvalidDimensionError(f"two_s must be >= 1, got {self.two_s}")
        levels = np.ascontiguousarray(np.asarray(self.levels, dtype=float))
        d = self.two_s + 1
        if levels.shape != (d + 1,):
            raise InvalidStructureError(
                f"level table must have length {d + 1}, got {levels.shape}")
        if not np.all(np.isfinite(levels)):
            raise InvalidStructureError("level table must be finite")
        if abs(levels[0]) > TABLE_TOL:
            raise InvalidStructureError(f"F(0) must be 0, got {levels[0]}")
        if np.any(levels[1:d] <= 0.0):
            bad = int(np.argmax(levels[1:d] <= 0.0)) + 1
            raise NonPositiveLevelError(
                f"F({bad}) = {levels[bad]} but interior levels must be > 0")
        if abs(levels[d]) > TABLE_TOL:
            raise TraceNotZeroError(
                f"truncation requires F(2s+1) = 0, got {levels[d]}")
        # Every level is finite and above -TABLE_TOL, so no difference overflows.
        spacings = np.diff(levels)
        levels.setflags(write=False)
        spacings.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "spacings", spacings)

    @property
    def dim(self) -> int:
        """Fock space dimension d = 2s + 1."""
        return self.two_s + 1


def _levels_from_closed_form(two_s: int, kappa: float) -> np.ndarray:
    """F(n) = n(1 + kappa(n-1)); kappa = 0 gives Pegg-Barnett's F(n) = n exactly."""
    # F(2s) is the largest level for kappa >= 0 (kappa-neg's are below 2s);
    # it is formed first in Python floats, which overflow to inf unwarned.
    if not isfinite(two_s * (1.0 + float(kappa) * (two_s - 1.0))):
        raise InvalidStructureError("level table must be finite")
    n = np.arange(two_s + 1, dtype=float)
    # F(2s+1) = 0 exactly; the last spacing absorbs the truncation.  F(0) is
    # set too, as the formula gives -0.0 there for kappa > 1.
    levels = np.append(n * (1.0 + kappa * (n - 1.0)), 0.0)
    levels[0] = 0.0
    return levels


def build_structure(
    family: Family,
    two_s: int,
    kappa: float | None = None,
    levels: "np.ndarray | list[float] | None" = None,
) -> StructureSpec:
    """Construct a validated algebra of one of the built-in families.

    Parameters
    ----------
    family : Family
        Table construction to use.
    two_s : int
        2s >= 1; the representation has dimension 2s + 1.
    kappa : float, optional
        Deformation parameter.  Required (> 0) for KAPPA_POS; for
        KAPPA_NEG it is fixed to -1/(2s) and may only be passed
        redundantly; ignored for PEGG_BARNETT.
    levels : array_like, optional
        Full level table F(0)..F(2s+1) for the CUSTOM family.

    Returns
    -------
    StructureSpec
    """
    if two_s < 1:
        raise InvalidDimensionError(f"two_s must be >= 1, got {two_s}")

    if family is Family.CUSTOM:
        if levels is None:
            raise InvalidStructureError("custom family requires a level table")
        table = np.asarray(levels, dtype=float)
    else:
        if levels is not None:
            raise InvalidStructureError(
                f"level table only applies to the custom family, not {family.value}")
        if family is Family.PEGG_BARNETT:
            kappa = None
        elif family is Family.KAPPA_NEG:
            fixed = -1.0 / two_s
            if kappa is not None and not abs(kappa - fixed) <= 1e-12:
                raise InvalidStructureError(
                    f"kappa for {family.value} is fixed to -1/(2s) = {fixed}, got {kappa}")
            kappa = fixed
        elif family is Family.KAPPA_POS:
            if kappa is None:
                raise MissingKappaError("kappa > 0 is required for kappa-pos")
            if not 0 < kappa < inf:
                raise MissingKappaError(
                    f"kappa must be finite and > 0 for kappa-pos, got {kappa}")
        table = _levels_from_closed_form(two_s, 0.0 if kappa is None else kappa)

    return StructureSpec(family=family, two_s=two_s, kappa=kappa, levels=table)


def structure_from_spacings(spacings: "np.ndarray | list[float]") -> StructureSpec:
    """Build an algebra from a spacing table G(0)..G(2s) by prefix summation.

    The spacings must sum to zero (within 1e-12); the levels follow as
    F(0) = 0, F(n) = G(0) + ... + G(n-1).  The spec's spacings are the first
    difference of those levels, which can differ from g by a few ulps.
    """
    g = np.asarray(spacings, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise InvalidDimensionError(
            f"need at least two spacings, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise InvalidStructureError("spacing table must be finite")
    # Sums past the float range give inf (or NaN), unwarned: an inf total
    # fails the check below, an inf level StructureSpec's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(g))
        levels = np.concatenate(([0.0], np.cumsum(g)))
    if abs(total) > SPACING_SUM_TOL:
        raise TraceNotZeroError(f"spacings must sum to 0, got {total}")
    return StructureSpec(family=Family.CUSTOM, two_s=g.size - 1, kappa=None,
                         levels=levels)


def ladder_minus(spec: StructureSpec, phi: float) -> np.ndarray:
    """Lowering operator: entry (n-1, n) = sqrt(F(n)) e^{i[F(n)-F(n-1)] phi}."""
    f = spec.levels[: spec.dim]
    return np.diag(np.sqrt(f[1:]) * np.exp(1j * np.diff(f) * phi), 1)


def ladder_plus(spec: StructureSpec, phi: float) -> np.ndarray:
    """Raising operator, the exact adjoint of ladder_minus.

    Its top column is zero (F(2s+1) = 0), so it annihilates the highest
    number state.
    """
    return ladder_minus(spec, phi).conj().T.copy()


def number_operator(spec: StructureSpec) -> np.ndarray:
    """diag(0, 1, ..., 2s)."""
    return np.diag(np.arange(spec.dim, dtype=float)).astype(complex)


def hamiltonian(spec: StructureSpec) -> np.ndarray:
    """diag(F(0), ..., F(2s)); equals ladder_plus @ ladder_minus for any phi."""
    return np.diag(spec.levels[: spec.dim]).astype(complex)


def phase_operator(spec: StructureSpec, phi: float) -> np.ndarray:
    """Unitary phase operator of the polar decomposition a- = E sqrt(F(N)).

    A cyclic shift with phases: entry (n-1, n) = e^{i[F(n)-F(n-1)] phi} for
    n = 1..2s, and the wrap-around entry (2s, 0) = e^{i[F(0)-F(2s)] phi}.
    Each row and column holds a single unit-modulus entry, so unitarity
    holds by construction.
    """
    d = spec.dim
    f = spec.levels[:d]
    e = np.diag(np.exp(1j * np.diff(f) * phi), 1)
    e[d - 1, 0] = np.exp(1j * (f[0] - f[d - 1]) * phi)
    return e
