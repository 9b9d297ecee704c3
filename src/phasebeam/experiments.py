"""Parameter sweeps of the output entanglement over (r2, phi, 2s) grids.

All sweeps default to the concave level table F(n) = n(2s+1-n)/(2s) (the
kappa-neg family) and m = 0 (the entropy does not depend on m).  The three
sweep_* functions and the CLI's sweep build their tables with one builder,
which differs between them only in the axes it names.  It makes one call
of the grid evaluator, which takes each 2s slice of the (phi, r2) plane by
the route that _plan names for it, one linear_entropy_closed call (one Gram
table) or one rho per cell (_rho_tiles).  _plan also prices each slice by
that route, and the CLI sums the price against its work budget before a
run starts.  Every S is bounded as on the single-point routes, all in one
process.  The serial keyword is accepted for compatibility and changes
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .algebra import Family, _family, build_structure
from .entropy import linear_entropy, linear_entropy_closed
from .numerics import _BLOCK_ENTRIES
from .splitter import (
    SplitterParams,
    reduced_density,
    reduced_density_closed,
    split_phase_state,
)

# The thresholds of _plan's route; and the multiply-adds it adds per sweep
# cell on either route, for the cell's share of per-call work and its CSV row.
_TABLE_PHASES = 16
_TABLE_DIM_PER_PHASE = 6
_TABLE_MIN_WORK = 1 << 15
CELL_FLOOR = 1 << 10


@dataclass(frozen=True)
class Axis:
    """One sweep axis: a name and its (ordered) grid values."""

    name: str
    values: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Entropy values on the product grid of the axes, flattened row-major."""

    axes: tuple[Axis, ...]
    values: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = 1
        for axis in self.axes:
            if len(axis.values) == 0:
                raise ValueError(f"axis {axis.name!r} is empty")
            expected *= len(axis.values)
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if values.shape != (expected,):
            raise ValueError(
                f"values must have length {expected}, got {values.shape}")
        # np.min and np.max propagate NaN, which fails both comparisons.
        if not (np.min(values) >= 0.0 and np.max(values) <= 1.0):
            raise ValueError("entropy values must lie in [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(axis.values) for axis in self.axes)

    def grid(self) -> np.ndarray:
        """Values reshaped to the axes' product shape."""
        return self.values.reshape(self.shape)


def entropy_point(two_s: int, m: int, phi: float, r2: float,
                  family: Family = Family.KAPPA_NEG,
                  kappa: float | None = None) -> float:
    """Oracle-route entropy at a single parameter point."""
    spec = build_structure(family, two_s, kappa)
    rho = reduced_density(split_phase_state(spec, m, phi, SplitterParams(r2)))
    return linear_entropy(rho).value


def _route_work(dim: int, tables: bool) -> int:
    """Multiply-adds of one r2 value's Gram table, or of one rho and its purity."""
    return dim**4 // 4 if tables else dim**3


def _plan(dims, phases: int, r2s: int):
    """Yield (2s, tables, work) per 2s of dims, lazily, on a phases x r2s plane.

    A table for one r2 value took at most as long as 12-14 rho cells up to
    d = 81, 22 at d = 161 and 32 at d = 321, and a table call about 0.1 ms
    more than a rho tile (2-core x86 host, numpy 2.4).  So a slice goes by
    tables where it has max(16, d // 6) phases per r2 value (a margin at
    every d measured) and one rho per cell would cost _TABLE_MIN_WORK or
    more.  work prices the route taken, plus CELL_FLOOR per cell: one rho per
    cell, or a table per r2 value and about d^2/4 per cell to contract it, at
    most the rho price, since tables go only where they ran faster.
    """
    cells = phases * r2s
    for two_s in dims:
        dim = two_s + 1
        rho = cells * _route_work(dim, False)
        tables = (phases >= max(_TABLE_PHASES, dim // _TABLE_DIM_PER_PHASE)
                  and rho >= _TABLE_MIN_WORK)
        work = min(r2s * _route_work(dim, True) + cells * (dim**2 // 4), rho) if tables else rho
        yield two_s, tables, work + cells * CELL_FLOOR


def _rho_tiles(spec, m: int, phi_axis, r2_axis, out) -> None:
    """Fill out (phi, r2) with S = 1 - Tr(rho^2), one rho per cell.

    The plane goes in near-square tiles of at most _BLOCK_ENTRIES // d^2
    cells (at least one), each one reduced_density_closed call on a column
    of phases against a row of r2, which broadcast to the tile.
    linear_entropy validates every rho and bounds every S, as on the
    single-point route.
    """
    cells = max(1, _BLOCK_ENTRIES // spec.dim**2)
    cols = min(len(r2_axis), isqrt(cells))
    rows = cells // cols
    for c in range(0, len(r2_axis), cols):
        params = SplitterParams(r2_axis[c:c + cols])
        for r in range(0, len(phi_axis), rows):
            rho = reduced_density_closed(spec, m, phi_axis[r:r + rows, None], params)
            out[r:r + rows, c:c + cols] = linear_entropy(rho).value


def _entropy_grid(dims, phis, r2s, family: Family, kappa: float | None,
                  m: int) -> np.ndarray:
    """S on the product grid dims x phis x r2s, shape (2s, phi, r2).

    Each 2s slice goes by the route that _plan names for it.
    """
    phi_axis = np.asarray(phis, dtype=float)
    r2_axis = np.asarray(r2s, dtype=float)
    out = np.empty((len(dims), len(phi_axis), len(r2_axis)))
    for i, (two_s, tables, _) in enumerate(_plan(dims, len(phi_axis), len(r2_axis))):
        spec = build_structure(family, two_s, kappa)
        if tables:  # S does not depend on m
            out[i] = linear_entropy_closed(spec, phi_axis[:, None], SplitterParams(r2_axis)).value
        else:
            _rho_tiles(spec, m, phi_axis, r2_axis, out[i])
    return out


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _sweep(names, two_s, phis, r2s, family: Family, kappa: float | None,
           m: int) -> SweepTable:
    """S from one _entropy_grid call, along the named axes in output order.

    Each grid coordinate not named must hold a single value; it goes in meta.
    """
    family = _family(family)
    grid = {"two_s": tuple(int(v) for v in two_s), "phi": _as_float_tuple(phis),
            "r2": _as_float_tuple(r2s)}
    values = _entropy_grid(*grid.values(), family, kappa, m)
    meta = {"family": family.value, "m": m, "kappa": kappa, "method": "oracle"}
    for name in [name for name in grid if name not in names]:
        (meta[name],) = grid[name]
    values = np.moveaxis(values, [list(grid).index(name) for name in names], range(len(names)))
    return SweepTable(axes=tuple(Axis(name, _as_float_tuple(grid[name])) for name in names),
                      values=values.ravel(), meta=meta)


def sweep_r2_phi(two_s: int, phi_grid, r2_grid, *,
                 family: Family = Family.KAPPA_NEG,
                 kappa: float | None = None, m: int = 0,
                 serial: bool = False) -> SweepTable:
    """Entropy surface over a (phi, r2) grid at fixed dimension; phi-major."""
    return _sweep(("phi", "r2"), (two_s,), phi_grid, r2_grid, family, kappa, m)


def sweep_phi_balanced(two_s_list, phi_grid, *,
                       family: Family = Family.KAPPA_NEG,
                       kappa: float | None = None, m: int = 0,
                       serial: bool = False) -> SweepTable:
    """Entropy against phi at the balanced splitter, one row per 2s."""
    return _sweep(("two_s", "phi"), two_s_list, phi_grid, (0.5,), family, kappa, m)


def sweep_s_balanced(two_s_max: int = 40,
                     phi_list=(0.0, np.pi / 2, np.pi, 3 * np.pi / 2), *,
                     family: Family = Family.KAPPA_NEG,
                     kappa: float | None = None, m: int = 0,
                     serial: bool = False) -> SweepTable:
    """Entropy against 2s = 1..two_s_max at the balanced splitter, per phi."""
    if two_s_max < 1:
        raise ValueError(f"two_s_max must be >= 1, got {two_s_max}")
    return _sweep(("phi", "two_s"), range(1, two_s_max + 1), phi_list, (0.5,),
                  family, kappa, m)
