"""Parameter sweeps of the output entanglement over (r2, phi, 2s) grids.

All sweeps default to the concave level table F(n) = n(2s+1-n)/(2s) (the
kappa-neg family) and m = 0 (the entropy does not depend on m).  The two
sweep_* functions and the CLI's sweep build their tables with one builder,
which differs between them only in the axes it names.  It makes one call
of the grid evaluator, which takes each 2s slice of the (phi, r2) plane by
the route that _plan names for it, one linear_entropy_closed call (one Gram
table) or one rho per cell (_rho_tiles).  _price prices both routes in one
unit; _plan takes the cheaper and yields its price, which the CLI sums
against its work budget before a run starts, as it does _price for
compute.  Every S is bounded as on the single-point routes, all in one
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

# _price's weights in multiply-adds: one entry of a route's elementwise
# work, and one sweep cell's CSV row, on either route.
_ENTRY = 1 << 9
CELL_FLOOR = 1 << 12


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


def _price(dim: int, phases: int, r2s: int) -> tuple[int, int]:
    """(tables, rho): the work of a phases x r2s slice at dimension dim by
    one Gram table per r2 value, and by one rho per cell.

    Both are in multiply-adds (a complex one counts 4), and each entry of
    elementwise work counts _ENTRY.  One rho is d^3 complex multiply-adds
    and d^2 entries.  One r2 value's table is d^4/4 multiply-adds and
    4 d^2 entries, and each phase's row of cosines d^2/16 entries.  Every
    cell adds CELL_FLOOR on either route.  Timed on both routes from
    2s = 2 to 160 in process (2-vCPU x86 host), a unit took 0.04-0.10 ns,
    median 0.06, wherever a route took 5 ms or more.
    """
    entries, cells = dim * dim, phases * r2s
    rho = cells * entries * (4 * dim + _ENTRY)
    tables = entries * (r2s * (entries // 4 + 4 * _ENTRY) + phases * _ENTRY // 16)
    return tables + cells * CELL_FLOOR, rho + cells * CELL_FLOOR


def _plan(dims, phases: int, r2s: int):
    """Yield (2s, tables, work) per 2s of dims, lazily, on a phases x r2s plane.

    Each slice goes by the route that _price prices lower (rho on a tie),
    and work is that price.
    """
    for two_s in dims:
        tables, rho = _price(two_s + 1, phases, r2s)
        yield two_s, tables < rho, min(tables, rho)


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
    return tuple(map(float, values))


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
    axes = {**grid, "two_s": _as_float_tuple(grid["two_s"])}
    return SweepTable(axes=tuple(Axis(name, axes[name]) for name in names),
                      values=values.ravel(), meta=meta)


def sweep_r2_phi(two_s: int, phi_grid, r2_grid, *,
                 family: Family = Family.KAPPA_NEG,
                 kappa: float | None = None, m: int = 0,
                 serial: bool = False) -> SweepTable:
    """Entropy surface over a (phi, r2) grid at fixed dimension; phi-major."""
    return _sweep(("phi", "r2"), (two_s,), phi_grid, r2_grid, family, kappa, m)


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
