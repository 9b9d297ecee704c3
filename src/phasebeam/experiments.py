"""Parameter sweeps of the output entanglement over (r2, phi, 2s) grids.

All sweeps default to the concave level table F(n) = n(2s+1-n)/(2s) (the
kappa-neg family) and m = 0 (the entropy does not depend on m).  They share
one grid evaluator: for each (2s, r2) it assembles rho from the
transmission coefficients over the whole phi axis at once, validates every
matrix and takes S = 1 - Tr(rho^2), all in one process.  Their serial
keyword is accepted for compatibility and changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Family, build_structure
from .entropy import linear_entropy
from .splitter import (
    SplitterParams,
    reduced_density,
    reduced_density_closed,
    split_phase_state,
)

# Most complex entries (1 MiB) in one stack of rho; a longer phi axis goes
# in blocks, so that peak memory does not grow with the grid at large d.
_BLOCK_ENTRIES = 1 << 16


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
        if values.size and (np.min(values) < 0.0 or np.max(values) > 1.0):
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


def _entropy_grid(dims, phis, r2s, family: Family, kappa: float | None,
                  m: int) -> np.ndarray:
    """S on the product grid dims x phis x r2s, shape (2s, phi, r2).

    linear_entropy validates every rho and bounds every S, as on the
    single-point route.
    """
    phi_axis = np.asarray(phis, dtype=float)
    out = np.empty((len(dims), len(phi_axis), len(r2s)))
    for i, two_s in enumerate(dims):
        spec = build_structure(family, two_s, kappa)
        block = max(1, _BLOCK_ENTRIES // spec.dim**2)
        for j, r2 in enumerate(r2s):
            params = SplitterParams(r2)
            for lo in range(0, len(phi_axis), block):
                rho = reduced_density_closed(spec, m, phi_axis[lo:lo + block],
                                             params)
                out[i, lo:lo + block, j] = linear_entropy(rho).value
    return out


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def sweep_r2_phi(two_s: int, phi_grid, r2_grid, *,
                 family: Family = Family.KAPPA_NEG,
                 kappa: float | None = None, m: int = 0,
                 serial: bool = False) -> SweepTable:
    """Entropy surface over a (phi, r2) grid at fixed dimension; phi-major."""
    phis = _as_float_tuple(phi_grid)
    r2s = _as_float_tuple(r2_grid)
    values = _entropy_grid((two_s,), phis, r2s, family, kappa, m)
    return SweepTable(
        axes=(Axis("phi", phis), Axis("r2", r2s)),
        values=values.ravel(),
        meta={"family": family.value, "two_s": two_s, "m": m, "kappa": kappa,
              "method": "oracle"},
    )


def sweep_phi_balanced(two_s_list, phi_grid, *,
                       family: Family = Family.KAPPA_NEG,
                       kappa: float | None = None, m: int = 0,
                       serial: bool = False) -> SweepTable:
    """Entropy against phi at the balanced splitter, one row per 2s."""
    dims = tuple(int(v) for v in two_s_list)
    phis = _as_float_tuple(phi_grid)
    values = _entropy_grid(dims, phis, (0.5,), family, kappa, m)
    return SweepTable(
        axes=(Axis("two_s", _as_float_tuple(dims)), Axis("phi", phis)),
        values=values.ravel(),
        meta={"family": family.value, "m": m, "kappa": kappa, "r2": 0.5,
              "method": "oracle"},
    )


def sweep_s_balanced(two_s_max: int = 40,
                     phi_list=(0.0, np.pi / 2, np.pi, 3 * np.pi / 2), *,
                     family: Family = Family.KAPPA_NEG,
                     kappa: float | None = None, m: int = 0,
                     serial: bool = False) -> SweepTable:
    """Entropy against 2s = 1..two_s_max at the balanced splitter, per phi."""
    if two_s_max < 1:
        raise ValueError(f"two_s_max must be >= 1, got {two_s_max}")
    phis = _as_float_tuple(phi_list)
    dims = tuple(range(1, two_s_max + 1))
    values = _entropy_grid(dims, phis, (0.5,), family, kappa, m)
    return SweepTable(
        axes=(Axis("phi", phis), Axis("two_s", _as_float_tuple(dims))),
        values=values[:, :, 0].T.ravel(),
        meta={"family": family.value, "m": m, "kappa": kappa, "r2": 0.5,
              "method": "oracle"},
    )
