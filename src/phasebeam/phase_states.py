"""Temporally stable phase states on the finite Fock space.

The state |m, phi> has amplitudes e^{-i F(n) phi} q^{mn} / sqrt(d) over the
number basis, with q the primitive d-th root of unity.  It is an eigenstate
of the phase operator with eigenvalue q^m, and time evolution only shifts
the label: e^{-iHt}|m, phi> = |m, phi + t>.
"""

from __future__ import annotations

from math import pi, sqrt

import numpy as np

from .algebra import StructureSpec, phase_operator
from .errors import DimensionMismatchError


def phase_state(spec: StructureSpec, m, phi) -> np.ndarray:
    """Amplitude vector of |m, phi>; every component has modulus 1/sqrt(d).

    m is an int or an integer array and phi a scalar or an array; the two
    broadcast to one label shape, and the result has shape
    label.shape + (d,), one vector per label.
    """
    d = spec.dim
    phi = _finite_phases(phi)
    return np.exp(-1j * np.multiply.outer(phi, spec.levels[:d])) * _root_powers(m, d) / sqrt(d)


def _finite_phases(phi):
    """phi, or a ValueError naming a non-finite phase that it holds."""
    if not (finite := np.isfinite(phi)).all():
        raise ValueError(f"phase phi must be finite, got {np.asarray(phi)[~finite].flat[0]}")
    return phi


def _root_powers(m, d: int) -> np.ndarray:
    """q^{mn} for n = 0..d-1 along a last axis, one row per label m.

    A Python int is reduced mod d before numpy sees it, so labels beyond
    int64 work; an array label must have an integer dtype.
    """
    if not isinstance(m, int):
        m = np.asarray(m)
        if not np.issubdtype(m.dtype, np.integer):
            raise ValueError(f"phase-state labels must be integers, got dtype {m.dtype}")
    return np.exp(2j * pi * (np.multiply.outer(m % d, np.arange(d)) % d) / d)


def apply_phase_operator(spec: StructureSpec, phi: float, state: np.ndarray) -> np.ndarray:
    """Apply the unitary phase operator to a state vector or a stack (..., d)."""
    state = np.asarray(state, dtype=complex)
    if state.shape[-1:] != (spec.dim,):
        raise DimensionMismatchError(
            f"state has shape {state.shape}, expected (..., {spec.dim})")
    return (phase_operator(spec, phi) @ state[..., None])[..., 0]


def evolve_vector(spec: StructureSpec, state: np.ndarray, t: float) -> np.ndarray:
    """Apply e^{-iHt} componentwise: amp[n] -> e^{-i F(n) t} amp[n]."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (spec.dim,):
        raise DimensionMismatchError(
            f"state has shape {state.shape}, expected ({spec.dim},)")
    return state * np.exp(-1j * spec.levels[: spec.dim] * t)


def overlap_direct(a: np.ndarray, b: np.ndarray) -> complex | np.ndarray:
    """Inner product <a|b> = sum conj(a[n]) b[n]; two vectors give a complex,
    stacks (..., d) broadcast to one overlap per pair."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1:] != b.shape[-1:]:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    out = np.vecdot(a, b)
    return complex(out) if out.ndim == 0 else out


def overlap_closed(spec: StructureSpec, m, phi, m2, phi2) -> complex | np.ndarray:
    """Closed form of <m, phi | m2, phi2>.

    Evaluates (1/d) sum_n q^{x(n)} with exponent
    x(n) = -(m - m2) n + d (phi - phi2) F(n) / (2 pi), where a root-of-unity
    power with non-integer exponent means q^x := e^{2 pi i x / d}.  The four
    labels broadcast together; one pair gives a complex.  Each label is
    reduced mod d first, as in phase_state, so every product with n is exact;
    the difference is formed in int64, so that unsigned labels do not wrap.
    """
    d = spec.dim
    dm = np.subtract(m % d, m2 % d, dtype=np.int64)
    exponent = (np.multiply.outer(-dm, np.arange(d))
                + np.multiply.outer(d / (2.0 * pi) * (phi - phi2), spec.levels[:d]))
    out = np.exp(2j * pi * exponent / d).sum(axis=-1) / d
    return complex(out) if out.ndim == 0 else out


def closure_matrix(spec: StructureSpec, phi: float) -> np.ndarray:
    """sum_m |m,phi><m,phi|; the identity, up to roundoff, for any phi."""
    states = phase_state(spec, np.arange(spec.dim), phi)
    return states.T @ states.conj()
