"""Temporally stable phase states on the finite Fock space.

The state |m, phi> has amplitudes e^{-i F(n) phi} q^{mn} / sqrt(d) over the
number basis, with q the primitive d-th root of unity.  It is an eigenstate
of the phase operator with eigenvalue q^m, and time evolution only shifts
the label: e^{-iHt}|m, phi> = |m, phi + t>.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .algebra import StructureSpec, phase_operator
from .errors import DimensionMismatchError


@dataclass(frozen=True)
class PhaseLabel:
    """Label (m, phi) of a phase state; m is stored reduced mod 2s+1."""

    two_s: int
    m: int
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", self.m % (self.two_s + 1))


def phase_state(spec: StructureSpec, m: int, phi: float) -> np.ndarray:
    """Amplitude vector of |m, phi>; every component has modulus 1/sqrt(d)."""
    d = spec.dim
    n = np.arange(d)
    root_powers = np.exp(2j * pi * (((m % d) * n) % d) / d)
    return np.exp(-1j * spec.levels[:d] * phi) * root_powers / sqrt(d)


def apply_phase_operator(spec: StructureSpec, phi: float, state: np.ndarray) -> np.ndarray:
    """Apply the unitary phase operator to an arbitrary state vector."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (spec.dim,):
        raise DimensionMismatchError(
            f"state has shape {state.shape}, expected ({spec.dim},)")
    return phase_operator(spec, phi) @ state


def evolve(spec: StructureSpec, label: PhaseLabel, t: float) -> PhaseLabel:
    """Time evolution acts on labels as (m, phi) -> (m, phi + t)."""
    if label.two_s != spec.two_s:
        raise DimensionMismatchError(
            f"label two_s={label.two_s} does not match spec two_s={spec.two_s}")
    return PhaseLabel(spec.two_s, label.m, label.phi + t)


def evolve_vector(spec: StructureSpec, state: np.ndarray, t: float) -> np.ndarray:
    """Apply e^{-iHt} componentwise: amp[n] -> e^{-i F(n) t} amp[n]."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (spec.dim,):
        raise DimensionMismatchError(
            f"state has shape {state.shape}, expected ({spec.dim},)")
    return state * np.exp(-1j * spec.levels[: spec.dim] * t)


def overlap_direct(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b> = sum conj(a[n]) b[n]."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return complex(np.vdot(a, b))


def overlap_closed(spec: StructureSpec, m: int, phi: float,
                   m2: int, phi2: float) -> complex:
    """Closed form of <m, phi | m2, phi2>.

    Evaluates (1/d) sum_n q^{x(n)} with exponent
    x(n) = -(m - m2) n + d (phi - phi2) F(n) / (2 pi), where a root-of-unity
    power with non-integer exponent means q^x := e^{2 pi i x / d}.
    """
    d = spec.dim
    n = np.arange(d)
    exponent = -(m - m2) * n + d / (2.0 * pi) * (phi - phi2) * spec.levels[:d]
    return complex(np.sum(np.exp(2j * pi * exponent / d)) / d)


def closure_matrix(spec: StructureSpec, phi: float) -> np.ndarray:
    """sum_m |m,phi><m,phi|; the identity, up to roundoff, for any phi."""
    d = spec.dim
    total = np.zeros((d, d), dtype=complex)
    for m in range(d):
        v = phase_state(spec, m, phi)
        total += np.outer(v, v.conj())
    return total
