"""Lossless symmetric beam splitter with vacuum on the second input port.

A number state |n, 0> scatters into sum_p sqrt(binom(n, p)) t^p (ir)^{n-p}
|p, n-p> with t = cos(theta/2), r = sin(theta/2).  Total photon number is
conserved, so two-mode outputs live on the triangle p + k <= 2s and are
stored in a packed triangular layout.  The reduced state of the transmitted
mode is available through two independent routes: an explicit partial trace
of the two-mode vector, and direct assembly from the transmission
coefficients c(n, l).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np

from .algebra import StructureSpec
from .errors import InvalidDensityError, NotNormalizedError
from .numerics import ipow, log_factorials, sqrt_binomial
from .phase_states import phase_state


@dataclass(frozen=True)
class SplitterParams:
    """Beam splitter keyed on the reflection probability r2 = r**2."""

    r2: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r2 <= 1.0:
            raise ValueError(f"r2 must lie in [0, 1], got {self.r2}")

    @property
    def t2(self) -> float:
        """Transmission probability; t2 + r2 = 1 exactly."""
        return 1.0 - self.r2

    @property
    def t(self) -> float:
        return sqrt(1.0 - self.r2)

    @property
    def r(self) -> float:
        return sqrt(self.r2)


def tri_size(two_s: int) -> int:
    """Number of pairs (p, k) with p, k >= 0 and p + k <= two_s."""
    return (two_s + 1) * (two_s + 2) // 2


def tri_index(two_s: int, p: int, k: int) -> int:
    """Flat index of the pair (p, k); rows of fixed p are contiguous in k."""
    if p < 0 or k < 0 or p + k > two_s:
        raise IndexError(f"(p={p}, k={k}) outside the triangle p+k <= {two_s}")
    return p * (two_s + 1) - p * (p - 1) // 2 + k


@dataclass(frozen=True, eq=False)
class BipartiteVector:
    """Two-mode amplitudes on the triangle p + k <= two_s, packed flat."""

    two_s: int
    amp: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amp = np.ascontiguousarray(np.asarray(self.amp, dtype=complex))
        if amp.shape != (tri_size(self.two_s),):
            raise ValueError(
                f"amplitude vector must have length {tri_size(self.two_s)}, "
                f"got {amp.shape}")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    def get(self, p: int, k: int) -> complex:
        return complex(self.amp[tri_index(self.two_s, p, k)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))


def split_number_state(n: int, params: SplitterParams,
                       two_s: int | None = None) -> BipartiteVector:
    """Beam splitter output for the input |n> (x) |0>.

    Parameters
    ----------
    n : int
        Photon number on the transmitted input port.
    params : SplitterParams
    two_s : int, optional
        Triangle size of the output layout; defaults to n.  Must be >= n.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    if two_s is None:
        two_s = n
    if two_s < n:
        raise ValueError(f"layout two_s={two_s} cannot hold {n} photons")
    t, r = params.t, params.r
    amp = np.zeros(tri_size(two_s), dtype=complex)
    for p in range(n + 1):
        amp[tri_index(two_s, p, n - p)] = (
            sqrt_binomial(n, p) * t**p * r ** (n - p) * ipow(n - p))
    return BipartiteVector(two_s, amp)


def split_phase_state(spec: StructureSpec, m: int, phi: float,
                      params: SplitterParams) -> BipartiteVector:
    """Beam splitter output for the input |m, phi> (x) |0>."""
    two_s = spec.two_s
    state = phase_state(spec, m, phi)
    t, r = params.t, params.r
    t_pow = [t**p for p in range(two_s + 1)]
    r_pow = [r**k for k in range(two_s + 1)]
    amp = np.zeros(tri_size(two_s), dtype=complex)
    for n in range(two_s + 1):
        for p in range(n + 1):
            amp[tri_index(two_s, p, n - p)] += (
                state[n] * sqrt_binomial(n, p)
                * t_pow[p] * r_pow[n - p] * ipow(n - p))
    return BipartiteVector(two_s, amp)


def reduced_density(b: BipartiteVector, *, norm_tol: float = 1e-9) -> np.ndarray:
    """Reduced state of the first mode by tracing out the second.

    rho[p, p'] = sum_k amp(p, k) conj(amp(p', k)); the upper triangle is
    computed and mirrored, so the result is Hermitian to the bit.
    """
    nrm = b.norm()
    if abs(nrm - 1.0) > norm_tol:
        raise NotNormalizedError(f"two-mode vector has norm {nrm}")
    two_s = b.two_s
    d = two_s + 1
    rho = np.zeros((d, d), dtype=complex)
    starts = [tri_index(two_s, p, 0) for p in range(d)]
    for p in range(d):
        row_p = b.amp[starts[p]: starts[p] + (two_s - p) + 1]
        for p2 in range(p, d):
            common = two_s - p2 + 1
            row_p2 = b.amp[starts[p2]: starts[p2] + common]
            val = complex(np.vdot(row_p2, row_p[:common]))
            rho[p, p2] = val
            rho[p2, p] = val.conjugate()
    return rho


def reduced_density_closed(spec: StructureSpec, m: int, phi,
                           params: SplitterParams) -> np.ndarray:
    """Reduced state assembled directly from transmission coefficients.

    c(n, l) = sqrt(binom(n+l, n)) q^{m(n+l)} t^n (ir)^l e^{-i F(n+l) phi}
    / sqrt(d) is the amplitude for transmitting n photons while l are
    reflected, zero where n + l > 2s; rho = c c^H, i.e.
    rho[n, n'] = sum_l c(n, l) conj(c(n', l)).

    phi is a scalar, giving rho of shape (d, d), or an array of phases,
    giving one rho per phase with shape phi.shape + (d, d).
    """
    d = spec.dim
    k = np.arange(d)
    total = np.add.outer(k, k)
    inside = total < d
    total = np.where(inside, total, 0)
    lgf = np.array(log_factorials(spec.two_s))
    # sqrt(binom(n+l, n)) t^n (ir)^l / sqrt(d), zero where n + l > 2s
    weight = (np.exp(0.5 * (lgf[total] - lgf[k][:, None] - lgf[k])) * inside
              * np.outer(params.t ** k, params.r ** k * [ipow(l) for l in range(d)])
              / sqrt(d))
    # q^{mk} e^{-i F(k) phi} for k = n + l
    amp = (np.exp(2j * pi * (((m % d) * k) % d) / d)
           * np.exp(-1j * np.multiply.outer(phi, spec.levels[:d])))
    c = weight * amp[..., total]
    return c @ c.conj().swapaxes(-1, -2)


def validate_density(rho: np.ndarray, *, herm_tol: float = 1e-12,
                     trace_tol: float = 1e-12, psd_tol: float = 1e-10) -> None:
    """Raise InvalidDensityError unless rho is a density matrix.

    rho is one (d, d) matrix or a stack (..., d, d); every matrix of a
    stack must pass every check.
    """
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise InvalidDensityError(f"expected a square matrix, got {rho.shape}")
    # NaN passes the comparisons below and makes eigvalsh raise LinAlgError.
    if not np.isfinite(rho).all():
        raise InvalidDensityError("matrix has non-finite entries")
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max()
    if herm > herm_tol:
        raise InvalidDensityError(f"not Hermitian: max deviation {herm}")
    tr_dev = np.abs(rho.trace(axis1=-2, axis2=-1) - 1.0).max()
    if tr_dev > trace_tol:
        raise InvalidDensityError(f"trace is off 1 by {tr_dev}")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -psd_tol:
        raise InvalidDensityError(f"negative eigenvalue {min_eig}")
