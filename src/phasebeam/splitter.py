"""Lossless symmetric beam splitter with vacuum on the second input port.

A number state |n, 0> scatters into sum_p sqrt(binom(n, p)) t^p (ir)^{n-p}
|p, n-p> with t = cos(theta/2), r = sin(theta/2).  Total photon number is
conserved, so two-mode outputs live on the triangle p + k <= 2s; they are
stored on the square p, k <= 2s, zero off the triangle.  The coefficients
of that square are formed in one array expression: the square-root
binomial and the powers of t and r are one exponent from the log-factorial
table, which keeps each at most 1 for any 2s, and the powers of i are exact
quarter turns.  The reduced state of the transmitted mode is available
through two independent routes: an explicit partial trace of the two-mode
vector, and direct assembly from the transmission coefficients c(n, l).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, log, sqrt

import numpy as np

from .algebra import StructureSpec
from .errors import InvalidDensityError, NotNormalizedError
from .numerics import ipow, log_factorials, per_size, read_only
from .phase_states import _finite_phases, _root_powers, phase_state

# reduced_density's bound on a norm's distance from 1, then validate_density's
# on |rho - rho^H|, the trace's distance from 1 and -lambda_min.
NORM_TOL = 1e-9
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True)
class SplitterParams:
    """Beam splitter keyed on the reflection probability r2 = r**2.

    r2 is one probability or an array of them, of any shape.  Every route
    broadcasts m, phi and r2 together by numpy's rule: its result has
    leading axes np.broadcast_shapes(m, phi, r2), one per cell, so equal
    shapes pair up and a product grid is spelled phi[:, None].
    """

    r2: float | np.ndarray

    def __post_init__(self) -> None:
        r2 = np.array(self.r2, dtype=float)
        # NaN fails both comparisons, so it is refused too.
        if not ((0.0 <= r2) & (r2 <= 1.0)).all():
            raise ValueError(f"r2 must lie in [0, 1], got {self.r2}")
        # Anything but a Python or float64 scalar is kept as this read-only
        # float64 copy: a 0-d array too, so that the caller's array can
        # change without changing r2 or t2, and a float32 scalar, whose t2
        # would be rounded to float32.
        if not isinstance(self.r2, (int, float)):
            r2.setflags(write=False)
            object.__setattr__(self, "r2", r2)

    @property
    def t2(self) -> float | np.ndarray:
        """Transmission probability; t2 + r2 = 1 exactly."""
        return 1.0 - self.r2

    @property
    def t(self) -> float | np.ndarray:
        return np.sqrt(self.t2)

    @property
    def r(self) -> float | np.ndarray:
        return np.sqrt(self.r2)


def tri_size(two_s: int) -> int:
    """Number of pairs (p, k) with p, k >= 0 and p + k <= two_s."""
    return (two_s + 1) * (two_s + 2) // 2


@per_size(lambda two_s: (two_s + 1) ** 2)
def _coefficient_table(two_s: int):
    """The per-size part of every splitter route, read-only.

    On the square n, l <= two_s: n + l on the triangle n + l <= two_s and 0
    off it (its shell); the flat indices of the square off the triangle;
    half ln(k!) for k <= two_s, and half ln((n + l)!), -inf off the
    triangle; i^l.
    """
    k = np.arange(two_s + 1)
    total = np.add.outer(k, k)
    off = total > two_s
    shell = np.where(off, 0, total)
    half_lgf = 0.5 * log_factorials(two_s)
    total_lgf = np.where(off, -inf, half_lgf[shell])
    return read_only(shell, np.flatnonzero(off), half_lgf, total_lgf, ipow(k))


@dataclass(frozen=True, eq=False)
class BipartiteVector:
    """Two-mode amplitudes amp[p, k] on the square p, k <= two_s.

    amp has shape (d, d), d = two_s + 1, for one vector, or (..., d, d) for
    a stack of vectors; amplitudes off the triangle p + k <= two_s must be
    zero.  get reads one vector.  A C-contiguous complex amp is kept without
    a copy (which would add a vector to every split's peak) and made
    read-only in place, the caller's array too; any other amp is converted.
    """

    two_s: int
    amp: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amp = np.ascontiguousarray(np.asarray(self.amp, dtype=complex))
        d = self.two_s + 1
        if amp.shape[-2:] != (d, d):
            raise ValueError(f"amplitudes must have shape (..., {d}, {d}), got {amp.shape}")
        off = _coefficient_table(self.two_s)[1]
        if amp.reshape(amp.shape[:-2] + (d * d,)).take(off, axis=-1).any():
            raise ValueError(f"amplitudes off the triangle p+k <= {self.two_s} must be 0")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    def get(self, p: int, k: int) -> complex:
        if self.amp.ndim != 2:
            raise ValueError(f"get reads one vector, not a stack of shape {self.amp.shape}")
        if p < 0 or k < 0 or p + k > self.two_s:
            raise IndexError(f"(p={p}, k={k}) outside the triangle p+k <= {self.two_s}")
        return complex(self.amp[p, k])

    def norm(self) -> float | np.ndarray:
        """Euclidean norm, one per vector of a stack."""
        nrm = np.linalg.norm(self.amp, axis=(-2, -1))
        return float(nrm) if nrm.ndim == 0 else nrm


def _log_powers(x, two_s: int) -> np.ndarray:
    """ln(x^j) for j = 0..two_s along a last axis: 0, then j ln(x), or -inf at x = 0.

    x of any shape gives x.shape + (two_s + 1,): one row per value, from one
    math.log, so each row matches its value alone to the bit.
    """
    x = np.asarray(x)
    out = np.zeros(x.shape + (two_s + 1,))
    logs = np.array([log(v) if v > 0.0 else -inf for v in x.ravel().tolist()])
    out[..., 1:] = logs.reshape(x.shape + (1,)) * np.arange(1, two_s + 1)
    return out


def _coefficients(two_s: int, params: SplitterParams) -> np.ndarray:
    """sqrt(binom(n+l, n)) t^n (ir)^l at each (n, l), 0 where n + l > two_s.

    Shape (d, d) after any r2 axes, from one exponent, so nothing overflows:
    every modulus is at most 1, and a power of a zero t or r is exactly 0.
    """
    *_, half_lgf, total_lgf, i_l = _coefficient_table(two_s)
    log_t, log_r = _log_powers(np.array([params.t, params.r]), two_s) - half_lgf
    return np.exp(total_lgf + log_t[..., :, None] + log_r[..., None, :]) * i_l


def split_number_state(n: int, params: SplitterParams) -> BipartiteVector:
    """Beam splitter output for the input |n> (x) |0>, one per r2 cell.

    The output's square is p, k <= n: every amplitude off the shell
    p + k = n is zero.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    shell = _coefficient_table(n)[0]
    return BipartiteVector(n, np.where(shell == n, _coefficients(n, params), 0.0))


def split_phase_state(spec: StructureSpec, m, phi,
                      params: SplitterParams) -> BipartiteVector:
    """Beam splitter output for the input |m, phi> (x) |0>.

    Each |n> (x) |0> of the phase state scatters on its own shell p + k = n,
    so amp(p, k) = state[p + k] sqrt(binom(p+k, p)) t^p (ir)^k, and 0 where
    p + k > 2s.  Arrays give a stack of vectors: m, phi and r2 broadcast
    together, and amp has shape np.broadcast_shapes(m, phi, r2) + (d, d).
    """
    shell = _coefficient_table(spec.two_s)[0]
    state = phase_state(spec, m, phi)[..., shell]
    return BipartiteVector(spec.two_s, state * _coefficients(spec.two_s, params))


def reduced_density(b: BipartiteVector) -> np.ndarray:
    """Reduced state of the first mode by tracing out the second.

    With A = amp, one vector's square, rho = A A^H, i.e. rho[p, p'] =
    sum_k amp(p, k) conj(amp(p', k)).  The strict upper triangle is mirrored
    and the diagonal made real, so the result is Hermitian to the bit.  A stack of vectors gives a stack of
    matrices, shape (..., d, d); every vector must be normalised within
    NORM_TOL, which is checked on the trace of its rho, the squared norm.
    """
    full = b.amp @ b.amp.conj().swapaxes(-1, -2)
    n = np.arange(b.two_s + 1)
    diag = full[..., n, n].real
    nrm = np.sqrt(diag.sum(axis=-1))
    dev = np.abs(nrm - 1.0).max(initial=0.0)
    if not dev <= NORM_TOL:
        raise NotNormalizedError(f"a two-mode vector's norm is off 1 by {dev}")
    rho = np.where(n[:, None] < n, full, full.conj().swapaxes(-1, -2))
    rho[..., n, n] = diag
    return rho


def reduced_density_closed(spec: StructureSpec, m, phi,
                           params: SplitterParams) -> np.ndarray:
    """Reduced state assembled directly from transmission coefficients.

    c(n, l) = sqrt(binom(n+l, n)) q^{m(n+l)} t^n (ir)^l e^{-i F(n+l) phi}
    / sqrt(d) is the amplitude for transmitting n photons while l are
    reflected, zero where n + l > 2s; rho = c c^H, i.e.
    rho[n, n'] = sum_l c(n, l) conj(c(n', l)).

    m, phi and r2 broadcast together; the result has shape
    np.broadcast_shapes(m, phi, r2) + (d, d), one rho per cell.  The phase
    factor is formed once per (m, phi) and the weight once per r2.
    """
    phi = _finite_phases(phi)
    d = spec.dim
    shell = _coefficient_table(spec.two_s)[0]
    weight = _coefficients(spec.two_s, params) / sqrt(d)
    # q^{mk} e^{-i F(k) phi} for k = n + l
    amp = _root_powers(m, d) * np.exp(-1j * np.multiply.outer(phi, spec.levels[:d]))
    c = weight * amp[..., shell]
    return c @ c.conj().swapaxes(-1, -2)


def validate_density(rho: np.ndarray) -> None:
    """Raise InvalidDensityError unless rho is a density matrix.

    rho is one (d, d) matrix or a stack (..., d, d); every matrix of a
    stack must pass every check: Hermitian within HERM_TOL, trace 1 within
    TRACE_TOL, no eigenvalue below -PSD_TOL.  Positive semidefiniteness is
    certified by one batched Cholesky factorisation of rho + PSD_TOL I.
    """
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise InvalidDensityError(f"expected a square matrix, got {rho.shape}")
    # NaN passes the comparisons below and makes the factorisations raise.
    if not np.isfinite(rho).all():
        raise InvalidDensityError("matrix has non-finite entries")
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(initial=0.0)
    if herm > HERM_TOL:
        raise InvalidDensityError(f"not Hermitian: max deviation {herm}")
    tr_dev = np.abs(rho.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
    if tr_dev > TRACE_TOL:
        raise InvalidDensityError(f"trace is off 1 by {tr_dev}")
    # rho + PSD_TOL I has a Cholesky factor exactly when lambda_min > -PSD_TOL,
    # up to roundoff of about d eps; the spectrum is taken only on failure,
    # to name the eigenvalue or to accept a case on the border.
    try:
        np.linalg.cholesky(rho + PSD_TOL * np.eye(rho.shape[-1]))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(rho).min())
        if min_eig < -PSD_TOL:
            raise InvalidDensityError(f"negative eigenvalue {min_eig}") from None
