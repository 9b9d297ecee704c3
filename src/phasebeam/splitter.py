"""Lossless symmetric beam splitter with vacuum on the second input port.

A number state |n, 0> scatters into sum_p sqrt(binom(n, p)) t^p (ir)^{n-p}
|p, n-p> with t = cos(theta/2), r = sin(theta/2).  Total photon number is
conserved, so two-mode outputs live on the triangle p + k <= 2s and are
stored in a packed triangular layout.  Every amplitude of that triangle is
formed in one array expression: the square-root binomial and the powers of
t and r are summed as one exponent from the log-factorial table, which
keeps each weight at most 1 for any 2s, and the powers of i are exact
quarter turns.  The reduced state of the transmitted mode is available
through two independent routes: an explicit partial trace of the two-mode
vector, and direct assembly from the transmission coefficients c(n, l).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log, pi, sqrt

import numpy as np

from .algebra import StructureSpec
from .errors import InvalidDensityError, NotNormalizedError
from .numerics import ipow, log_factorials
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
    """Two-mode amplitudes on the triangle p + k <= two_s, packed flat.

    amp has shape (tri_size,) for one vector, or (..., tri_size) for a
    stack of vectors; get reads one vector.
    """

    two_s: int
    amp: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amp = np.ascontiguousarray(np.asarray(self.amp, dtype=complex))
        if amp.shape[-1:] != (tri_size(self.two_s),):
            raise ValueError(
                f"amplitude vector must have length {tri_size(self.two_s)}, "
                f"got {amp.shape}")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    def get(self, p: int, k: int) -> complex:
        return complex(self.amp[tri_index(self.two_s, p, k)])

    def norm(self) -> float | np.ndarray:
        """Euclidean norm, one per vector of a stack."""
        nrm = np.linalg.norm(self.amp, axis=-1)
        return float(nrm) if nrm.ndim == 0 else nrm


def _triangle(two_s: int) -> np.ndarray:
    """Mask of the pairs (p, k) with p + k <= two_s, shape (d, d).

    Its row-major order is tri_index order, so np.nonzero of it gives the
    (p, k) index arrays of the packed layout and a[mask] = amp unpacks it.
    """
    n = np.arange(two_s + 1)
    return n[:, None] + n <= two_s


def _log_powers(x: float, two_s: int) -> np.ndarray:
    """ln(x^j) for j = 0..two_s; at x = 0 that is 0, then -inf."""
    j = np.arange(two_s + 1)
    if x > 0.0:
        return j * log(x)
    return np.where(j == 0, 0.0, -np.inf)


def _triangle_weights(two_s: int, params: SplitterParams):
    """Shell p + k and weight sqrt(binom(p+k, p)) t^p (ir)^k of every pair.

    Both arrays run over the triangle in tri_index order.  The binomial and
    both powers are summed as one exponent, so nothing overflows: every
    weight has modulus at most 1, and a power of a zero t or r is exactly 0.
    """
    p, k = np.nonzero(_triangle(two_s))
    half_lgf = 0.5 * np.array(log_factorials(two_s))
    shell = p + k
    expo = (half_lgf[shell] + (_log_powers(params.t, two_s) - half_lgf)[p]
            + (_log_powers(params.r, two_s) - half_lgf)[k])
    return shell, np.exp(expo) * ipow(k)


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
    shell, weights = _triangle_weights(two_s, params)
    return BipartiteVector(two_s, np.where(shell == n, weights, 0.0))


def split_phase_state(spec: StructureSpec, m: int, phi,
                      params: SplitterParams) -> BipartiteVector:
    """Beam splitter output for the input |m, phi> (x) |0>.

    Each |n> (x) |0> of the phase state scatters on its own shell p + k = n,
    so amp(p, k) = state[p + k] sqrt(binom(p+k, p)) t^p (ir)^k.  An array
    phi gives a stack of vectors, amp of shape phi.shape + (tri_size,).
    """
    shell, weights = _triangle_weights(spec.two_s, params)
    return BipartiteVector(spec.two_s, phase_state(spec, m, phi)[..., shell] * weights)


def reduced_density(b: BipartiteVector, *, norm_tol: float = 1e-9) -> np.ndarray:
    """Reduced state of the first mode by tracing out the second.

    With the packed vector unpacked into A[p, k], zero outside the triangle,
    rho = A A^H, i.e. rho[p, p'] = sum_k amp(p, k) conj(amp(p', k)).  The
    strict upper triangle is mirrored and the diagonal made real, so the
    result is Hermitian to the bit.  A stack of vectors gives a stack of
    matrices, shape (..., d, d); every vector must be normalised, which is
    checked on the trace of its rho, the squared norm.
    """
    mask = _triangle(b.two_s)
    a = np.zeros(b.amp.shape[:-1] + mask.shape, dtype=complex)
    a[..., mask] = b.amp
    full = a @ a.conj().swapaxes(-1, -2)
    n = np.arange(b.two_s + 1)
    diag = full[..., n, n].real
    nrm = np.sqrt(diag.sum(axis=-1))
    worst = nrm.flat[np.abs(nrm - 1.0).argmax()]
    if abs(worst - 1.0) > norm_tol:
        raise NotNormalizedError(f"two-mode vector has norm {worst}")
    rho = np.where(n[:, None] < n, full, full.conj().swapaxes(-1, -2))
    rho[..., n, n] = diag
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
    # ln of sqrt(binom(n+l, n)) t^n r^l as one exponent, so nothing overflows
    half_lgf = 0.5 * np.array(log_factorials(spec.two_s))
    expo = (half_lgf[total] + (_log_powers(params.t, spec.two_s) - half_lgf)[:, None]
            + (_log_powers(params.r, spec.two_s) - half_lgf))
    weight = np.exp(np.where(inside, expo, -np.inf)) * ipow(k) / sqrt(d)
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
