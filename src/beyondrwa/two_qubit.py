"""Two independent qubits in separate reservoirs: initial states and evolution.

Both qubits see identical baths, so the joint map is the tensor square of
the single-qubit channel.  The joint basis is ordered |11>, |10>, |01>, |00>
(first label = qubit A), indices 0..3.  Initial states come from two
one-parameter families of pure states,

    Phi: beta |01> + eta |10>      (one shared excitation)
    Psi: beta |00> + eta |11>      (zero or two excitations)

with beta real in (0,1) and eta = sqrt(1-beta^2) e^{i phase}; initial_states
builds a whole stack of them at once.  Both families produce X-shaped
density matrices, and the X sparsity pattern is preserved exactly by the
evolution.

Evolution takes a ChannelSeries and returns one matrix per time (a leading
time axis); evolve_pair also takes a stack of initial states.  A product of
identical local channels maps X states to X states, and on them it acts on
two 2x2 blocks apart: the populations D = [[rho11, rho22], [rho33, rho44]]
evolve as P D P^T and the antidiagonal A = [[rho14, rho23], [rho32, rho41]]
as C A C^T, with the single-qubit P = [[l, m], [p, n]] and
C = [[x, y], [r, q]] (1-based element labels).  evolve_xstate takes that
route; evolve_pair is the general one.  A caller that evolves one stack
through many blocks of times builds P and C (sector_maps) and reads the
stack's blocks (sector_blocks) once, and evolves them per block of times
(evolve_sectors).
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import DomainError, ShapeError
from .lie_channel import ChannelSeries, transfer_matrix

# elements an X-state must leave empty: all but the diagonal and antidiagonal
_NON_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


# the amplitude slots (beta, eta) of each family in the joint basis
_SLOTS = {"phi": (2, 1),   # beta |01> + eta |10>
          "psi": (3, 0)}   # beta |00> + eta |11>


def _check_state(family: str, beta: np.ndarray, eta_phase: float) -> None:
    """DomainError unless family is "phi" or "psi", every beta lies in the
    open interval (0, 1) and eta_phase is finite."""
    if family not in _SLOTS:
        raise DomainError(f"family must be 'phi' or 'psi', got {family!r}")
    bad = ~((0.0 < beta) & (beta < 1.0))
    if bad.any():
        raise DomainError(f"beta must lie in (0,1), got {float(beta[bad].flat[0])}")
    if not math.isfinite(eta_phase):
        raise DomainError(f"eta_phase must be finite, got {eta_phase:g}")


@dataclass(frozen=True)
class BellFamilyState:
    """One member of the Phi or Psi family.

    family: "phi" or "psi"
    beta:   real amplitude, open interval (0,1)
    eta_phase: phase of the second amplitude (radians)
    """

    family: str
    beta: float
    eta_phase: float = 0.0

    def __post_init__(self):
        _check_state(self.family, np.asarray(self.beta, dtype=float), self.eta_phase)


def initial_states(family: str, beta, eta_phase: float = 0.0) -> np.ndarray:
    """Pure-state density matrices |xi><xi| in the joint basis, one per
    real amplitude of beta (a float or an array), shape beta.shape + (4, 4).

    Raises DomainError for a family other than "phi" or "psi", a beta
    outside (0, 1) or a phase that is not finite.
    """
    beta = np.asarray(beta, dtype=float)
    _check_state(family, beta, eta_phase)
    mag = np.sqrt(1.0 - beta * beta)
    cos, sin = math.cos(eta_phase), math.sin(eta_phase)
    v = np.zeros(beta.shape + (4,), dtype=complex)
    b, e = _SLOTS[family]
    v.real[..., b] = beta
    # eta = (mag + 0j)(cos + i sin) part by part, as Python's complex
    # product forms it: NumPy's may fuse a multiply-add, and an imaginary
    # part that underflows would then keep the sign of -0.0
    v.real[..., e] = mag * cos - 0.0 * sin
    v.imag[..., e] = mag * sin + 0.0 * cos
    vc = v.conj()
    rho = np.empty(beta.shape + (4, 4), dtype=complex)
    # one product per element: one broadcast product over the whole stack
    # goes through NumPy's iterator buffers, 256 kB for 501 states
    for i in range(4):
        for j in range(4):
            np.multiply(v[..., i], vc[..., j], out=rho[..., i, j])
    return rho


def initial_state(s: BellFamilyState) -> np.ndarray:
    """Pure-state density matrix |xi><xi| of one member, shape (4, 4)."""
    return initial_states(s.family, s.beta, s.eta_phase)


def _pair_shuffle(a: np.ndarray, lead: tuple) -> np.ndarray:
    # reorder the qubit indices (a,b,a',b') -> (a,a',b,b') after the leading
    # axes, so kron(T,T) acts per qubit; the shuffle is its own inverse
    return a.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2)


def evolve_pair(series: ChannelSeries, rho0: np.ndarray) -> np.ndarray:
    """Evolve joint density matrices through identical local channels.

    rho0 is one 4x4 state or a stack (S, 4, 4); the result has shape
    (T, 4, 4) or (T, S, 4, 4).  Authoritative route: (T x T) on the
    vectorized state, T the single-qubit transfer matrix.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape[-2:] != (4, 4) or rho0.ndim > 3:
        raise ShapeError(f"joint state must be 4x4 or a stack of them, got {rho0.shape}")
    tm = transfer_matrix(series)
    kron = (tm[:, :, None, :, None] * tm[:, None, :, None, :]).reshape(-1, 16, 16)
    vec = _pair_shuffle(rho0, rho0.shape[:-2]).reshape(rho0.shape[:-2] + (16,))
    out = kron @ vec.T                       # (T, 16) or (T, 16, S)
    if rho0.ndim == 3:
        out = out.swapaxes(1, 2)
    return _pair_shuffle(out, out.shape[:-1]).reshape(out.shape[:-1] + (4, 4))


def x_blocks(rho: np.ndarray):
    """The real part of the diagonal and the antidiagonal of 4x4 states
    (..., 4, 4) as the 2x2 blocks D = [[rho11, rho22], [rho33, rho44]] and
    A = [[rho14, rho23], [rho32, rho41]], each (..., 2, 2)."""
    i = np.arange(4)
    blocks = rho.shape[:-2] + (2, 2)
    return np.real(rho[..., i, i]).reshape(blocks), rho[..., i, i[::-1]].reshape(blocks)


def _sector_square(k: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """k D0 k^T for every time of k, shape (2, 2, T), and every block of
    v0, shape (S, 4) (the 2x2 blocks D0 raveled): (2, 2, T, S)."""
    # (k x k)[2i+j, 2a+b] = k[i, a] k[j, b], time last.  Elementwise sums
    # over (T, S) planes, not a BLAS product: threaded OpenBLAS spent
    # milliseconds on a complex 1024-time block that one thread does in
    # microseconds
    kk = (k[:, None, :, None] * k[None, :, None, :]).reshape(4, 4, -1, 1)
    out = kk[:, 0] * v0[:, 0]
    for j in range(1, 4):
        out += kk[:, j] * v0[:, j]
    return out.reshape((2, 2) + out.shape[1:])


def sector_blocks(rho0s: np.ndarray):
    """The X blocks of a stack rho0s of shape (S, 4, 4), raveled for
    evolve_sectors: the real populations D0 (S, 4) and the antidiagonal
    A0 (S, 4) (see x_blocks).

    Raises ShapeError unless rho0s is a stack of exact X states.
    """
    rho0s = np.asarray(rho0s, dtype=complex)
    if rho0s.ndim != 3 or rho0s.shape[1:] != (4, 4):
        raise ShapeError(f"expected a stack of 4x4 joint states, got {rho0s.shape}")
    if not is_x_state(rho0s):
        raise ShapeError("sector evolution requires exact X-state inputs")
    d0, a0 = x_blocks(rho0s)
    return d0.reshape(-1, 4), a0.reshape(-1, 4)


def sector_maps(series: ChannelSeries):
    """The single-qubit maps of the two X sectors, P = [[l, m], [p, n]]
    and C = [[x, y], [r, q]], each of shape (2, 2, T) with time last: for
    evolve_sectors, whole or sliced along time."""
    return (np.array([[series.l, series.m], [series.p, series.n]]),
            np.array([[series.x, series.y], [series.r, series.q]]))


def evolve_sectors(pop: np.ndarray, coh: np.ndarray, d0: np.ndarray, a0: np.ndarray):
    """D = P D0 P^T and A = C A0 C^T, as two (T, S, 2, 2) arrays, for the
    maps (pop, coh) = (P, C) of sector_maps and the blocks (d0, a0) of
    sector_blocks."""
    diag = _sector_square(pop, d0)
    anti = _sector_square(coh, a0)
    # views with time and state leading; each element's (T, S) plane stays
    # contiguous for the concurrence that reads it
    return diag.transpose(2, 3, 0, 1), anti.transpose(2, 3, 0, 1)


def evolve_xstate(series: ChannelSeries, rho0s: np.ndarray):
    """The populations and the antidiagonal of X states through identical
    local channels, as two (T, S, 2, 2) arrays (D, A) for a stack rho0s of
    shape (S, 4, 4): D = P D0 P^T from the real part of the diagonal, and
    A = C A0 C^T (see the module docstring).  These are the X elements of
    evolve_pair(series, rho0s), without the twelve that stay zero.

    Raises ShapeError unless rho0s is a stack of exact X states.
    """
    return evolve_sectors(*sector_maps(series), *sector_blocks(rho0s))


def is_x_state(rho: np.ndarray) -> bool:
    """True when every element outside the diagonal+antidiagonal X pattern
    is exactly zero (NaN is not), in every matrix of a stack (..., 4, 4)."""
    return not np.asarray(rho)[..., _NON_X].any()


def explicit_elements(series: ChannelSeries, rho0: np.ndarray) -> np.ndarray:
    """Element-by-element closed forms for the X-state sector, shape (T, 4, 4).

    Cross-check surface only; evolve_pair is authoritative.  The tabulation
    is kept verbatim, including the rho22 cross weight l*m where the tensor
    square yields l*n, so the two routes differ on that single element by
    exactly (l*n - l*m) * rho22(0).  Tests pin that gap.

    Raises ShapeError when rho0 is not an X-state.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ShapeError(f"joint state must be 4x4, got {rho0.shape}")
    if not is_x_state(rho0):
        raise ShapeError("explicit element formulas require an exact X-state input")

    l, m, n, p = series.l, series.m, series.n, series.p
    x, y, q, r = series.x, series.y, series.q, series.r
    d11, d22, d33, d44 = rho0[0, 0], rho0[1, 1], rho0[2, 2], rho0[3, 3]
    o14, o23, o32, o41 = rho0[0, 3], rho0[1, 2], rho0[2, 1], rho0[3, 0]

    out = np.zeros((len(series), 4, 4), dtype=complex)
    out[:, 0, 0] = l * l * d11 + l * m * d22 + m * l * d33 + m * m * d44
    out[:, 1, 1] = l * p * d11 + l * m * d22 + m * p * d33 + m * n * d44
    out[:, 2, 2] = l * p * d11 + p * m * d22 + n * l * d33 + n * m * d44
    out[:, 3, 3] = p * p * d11 + p * n * d22 + n * p * d33 + n * n * d44
    out[:, 0, 3] = x * x * o14 + x * y * o23 + y * x * o32 + y * y * o41
    out[:, 1, 2] = x * r * o14 + x * q * o23 + y * r * o32 + y * q * o41
    out[:, 2, 1] = r * x * o14 + r * y * o23 + q * x * o32 + q * y * o41
    out[:, 3, 0] = r * r * o14 + r * q * o23 + q * r * o32 + q * q * o41
    return out
