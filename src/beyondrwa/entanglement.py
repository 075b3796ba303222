"""Concurrence of two qubits and sudden-death detection on time series.

For X-shaped states the Wootters concurrence reduces to two closed-form
branches,

    c1 = 2 (|rho23| - sqrt(rho11 rho44))
    c2 = 2 (|rho14| - sqrt(rho22 rho33))
    C  = max{0, c1, c2},

evaluated on the physical (already decayed) matrix elements.  The general
spin-flip construction is kept alongside as an independent oracle: the
square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy) in
decreasing order give C = max{0, l1 - l2 - l3 - l4}.

The integrated channel leaves ~1e-8 scale Hermiticity noise on evolved
matrices, so neither route reads a raw element: the X route symmetrizes the
six elements it reads (the diagonal, rho23 and rho14), the general oracle
the whole matrix.  That keeps the two routes within 1e-10 of each other
instead of inheriting the noise.  The X route takes a 4x4 state
(concurrence_xstate) or its diagonal and antidiagonal as 2x2 blocks
(concurrence_sectors, which concurrence_xstate calls).

The time-local generator is only approximately positive at strong coupling:
short transients can push diagonal elements slightly negative (worst case
about -2.5e-2 on the omega0 = 3 gamma preset).  The X-state branches clamp
the products under the square roots at zero and only reject inputs whose
diagonals are negative beyond a gross-error tolerance; the general oracle
is stricter and refuses any state whose spectrum dips below its tolerance.

Both concurrences take one 4x4 state or a stack with any leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, GridError, NegativeDiagonalError, NumericalError, ShapeError
from .lie_channel import check_grid
from .two_qubit import is_x_state, x_blocks

# gross-error guard of the X route: a population below -DIAG_TOL raises
DIAG_TOL = 0.1
# the general oracle refuses a state with an eigenvalue below -SPECTRUM_TOL
SPECTRUM_TOL = 1e-9

_SY2 = np.kron(np.array([[0.0, -1j], [1j, 0.0]]),
               np.array([[0.0, -1j], [1j, 0.0]])).real


@dataclass(frozen=True)
class ConcurrenceResult:
    """Clamped concurrence plus the two raw branches that fed the max.

    Floats for one state, arrays over the leading axes for a stack.
    """

    value: np.ndarray
    c1: np.ndarray
    c2: np.ndarray


def _states(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ShapeError(f"expected 4x4 matrices, got shape {rho.shape}")
    return rho


def _hermitian_part(rho: np.ndarray) -> np.ndarray:
    rho = _states(rho)
    return (rho + np.conj(np.swapaxes(rho, -1, -2))) / 2.0


def concurrence_sectors(diag: np.ndarray, anti: np.ndarray) -> ConcurrenceResult:
    """Closed-form concurrence from the two X-state blocks, each (..., 2, 2):
    the real populations diag = [[rho11, rho22], [rho33, rho44]] and
    anti = [[rho14, rho23], [rho32, rho41]], as two_qubit.evolve_xstate
    returns them.  rho23 and rho14 are symmetrized with conj(rho32) and
    conj(rho41).

    Populations below -DIAG_TOL raise NegativeDiagonalError; milder
    transient negativity is tolerated and the products under the square
    roots are clamped at zero.
    """
    if diag.size and diag.min() < -DIAG_TOL:
        raise NegativeDiagonalError(
            f"diagonal element {diag.min():.3g} below -{DIAG_TOL:g}"
        )
    r23 = (anti[..., 0, 1] + np.conj(anti[..., 1, 0])) / 2.0
    r14 = (anti[..., 0, 0] + np.conj(anti[..., 1, 1])) / 2.0
    c1 = 2.0 * (np.abs(r23) - np.sqrt(np.maximum(diag[..., 0, 0] * diag[..., 1, 1], 0.0)))
    c2 = 2.0 * (np.abs(r14) - np.sqrt(np.maximum(diag[..., 0, 1] * diag[..., 1, 0], 0.0)))
    return ConcurrenceResult(value=np.maximum(0.0, np.maximum(c1, c2)), c1=c1, c2=c2)


def concurrence_xstate(rho: np.ndarray) -> ConcurrenceResult:
    """Closed-form concurrence of an X-state or a stack of them (..., 4, 4):
    concurrence_sectors of its diagonal and antidiagonal."""
    rho = _states(rho)
    if not is_x_state(rho):
        raise ShapeError("closed-form branches require an exact X-state")
    return concurrence_sectors(*x_blocks(rho))


def concurrence_general(rho: np.ndarray):
    """Spin-flip concurrence of an arbitrary two-qubit state or a stack of
    them (..., 4, 4).

    Factors the Hermitian part as L L^dag through its eigensystem and takes
    singular values of L^dag (sy x sy) L*; those are the Wootters lambda_i.
    This stays stable where direct eigenvalues of the non-normal product
    rho rho~ lose half the working precision.

    A state that is not finite, or whose spectrum is negative beyond
    SPECTRUM_TOL, is refused: a single state raises NumericalError, a
    state in a stack reads NaN.
    """
    rho = _states(rho)
    finite = np.isfinite(rho).all(axis=(-2, -1))
    if finite.ndim == 0 and not finite:
        raise NumericalError("state is not finite")
    if not finite.all():
        # eigh cannot take them: zero states, refused below
        rho = np.where(finite[..., None, None], rho, 0.0)
    w, u = np.linalg.eigh(_hermitian_part(rho))
    refused = (w.min(axis=-1) < -SPECTRUM_TOL) | ~finite
    if refused.ndim == 0 and refused:
        raise NumericalError(
            f"state eigenvalue {w.min():.3g} below -{SPECTRUM_TOL:g}; "
            "not positive within tolerance"
        )
    lfac = u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    s = np.linalg.svd(np.swapaxes(lfac.conj(), -1, -2) @ _SY2 @ lfac.conj(),
                      compute_uv=False)
    c = np.maximum(0.0, s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3])
    return float(c) if c.ndim == 0 else np.where(refused, np.nan, c)


@dataclass(frozen=True)
class RevivalEpisode:
    """Maximal run of samples strictly above threshold after the first death."""

    t_start: float
    t_end: float
    t_peak: float
    peak: float


@dataclass(frozen=True)
class ESDReport:
    """Death and revival structure of one concurrence time series.

    death_time is the first sample time at which the value sits below
    threshold, or None if that never happens; episodes lists the revival
    intervals after that point in time order.
    """

    death_time: Optional[float]
    revived: bool
    episode_count: int
    max_revival: float
    episodes: Tuple[RevivalEpisode, ...]


def true_runs(mask: np.ndarray):
    """First and last index of every maximal run of True in a 1-d mask, as
    two index arrays in order."""
    edges = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1


def detect_esd(times: Sequence[float], values: Sequence[float],
               threshold: float = 1e-6) -> ESDReport:
    """Locate entanglement sudden death and any revivals in a sampled curve.

    Grid semantics: death is the first sample with value < threshold;
    a revival episode is a maximal run of consecutive samples strictly above
    threshold occurring after that sample.  The times follow check_grid's
    rules, are finite, and there are at least three of them, one per value.
    """
    if threshold <= 0.0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    t = check_grid(times)
    if not np.all(np.isfinite(t)):
        raise GridError("times must be finite")
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise GridError("times and values must be the same length")
    if t.size < 3:
        raise GridError(f"need at least 3 samples, got {t.size}")

    below = np.flatnonzero(v < threshold)
    if below.size == 0:
        return ESDReport(death_time=None, revived=False, episode_count=0,
                         max_revival=0.0, episodes=())
    i0 = int(below[0])

    starts, ends = true_runs(v[i0 + 1:] > threshold)
    records = []
    for a, b in zip((starts + i0 + 1).tolist(), (ends + i0 + 1).tolist()):
        k = a + int(np.argmax(v[a:b + 1]))
        records.append(RevivalEpisode(t_start=float(t[a]), t_end=float(t[b]),
                                      t_peak=float(t[k]), peak=float(v[k])))
    max_rev = max((r.peak for r in records), default=0.0)
    return ESDReport(
        death_time=float(t[i0]),
        revived=bool(records),
        episode_count=len(records),
        max_revival=max_rev,
        episodes=tuple(records),
    )
