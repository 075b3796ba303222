"""Exact decoherence of qubits in Lorentzian vacuum reservoirs, beyond the
rotating-wave approximation.

Typical use: compute the single-qubit channel once per parameter set, then
reuse its time-major coefficient arrays across initial states.  propagate
takes fixed Magnus steps on the two linear sectors, and every command but
verify uses it; integrate is the paper's Wei-Norman route, adaptive, and
verify checks it against the direct route.

    from beyondrwa import (BathParams, propagate, BellFamilyState,
                           initial_state, evolve_pair, concurrence_xstate)

    p = BathParams(omega0=10.0, gamma=1.0, lam=10.0)
    series = propagate(p, times)          # a ChannelSeries over times
    rho0 = initial_state(BellFamilyState("phi", 0.5 ** 0.5))
    curve = concurrence_xstate(evolve_pair(series, rho0)).value
"""

import os

# OpenBLAS worker threads busy-wait for 2^28 cycles (about 0.13 s at
# 2.1 GHz) after they start and after each job, before they sleep.  Nothing
# is queued for them at start-up, so with no SciPy import to hide it that
# spin ran beside the first tens of milliseconds of every command.  2^24
# cycles (about 8 ms) ends it long before a command runs.  A caller's own
# setting is kept; this acts only before NumPy (or SciPy) first loads
# OpenBLAS.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "24")

from .entanglement import (ConcurrenceResult, ESDReport, RevivalEpisode,
                           concurrence_general, concurrence_sectors,
                           concurrence_xstate, detect_esd)
from .errors import (BeyondRwaError, DomainError, GridError, IoError,
                     NegativeDiagonalError, NumericalError, ShapeError,
                     ToleranceError)
from .kernels import (BathParams, CoefficientSet, alpha, alpha1, alpha2,
                      alpha_tilde, coefficients, decay_exponent,
                      spectral_density)
from .lie_channel import (ChannelSeries, IntegratorSettings, apply_channel,
                          channel_at, integrate, propagate, transfer_matrix)
from .two_qubit import (BellFamilyState, evolve_pair, evolve_xstate,
                        explicit_elements, initial_state, is_x_state)

__version__ = "0.1.0"

__all__ = [
    "BathParams", "CoefficientSet", "spectral_density", "alpha1", "alpha2",
    "alpha", "alpha_tilde", "decay_exponent", "coefficients",
    "IntegratorSettings", "ChannelSeries", "integrate", "propagate", "channel_at",
    "apply_channel", "transfer_matrix",
    "BellFamilyState", "initial_state", "evolve_pair", "evolve_xstate",
    "explicit_elements", "is_x_state",
    "ConcurrenceResult", "concurrence_xstate", "concurrence_sectors",
    "concurrence_general",
    "RevivalEpisode", "ESDReport", "detect_esd",
    "BeyondRwaError", "DomainError", "ShapeError", "GridError",
    "ToleranceError", "NumericalError",
    "NegativeDiagonalError", "IoError",
    "__version__",
]
