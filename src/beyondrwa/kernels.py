"""Bath correlation kernels and time-local master-equation coefficients.

A two-level atom with transition frequency omega0 couples to a vacuum
reservoir whose coupling spectrum is a Lorentzian of width gamma and
strength lam centered on the atomic line,

    J(w) = (1/2pi) * lam * gamma^2 / ((w - omega0)^2 + gamma^2),

so the reservoir memory time is 1/gamma.  Two correlation integrals of J
drive everything downstream: the rotating part

    alpha1(t) = int J(w) e^{-i(w-omega0)t} dw = (gamma lam / 2) e^{-gamma t}

and the counter-rotating part

    alpha2(t) = int J(w) e^{+i(w+omega0)t} dw
              = (gamma lam / 2) e^{(-gamma + 2i omega0) t},

which has the same envelope but oscillates at twice the atomic frequency.
The time-local generator is built from running integrals of these kernels:

    f(t)     = 1 - e^{-gamma t}
    alpha(t) = (1 - e^{-(gamma + 2i omega0) t}) / (gamma + 2i omega0)
    F(t)     = int_0^t f(s) ds = t - f(t)/gamma
    alpha~   = int_0^t alpha(s) ds = (t - alpha(t)) / (gamma + 2i omega0)
    Gamma_k  = lam (gamma alpha~^R + F) / 2

All functions here are pure closed forms of (t, params) that take a float or
an array of times; their independent quadrature checks live in the oracle
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class BathParams:
    """Atom frequency and Lorentzian reservoir parameters, one shared unit.

    omega0: atomic transition frequency
    gamma:  spectral width of the Lorentzian (inverse memory time)
    lam:    coupling-strength parameter
    """

    omega0: float
    gamma: float
    lam: float

    def __post_init__(self):
        values = (self.omega0, self.gamma, self.lam)
        if not all(v > 0 and math.isfinite(v) for v in values):
            raise DomainError(
                f"bath parameters must be positive and finite, got "
                f"omega0={self.omega0}, "
                f"gamma={self.gamma}, lam={self.lam}"
            )


class CoefficientSet(NamedTuple):
    """The five generator coefficients at one instant or over an array of times.

    Each field has the shape of the times it was evaluated at, also where
    it does not depend on them: a scalar at one float time, an array over
    an array of times.

    eps0 and eps_plus drive the coherence sector; nu0, nu_plus, nu_minus
    drive the population sector and are real.  eps- is not stored: the
    generator preserves Hermiticity, so eps- = conj(eps_plus), and each
    route forms it where it reads it.  nu_minus = lam*f(t) is nonnegative, but
    nu_plus = lam*gamma*alpha^R oscillates below zero transiently on all
    presets; it is a genuinely sign-indefinite non-Markovian rate.
    """

    eps0: complex
    eps_plus: complex
    nu0: float
    nu_plus: float
    nu_minus: float


def spectral_density(omega: float, p: BathParams) -> float:
    """Lorentzian coupling spectrum J(omega); total function, peak lam/2pi."""
    return (p.lam * p.gamma**2 / (2.0 * math.pi)) / (
        (omega - p.omega0) ** 2 + p.gamma**2
    )


def alpha1(t, p: BathParams):
    """Rotating-part correlation kernel; real-valued, returned complex."""
    return (p.gamma * p.lam / 2.0) * np.exp(-p.gamma * t) + 0j


def alpha2(t, p: BathParams):
    """Counter-rotating correlation kernel; same modulus as alpha1."""
    return (p.gamma * p.lam / 2.0) * np.exp((-p.gamma + 2j * p.omega0) * t)


def f(t, p: BathParams):
    """Running integral of the alpha1 envelope: 1 - e^{-gamma t}."""
    # expm1 keeps small-t values accurate where the propagator is near identity
    return -np.expm1(-p.gamma * t)


def big_f(t, p: BathParams):
    """F(t) = t - f(t)/gamma; grows ~ gamma t^2 / 2 at small t."""
    return t - f(t, p) / p.gamma


def alpha(t, p: BathParams):
    """Running integral of the counter-rotating kernel shape.

    alpha(t) = int_0^t e^{-(gamma + 2i omega0)s} ds; tends to
    1/(gamma + 2i omega0) for t >> 1/gamma.
    """
    c = p.gamma + 2j * p.omega0
    # complex expm1 keeps 1 - e^{-ct} free of cancellation at tiny t
    return -np.expm1(-c * t) / c


def alpha_tilde(t, p: BathParams):
    """int_0^t alpha(s) ds = (t - alpha(t)) / (gamma + 2i omega0); about
    t^2/2 at small t, with a relative error of order
    eps/(|gamma + 2i omega0| t) from the difference.

    Real part grows linearly with slope gamma/(gamma^2 + 4 omega0^2) once the
    e^{-gamma t} transient has died; imaginary part with slope
    -2 omega0/(gamma^2 + 4 omega0^2).
    """
    return (t - alpha(t, p)) / (p.gamma + 2j * p.omega0)


def decay_exponent(t, p: BathParams):
    """Global decay exponent Gamma_k(t) = lam (gamma alpha~^R + F)/2, real.

    Asymptotic slope (lam/2)(1 + gamma^2/(gamma^2 + 4 omega0^2)).
    """
    return p.lam * (p.gamma * alpha_tilde(t, p).real + big_f(t, p)) / 2.0


def coefficients(t, p: BathParams) -> CoefficientSet:
    """All five generator coefficients at time t, or at every time of an array.

    At t=0 this is (eps0=-2i omega0, all others zero): the free rotation
    alone.  The sector decay rate Gamma_k' = lam (gamma alpha^R + f)/2 is not
    stored here; it equals (nu_plus + nu_minus)/2 identically.
    """
    a = alpha(t, p)
    ft = f(t, p)
    return CoefficientSet(
        eps0=-1j * (2.0 * p.omega0 - p.lam * p.gamma * a.imag),
        eps_plus=p.lam * (p.gamma * a + ft) / 2.0,
        nu0=p.lam * (p.gamma * a.real - ft),
        nu_plus=p.lam * p.gamma * a.real,
        nu_minus=p.lam * ft,
    )
