"""Sine integral Si and complementary exponential integral Ein.

Si(x)  = int_0^x sin(t)/t dt
Ein(z) = int_0^z (1 - e^-t)/t dt   (entire function)

Both take scalars or arrays (a scalar in gives a scalar out) and rest on
scipy.special: Si is the first output of ``sici`` and, for |z| > 1,
Ein(z) = gamma + log(z) + E1(z) with E1 = ``exp1``.  For |z| <= 1 that
identity cancels (relative error ~1e-7 at |z| = 1e-8), so there Ein is the
entire Taylor series summed to a fixed 30 terms, whose tail is below 1e-34
at |z| = 1.

Accuracy contract: si to 1e-14 absolute; ein to 1e-13 relative on
|Re z| <= 50, |Im z| <= 5000 and on the near-imaginary rays produced by the
payoff formulas, where |Im z| can reach ~1e5.
"""

from __future__ import annotations

import numpy as np
from scipy.special import exp1, sici

EULER_GAMMA = 0.57721566490153286060651209008240243104

# Taylor term indices n = 1..30; the tail beyond is below 1e-34 for |z| <= 1
_N = np.arange(1.0, 31.0)


def ein(z):
    """Complementary exponential integral Ein(z), entire in z."""
    scalar = np.isscalar(z)
    z = np.asarray(z, dtype=complex)
    # Schwarz reflection into the upper half plane (signed zeros included)
    # keeps ein(conj z) == conj(ein z) exact
    lower = np.signbit(z.imag)
    w = np.where(lower, np.conj(z), z)
    out = np.empty_like(w)
    big = np.abs(w) > 1.0
    wb, ws = w[big], w[~big]
    out[big] = EULER_GAMMA + np.log(wb) + exp1(wb)
    # Ein(z) = sum_n (-z)^n/n! * (-1/n), (-z)^n/n! as a running product
    out[~big] = np.cumprod(ws[:, None] / -_N, axis=1) @ (-1.0 / _N)
    out = np.where(lower, np.conj(out), out)
    return complex(out[()]) if scalar else out


def si(x):
    """Sine integral Si(x); odd, Si(x) -> pi/2 as x -> +inf."""
    out = sici(np.asarray(x, dtype=float))[0]
    return float(out) if np.isscalar(x) else out


def exp_sin_integral(a: float, b: float) -> float:
    """int_0^1 e^{-a t} sin(b t)/t dt, which equals Im Ein(a + i b)."""
    return ein(complex(a, b)).imag
