"""Sine integral Si and complementary exponential integral Ein.

Si(x)  = int_0^x sin(t)/t dt
Ein(z) = int_0^z (1 - e^-t)/t dt   (entire function)

Both take scalars or arrays (a scalar in gives a scalar out), rest on
scipy.special and numpy, and refuse a non-finite argument with
``ValueError``.  Si is the first output of ``sici``.  Ein is evaluated at
w = z or, for Im z < 0, at w = conj z (Schwarz reflection, exact), in one of
three regions:

  * |w| <= 1: the entire Taylor series summed to a fixed 30 terms, whose
    tail is below 1e-34 at |w| = 1.  There gamma + log(w) + E1(w) cancels
    (relative error ~1e-7 at |w| = 1e-8).
  * |w| > 50 and Re w >= -Im w / 4: gamma + log(w) + E1(w), with E1 the
    continued fraction (Abramowitz & Stegun 5.1.22)

      E1(w) = e^-w / (w + 1 - 1^2/(w + 3 - 2^2/(w + 5 - ...)))

    evaluated backward from a fixed depth of 8.  Every argument of the
    payoff formulas, z = t(-1/p + i) with p = pi 2^m >= 2 pi, lies in that
    sector, and almost all of them beyond |w| = 50.
  * elsewhere: gamma + log(w) + E1(w) with E1 = scipy's ``exp1``.

The fraction's error, against 40-digit mpmath and relative to |Ein|: at
most 6.8e-16 on 1500 random sector points per radius range (50, 200],
(200, 1000], (1000, 1e5], where the exp1 form shows 6.8e-16; 3.8e-16 on
200 angles from the real axis to the sector edge at |w| = 50 (exp1 form
4.0e-16); 6.1e-16 on Im Ein along the payoff ray, 400 points each for
m = 1, 3, 6, 8, 10, 12, both signs of t, 50 < |t| < 1e5 (exp1 form 4.4e-16).
Against the exp1 form on 400k random sector points per radius range it
stays within 1.8e-14; at the worst point both are ~1e-14 from mpmath,
where log(w) and E1(w) cancel.  Depth 8 already rounds at |w| = 50 on the
sector edge, but is 2.7e-13 off at |w| = 20; near the negative real axis
the fraction converges slowly (at w = -12 + 1i, depth 24 is 2.8e-5 off).
Spot checks beyond |w| = 50 outside the sector showed no loss; the gate
keeps the fraction to the region the evidence above covers.  Inside
|w| = 50 lie 2.4 % of the points of a benchmark ``reproduce`` cycle;
there exp1 costs less than deeper fractions on more radius bands, whose
fixed cost per call and per band dominates on the payoff's arrays of 1e3
to 4e3 points: a cycle's 161090 Ein points took 37 ms this way, 55 ms
with depths 24, 12, 8, 6, 4 on (8, 20], (20, 50], (50, 200], (200, 1000]
and beyond, and ~250 ms with exp1 alone (medians of 7 to 15 runs,
2-vCPU VM, one BLAS thread).

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
# The continued fraction's radius and depth: 8 terms reach rounding at
# |w| = 50 on the whole sector (module docstring)
_CF_RADIUS = 50.0
_CF_DEPTH = 8


def _finite(x, name: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} needs finite arguments, got {x[~np.isfinite(x)][0].item()!r}")
    return x


def _ein_fraction(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """gamma + log(w) + E1(w) with r = |w|, E1 by its continued fraction
    evaluated backward from ``_CF_DEPTH``.  In place and in real parts: a
    fresh temporary per operation, and the complex exp and log, each cost
    several times the arithmetic."""
    f = w + (2 * _CF_DEPTH + 1)
    for j in range(_CF_DEPTH, 0, -1):
        np.divide(-j * j, f, out=f)
        f += w
        f += 2 * j - 1
    x, y = w.real, w.imag
    e = np.exp(-x)
    out = np.empty_like(w)
    np.multiply(e, np.cos(y), out=out.real)
    np.multiply(e, -np.sin(y), out=out.imag)
    out /= f
    out.real += np.log(r) + EULER_GAMMA
    out.imag += np.arctan2(y, x)
    return out


def ein(z):
    """Complementary exponential integral Ein(z), entire in z."""
    scalar = np.isscalar(z)
    z = _finite(np.asarray(z, dtype=complex), "ein")
    # Schwarz reflection into the upper half plane (signed zeros included)
    # keeps ein(conj z) == conj(ein z) exact
    lower = np.signbit(z.imag)
    w = np.where(lower, np.conj(z), z)
    out = np.empty_like(w)
    r = np.abs(w)
    small = r <= 1.0
    frac = (r > _CF_RADIUS) & (4.0 * w.real >= -w.imag)
    rest = ~(small | frac)
    # Ein(z) = sum_n (-z)^n/n! * (-1/n), (-z)^n/n! as a running product;
    # the payoff's arrays mostly leave these two branches empty, skipped
    if small.any():
        out[small] = np.cumprod(w[small][:, None] / -_N, axis=1) @ (-1.0 / _N)
    if rest.any():
        out[rest] = EULER_GAMMA + np.log(w[rest]) + exp1(w[rest])
    out[frac] = _ein_fraction(w[frac], r[frac])
    out = np.where(lower, np.conj(out), out)
    return complex(out[()]) if scalar else out


def si(x):
    """Sine integral Si(x); odd, Si(x) -> pi/2 as x -> +inf."""
    out = sici(_finite(np.asarray(x, dtype=float), "si"))[0]
    return float(out) if np.isscalar(x) else out


def exp_sin_integral(a: float, b: float) -> float:
    """int_0^1 e^{-a t} sin(b t)/t dt, which equals Im Ein(a + i b)."""
    return ein(complex(a, b)).imag
