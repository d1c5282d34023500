"""Sine integral Si and complementary exponential integral Ein.

Si(x)  = int_0^x sin(t)/t dt
Ein(z) = int_0^z (1 - e^-t)/t dt   (entire function)

Both take scalars or arrays (a scalar in gives a scalar out), rest on numpy
alone, and refuse a non-finite argument with ``ValueError``.  Every region
below is a few array calls on all of its points at once (a running-product
table of the terms and one sum per row, or a fixed quadrature rule), so an
array's values are bit for bit those of its elements taken one by one.

Ein is evaluated at w = z or, for Im z < 0, at w = conj z (Schwarz
reflection, exact).  Its regions are set by s = |w| + Re w =
2|w| cos^2(arg w / 2): the Taylor series loses about e^s to cancellation,
and the continued fraction for E1 converges at a rate set by s.

  * s <= 3 and |w| <= 45: the entire Taylor series, 128 terms.
  * s <= 3 and |w| > 45, a sliver along the negative real axis outside the
    contract box: gamma + log(w) + E1(w), E1 by its asymptotic series
    e^-w/w sum_k (-1)^k k!/w^k, 45 terms.
  * 3 < s <= 200: gamma + log(w) + E1(w), E1(w) = e^-w int_0^inf
    e^-u/(u + w) du by the 64-point Gauss-Laguerre rule less its 31 nodes
    of weight below 1e-19 (the nodes and weights below were computed by
    Newton's method on L_64 in 40-digit mpmath and rounded).
  * s > 200: gamma + log(w) + E1(w), E1 by the continued fraction
    (Abramowitz & Stegun 5.1.22), which is the Gauss-Laguerre rule of its
    depth,

      E1(w) = e^-w / (w + 1 - 1^2/(w + 3 - 2^2/(w + 5 - ...))),

    evaluated backward from depth 3: against 30-digit mpmath it is at
    rounding from s = 200, depth 4 from s = 80 and depth 8 from s = 24.
    The payoff formulas' arguments z = t(-1/p + i), p = pi 2^m >= 2 pi,
    have s >= 0.84|z|; 91 % of those in a benchmark ``reproduce`` cycle
    have s > 200.

Si is odd; on |x|:

  * |x| <= 3: the Taylor series, 15 terms.
  * 3 < |x| <= 128: pi/2 - f(x) cos x - g(x) sin x with the auxiliary
    functions f = x sum_i l_i/(u_i^2 + x^2), g = sum_i l_i u_i/(u_i^2 + x^2)
    by the Laguerre rule of Ein (Si(x) = pi/2 + Im E1(ix), so s = |x|).
  * |x| > 128: the same with f and g by their asymptotic series
    f = sum_n (-1)^n (2n)!/x^(2n+1), g = sum_n (-1)^n (2n+1)!/x^(2n+2),
    6 terms each.

cos and sin come from ``transform._cis``, the package's one e^{ix} kernel,
by t = tan(x/2).

Maximum errors against 40-digit mpmath, relative to |Ein| and absolute for
Si, next to scipy.special's on the same points (gamma + log w + ``exp1``,
and ``sici``):

    region                        points   this module   scipy
    Ein Taylor                     11003     3.0e-15     4.4e-13 (a)
    Ein asymptotic                    95     5.0e-16     6.1e-16
    Ein Laguerre                   17548     1.8e-15     3.1e-15
    Ein fraction                    9538     8.4e-16     1.2e-15
    Si Taylor                        294     3.9e-16     5.5e-16
    Si Laguerre                     1513     3.0e-16     6.0e-16
    Si asymptotic                   2742     2.7e-16     2.7e-16

    (a) gamma + log w + E1(w) cancels as w -> 0

The Ein points: seeded draws on the contract box (and on its strips
|Im z| <= 100 and |z| <= 5), both sides of every region edge (s = 3, 30
and 200; |w| = 45 within s <= 3), the payoff rays for m = 1..12 and both
signs of t (|t| from 1e-3 to 1e5, Re z >= -700), and the points of
``test_crossover_continuity``.  The Si points: seeded draws on [-1e5, 1e5],
[-200, 200] and [-6, 6], both sides of |x| = 3 and 128 at distances 1e-12
to 0.1, and 0, 1e-300, +-1e5, 1e10 and 1e300.

Accuracy contract: si to 1e-14 absolute; ein to 1e-13 relative on
|Re z| <= 50, |Im z| <= 5000 and on the near-imaginary rays produced by the
payoff formulas, where |Im z| can reach ~1e5.
"""

from __future__ import annotations

import math

import numpy as np

from .transform import _cis

EULER_GAMMA = 0.57721566490153286060651209008240243104

# Region bounds (module docstring): s = |w| + Re w, or |x| for Si
_SERIES_S = 3.0
_TAYLOR_R = 45.0
_FRACTION_S = 200.0
_SI_ASYM_X = 128.0
_CF_DEPTH = 3
# Taylor term indices of Ein and Si, and k of Ein's asymptotic series
_EIN_N = np.arange(1.0, 129.0)
_SI_N = np.arange(1.0, 15.0)
_SI_RATIO, _SI_ODD = 2.0 * _SI_N * (2.0 * _SI_N + 1.0), 2.0 * _SI_N + 1.0
_ASYM_K = np.arange(1.0, 45.0)
# Si's asymptotic coefficients (-1)^n (2n)! of f x and (-1)^n (2n+1)! of
# g x^2, n = 5..0 for Horner's rule
_SI_F = [(-1.0) ** n * math.factorial(2 * n) for n in range(5, -1, -1)]
_SI_G = [(-1.0) ** n * math.factorial(2 * n + 1) for n in range(5, -1, -1)]
# the truncated 64-point Gauss-Laguerre rule: nodes u_i, weights l_i
_LAG_U = np.array([
    0.02241587414670528, 0.11812251209677048, 0.2903657440180365, 0.5392862212279791,
    0.865037004648114, 1.2678140407752414, 1.7478596260594363, 2.3054637393075086,
    2.9409651567252517, 3.6547526502072905, 4.447266343313094, 5.31899925449639,
    6.270499046923654, 7.302370002587396, 8.415275239483025, 9.609939192796109,
    10.887150383886372, 12.247764504244302, 13.692707845547504, 15.222981111524728,
    16.83966365264874, 18.54391817085919, 20.336995948730234, 22.220242665950877,
    24.195104875933254, 26.263137227118484, 28.426010527501028, 30.685520767525972,
    33.04359923643783, 35.50232389114121, 38.06393216564647, 40.73083544445863,
    43.50563546642153])
_LAG_L = np.array([
    0.05625284233902984, 0.11902398731242603, 0.15749640386214453, 0.16754705041577395,
    0.15335285577923663, 0.12422105360932975, 0.09034230098648506,
    0.059477755768355026, 0.03562751890403607, 0.019480410431166405,
    0.009743594899382002, 0.004464310364166275, 0.001875359581323115,
    0.0007226469815750052, 0.0002554875328334967, 8.287143534396942e-05,
    2.465686396788559e-05, 6.726713878829669e-06, 1.681785369964089e-06,
    3.8508129815466843e-07, 8.0687280409905e-08, 1.5457237067576888e-08,
    2.7044801476174814e-09, 4.316775475427201e-10, 6.277752541761453e-11,
    8.306317376288958e-12, 9.984031787220164e-13, 1.0883538871166626e-13,
    1.0740174034415902e-14, 9.575737231574442e-16, 7.697028023648586e-17,
    5.564881137454026e-18, 3.6097564090104467e-19])
_LAG_U2 = _LAG_U * _LAG_U
_LAG_LU = np.stack([_LAG_L, _LAG_L * _LAG_U])


def _finite(x, name: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} needs finite arguments, got {x[~np.isfinite(x)][0].item()!r}")
    return x


def _ein_e1(w: np.ndarray, r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """gamma + log(w) + e^-w / f with r = |w|: Ein(w) when f = e^-w/E1(w).
    In place and in real parts: a fresh temporary per operation, and the
    complex exp and log, each cost several times the arithmetic."""
    x, y = w.real, w.imag
    e = np.exp(-x)
    out = _cis(-y)
    out.real *= e
    out.imag *= e
    out /= f
    out.real += np.log(r) + EULER_GAMMA
    out.imag += np.arctan2(y, x)
    return out


def _e1_fraction(w: np.ndarray) -> np.ndarray:
    """e^-w / E1(w) by the continued fraction, backward from ``_CF_DEPTH``."""
    f = w + (2 * _CF_DEPTH + 1)
    for j in range(_CF_DEPTH, 0, -1):
        np.divide(-j * j, f, out=f)
        f += w
        f += 2 * j - 1
    return f


def _e1_asymptotic(w: np.ndarray) -> np.ndarray:
    """e^-w / E1(w) = w / sum_k (-1)^k k!/w^k, the terms a running product."""
    return w / (1.0 + np.add.reduce(np.multiply.accumulate(-_ASYM_K / w[:, None], axis=1), axis=1))


def _e1_laguerre(w: np.ndarray) -> np.ndarray:
    """e^-w / E1(w) = 1 / sum_i l_i/(u_i + w), the Gauss-Laguerre rule."""
    d = np.add.outer(w, _LAG_U)
    return 1.0 / np.einsum("ij,j->i", np.reciprocal(d, out=d), _LAG_L)


def ein(z):
    """Complementary exponential integral Ein(z), entire in z."""
    scalar = np.isscalar(z)
    z = _finite(np.asarray(z, dtype=complex), "ein")
    # Schwarz reflection into the upper half plane (signed zeros included)
    # keeps ein(conj z) == conj(ein z) exact
    w = z.flatten()
    lower = np.signbit(w.imag)
    np.negative(w.imag, out=w.imag, where=lower)
    r = np.abs(w)
    s = r + w.real
    near = np.flatnonzero(s <= _FRACTION_S)
    v, rv, sv = w[near], r[near], s[near]
    series = sv <= _SERIES_S
    taylor = series & (rv <= _TAYLOR_R)
    with np.errstate(all="ignore"):  # Taylor points pass through E1 too, then are replaced
        # f = e^-w/E1(w): the depth-3 fraction, replaced where s is too small
        f = _e1_fraction(w)
        for band, e1 in ((series & ~taylor, _e1_asymptotic), (~series, _e1_laguerre)):
            if np.count_nonzero(band):
                f[near[band]] = e1(v[band])
        out = _ein_e1(w, r, f)
    if np.count_nonzero(taylor):
        # Ein(w) = -sum_n (-w)^n/n! / n, (-w)^n/n! as a running product
        t = np.multiply.accumulate(np.divide.outer(v[taylor], -_EIN_N), axis=1)
        t /= -_EIN_N
        out[near[taylor]] = np.add.reduce(t, axis=1)
    np.negative(out.imag, out=out.imag, where=lower)
    return complex(out[0]) if scalar else out.reshape(z.shape)


def si(x):
    """Sine integral Si(x); odd, Si(x) -> pi/2 as x -> +inf."""
    scalar = np.isscalar(x)
    x = _finite(np.asarray(x, dtype=float), "si")
    a = np.abs(x.ravel())
    near = a <= _SI_ASYM_X
    if near.all():
        f, g = np.empty((2,) + a.shape)
    else:
        # f x and g x^2 by Horner's rule in 1/x^2 on every point, |x|
        # clamped to the asymptotic band; the Laguerre rule then overwrites
        # the points below it
        q = 1.0 / np.maximum(a, _SI_ASYM_X)
        u = q * q
        f, g = np.full(a.shape, _SI_F[0]), np.full(a.shape, _SI_G[0])
        for cf, cg in zip(_SI_F[1:], _SI_G[1:]):
            f *= u
            f += cf
            g *= u
            g += cg
        f *= q
        g *= u
    if np.count_nonzero(near):
        # f/x and g: sum_i l_i (1, u_i) / (u_i^2 + x^2), one sum per row
        v = a[near]
        d = np.add.outer(v * v, _LAG_U2)
        fg = np.einsum("ij,kj->ki", np.reciprocal(d, out=d), _LAG_LU)
        f[near] = fg[0] * v
        g[near] = fg[1]
    e = _cis(a)  # Si(x) = pi/2 - f(x) cos x - g(x) sin x from the auxiliary functions
    out = np.pi / 2 - f * e.real - g * e.imag
    taylor = a <= _SERIES_S
    if np.count_nonzero(taylor):
        # Si(x) = x sum_n (-x^2)^n/(2n+1)! / (2n+1), the powers over
        # factorials as a running product
        v = a[taylor]
        t = np.multiply.accumulate(np.divide.outer(-v * v, _SI_RATIO), axis=1)
        t /= _SI_ODD
        out[taylor] = v * (1.0 + np.add.reduce(t, axis=1))
    out = np.copysign(out, x.ravel(), out=out).reshape(x.shape)
    return float(out[()]) if scalar else out


def exp_sin_integral(a: float, b: float) -> float:
    """int_0^1 e^{-a t} sin(b t)/t dt, which equals Im Ein(a + i b)."""
    return ein(complex(a, b)).imag
