"""Vanilla-put payoff coefficients V_{m,k}.

Three routes:

  * strike-centered closed form (Si/Ein) over the support [a, 0],
  * forward-centered closed form (Si/Ein) over the support [a, z],
    z = ln(K/F), which keeps every coefficient usable for any strike
    inside the truncation,
  * midpoint cosine sum with the second Euler-Maclaurin endpoint
    correction, evaluated for all k at once with two FFTs of size N.

All sign conventions below were fixed against adaptive quadrature of the
defining integrals (the closed forms and the correction term are easy to
transcribe with a stray sign; the quadrature oracle is the arbiter).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import CoefficientArray
from .specfun import ein, si
from .transform import cos_sin_sum


def payoff_classic_si_ein(K: float, m: int, k, a: float):
    """V_{m,k} = K 2^{m/2} int_a^0 (1 - e^y) sinc(2^m y - k) dy, closed form.

    With t_a = pi(2^m a - k), t_0 = -pi k and p = pi 2^m:

      V = K/(2^{m/2} pi) * ( e^{k/2^m} Im[Ein(-t_a/p + i t_a)
                                         - Ein(-t_0/p + i t_0)]
                             + Si(t_0) - Si(t_a) )

    ``k`` may be an array (one coefficient per entry, same shape) and may be
    non-integral (the derivation never uses integrality), which the
    shifted-window classic pricing route relies on.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not a < 0:
        raise ValueError("a must be < 0")
    k = np.asarray(k, dtype=float)
    p = np.pi * 2.0**m
    t_a = np.pi * (2.0**m * a - k)
    t_0 = -np.pi * k
    ein_term = ein(-t_a / p + 1j * t_a).imag - ein(-t_0 / p + 1j * t_0).imag
    si_term = si(t_0) - si(t_a)
    v = K / (2.0 ** (m / 2.0) * np.pi) * (np.exp(k / 2.0**m) * ein_term + si_term)
    return v if v.ndim else float(v)


def _forward_a_terms(m: int, k, a: float):
    """(Im Ein(-t_a/p + i t_a), Si(t_a)), t_a = pi(2^m a - k): the a-end
    terms of the forward closed form, which do not depend on the strike."""
    k = np.asarray(k, dtype=float)
    p = np.pi * 2.0**m
    t_a = np.pi * (2.0**m * a - k)
    return ein(-t_a / p + 1j * t_a).imag, si(t_a)


def payoff_forward_si_ein(K: float, F: float, m: int, k, a: float, a_terms=None):
    """Forward-centered closed form over the put support [a, z], z = ln(K/F).

      V = K/(2^{m/2} pi) * ( e^{k/2^m - z} Im[Ein(-t_a/p + i t_a)
                                              - Ein(-t_z/p + i t_z)]
                             + Si(t_z) - Si(t_a) )

    ``k`` may be an array (one coefficient per entry, same shape).
    ``a_terms`` is ``_forward_a_terms(m, k, a)`` when the caller keeps it
    across strikes; computed here otherwise.  Zero when z <= a (empty
    support); coincides with the classic form at z = 0 (K = F).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k = np.asarray(k, dtype=float)
    z = np.log(K / F)
    if z <= a:
        v = np.zeros(k.shape)
    else:
        ein_a, si_a = _forward_a_terms(m, k, a) if a_terms is None else a_terms
        p = np.pi * 2.0**m
        t_z = np.pi * (2.0**m * z - k)
        ein_term = ein_a - ein(-t_z / p + 1j * t_z).imag
        si_term = si(t_z) - si_a
        v = K / (2.0 ** (m / 2.0) * np.pi) * (np.exp(k / 2.0**m - z) * ein_term
                                               + si_term)
    return v if v.ndim else float(v)


def payoff_classic_vieta(K: float, m: int, k: int, a: float, J: int) -> float:
    """The 2^{J-1}-term cosine-expansion value of the classic integral.

    Each cosine integrates against (1 - e^y) in closed form; kept as the
    slowly-converging reference row of the accuracy table.
    """
    n = 1 << (J - 1)
    j = np.arange(1, n + 1)
    w = (2 * j - 1) * np.pi / (1 << J)
    q = w * 2.0**m
    s = w * k
    ea = np.exp(a)
    denom = 1.0 + q * q
    # int_a^0 (1-e^y) cos(qy) dy and int_a^0 (1-e^y) sin(qy) dy
    ic = -np.sin(q * a) / q - (1.0 - ea * (np.cos(q * a) + q * np.sin(q * a))) / denom
    is_ = (np.cos(q * a) - 1.0) / q - (-q - ea * (np.sin(q * a) - q * np.cos(q * a))) / denom
    total = float(np.sum(ic * np.cos(s) + is_ * np.sin(s)))
    return K * 2.0 ** (m / 2.0) * total / n


def payoff_classic_simpson(K: float, m: int, k: int, a: float, n_points: int) -> float:
    """Composite Simpson 3/8 value of the classic integral with ~n_points nodes.

    The interval count is rounded up to the next multiple of three (exact
    for n_points = 16; for 512 the rounding adds two panels).
    """
    nint = n_points - 1
    nint += (-nint) % 3
    ys = np.linspace(a, 0.0, nint + 1)
    x = 2.0**m * ys - k
    f = K * 2.0 ** (m / 2.0) * (1.0 - np.exp(ys)) * np.sinc(x)
    w = np.ones(nint + 1)
    idx = np.arange(1, nint)
    w[idx] = np.where(idx % 3 == 0, 2.0, 3.0)
    h = -a / nint
    return float(3.0 * h / 8.0 * np.dot(w, f))


def _trig_moments_arrays(q, a: float, z):
    """Closed-form C, S for frequencies q (q = 0 handled as limit).

    ``q`` and ``z`` broadcast against each other: a row of frequencies and a
    column of log-strikes give one row of moments per strike.
    """
    q = np.asarray(q, dtype=float)
    ez, ea = np.exp(z), np.exp(a)
    zero = q == 0.0
    qs = np.where(zero, 1.0, q)
    denom = 1.0 + qs * qs
    sz, ca = np.sin(qs * z), np.cos(qs * a)
    cz, sa = np.cos(qs * z), np.sin(qs * a)
    out_c = ez * (sz - sa) / qs - (ez * (cz + qs * sz) - ea * (ca + qs * sa)) / denom
    out_s = ez * (ca - cz) / qs - (ez * (sz - qs * cz) - ea * (sa - qs * ca)) / denom
    if zero.any():
        out_c = np.where(zero, ez * (z - a) - (ez - ea), out_c)
        out_s = np.where(zero, 0.0, out_s)
    return out_c, out_s


def em_correction_D(m: int, a: float, z):
    """D(a,z) = int_a^z 2^m y (e^z - e^y) sin(p y) dy with p = pi 2^m.

    ``z`` may be an array of log-strikes; the result has its shape.

    Assembled from antiderivatives (integration by parts) rather than a
    transcribed expansion:
      int y sin(py) dy       = sin(py)/p^2 - y cos(py)/p
      int e^y sin(py) dy     = e^y (sin(py) - p cos(py)) / (1+p^2)
      int y e^y sin(py) dy   = y Es(y) - (Es(y) - p Ec(y)) / (1+p^2)
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p = np.pi * 2.0**m
    d = 1.0 + p * p

    def f_ysin(y):
        return np.sin(p * y) / (p * p) - y * np.cos(p * y) / p

    def e_s(y):
        return np.exp(y) * (np.sin(p * y) - p * np.cos(p * y)) / d

    def e_c(y):
        return np.exp(y) * (np.cos(p * y) + p * np.sin(p * y)) / d

    def f_yeysin(y):
        return y * e_s(y) - (e_s(y) - p * e_c(y)) / d

    z = np.asarray(z, dtype=float)
    ez = np.exp(z)
    return 2.0**m * (ez * (f_ysin(z) - f_ysin(a)) - (f_yeysin(z) - f_yeysin(a)))


@dataclass(frozen=True)
class PayoffJob:
    """Inputs for the FFT payoff computation."""

    K: float
    F: float
    m: int
    a: float
    b: float
    k1: int
    k2: int
    N: int

    def __post_init__(self):
        if not (self.a < 0 <= self.b):
            raise ValueError(f"need a < 0 <= b for put coverage, got [{self.a}, {self.b}]")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.N < 1 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two, got {self.N}")
        if not self.k1 < self.k2:
            raise ValueError("need k1 < k2")
        if not (self.K > 0 and self.F > 0):
            raise ValueError("K and F must be > 0")

    @property
    def z(self) -> float:
        return float(np.log(self.K / self.F))


def payoff_fft_euler_maclaurin(job: PayoffJob, corrected: bool = True) -> CoefficientArray:
    """All V_{m,k}, k in [k1,k2), by the corrected midpoint cosine sum.

    V_{m,k} = (K e^{-z} 2^{m/2} / N) sum_{n=0}^{N-1} [ C_{n+1/2} cos(pi k (2n+1)/(2N))
                                                     + S_{n+1/2} sin(pi k (2n+1)/(2N)) ]
              - pi (-1)^k / (24 N^2) * K e^{-z} 2^{m/2} * (D - k S_N)

    The sum is dct2+dst2 of the half-integer moments (two FFTs of size N);
    the correction costs O(k2-k1) extra multiplications.  Its sign follows
    the midpoint Euler-Maclaurin formula int f = midpoint + h^2/24 [f'(1)-f'(0)]
    applied to f(w) = cos(pi x w): f'(1) - f'(0) = -pi x sin(pi x), hence the
    minus (verified against the quadrature oracle; with the opposite sign the
    correction worsens the plain midpoint error instead of achieving O(N^-4)).

    ``corrected=False`` drops the correction (plain midpoint, for comparison).
    """
    z = job.z
    ks = np.arange(job.k1, job.k2)
    if z <= job.a:
        return CoefficientArray(job.k1, np.zeros(len(ks)))
    p = np.pi * 2.0**job.m
    n_half = (np.arange(job.N) + 0.5) / job.N
    c_n, s_n = _trig_moments_arrays(n_half * p, job.a, z)
    scale = job.K * np.exp(-z) * 2.0 ** (job.m / 2.0)
    vals = scale / job.N * cos_sin_sum(c_n, s_n, ks)
    if corrected:
        _, s_cap = _trig_moments_arrays(np.array([p]), job.a, z)
        d_cap = em_correction_D(job.m, job.a, z)
        sign = 1.0 - 2.0 * (np.abs(ks) & 1)  # (-1)^k
        vals = vals - np.pi * sign / (24.0 * job.N**2) * scale * (d_cap - ks * s_cap[0])
    return CoefficientArray(job.k1, vals)

