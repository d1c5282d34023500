"""Vanilla-put payoff coefficients V_{m,k}.

Three routes:

  * strike-centered closed form (Si/Ein) over the support [a, 0],
  * forward-centered closed form (Si/Ein) over the support [a, z],
    z = ln(K/F), which keeps every coefficient usable for any strike
    inside the truncation,
  * midpoint cosine sum with the second Euler-Maclaurin endpoint
    correction for all k by one real inverse DFT; no pricing route uses it.

The two closed forms are one integral on two windows (``_si_ein``); the
cosine sums and em_fft pricing take moments from one form (``_moment``).

All sign conventions below were fixed against adaptive quadrature of the
defining integrals, the arbiter of every closed form here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import CoefficientArray
from .specfun import ein, si
from .transform import cos_sin_sum


def _end_terms(m: int, k, x):
    """(Im Ein(-t/p + i t), Si(t)) with t = pi(2^m x - k) and p = pi 2^m:
    the terms of the Si/Ein closed form at one end x of its window."""
    k = np.asarray(k, dtype=float)
    p = np.pi * 2.0**m
    t = np.pi * (2.0**m * x - k)
    return ein(-t / p + 1j * t).imag, si(t)


def _si_ein(K: float, m: int, k, lo: float, hi: float, lo_terms=None, hi_terms=None):
    """V = K 2^{m/2} int_lo^hi (1 - e^{y-hi}) sinc(2^m y - k) dy, closed form.

      V = K/(2^{m/2} pi) * ( e^{k/2^m - hi} Im[Ein(-t_lo/p + i t_lo)
                                               - Ein(-t_hi/p + i t_hi)]
                             + Si(t_hi) - Si(t_lo) )

    with t_x = pi(2^m x - k) and p = pi 2^m.  ``lo_terms`` and ``hi_terms``,
    if given, are ``_end_terms(m, k, lo)`` and ``_end_terms(m, k, hi)``.
    """
    k = np.asarray(k, dtype=float)
    ein_lo, si_lo = _end_terms(m, k, lo) if lo_terms is None else lo_terms
    ein_hi, si_hi = _end_terms(m, k, hi) if hi_terms is None else hi_terms
    v = K / (2.0 ** (m / 2.0) * np.pi) * (np.exp(k / 2.0**m - hi) * (ein_lo - ein_hi)
                                           + (si_hi - si_lo))
    return v if v.ndim else float(v)


def payoff_classic_si_ein(K: float, m: int, k, a: float, zero_terms=None):
    """V_{m,k} = K 2^{m/2} int_a^0 (1 - e^y) sinc(2^m y - k) dy: ``_si_ein``
    on the window [a, 0].

    ``k`` may be an array (one coefficient per entry, same shape) and may be
    non-integral (the derivation never uses integrality), which the
    shifted-window classic pricing route relies on.  ``zero_terms`` is
    ``_end_terms(m, k, 0.0)`` when the caller has it; computed here
    otherwise.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not a < 0:
        raise ValueError("a must be < 0")
    return _si_ein(K, m, k, a, 0.0, hi_terms=zero_terms)


def payoff_forward_si_ein(K: float, F: float, m: int, k, a: float, a_terms=None,
                          z_terms=None):
    """Forward-centered closed form: ``_si_ein`` on the put support [a, z],
    z = ln(K/F).

    ``k`` may be an array (one coefficient per entry, same shape).
    ``a_terms`` and ``z_terms`` are ``_end_terms(m, k, a)`` and
    ``_end_terms(m, k, z)`` when the caller has them; computed here
    otherwise.  Zero when z <= a (empty support); coincides with the
    classic form at z = 0 (K = F).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    z = np.log(K / F)
    if z > a:
        return _si_ein(K, m, k, a, z, a_terms, z_terms)
    return np.zeros(np.shape(k)) if np.ndim(k) else 0.0


def payoff_classic_vieta(K: float, m: int, k: int, a: float, J: int) -> float:
    """The 2^{J-1}-term cosine-expansion value of the classic integral.

    Each cosine integrates against (1 - e^y) in closed form, as
    Re[M e^{-iwk}] with ``_moment`` M on [a, 0]; kept as the
    slowly-converging reference row of the accuracy table.
    """
    n = 1 << (J - 1)
    j = np.arange(1, n + 1)
    w = (2 * j - 1) * np.pi / (1 << J)
    total = float(np.sum((_moment(w * 2.0**m, a, 0.0) * np.exp(-1j * w * k)).real))
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


def _moment(q, a: float, z):
    """M = int_a^z (e^z - e^y) e^{iqy} dy for frequencies q > 0: Re M and
    Im M are the moments against cos(qy) and sin(qy).  Each end enters as
    a difference of one expression at z and at a, so M is exactly 0 at
    z = a.  ``q`` and ``z`` broadcast against each other.
    """
    ez, e_z, e_a = np.exp(z), np.exp(1j * q * z), np.exp(1j * q * a)
    return ez * (e_z - e_a) / (1j * q) - (ez * e_z - np.exp(a) * e_a) / (1.0 + 1j * q)


def em_correction_D(m: int, a: float, z):
    """D(a,z) = int_a^z 2^m y (e^z - e^y) sin(p y) dy with p = pi 2^m.

    ``z`` may be an array of log-strikes; the result has its shape.  With
    Y(w) = int_a^z y e^{wy} dy = [e^{wy} (y/w - 1/w^2)]_a^z, a difference
    of one expression at z and at a, D = 2^m Im[e^z Y(ip) - Y(1 + ip)].
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p = np.pi * 2.0**m
    z = np.asarray(z, dtype=float)
    w = np.array([1j * p, 1.0 + 1j * p]).reshape((2,) + (1,) * z.ndim)
    f_z, f_a = (np.exp(w * y) * (y / w - 1.0 / (w * w)) for y in (z, a))
    y_ip, y_1ip = f_z - f_a
    return 2.0**m * (np.exp(z) * y_ip - y_1ip).imag


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

    The sum is ``cos_sin_sum`` of the moments C + iS = ``_moment`` (one inverse DFT
    of size 2N); the correction costs O(k2-k1) extra multiplications.  Its
    sign follows the midpoint Euler-Maclaurin formula int f = midpoint + h^2/24 [f'(1)-f'(0)]
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
    mom = _moment(n_half * p, job.a, z)
    scale = job.K * np.exp(-z) * 2.0 ** (job.m / 2.0)
    vals = scale / job.N * cos_sin_sum(mom.real, mom.imag, ks)
    if corrected:
        s_cap = _moment(p, job.a, z).imag
        d_cap = em_correction_D(job.m, job.a, z)
        sign = 1.0 - 2.0 * (np.abs(ks) & 1)  # (-1)^k
        vals = vals - np.pi * sign / (24.0 * job.N**2) * scale * (d_cap - ks * s_cap)
    return CoefficientArray(job.k1, vals)

