"""Density coefficients c_{m,k} from the characteristic function.

Three strategies compute the half-line Parseval integral

    c_{m,k} = 2^{m/2+1} Re[ int_0^{1/2} fhat(2^{m+1} pi t) e^{2 pi i k t} dt ],

with fhat(x) = psi(-x):

  * midpoint rule + one real inverse FFT (equivalent to the cosine expansion
    obtained from Vieta's formula, which density_vieta_direct evaluates
    term by term as the per-coefficient oracle),
  * trapezoidal rule + one real inverse FFT (same node budget, usually several
    times more accurate),
  * adaptive Filon quadrature with a cubic interpolant per panel and
    analytic oscillatory moments (few cf evaluations, shared across k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ModelSpec, char_fn
from .transform import _cis, inverse_dft

# Elements per block of a batched (k or strike) x (panels or nodes)
# temporary: keeps each near 1 MB, whatever the grid.
_BLOCK_ELEMENTS = 1 << 16
# Open panels a Filon level may hold.  At tol = 1e-15 they peak near 3300
# on the reference models; below rounding (tol ~ 1e-16) the split test
# never passes and they would double every level until memory runs out.
_MAX_OPEN_PANELS = 1 << 14
# Refinement levels a Filon run may take
_MAX_DEPTH = 40
# Filon's k-sum splits k = _K_SPLIT q + r, 0 <= r < _K_SPLIT
_K_SPLIT = 16


@dataclass(frozen=True)
class CoefficientArray:
    """Real coefficients indexed k = k1 .. k1+len-1."""

    k1: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "values", v)

    @property
    def k2(self) -> int:
        return self.k1 + len(self.values)

    def at(self, k: int) -> float:
        if not self.k1 <= k < self.k2:
            raise IndexError(f"k={k} outside [{self.k1}, {self.k2})")
        return float(self.values[k - self.k1])


@dataclass(frozen=True)
class DensityJob:
    """Inputs for an FFT density computation."""

    model: ModelSpec
    m: int
    J: int
    k1: int
    k2: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"scale m must be >= 1, got {self.m}")
        if self.J < 1:
            raise ValueError(f"J must be >= 1, got {self.J}")
        if not self.k1 < self.k2:
            raise ValueError(f"need k1 < k2, got [{self.k1}, {self.k2})")
        # the strict bound is k2-k1 < 2^J; equality is accepted so the FFT
        # size can match the coefficient count exactly (the k = k1 column
        # then aliases k1 + 2^J, whose coefficient is negligible by design)
        if self.k2 - self.k1 > (1 << self.J):
            raise ValueError(
                f"k range width {self.k2 - self.k1} exceeds 2^J = {1 << self.J}")


class FilonConvergenceError(RuntimeError):
    """Raised when panel subdivision hits its depth or open-panel cap
    before the target.

    Carries the best available coefficients and the achieved tolerance.
    """

    def __init__(self, message, best, achieved_tol, cf_evals):
        super().__init__(message)
        self.best = best
        self.achieved_tol = achieved_tol
        self.cf_evals = cf_evals


def _fhat(model: ModelSpec, x):
    # fhat(x) = psi(-x) for the forward-centered log-return density
    return char_fn(model, -np.asarray(x, dtype=float))


def _nodes(m: int, J: int, q) -> np.ndarray:
    """The cf nodes 2^m pi q/2^J of the FFT rules (q = 2j + offset)."""
    return (2.0**m) * np.pi * q / (1 << J)


def _coefficients(k1: int, values: np.ndarray) -> CoefficientArray:
    """A loader's coefficients.  A NaN or inf here comes from the cf, so it
    is a numerical failure (FloatingPointError), not bad input."""
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(
            "density coefficients are not finite: the characteristic "
            "function returned NaN or inf on the quadrature nodes")
    return CoefficientArray(k1, values)


def _density_fft(job: DensityJob, offset: int, fhat=None) -> CoefficientArray:
    """c_{m,k} from one real inverse DFT over the nodes t_j = (2j + offset)/(2n),
    n = 2^J, j < 2^{J-1}: offset 0 is the trapezoidal rule, offset 1 the
    midpoint rule.

    Loading: f_j = fhat(2^m pi (2j+offset)/n) is slot j of the half
    spectrum of a real signal of length n, passed as it is (the transform
    zero-pads slot n/2), or, for the midpoint rule, whose nodes are the odd
    nodes of the next trapezoidal level, slot 2j+1 of one of length 2n, the
    even slots zero.  The signal is twice the rule's real sum: its DC term
    has the trapezoidal weight 1/2 built in.  c_k is read at k mod the
    signal length, the sum's period, as one slice or two (the window wraps
    at most once, since k2 - k1 <= n), so no phase shifts it.  ``fhat``
    holds the f_j's cf values when the caller has them already; it is not
    modified.
    """
    n = 1 << job.J
    nh = n >> 1
    if fhat is None:
        fhat = _fhat(job.model, _nodes(job.m, job.J, 2 * np.arange(nh) + offset))
    elif np.shape(fhat) != (nh,):
        raise ValueError(f"fhat must hold the 2^(J-1) = {nh} node values, "
                         f"got shape {np.shape(fhat)}")
    half = fhat
    if offset:
        half = np.zeros(n, dtype=complex)
        half[1::2] = fhat
    x = inverse_dft(half, n << offset)
    scale, lo, width = 2.0 ** (job.m / 2.0) / n, job.k1 % x.size, job.k2 - job.k1
    if lo + width <= x.size:
        return _coefficients(job.k1, scale * x[lo:lo + width])
    window = np.concatenate((x[lo:], x[:lo + width - x.size]))
    window *= scale
    return _coefficients(job.k1, window)


def density_midpoint_fft(job: DensityJob) -> CoefficientArray:
    """c_{m,k} by the midpoint rule, one real inverse DFT of length 2^{J+1}."""
    return _density_fft(job, 1)


def density_trapezoidal_fft(job: DensityJob, fhat=None) -> CoefficientArray:
    """c_{m,k} by the trapezoidal rule, one real inverse DFT of length 2^J.

    ``fhat``, if given, is fhat on the rule's nodes 2^m pi j/2^{J-1},
    j < 2^{J-1} (``_trapezoidal_fhat``), and is used instead of a cf call.
    """
    return _density_fft(job, 0, fhat)


def _trapezoidal_fhat(job: DensityJob, coarse=None) -> np.ndarray:
    """fhat on the trapezoidal nodes of ``job``, 2^m pi j/2^{J-1}.

    The nodes are nested: those of level J-1 are the even nodes of level J,
    bit for bit, since the levels differ only by powers of two.  Given
    ``coarse``, fhat on the level J-1 nodes (same model and m), the cf is
    evaluated on the 2^{J-2} odd nodes only.
    """
    nh = 1 << (job.J - 1)
    if coarse is None:
        return _fhat(job.model, _nodes(job.m, job.J, 2 * np.arange(nh)))
    fhat = np.empty(nh, dtype=complex)
    fhat[0::2] = coarse
    fhat[1::2] = _fhat(job.model, _nodes(job.m, job.J, 2 * np.arange(1, nh, 2)))
    return fhat


def density_vieta_direct(model: ModelSpec, m: int, k, J: int):
    """c_{m,k} through the explicit Vieta cosine sum.

    One cf call on the 2^{J-1} nodes serves every k; ``k`` may be an integer
    (float out) or an integer array (ndarray out), and a non-integral value
    raises ValueError.  The equivalence oracle for density_midpoint_fft (the
    two are the same sum in exact arithmetic).
    """
    if m < 1 or J < 1:
        raise ValueError("need m >= 1 and J >= 1")
    with np.errstate(invalid="ignore"):  # a NaN or inf k fails the test below
        ks = np.asarray(k).astype(np.int64)
    if not np.array_equal(ks, k):
        raise ValueError("k must be integers")
    n = 1 << (J - 1)
    odd = 2 * np.arange(1, n + 1) - 1
    psi = char_fn(model, _nodes(m, J, odd))
    # e^{-i pi k (2j-1)/2^J} is a 2^{J+1}-th root of unity, read from a table
    # at the exact integer k (2j-1) mod 2^{J+1}
    roots = _cis(-np.pi * np.arange(4 * n) / (2 * n))
    out = np.empty(ks.size)
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, ks.size, step):
        index = (ks.reshape(-1, 1)[lo:lo + step] * odd) & (4 * n - 1)
        out[lo:lo + step] = np.sum((psi * roots[index]).real, axis=1)
    out *= 2.0 ** (m / 2.0) / n
    return float(out[0]) if ks.ndim == 0 else out.reshape(ks.shape)


# cubic interpolation on s in [0, 1] through nodes 0, 1/3, 2/3, 1
_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
_VAND_INV = np.linalg.inv(np.vander(_NODES, 4, increasing=True))
_PROBE = np.linspace(0.0, 1.0, 9)


def _poly_eval(c, s):
    return ((c[3] * s + c[2]) * s + c[1]) * s + c[0]


# The small-theta moments' Taylor table, T[p, j] = 1/(j! (p + j + 1)):
# m_p = sum_j T[p, j] (i theta)^j
_TAYLOR = np.array([[1.0 / (math.factorial(j) * (p + j + 1)) for j in range(25)]
                    for p in range(4)])


def _moments(theta: np.ndarray) -> np.ndarray:
    """m_p = int_0^1 s^p e^{i theta s} ds for p = 0..3, vectorized in theta.

    Upward recursion m_p = (e^{i theta} - p m_{p-1})/(i theta) is stable for
    |theta| >= 1/2; below that the Taylor series avoids the cancellation:
    the powers (i theta)^j, a running product down the rows j, summed
    against ``_TAYLOR`` by one real einsum of their float view.
    """
    theta = np.asarray(theta, dtype=float)
    it = 1j * theta
    eit = _cis(theta)
    small = np.abs(theta) < 0.5
    safe = np.where(small, 1.0, it)
    out = np.empty((4,) + theta.shape, dtype=complex)
    out[0] = (eit - 1.0) / safe
    for p in range(1, 4):
        out[p] = (eit - p * out[p - 1]) / safe
    if np.any(small):
        powers = np.empty((_TAYLOR.shape[1], np.count_nonzero(small)), dtype=complex)
        powers[0] = 1.0
        powers[1:] = it[small]
        np.multiply.accumulate(powers, axis=0, out=powers)
        out[:, small] = np.einsum("pj,jm->pm", _TAYLOR, powers.view(float)).view(complex)
    return out


def _level_sum(ts, cs, q, mom) -> np.ndarray:
    """sum_t e^{2 pi i k t} sum_p cs[p](t) mom[p](k) over the panel starts
    ``ts`` of one level, for k = _K_SPLIT q + r, as a (q, r) array.

    With e^{2 pi i k t} = e^{2 pi i _K_SPLIT q t} e^{2 pi i r t} the sum over
    t is one product of the q factors, (q x t), with the r factors times each
    cubic coefficient, (t x 4 r), per block of panels and rows.  t is
    dyadic, so _K_SPLIT q t and r t are exact while |k| 2^{depth+1} stays
    below 2^53 (|k| < 2^12 at _MAX_DEPTH) and each angle is reduced mod 1
    before its one rounding; past that the product is rounded once first.

    The product is a real einsum, not BLAS, whose threads stalled here: a
    panel's row of 4 r waves, and i times it, as floats, times the real and
    imaginary parts of its q factors, added to each q row in panel order.
    The factors of a k do not depend on the rows around it, so windows
    [k1, k2) agree on a coefficient bit for bit.
    """
    mom = mom.reshape(4, q.size, _K_SPLIT)
    r = np.arange(_K_SPLIT)
    out = np.zeros((q.size, _K_SPLIT), dtype=complex)
    chunk = _BLOCK_ELEMENTS // (4 * _K_SPLIT)
    for p0 in range(0, ts.size, chunk):
        t, c = ts[p0:p0 + chunk], cs[:, p0:p0 + chunk]
        waves = c.T[:, :, None] * _cis(2.0 * np.pi * np.modf(np.outer(t, r))[0])[:, None, :]
        waves = np.stack([waves, 1j * waves], axis=1).view(float).reshape(t.size, 2, -1)
        step = max(1, _BLOCK_ELEMENTS // t.size)
        for lo in range(0, q.size, step):
            rows = slice(lo, lo + step)
            phase = _cis(2.0 * np.pi * np.modf(np.outer(_K_SPLIT * q[rows], t))[0])
            sums = np.einsum("qtx,txc->qc", phase.view(float).reshape(-1, t.size, 2), waves)
            sums = sums.view(complex).reshape(-1, 4, _K_SPLIT)
            mb = mom[:, rows]
            out[rows] += (mb[0] * sums[:, 0] + mb[1] * sums[:, 1]
                          + mb[2] * sums[:, 2] + mb[3] * sums[:, 3])
    return out


def density_filon(model: ModelSpec, m: int, k1: int, k2: int, tol: float):
    """All c_{m,k}, k in [k1, k2), by adaptive Filon quadrature.

    The smooth factor fhat is interpolated by a cubic on each panel and the
    oscillation e^{2 pi i k t} is integrated analytically, so one panel set
    serves every k.  Panels split while the L1 distance between a panel's
    cubic and its two half-panel cubics exceeds the width-proportional
    budget; that criterion bounds the Filon error uniformly in k (worst
    frequency included) and keeps the node set independent of the k range.

    Panels are refined a level at a time.  The halves of a panel reuse its
    cubic nodes at 0, h/3, 2h/3 and h, so a level makes one cf call on the
    new nodes h/6, h/2 and 5h/6 of its open panels (4 + 3R points for R
    split tests), and its accepted halves share one table of moments.

    Refinement stops at ``_MAX_DEPTH`` levels, or where a level would hold
    more than ``_MAX_OPEN_PANELS`` open panels (a tol below rounding).
    Either cap accepts the open panels as they stand and raises
    ``FilonConvergenceError`` with the coefficients so obtained.

    Returns (CoefficientArray, cf_eval_count).
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not k1 < k2:
        raise ValueError("need k1 < k2")

    scale = 2.0 ** (m + 1) * np.pi
    # the k-sum runs over whole rows q of k = _K_SPLIT q + r, from the row
    # of k1 to that of k2 - 1; the k outside [k1, k2) are dropped at the end
    q = np.arange(k1 // _K_SPLIT, (k2 - 1) // _K_SPLIT + 1)
    omega = 2.0 * np.pi * np.arange(_K_SPLIT * q[0], _K_SPLIT * (q[-1] + 1), dtype=float)
    integral = np.zeros((q.size, _K_SPLIT), dtype=complex)
    tol_integral = 0.5 * tol   # budget for the t-integral itself
    leftover = 0.0             # unsatisfied estimates at the depth cap
    # the open panels [t0, t0 + h] of a level, with fhat at t0 + h _NODES
    h, t0, vals = 0.5, np.zeros(1), _fhat(model, scale * 0.5 * _NODES)[None, :]
    n_evals, depth = 4, 0
    while t0.size:
        hh, tr = 0.5 * h, t0 + 0.5 * h
        new = _fhat(model, scale * np.stack(
            [t0 + hh * _NODES[1], tr, tr + hh * _NODES[2]], 1))
        n_evals += new.size
        left = np.stack([vals[:, 0], new[:, 0], vals[:, 1], new[:, 1]], 1)
        right = np.stack([new[:, 1], vals[:, 2], new[:, 2], vals[:, 3]], 1)
        # cubics as (4, panels): the parent against its halves on the probes
        c, cl, cr = (_VAND_INV @ v.T for v in (vals, left, right))
        child = np.concatenate([_poly_eval(cl[..., None], 2.0 * _PROBE[:5]),
                                _poly_eval(cr[..., None], 2.0 * _PROBE[5:] - 1.0)], 1)
        est = np.trapezoid(np.abs(_poly_eval(c[..., None], _PROBE) - child),
                           dx=1.0 / (len(_PROBE) - 1), axis=1) * h
        split = est > tol_integral * (h / 0.5)
        if depth >= _MAX_DEPTH or 2 * np.count_nonzero(split) > _MAX_OPEN_PANELS:
            # a cap accepts the halves as they stand
            cap = (f"depth {_MAX_DEPTH}" if depth >= _MAX_DEPTH
                   else f"{_MAX_OPEN_PANELS} open panels")
            leftover += float(np.sum(est[split]))
            split[:] = False
        if not split.all():
            # the accepted halves all have width hh: one moment table
            ts = np.concatenate([t0[~split], tr[~split]])
            cs = np.concatenate([cl[:, ~split], cr[:, ~split]], 1)
            integral += hh * _level_sum(ts, cs, q, _moments(omega * hh))
        t0 = np.concatenate([t0[split], tr[split]])
        vals = np.concatenate([left[split], right[split]])
        h, depth = hh, depth + 1
    lo = k1 - _K_SPLIT * q[0]
    coeffs = _coefficients(k1, 2.0 ** (m / 2.0 + 1.0) * integral.real.ravel()[lo:lo + k2 - k1])

    if leftover:
        achieved = 2.0 * (tol_integral + leftover)
        raise FilonConvergenceError(
            f"Filon subdivision hit its cap of {cap} before reaching tol={tol} "
            f"(achieved ~{achieved:.3e})", best=coeffs,
            achieved_tol=achieved, cf_evals=n_evals)
    return coeffs, n_evals


def density_mass(coeffs: CoefficientArray, m: int) -> float:
    """2^{-m/2} sum_k c_{m,k}: the Riemann mass of the reconstructed density
    (the sinc translates form a partition of unity, so a resolved grid sums
    to ~1)."""
    return float(2.0 ** (-m / 2.0) * np.sum(coeffs.values))
