"""Density coefficients c_{m,k} from the characteristic function.

Three strategies compute the half-line Parseval integral

    c_{m,k} = 2^{m/2+1} Re[ int_0^{1/2} fhat(2^{m+1} pi t) e^{2 pi i k t} dt ],

with fhat(x) = psi(-x):

  * midpoint rule + one inverse FFT (equivalent to the cosine expansion
    obtained from Vieta's formula, which density_vieta_direct evaluates
    term by term as the per-coefficient oracle),
  * trapezoidal rule + one inverse FFT (same node budget, usually several
    times more accurate),
  * adaptive Filon quadrature with a cubic interpolant per panel and
    analytic oscillatory moments (few cf evaluations, shared across k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSpec, char_fn
from .transform import inverse_dft

# Elements per block of a batched (k or strike) x (panels or nodes)
# temporary: keeps each near 1 MB, whatever the grid.
_BLOCK_ELEMENTS = 1 << 16
# Open panels a Filon level may hold.  At tol = 1e-15 they peak near 3300
# on the reference models; below rounding (tol ~ 1e-16) the split test
# never passes and they would double every level until memory runs out.
_MAX_OPEN_PANELS = 1 << 14


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
    """c_{m,k} from one inverse DFT of size n = 2^J over the nodes
    t_j = (2j + offset)/(2n), j < 2^{J-1}: offset 1 is the midpoint rule,
    offset 0 the trapezoidal rule (half weight on the first node).

    Loading: f_j = fhat(2^m pi (2j+offset)/n) e^{2 pi i k1 j/n}, zero beyond
    j = 2^{J-1}; the midpoint recovery applies the half-step phase
    e^{i pi k/n} elementwise.  ``fhat`` holds the f_j's cf values when the
    caller has them already; it is not modified.
    """
    n = 1 << job.J
    nh = n >> 1
    j = np.arange(nh)
    if fhat is None:
        fhat = _fhat(job.model, _nodes(job.m, job.J, 2 * j + offset))
    elif np.shape(fhat) != (nh,):
        raise ValueError(f"fhat must hold the 2^(J-1) = {nh} node values, "
                         f"got shape {np.shape(fhat)}")
    buf = np.zeros(n, dtype=complex)
    # e^{2 pi i k1 j/n} with the angle reduced exactly in integers, so a
    # wide grid's phase carries no large-argument rounding
    buf[:nh] = fhat * np.exp(2j * np.pi * ((job.k1 * j) % n) / n)
    if offset == 0:
        buf[0] *= 0.5
    g = inverse_dft(buf)[: job.k2 - job.k1]
    if offset:
        g = np.exp(1j * np.pi * np.arange(job.k1, job.k2) / n) * g
    return _coefficients(job.k1, 2.0 ** (job.m / 2.0) / nh * g.real)


def density_midpoint_fft(job: DensityJob) -> CoefficientArray:
    """c_{m,k} by the midpoint rule, one inverse DFT of size 2^J."""
    return _density_fft(job, 1)


def density_trapezoidal_fft(job: DensityJob, fhat=None) -> CoefficientArray:
    """c_{m,k} by the trapezoidal rule, one inverse DFT of size 2^J.

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
    (float out) or an integer array (ndarray out).  The equivalence oracle
    for density_midpoint_fft (the two are the same sum in exact arithmetic).
    """
    if m < 1 or J < 1:
        raise ValueError("need m >= 1 and J >= 1")
    n = 1 << (J - 1)
    j = np.arange(1, n + 1)
    psi = char_fn(model, _nodes(m, J, 2 * j - 1))
    ks = np.asarray(k)
    out = np.empty(ks.size)
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, ks.size, step):
        angles = np.pi * ks.reshape(-1, 1)[lo:lo + step] * (2 * j - 1) / (1 << J)
        out[lo:lo + step] = np.sum((psi * np.exp(-1j * angles)).real, axis=1)
    out *= 2.0 ** (m / 2.0) / n
    return float(out[0]) if ks.ndim == 0 else out.reshape(ks.shape)


# cubic interpolation on s in [0, 1] through nodes 0, 1/3, 2/3, 1
_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
_VAND_INV = np.linalg.inv(np.vander(_NODES, 4, increasing=True))
_PROBE = np.linspace(0.0, 1.0, 9)


def _poly_eval(c, s):
    return ((c[3] * s + c[2]) * s + c[1]) * s + c[0]


def _moments(theta: np.ndarray) -> np.ndarray:
    """m_p = int_0^1 s^p e^{i theta s} ds for p = 0..3, vectorized in theta.

    Upward recursion m_p = (e^{i theta} - p m_{p-1})/(i theta) is stable for
    |theta| >= 1/2; below that a short Taylor series avoids the cancellation.
    """
    theta = np.asarray(theta, dtype=float)
    it = 1j * theta
    eit = np.exp(it)
    small = np.abs(theta) < 0.5
    safe = np.where(small, 1.0, it)
    out = np.empty((4,) + theta.shape, dtype=complex)
    out[0] = (eit - 1.0) / safe
    for p in range(1, 4):
        out[p] = (eit - p * out[p - 1]) / safe
    if np.any(small):
        ts = it[small]
        for p in range(4):
            acc = np.zeros(ts.shape, dtype=complex)
            term = np.ones(ts.shape, dtype=complex)
            for jj in range(0, 25):
                acc = acc + term / (p + jj + 1)
                term = term * ts / (jj + 1)
            out[p][small] = acc
    return out


def density_filon(model: ModelSpec, m: int, k1: int, k2: int, tol: float,
                  max_depth: int = 40):
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

    Refinement stops at ``max_depth`` levels, or where a level would hold
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
    omega = 2.0 * np.pi * np.arange(k1, k2, dtype=float)
    integral = np.zeros(omega.size, dtype=complex)
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
        if depth >= max_depth or 2 * np.count_nonzero(split) > _MAX_OPEN_PANELS:
            # a cap accepts the halves as they stand
            cap = (f"depth {max_depth}" if depth >= max_depth
                   else f"{_MAX_OPEN_PANELS} open panels")
            leftover += float(np.sum(est[split]))
            split[:] = False
        if not split.all():
            # the accepted halves all have width hh: one moment table
            ts = np.concatenate([t0[~split], tr[~split]])
            cs = np.concatenate([cl[:, ~split], cr[:, ~split]], 1)
            mom = _moments(omega * hh)
            step = max(1, _BLOCK_ELEMENTS // ts.size)
            for lo in range(0, omega.size, step):
                rows, mb = slice(lo, lo + step), mom[:, lo:lo + step, None]
                poly = cs[0] * mb[0] + cs[1] * mb[1] + cs[2] * mb[2] + cs[3] * mb[3]
                integral[rows] += hh * np.sum(np.exp(1j * omega[rows, None] * ts) * poly, 1)
        t0 = np.concatenate([t0[split], tr[split]])
        vals = np.concatenate([left[split], right[split]])
        h, depth = hh, depth + 1
    coeffs = _coefficients(k1, 2.0 ** (m / 2.0 + 1.0) * integral.real)

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
