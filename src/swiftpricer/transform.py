"""Power-of-two transforms: unscaled inverse DFT (numpy's FFT), DCT-II and
DST-II (scipy.fft, each one FFT of the same size), plus the combined
cosine+sine evaluation used for payoff coefficients.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dct, dst


def _check_pow2(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")


def inverse_dft(buf) -> np.ndarray:
    """Unscaled inverse DFT: g_l = sum_j f_j e^{+2 pi i l j / n}.

    Input length must be a power of two.  Out-of-place: the input buffer
    is never modified.
    """
    f = np.asarray(buf, dtype=complex)
    _check_pow2(f.shape[0])
    return np.fft.ifft(f, norm="forward")


def dct2_via_fft(a) -> np.ndarray:
    """DCT-II: a_hat_k = sum_j a_j cos(pi k (j+1/2)/N), one FFT of size N."""
    a = np.asarray(a, dtype=float)
    _check_pow2(a.shape[0])
    return 0.5 * dct(a, type=2)


def dst2_via_fft(b) -> np.ndarray:
    """DST-II: b_hat_k = sum_j b_j sin(pi k (j+1/2)/N), one FFT of size N."""
    b = np.asarray(b, dtype=float)
    _check_pow2(b.shape[0])
    # scipy's row j is frequency j+1; frequency 0 is identically zero
    return np.concatenate([[0.0], 0.5 * dst(b, type=2)[:-1]])


def _extend_indices(ks: np.ndarray, n: int):
    """Map arbitrary integer frequencies onto the base table 0..N.

    The half-sample angles pi*k*(j+1/2)/N satisfy:
      k -> -k      : cos even, sin odd
      k -> k + 2N  : both flip sign
      k -> 2N - k  : cos flips sign, sin unchanged
    so every integer k reduces to an index in [0, N] and two signs.
    """
    ks = np.asarray(ks, dtype=np.int64)
    sc = np.ones(ks.shape, dtype=np.int64)
    ss = np.ones(ks.shape, dtype=np.int64)
    r = np.abs(ks)
    ss = np.where(ks < 0, -ss, ss)
    r = r % (4 * n)
    wrap = r >= 2 * n
    r = np.where(wrap, r - 2 * n, r)
    sc = np.where(wrap, -sc, sc)
    ss = np.where(wrap, -ss, ss)
    refl = r > n
    r = np.where(refl, 2 * n - r, r)
    sc = np.where(refl, -sc, sc)
    return r, sc, ss


def cos_sin_sum(a, b, k_range) -> np.ndarray:
    """sum_j a_j cos(pi k (j+1/2)/N) + b_j sin(pi k (j+1/2)/N) for each k.

    ``k_range`` is any iterable of integers (negative and >= N allowed; they
    are folded back by the parity/period structure of the half-sample
    angles).  One DCT-II and one DST-II of size N fill the table for
    k = 0..N.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("a and b must have the same length")
    n = a.shape[0]
    _check_pow2(n)
    ks = np.asarray(list(k_range) if not isinstance(k_range, np.ndarray) else k_range,
                    dtype=np.int64)
    # table rows k = 0..N; at k = N the cosines vanish, and scipy's DST-II
    # row j is frequency j+1
    cos_tab = np.concatenate([0.5 * dct(a, type=2), [0.0]])
    sin_tab = np.concatenate([[0.0], 0.5 * dst(b, type=2)])
    idx, sc, ss = _extend_indices(ks, n)
    return sc * cos_tab[idx] + ss * sin_tab[idx]
