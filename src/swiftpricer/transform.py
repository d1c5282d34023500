"""Power-of-two transforms: unscaled inverse DFT (numpy's FFT), DCT-II and
DST-II (scipy.fft, each one FFT of the same size), and the combined
cosine+sine sum of the payoff coefficients at any integer frequency (one
inverse DFT of twice the size).
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


def cos_sin_sum(a, b, k_range) -> np.ndarray:
    """sum_j a_j cos(pi k (j+1/2)/N) + b_j sin(pi k (j+1/2)/N) for each k.

    ``k_range`` is any iterable of integers, negative and >= N allowed.
    The sum is Re[e^{i pi k/(2N)} g_k] with g the inverse DFT of a - i b
    zero-padded to 2N; g has period 2N in k, and k = r + 2N q, 0 <= r < 2N,
    turns the phase by (-1)^q.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("a and b must have the same length")
    n = a.shape[0]
    _check_pow2(n)
    ks = np.asarray(list(k_range) if not isinstance(k_range, np.ndarray) else k_range,
                    dtype=np.int64)
    g = inverse_dft(np.concatenate([a - 1j * b, np.zeros(n)]))
    q, r = np.divmod(ks, 2 * n)
    return (1 - 2 * (q & 1)) * (np.exp(1j * np.pi * r / (2 * n)) * g[r]).real
