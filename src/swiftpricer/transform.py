"""Power-of-two transforms: unscaled inverse DFT (numpy's FFT), DCT-II and
DST-II (scipy.fft, each one FFT of the same size), and the combined
cosine+sine sum of the payoff coefficients at any integer frequency (one
inverse DFT of twice the size).

scipy.fft is imported inside the DCT and DST, on their first call: no
pricing path calls them, and the import costs a fresh process ~0.2 s and
~25 MB of resident memory (2-vCPU VM).
"""

from __future__ import annotations

import numpy as np


def _check_pow2(x: np.ndarray) -> int:
    """The length of ``x``, refused unless ``x`` is 1-D of power-of-two
    length (each transform runs along the last axis)."""
    if x.ndim != 1:
        raise ValueError(f"input must be 1-D, got shape {x.shape}")
    n = x.shape[0]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")
    return n


def _cis(theta) -> np.ndarray:
    """e^{i theta} for real theta, filled in place as cos + i sin: about
    half the time of np.exp(1j * theta)."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def inverse_dft(buf) -> np.ndarray:
    """Unscaled inverse DFT: g_l = sum_j f_j e^{+2 pi i l j / n}.

    Input must be 1-D of power-of-two length.  Out-of-place: the input buffer
    is never modified.
    """
    f = np.asarray(buf, dtype=complex)
    _check_pow2(f)
    return np.fft.ifft(f, norm="forward")


def dct2_via_fft(a) -> np.ndarray:
    """DCT-II: a_hat_k = sum_j a_j cos(pi k (j+1/2)/N), one FFT of size N."""
    from scipy.fft import dct
    a = np.asarray(a, dtype=float)
    _check_pow2(a)
    return 0.5 * dct(a, type=2)


def dst2_via_fft(b) -> np.ndarray:
    """DST-II: b_hat_k = sum_j b_j sin(pi k (j+1/2)/N), one FFT of size N."""
    from scipy.fft import dst
    b = np.asarray(b, dtype=float)
    _check_pow2(b)
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
    n = _check_pow2(a)
    ks = np.asarray(list(k_range) if not isinstance(k_range, np.ndarray) else k_range,
                    dtype=np.int64)
    g = inverse_dft(np.concatenate([a - 1j * b, np.zeros(n)]))
    q, r = np.divmod(ks, 2 * n)
    return (1 - 2 * (q & 1)) * (np.exp(1j * np.pi * r / (2 * n)) * g[r]).real
