"""Power-of-two transforms, all through one unscaled real inverse DFT
(numpy's irfft): the combined cosine+sine sum of the payoff coefficients at
any integer frequency (one real inverse DFT of four times the size), and
DCT-II and DST-II, its cosine and sine parts on k < N.
"""

from __future__ import annotations

import numpy as np


def _check_pow2(x: np.ndarray, half: bool = False) -> int:
    """The signal length of ``x``: len(x), or 2 (len(x) - 1) for a half
    spectrum; refused unless ``x`` is 1-D and that length a power of two
    (each transform runs along the last axis)."""
    if x.ndim != 1:
        raise ValueError(f"input must be 1-D, got shape {x.shape}")
    return _pow2(2 * (x.shape[0] - 1) if half else x.shape[0])


def _pow2(n: int) -> int:
    """``n``, refused unless a power of two."""
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")
    return n


def _cis(theta) -> np.ndarray:
    """e^{i theta} for real theta, the one kernel of every such factor in
    the package: cos = (1 - t^2)/(1 + t^2) and sin = 2t/(1 + t^2) with
    t = tan(theta/2), filled in place.  numpy's float64 tan is vectorized
    where its cos and sin are not (x86-64 with AVX-512): this took 0.4 of
    the time of cos plus sin, or of np.exp(1j * theta), on 10^5 points and
    0.75 on 10^3.  On 1400 seeded |theta| up to 1e12 and 126 floats next to
    odd multiples of pi up to 1e12, where |t| is largest (1.6e16), it is
    within 1.9e-16 absolute of 40-digit mpmath (np.cos and np.sin: 5.5e-17);
    ``tests/test_transform.py`` holds it to 2.5e-16 there."""
    t = np.tan(0.5 * np.asarray(theta, dtype=float))
    d = t * t
    out = np.empty(t.shape, dtype=complex)
    cos, sin = out.real, out.imag
    np.subtract(1.0, d, out=cos)
    d += 1.0
    cos /= d
    np.add(t, t, out=sin)
    sin /= d
    return out


def inverse_dft(half, n=None) -> np.ndarray:
    """Unscaled real inverse DFT: x_l = sum_{j<n} X_j e^{+2 pi i l j / n}
    of the real length-n signal whose half spectrum X_0 .. X_{n/2} is
    ``half`` (X_{n-j} = conj X_j; the imaginary parts of X_0 and X_{n/2}
    are ignored).

    n = 2 (len(half) - 1) by default; a given n takes a ``half`` of 1 to
    n/2 + 1 entries, X_j = 0 past them (irfft pads, so the caller copies
    nothing).  n must be a power of two.  Out-of-place: the input buffer is
    never modified.
    """
    X = np.asarray(half, dtype=complex)
    if n is None:
        n = _check_pow2(X, half=True)
    elif X.ndim != 1 or not 1 <= X.size <= _pow2(n) // 2 + 1:
        raise ValueError(f"a signal of length {n} takes a 1-D half spectrum of "
                         f"1 to {n // 2 + 1} entries, got shape {X.shape}")
    return np.fft.irfft(X, n, norm="forward")


def dct2_via_fft(a) -> np.ndarray:
    """DCT-II: a_hat_k = sum_j a_j cos(pi k (j+1/2)/N), the cosine part of
    ``cos_sin_sum`` on k < N."""
    a = np.asarray(a, dtype=float)
    return cos_sin_sum(a, np.zeros_like(a), np.arange(a.size))


def dst2_via_fft(b) -> np.ndarray:
    """DST-II: b_hat_k = sum_j b_j sin(pi k (j+1/2)/N), the sine part of
    ``cos_sin_sum`` on k < N."""
    b = np.asarray(b, dtype=float)
    return cos_sin_sum(np.zeros_like(b), b, np.arange(b.size))


def cos_sin_sum(a, b, k_range) -> np.ndarray:
    """sum_j a_j cos(pi k (j+1/2)/N) + b_j sin(pi k (j+1/2)/N) for each k.

    ``k_range`` is any iterable of integers, negative and >= N allowed.
    The sum is Re sum_j (a_j - i b_j) e^{2 pi i k (2j+1)/(4N)}: half the
    real inverse DFT of length 4N whose half spectrum holds a_j - i b_j at
    the odd slot 2j+1, read at k mod 4N, the sum's period.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("a and b must have the same length")
    n = _check_pow2(a)
    ks = np.asarray(list(k_range) if not isinstance(k_range, np.ndarray) else k_range,
                    dtype=np.int64)
    half = np.zeros(2 * n + 1, dtype=complex)
    half[1::2] = a - 1j * b
    return 0.5 * inverse_dft(half)[ks % (4 * n)]
