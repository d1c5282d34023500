"""Tests for the inverse DFT and the DCT/DST constructions."""

import numpy as np
import pytest

from oracles import naive_cos_sin, naive_dct2, naive_dst2, naive_inverse_dft
from swiftpricer import cos_sin_sum, dct2_via_fft, dst2_via_fft, inverse_dft


class TestInverseDft:
    def test_delta_to_constant(self):
        g = inverse_dft([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(g, np.ones(4), atol=1e-15)

    def test_constant_to_scaled_delta(self):
        g = inverse_dft([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(g, [4.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_random_vs_naive(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.abs(inverse_dft(x) - naive_inverse_dft(x)).max() <= 1e-13 * 16

    @pytest.mark.parametrize("n", [3, 6, 12, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            inverse_dft(np.zeros(n, dtype=complex))

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for n in (8, 64, 512):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            # forward DFT = conj(inverse(conj(x)))
            fwd = np.conj(inverse_dft(np.conj(inverse_dft(x)))) / n
            assert np.abs(fwd - x).max() <= 1e-13 * np.abs(x).max()

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for n in (16, 256):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            g = inverse_dft(x)
            lhs = np.sum(np.abs(g) ** 2)
            rhs = n * np.sum(np.abs(x) ** 2)
            assert abs(lhs - rhs) <= 1e-11 * rhs

    def test_linearity(self):
        rng = np.random.default_rng(4)
        n = 64
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        al, be = 1.7 - 0.3j, -2.1 + 0.9j
        lhs = inverse_dft(al * x + be * y)
        rhs = al * inverse_dft(x) + be * inverse_dft(y)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_input_not_modified(self):
        x = np.arange(8, dtype=complex)
        keep = x.copy()
        inverse_dft(x)
        assert np.array_equal(x, keep)


class TestDct2:
    def test_zeros(self):
        assert np.array_equal(dct2_via_fft(np.zeros(8)), np.zeros(8))

    def test_single_term(self):
        a = np.zeros(8)
        a[0] = 1.0
        expected = np.cos(np.pi * np.arange(8) / 16.0)
        assert np.abs(dct2_via_fft(a) - expected).max() <= 1e-14

    def test_random_vs_naive(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=32)
        assert np.abs(dct2_via_fft(a) - naive_dct2(a)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_size_sweep(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(-1, 1, size=n)
        assert np.abs(dct2_via_fft(a) - naive_dct2(a)).max() <= 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            dct2_via_fft(np.zeros(12))


class TestDst2:
    def test_zeros(self):
        assert np.array_equal(dst2_via_fft(np.zeros(8)), np.zeros(8))

    def test_single_term(self):
        b = np.zeros(8)
        b[0] = 1.0
        expected = np.sin(np.pi * np.arange(8) / 16.0)
        assert np.abs(dst2_via_fft(b) - expected).max() <= 1e-14

    def test_random_vs_naive(self):
        rng = np.random.default_rng(6)
        b = rng.normal(size=32)
        assert np.abs(dst2_via_fft(b) - naive_dst2(b)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_size_sweep(self, n):
        rng = np.random.default_rng(n + 1)
        b = rng.uniform(-1, 1, size=n)
        assert np.abs(dst2_via_fft(b) - naive_dst2(b)).max() <= 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            dst2_via_fft(np.zeros(24))


class TestCosSinSum:
    def test_reduces_to_dct_when_b_zero(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=16)
        got = cos_sin_sum(a, np.zeros(16), range(16))
        assert np.abs(got - dct2_via_fft(a)).max() <= 1e-13

    def test_reduces_to_dst_when_a_zero(self):
        rng = np.random.default_rng(8)
        b = rng.normal(size=16)
        got = cos_sin_sum(np.zeros(16), b, range(16))
        assert np.abs(got - dst2_via_fft(b)).max() <= 1e-13

    def test_random_vs_naive(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=64)
        b = rng.normal(size=64)
        ks = range(64)
        assert np.abs(cos_sin_sum(a, b, ks) - naive_cos_sin(a, b, ks)).max() <= 1e-12

    def test_extended_k_range_vs_naive(self):
        # negative k and k beyond 2N exercise the period 2N and its sign
        rng = np.random.default_rng(10)
        for n in (1, 2, 32):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            ks = np.arange(-10 * n, 10 * n + 1)
            got = cos_sin_sum(a, b, ks)
            ref = naive_cos_sin(a, b, ks)
            assert np.abs(got - ref).max() <= 1e-12, n

    def test_index_n_special_values(self):
        rng = np.random.default_rng(11)
        n = 16
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        got = cos_sin_sum(a, b, [n])
        ref = naive_cos_sin(a, b, [n])
        assert abs(got[0] - ref[0]) <= 1e-13

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cos_sin_sum(np.zeros(8), np.zeros(4), range(4))

    def test_linearity(self):
        rng = np.random.default_rng(12)
        n = 32
        ks = np.arange(-n, 2 * n)
        a1, b1 = rng.normal(size=n), rng.normal(size=n)
        a2, b2 = rng.normal(size=n), rng.normal(size=n)
        lhs = cos_sin_sum(2.0 * a1 - a2, 2.0 * b1 - b2, ks)
        rhs = 2.0 * cos_sin_sum(a1, b1, ks) - cos_sin_sum(a2, b2, ks)
        assert np.abs(lhs - rhs).max() <= 1e-12
