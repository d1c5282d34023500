"""Tests for the payoff-coefficient routes."""

import numpy as np
import pytest

from oracles import quad_payoff_classic, quad_payoff_forward
from scipy.integrate import quad
from swiftpricer import (PayoffJob, payoff_classic_si_ein, payoff_classic_simpson,
                         payoff_classic_vieta, payoff_fft_euler_maclaurin,
                         payoff_forward_si_ein)
from swiftpricer.payoff import _end_terms, _moment, em_correction_D

# accuracy-table anchors for (K=1, m=6, k=-1, a=-1)
TABLE_CLOSED = 0.0020420954069492
TABLE_VIETA_5 = -0.0555195115435162
TABLE_VIETA_10 = 0.0020428901436639
# 40-digit evaluations of the same cosine sums (the printed J=10 value
# carries ~2.4e-16 of its own float-summation noise)
TABLE_VIETA_5_EXACT = -0.05551951154351625357
TABLE_VIETA_10_EXACT = 0.0020428901436641304
TABLE_SIMPSON_5 = -0.0020905045216672


class TestClassicSiEin:
    def test_table_value(self):
        v = payoff_classic_si_ein(1.0, 6, -1, -1.0)
        assert v == pytest.approx(TABLE_CLOSED, abs=1e-14)

    def test_vanishing_interval(self):
        assert abs(payoff_classic_si_ein(1.0, 6, -1, -1e-14)) <= 1e-13

    def test_against_quadrature(self):
        v = payoff_classic_si_ein(1.0, 5, 3, -2.0)
        ref = quad_payoff_classic(1.0, 5, 3, -2.0)
        assert v == pytest.approx(ref, abs=1e-13, rel=1e-12)

    @pytest.mark.parametrize("m,k,a", [
        (2, -5, -8.0), (2, 0, -0.3), (4, 7, -1.7), (6, -64, -0.9),
        (8, 100, -0.3), (8, -511, -0.05), (10, 33, -0.08), (3, 2, -0.01),
    ])
    def test_quadrature_sweep(self, m, k, a):
        v = payoff_classic_si_ein(1.0, m, k, a)
        ref = quad_payoff_classic(1.0, m, k, a)
        assert abs(v - ref) <= 1e-12 * max(abs(ref), 2.0 ** (-m / 2.0) / np.pi)

    def test_non_integer_offset(self):
        # the closed form holds for real k (used by the shifted classic route)
        v = payoff_classic_si_ein(1.0, 5, 2.37, -1.0)
        ref = quad_payoff_classic(1.0, 5, 2.37, -1.0)
        assert v == pytest.approx(ref, abs=1e-13, rel=1e-12)

    def test_array_k_equals_scalar_calls(self):
        ks = np.concatenate([np.arange(-70, 70), [2.37, -0.5, 1e-9]])
        got = payoff_classic_si_ein(1.3, 6, ks, -1.0)
        assert got.shape == ks.shape
        ref = np.array([payoff_classic_si_ein(1.3, 6, k, -1.0) for k in ks])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))

    def test_rejects_nonnegative_a(self):
        with pytest.raises(ValueError):
            payoff_classic_si_ein(1.0, 6, -1, 0.5)


class TestClassicVieta:
    def test_table_values(self):
        # printed values matched to one unit in their last printed digit;
        # the 40-digit sums pin the exact values far tighter
        v5 = payoff_classic_vieta(1.0, 6, -1, -1.0, 5)
        assert abs(v5 - TABLE_VIETA_5) <= 1e-16
        assert abs(v5 - TABLE_VIETA_5_EXACT) <= 5e-17
        v10 = payoff_classic_vieta(1.0, 6, -1, -1.0, 10)
        assert abs(v10 - TABLE_VIETA_10_EXACT) <= 5e-17
        assert abs(v10 - TABLE_VIETA_10) <= 3e-16

    def test_converges_to_closed_form(self):
        v = payoff_classic_vieta(1.0, 6, -1, -1.0, 20)
        assert v == pytest.approx(payoff_classic_si_ein(1.0, 6, -1, -1.0), abs=1e-9)


class TestClassicSimpson:
    def test_table_value_exact_at_16_points(self):
        v = payoff_classic_simpson(1.0, 6, -1, -1.0, 16)
        assert abs(v - TABLE_SIMPSON_5) <= 1e-15

    def test_converges(self):
        v = payoff_classic_simpson(1.0, 6, -1, -1.0, 4096)
        assert v == pytest.approx(TABLE_CLOSED, abs=1e-11)


class TestForwardSiEin:
    def test_empty_support(self):
        K = np.exp(-0.5)  # z = -0.5 = a
        assert payoff_forward_si_ein(K, 1.0, 6, 3, -0.5) == 0.0

    def test_equals_classic_at_forward(self):
        for m, k, a in [(4, -3, -1.2), (6, 10, -0.4), (8, 0, -2.0)]:
            fwd = payoff_forward_si_ein(2.5, 2.5, m, k, a)
            cls = payoff_classic_si_ein(2.5, m, k, a)
            assert fwd == pytest.approx(cls, rel=1e-14, abs=1e-16)

    def test_against_quadrature(self):
        v = payoff_forward_si_ein(1.2, 1.0, 8, 10, -0.2815)
        ref = quad_payoff_forward(1.2, 1.0, 8, 10, -0.2815)
        assert v == pytest.approx(ref, abs=1e-13, rel=1e-12)

    def test_array_k_equals_scalar_calls(self):
        # 2^m z = 46.7 puts k near 47 on the small-|z| Taylor branch of Ein
        ks = np.arange(-80, 200)
        got = payoff_forward_si_ein(1.2, 1.0, 8, ks, -0.2815)
        assert got.shape == ks.shape
        ref = np.array([payoff_forward_si_ein(1.2, 1.0, 8, k, -0.2815) for k in ks])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
        empty = payoff_forward_si_ein(np.exp(-0.5), 1.0, 6, ks, -0.5)
        assert np.array_equal(empty, np.zeros(ks.shape))

    @pytest.mark.parametrize("K", [0.93, 1.0, 1.2])
    def test_z_end_terms_serve_both_windows(self, K):
        # the classic 0-end at k - 2^m z is t = pi(0 - (k - 2^m z)), the same
        # floats as the forward z-end t = pi(2^m z - k): handing one set of
        # terms to both forms changes no bit
        m, a, F = 8, -0.2815, 1.0
        ks = np.arange(-80, 200)
        z = np.log(K / F)
        z_terms = _end_terms(m, ks, z)
        assert np.array_equal(
            payoff_forward_si_ein(K, F, m, ks, a, z_terms=z_terms),
            payoff_forward_si_ein(K, F, m, ks, a))
        window = slice(30, 250)
        shifted = ks[window] - 2.0**m * z
        assert np.array_equal(
            payoff_classic_si_ein(K, m, shifted, a, tuple(t[window] for t in z_terms)),
            payoff_classic_si_ein(K, m, shifted, a))

    @pytest.mark.parametrize("K,F,m,k,a", [
        (0.8, 1.0, 5, -7, -1.0), (1.5, 1.0, 6, 40, -0.5),
        (90.0, 100.0, 4, -3, -2.0), (3.0, 1.0, 2, 1, -4.0),
    ])
    def test_quadrature_sweep(self, K, F, m, k, a):
        v = payoff_forward_si_ein(K, F, m, k, a)
        ref = quad_payoff_forward(K, F, m, k, a)
        assert abs(v - ref) <= 1e-12 * max(abs(ref), K * 2.0 ** (-m / 2.0) / np.pi)


class TestTrigMoments:
    def test_empty_interval(self):
        mom = _moment(0.25 * np.pi * 2**6, -1.0, -1.0)
        assert mom.real == 0.0 and mom.imag == 0.0

    def test_against_quadrature(self):
        a, z = -1.0, 0.1
        q = 3.0 / 16.0 * np.pi * 64
        mom = _moment(q, a, z)
        c_ref, _ = quad(lambda y: (np.exp(z) - np.exp(y)) * np.cos(q * y), a, z,
                        epsabs=1e-15, limit=300)
        s_ref, _ = quad(lambda y: (np.exp(z) - np.exp(y)) * np.sin(q * y), a, z,
                        epsabs=1e-15, limit=300)
        assert mom.real == pytest.approx(c_ref, abs=1e-13)
        assert mom.imag == pytest.approx(s_ref, abs=1e-13)


class TestEmCorrectionD:
    def test_empty_interval(self):
        assert em_correction_D(6, -0.7, -0.7) == 0.0

    def test_against_quadrature(self):
        m, a, z = 6, -1.0, 0.0
        p = np.pi * 2**m
        ref, _ = quad(lambda y: 2**m * y * (np.exp(z) - np.exp(y)) * np.sin(p * y),
                      a, z, epsabs=1e-15, limit=2000)
        assert em_correction_D(m, a, z) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("k", [-3, 0, 7])
    def test_full_correction_reconstruction(self, k):
        # (-1)^k (D - k S_N) must equal the correction integral itself
        m, a, z = 6, -1.0, 0.1
        p = np.pi * 2**m
        ref, _ = quad(lambda y: (2**m * y - k) * (np.exp(z) - np.exp(y))
                      * np.sin(np.pi * (2**m * y - k)),
                      a, z, epsabs=1e-15, limit=2000)
        s_cap = _moment(p, a, z).imag
        d_cap = em_correction_D(m, a, z)
        assert (-1.0) ** k * (d_cap - k * s_cap) == pytest.approx(ref, abs=1e-12)


class TestEulerMaclaurinFft:
    def test_empty_support_gives_zeros(self):
        K = np.exp(-1.0)
        job = PayoffJob(K=K, F=1.0, m=6, a=-1.0, b=1.0, k1=-16, k2=16, N=64)
        assert np.array_equal(payoff_fft_euler_maclaurin(job).values, np.zeros(32))

    def test_matches_closed_form(self):
        # N = 512 resolves frequencies up to 2^m|a| + |k| = 192; the worst
        # coefficient (|k| = 128) lands near 1e-7 and the resolved band is
        # an order of magnitude better
        job = PayoffJob(K=1.0, F=1.0, m=6, a=-1.0, b=1.0, k1=-128, k2=128, N=512)
        got = payoff_fft_euler_maclaurin(job).values
        ref = np.array([payoff_forward_si_ein(1.0, 1.0, 6, k, -1.0)
                        for k in range(-128, 128)])
        err = np.abs(got - ref)
        assert err.max() <= 2e-7
        ks = np.arange(-128, 128)
        assert err[np.abs(ks) <= 64].max() <= 5e-8

    def test_correction_improves_on_plain_midpoint(self):
        # geometry chosen so N = 32 already resolves the top frequency
        kh = 8
        ref = np.array([payoff_forward_si_ein(1.0, 1.0, 5, k, -0.5)
                        for k in range(-kh, kh)])
        for N in (32, 128, 512):
            job = PayoffJob(K=1.0, F=1.0, m=5, a=-0.5, b=0.5,
                            k1=-kh, k2=kh, N=N)
            e_corr = np.abs(payoff_fft_euler_maclaurin(job).values - ref).max()
            e_plain = np.abs(payoff_fft_euler_maclaurin(job, corrected=False).values
                             - ref).max()
            assert e_corr < e_plain

    def test_job_validation(self):
        with pytest.raises(ValueError):
            PayoffJob(K=1.0, F=1.0, m=6, a=0.1, b=1.0, k1=-8, k2=8, N=64)
        with pytest.raises(ValueError):
            PayoffJob(K=1.0, F=1.0, m=6, a=-1.0, b=1.0, k1=-8, k2=8, N=48)
        with pytest.raises(ValueError):
            PayoffJob(K=0.0, F=1.0, m=6, a=-1.0, b=1.0, k1=-8, k2=8, N=64)

