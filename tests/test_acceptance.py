"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime so the whole gate can be read off `pytest -v -s`.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from conftest import HESTON_HEAVY, HESTON_SHORT
from oracles import black76_call, black76_put, naive_dct2, naive_dst2, quad_exp_sin
from swiftpricer import (DensityJob, LognormalParams, ModelSpec, PayoffJob,
                         PricingContext, WaveletGrid, auto_grid, cumulants,
                         dct2_via_fft, density_filon, density_mass,
                         density_midpoint_fft, density_trapezoidal_fft,
                         density_vieta_direct, dst2_via_fft, exp_sin_integral,
                         payoff_classic_si_ein, payoff_classic_vieta,
                         payoff_fft_euler_maclaurin, payoff_forward_si_ein,
                         reference_put, truncation_interval)


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget
        print(f"[{'PASS' if ok else 'FAIL'}] {self.label}  "
              f"({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label}: {elapsed:.1f}s over budget"
        return False


def test_criterion_1_table1_reproduction():
    with _Timer("criterion 1: accuracy-table reproduction", 1.0):
        closed = payoff_classic_si_ein(1.0, 6, -1, -1.0)
        assert abs(closed - 0.0020420954069492) <= 1e-14
        v5 = payoff_classic_vieta(1.0, 6, -1, -1.0, 5)
        # one unit in the last printed digit; the exact (40-digit) sums are
        # -0.05551951154351625357 and 0.0020428901436641304 -- the printed
        # J=10 value carries ~2.4e-16 of its own summation noise
        assert abs(v5 - (-0.0555195115435162)) <= 1e-16
        v10 = payoff_classic_vieta(1.0, 6, -1, -1.0, 10)
        assert abs(v10 - 0.0020428901436641304) <= 5e-17
        assert abs(v10 - 0.0020428901436639) <= 3e-16


def test_criterion_2_parseval_vieta_equivalence():
    with _Timer("criterion 2: midpoint-FFT == Vieta direct", 10.0):
        lognormal = ModelSpec(100.0, 1.0, 1.0, LognormalParams(vol=0.2))
        for model in (lognormal, HESTON_SHORT, HESTON_HEAVY):
            for m in (5, 6, 8):
                for J in (5, 8, 11):
                    kh = 1 << (J - 1)
                    fft = density_midpoint_fft(DensityJob(model, m, J, -kh, kh))
                    ks = (range(-kh, kh) if J <= 8 else
                          range(-kh, kh, max(1, kh // 24)))
                    for k in ks:
                        direct = density_vieta_direct(model, m, k, J)
                        assert abs(fft.at(k) - direct) <= 1e-12 * 2.0 ** (m / 2.0)


def test_criterion_3_trapezoidal_superiority():
    with _Timer("criterion 3: trapezoidal vs midpoint price errors", 30.0):
        configs = [
            # short-maturity set at its quoted (m=6, J=5); OTM side = calls
            (HESTON_SHORT, 6, 5, -16, 16, [1.0064, 1.064]),
            # heavy-tail set at its quoted (m=8, J=12)
            (HESTON_HEAVY, 8, 12, -2048, 2048, [250000.0, 4000000.0]),
        ]
        for model, m, J, k1, k2, strikes in configs:
            grid = WaveletGrid(m=m, k1=k1, k2=k2, J=J, a=k1 / 2.0**m, b=k2 / 2.0**m)
            ctx_mid = PricingContext(model, grid, "midpoint")
            ctx_trap = PricingContext(model, grid, "trapezoidal")
            for K in strikes:
                ref = reference_put(model, K)
                e_mid = ctx_mid.price_put(K).price - ref
                e_trap = ctx_trap.price_put(K).price - ref
                assert abs(e_trap) <= abs(e_mid)
                ratio = abs(e_mid) / abs(e_trap)
                assert 2.0 <= ratio <= 10.0, f"ratio {ratio:.2f} at K={K}"


def test_criterion_4_quoted_otm_price():
    with _Timer("criterion 4: quoted OTM price 0.006361", 5.0):
        # the quoted row resolves at (m=8, J=8) with k2-k1 = 2^J; the
        # out-of-the-money option at strike 1.0064 > F is the call, and by
        # exact parity its error equals the put error
        grid = WaveletGrid(m=8, k1=-128, k2=128, J=8, a=-0.5, b=0.5)
        ctx = PricingContext(HESTON_SHORT, grid, "trapezoidal")
        K = 1.0064
        ref_put = reference_put(HESTON_SHORT, K)
        put = ctx.price_put(K, "forward").price
        assert abs(put - ref_put) <= 1e-9
        call = put + HESTON_SHORT.discount * (HESTON_SHORT.forward - K)
        assert f"{call:.4g}" == "0.006361"


def test_criterion_5_truncation_anchor():
    with _Timer("criterion 5: cumulant truncation anchor", 1.0):
        a, b = truncation_interval(cumulants(HESTON_SHORT), 12.0)
        assert round(a, 4) == -0.2815
        assert round(b, 4) == 0.2810


def test_criterion_6_forward_vs_classic_payoff():
    with _Timer("criterion 6: forward vs classic payoff sweep", 60.0):
        m = 8
        a, b = truncation_interval(cumulants(HESTON_SHORT), 12.0)
        strikes = np.linspace(0.8, 1.32, 27)  # stops where z approaches b
        z_min, z_max = np.log(strikes[0]), np.log(strikes[-1])
        k1 = int(np.floor(2.0**m * (a + z_min))) - 1
        k2 = int(np.ceil(2.0**m * (b + z_max))) + 2
        grid = WaveletGrid(m=m, k1=k1, k2=k2, J=14, a=a, b=b)
        ctx = PricingContext(HESTON_SHORT, grid, "trapezoidal")
        err_fwd, err_cls = [], []
        for K in strikes:
            ref = reference_put(HESTON_SHORT, float(K))
            err_fwd.append(abs(ctx.price_put(float(K), "forward").price - ref))
            err_cls.append(abs(ctx.price_put(float(K), "classic").price - ref))
        err_fwd = np.array(err_fwd)
        err_cls = np.array(err_cls)
        assert err_fwd.max() <= 1e-10
        top_decile = strikes >= strikes[0] + 0.9 * (strikes[-1] - strikes[0])
        assert err_cls[top_decile].max() >= 1e-3


def test_criterion_7_black_scholes_oracle():
    with _Timer("criterion 7: Black-76 oracle across vols/maturities", 30.0):
        F, B = 100.0, 1.0
        for vol in (0.05, 0.2, 0.8):
            for T in (0.1, 1.0, 5.0):
                model = ModelSpec(F, T, B, LognormalParams(vol=vol))
                grid = auto_grid(model)
                ctx = PricingContext(model, grid, "trapezoidal")
                for K in np.linspace(0.5 * F, 2.0 * F, 7):
                    put = ctx.price_put(float(K)).price
                    call = ctx.price_call(float(K)).price
                    bp = black76_put(F, float(K), T, vol, B)
                    bc = black76_call(F, float(K), T, vol, B)
                    assert abs(put - bp) <= 1e-8 * (1 + bp)
                    assert abs(call - bc) <= 1e-8 * (1 + bc)


def test_criterion_8a_specfun_identity():
    with _Timer("criterion 8a: Ein identity on 1000 random points", 120.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            a = rng.uniform(-20, 20)
            b = rng.uniform(-200, 200)
            ref = quad_exp_sin(a, b)
            assert abs(exp_sin_integral(a, b) - ref) <= 1e-11 * (1 + abs(ref))


def test_criterion_8b_dct_dst_vs_naive():
    with _Timer("criterion 8b: DCT/DST vs naive sums to N=1024", 120.0):
        rng = np.random.default_rng(7)
        n = 2
        while n <= 1024:
            a = rng.uniform(-1, 1, size=n)
            b = rng.uniform(-1, 1, size=n)
            assert np.abs(dct2_via_fft(a) - naive_dct2(a)).max() <= 1e-12
            assert np.abs(dst2_via_fft(b) - naive_dst2(b)).max() <= 1e-12
            n *= 2


def test_criterion_8c_euler_maclaurin_order():
    with _Timer("criterion 8c: Euler-Maclaurin O(N^-4) slope", 120.0):
        kh, m, a = 8, 5, -0.5
        ref = np.array([payoff_forward_si_ein(1.0, 1.0, m, k, a)
                        for k in range(-kh, kh)])
        sizes = [32, 64, 128, 256, 512]
        e_corr, e_plain = [], []
        for N in sizes:
            job = PayoffJob(K=1.0, F=1.0, m=m, a=a, b=0.5, k1=-kh, k2=kh, N=N)
            e_corr.append(np.abs(payoff_fft_euler_maclaurin(job).values - ref).max())
            e_plain.append(np.abs(
                payoff_fft_euler_maclaurin(job, corrected=False).values - ref).max())
        slope_corr = np.polyfit(np.log(sizes), np.log(e_corr), 1)[0]
        slope_plain = np.polyfit(np.log(sizes), np.log(e_plain), 1)[0]
        assert abs(slope_corr + 4.0) <= 0.5
        assert abs(slope_plain + 2.0) <= 0.5


def test_criterion_8d_no_arbitrage():
    with _Timer("criterion 8d: monotonicity/convexity on 200 strikes", 120.0):
        for model, lo, hi in ((HESTON_SHORT, 0.7, 1.32),
                              (ModelSpec(100.0, 1.0, 0.98, LognormalParams(0.2)),
                               40.0, 250.0)):
            grid = auto_grid(model, mass_tol=1e-10)
            ctx = PricingContext(model, grid, "trapezoidal")
            strikes = np.linspace(lo, hi, 200)
            puts = np.array([ctx.price_put(float(K), "em_fft").price
                             for K in strikes])
            B, F = model.discount, model.forward
            lower = np.maximum(B * (strikes - F), 0.0)
            assert np.all(puts >= lower - 1e-10 * B * strikes)
            assert np.all(puts <= B * strikes + 1e-12)
            assert np.all(np.diff(puts) >= -1e-10 * B * strikes[:-1])
            second = np.diff(puts, 2)
            assert np.all(second >= -1e-10 * B * strikes[1:-1])


def test_criterion_8e_density_mass():
    with _Timer("criterion 8e: density mass on resolved grids", 120.0):
        lognormal = ModelSpec(100.0, 1.0, 1.0, LognormalParams(vol=0.2))
        jobs = [(lognormal, 5, 11, 64), (HESTON_SHORT, 8, 11, 512),
                (HESTON_HEAVY, 8, 12, 2048)]
        for model, m, J, kh in jobs:
            c = density_trapezoidal_fft(DensityJob(model, m, J, -kh, kh))
            assert abs(density_mass(c, m) - 1.0) <= 1e-4


def test_criterion_9_performance_orderings():
    with _Timer("criterion 9: performance orderings", 120.0):
        # FFT payoff path vs per-coefficient closed form at >= 1024 coeffs
        job = PayoffJob(K=1.0, F=1.0, m=8, a=-4.0, b=4.0, k1=-1024, k2=1024, N=2048)

        def time_median(fn, reps=3):
            ts = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                ts.append(time.perf_counter() - t0)
            return sorted(ts)[len(ts) // 2]

        t_fft = time_median(lambda: payoff_fft_euler_maclaurin(job))
        t_direct = time_median(
            lambda: [payoff_forward_si_ein(1.0, 1.0, 8, k, -4.0)
                     for k in range(-1024, 1024)], reps=1)
        assert t_fft < t_direct

        # Filon: fewer cf evaluations, more wall time than trapezoidal-FFT
        # at the heavy-tail scale (m=8, J=12)
        djob = DensityJob(HESTON_HEAVY, 8, 12, -2048, 2048)
        t_trap = time_median(lambda: density_trapezoidal_fft(djob))
        evals = []
        t_filon = time_median(lambda: evals.append(
            density_filon(HESTON_HEAVY, 8, -2048, 2048, tol=1e-8)[1]))
        assert evals[-1] < (1 << 11)  # trapezoidal-FFT evaluates 2^{J-1} = 2048
        assert t_filon > t_trap
