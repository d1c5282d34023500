"""Tests for grid selection, pricing assembly, and the reference pricer."""

import ast
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from conftest import (HESTON_HEAVY, HESTON_SHORT, LOGNORMAL_02, record_cf_points,
                      traced_peak_kib)
from oracles import black76_call, black76_put, parseval_put, quad_reference_put
from swiftpricer import (CoefficientArray, Cumulants, DensityJob, GridSelectionError,
                         HestonParams, ModelSpec, LognormalParams, PricingContext, ReferenceError,
                         WaveletGrid, auto_grid, char_fn, cumulants,
                         density_trapezoidal_fft, payoff_classic_si_ein, payoff_forward_si_ein,
                         reference_put, select_k_range, select_scale,
                         truncation_interval)
import swiftpricer.density as density_mod
import swiftpricer.payoff as payoff_mod
import swiftpricer.pricer as pricer_mod
from swiftpricer.pricer import PAYOFF_STRATEGIES, grid_for

BLACK_ATM = 7.965567455405804  # Black-76 put, F=K=100, T=1, vol=0.2
REFERENCE_MODELS = [LOGNORMAL_02, HESTON_SHORT, HESTON_HEAVY]


def fresh_draw(rng):
    """A seeded model as the benchmark's ``fresh`` workload draws them."""
    if rng.random() < 0.75:
        dyn = HestonParams(v0=rng.uniform(0.01, 0.1), kappa=rng.uniform(0.1, 2.0),
                           theta=rng.uniform(0.01, 0.1), sigma=rng.uniform(0.2, 1.5),
                           rho=rng.uniform(-0.9, 0.5))
        return ModelSpec(float(np.exp(rng.uniform(0.0, np.log(1e6)))),
                         rng.uniform(2.0 / 365.0, 1.0), 1.0, dyn)
    return ModelSpec(100.0, rng.uniform(0.05, 2.0), rng.uniform(0.9, 1.0),
                     LognormalParams(rng.uniform(0.05, 0.8)))


def short_grid(J=5, m=6, kh=16):
    return WaveletGrid(m=m, k1=-kh, k2=kh, J=J, a=-kh / 2.0**m, b=kh / 2.0**m)


class TestTruncationInterval:
    def test_arithmetic(self):
        a, b = truncation_interval(Cumulants(0.0, 0.01), 10.0)
        assert (a, b) == (-1.0, 1.0)

    def test_heston_short_anchor(self):
        a, b = truncation_interval(cumulants(HESTON_SHORT), 12.0)
        assert round(a, 4) == -0.2815
        assert round(b, 4) == 0.2810

    def test_lognormal(self):
        a, b = truncation_interval(cumulants(LOGNORMAL_02), 8.0)
        assert a == pytest.approx(-0.02 - 8 * 0.2, rel=1e-12)
        assert b == pytest.approx(-0.02 + 8 * 0.2, rel=1e-12)

    def test_rejects_bad_level(self):
        for L in (0.0, float("inf")):
            with pytest.raises(ValueError, match="L must be"):
                truncation_interval(Cumulants(0.0, 0.01), L)


class TestSelectScale:
    def test_lognormal(self):
        assert select_scale(LOGNORMAL_02) == 4

    def test_heston_short_consistency(self):
        m = select_scale(HESTON_SHORT)
        assert 5 <= m <= 9
        # defining property, checked against the cf directly
        assert abs(char_fn(HESTON_SHORT, 2.0**m * np.pi)) <= 1e-8
        assert abs(char_fn(HESTON_SHORT, 2.0 ** (m - 1) * np.pi)) > 1e-8

    def test_unreachable_raises(self):
        frozen = ModelSpec(1.0, 1e-8, 1.0, LognormalParams(vol=1e-6))
        with pytest.raises(GridSelectionError):
            select_scale(frozen)

    def test_unreachable_message(self):
        frozen = ModelSpec(1.0, 1e-8, 1.0, LognormalParams(vol=1e-6))
        last = abs(char_fn(frozen, 2.0**12 * np.pi))
        with pytest.raises(GridSelectionError) as exc_info:
            select_scale(frozen)
        assert str(exc_info.value) == (
            f"no scale in [1, 12] reaches |psi(2^m pi)| <= 1e-08 "
            f"(|psi(2^12 pi)| = {last:.3e})")

    def test_one_cf_call(self, monkeypatch):
        sizes = record_cf_points(monkeypatch)
        select_scale(HESTON_HEAVY)
        assert sizes == [12]

    def test_same_scale_as_one_call_per_scale(self):
        def per_scale(model):
            for m in range(1, 13):
                if abs(char_fn(model, 2.0**m * np.pi)) <= 1e-8:
                    return m
        rng = np.random.default_rng(20261018)
        models = [LOGNORMAL_02, HESTON_SHORT, HESTON_HEAVY]
        models += [fresh_draw(rng) for _ in range(300)]
        for model in models:
            assert select_scale(model) == per_scale(model), model


class TestSelectKRange:
    def test_point_mass_minimal_range(self, point_mass):
        c = density_trapezoidal_fft(DensityJob(point_mass, 4, 8, -128, 128))
        assert select_k_range(c, 4, 1e-6) == (-1, 1)

    def test_lognormal_vs_normal_quantiles(self):
        m, mass_tol = 5, 1e-6
        c = density_trapezoidal_fft(DensityJob(LOGNORMAL_02, m, 12, -2048, 2048))
        k1, k2 = select_k_range(c, m, mass_tol)
        # y is normal(-0.02, 0.2); the chosen range must cover the two-sided
        # quantile at mass_tol and the halved range must not
        q = norm.ppf(1 - mass_tol / 2)
        sd, mu = 0.2, -0.02
        assert k1 / 2.0**m <= mu - q * sd * 0.9
        assert k2 / 2.0**m >= mu + q * sd * 0.9
        inner = norm.cdf((k2 / 2 / 2.0**m - mu) / sd) - norm.cdf((k1 / 2 / 2.0**m - mu) / sd)
        assert inner < 1 - mass_tol

    def test_monotone_in_tolerance(self):
        c = density_trapezoidal_fft(DensityJob(LOGNORMAL_02, 5, 12, -2048, 2048))
        loose = select_k_range(c, 5, 0.5)
        tight = select_k_range(c, 5, 1e-8)
        assert loose[1] - loose[0] < tight[1] - tight[0]

    def test_unreachable_mass_raises(self):
        c = density_trapezoidal_fft(DensityJob(LOGNORMAL_02, 5, 6, -4, 4))
        with pytest.raises(GridSelectionError, match="achieved mass"):
            select_k_range(c, 5, 1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_windows_against_np_sum(self, seed):
        # a seeded bell of Riemann mass 1 whose tails ring below zero, on
        # [-kh, kh) or a range reaching further right; each doubling's mass
        # by its own np.sum
        rng = np.random.default_rng(seed)
        m, kh = int(rng.integers(1, 11)), 1 << int(rng.integers(3, 13))
        k = np.arange(-kh, kh + int(rng.integers(0, 3 * kh)))
        bell = np.exp(-0.5 * ((k - rng.uniform(-2.0, 2.0)) / rng.uniform(1.0, kh / 8)) ** 2)
        values = bell + 1e-5 * np.cos(2.0 * np.pi * k / 3.0) / (1.0 + np.abs(k))
        assert values.min() < 0.0
        values *= 2.0 ** (m / 2.0) / np.sum(values)
        full = kh.bit_length() - 1  # the largest window in range, [-kh, kh)

        def mass(p):
            return 2.0 ** (-m / 2.0) * np.sum(values[kh - (1 << p):kh + (1 << p)])

        for mass_tol in 10.0 ** -rng.uniform(1.0, 9.0, 6):
            reach = [p for p in range(full + 1) if mass(p) >= 1.0 - mass_tol]
            if not reach:
                with pytest.raises(GridSelectionError, match="achieved mass"):
                    select_k_range(CoefficientArray(int(k[0]), values), m, mass_tol)
                continue
            k1, k2 = select_k_range(CoefficientArray(int(k[0]), values), m, mass_tol)
            assert (k1, k2) == (-(1 << reach[0]), 1 << reach[0])
        # short of the target on the full window: its mass in the message
        values *= 1.0 - 1e-6
        with pytest.raises(GridSelectionError, match="achieved mass") as err:
            select_k_range(CoefficientArray(int(k[0]), values), m, 1e-8)
        assert abs(float(str(err.value).rsplit(" ", 1)[1]) - mass(full)) <= 1e-12

    def test_no_window_fits(self):
        # k1 = 0: not even [-1, 1) lies in the range
        c = CoefficientArray(0, np.ones(8))
        with pytest.raises(GridSelectionError, match="achieved mass 0"):
            select_k_range(c, 5, 1e-3)

    @pytest.mark.parametrize("mass_tol", [0.0, 1.0, -1e-3, float("nan")])
    def test_mass_tol_outside_unit_interval_refused(self, mass_tol):
        c = density_trapezoidal_fft(DensityJob(LOGNORMAL_02, 5, 6, -4, 4))
        with pytest.raises(ValueError, match="mass_tol"):
            select_k_range(c, 5, mass_tol)


class TestAllocationBudget:
    # tracemalloc peaks of the heavy model's setup (J = 16: 32768 nodes);
    # a full-size complex temporary is 512 KiB
    def test_auto_grid(self):
        # 1800 KiB; 2707 KiB while the cf and the loader held full-size
        # temporaries
        assert traced_peak_kib(lambda: auto_grid(HESTON_HEAVY)) <= 2048

    def test_em_sums(self):
        # the 512 KiB table W plus one block's temporaries read 841 KiB;
        # 2049 KiB with full-size ones
        ctx = PricingContext(HESTON_HEAVY, auto_grid(HESTON_HEAVY))

        def sums():
            vars(ctx).pop("_em_sums", None)
            return ctx._em_sums
        assert ctx.grid.J == 16
        assert traced_peak_kib(sums) <= 1024


class TestPricePut:
    def test_empty_support_prices_zero(self, heston_short):
        grid = short_grid()
        K = float(np.exp(grid.a) * 0.5)  # z well below a
        res = PricingContext(heston_short, grid).price_put(K)
        assert abs(res.price) <= heston_short.discount * K * 1e-10

    def test_otm_table_row(self, heston_short):
        # (m=6, J=5) quoted strike 1.0064: trapezoidal error about -7.4e-8,
        # midpoint about +4.0e-7 against the reference pricer
        grid = short_grid()
        ref = reference_put(heston_short, 1.0064)
        trap = PricingContext(heston_short, grid, "trapezoidal").price_put(1.0064).price
        mid = PricingContext(heston_short, grid, "midpoint").price_put(1.0064).price
        assert trap - ref == pytest.approx(-7.39e-08, abs=2e-9)
        assert mid - ref == pytest.approx(3.97e-07, abs=1e-8)
        # the OTM option at this strike is the call; 4 printed digits
        call = trap + heston_short.discount * (heston_short.forward - 1.0064)
        assert f"{call:.4g}" == "0.006361"

    def test_lognormal_vs_black(self):
        grid = WaveletGrid(m=5, k1=-64, k2=64, J=11, a=-2.0, b=2.0)
        res = PricingContext(LOGNORMAL_02, grid).price_put(100.0)
        assert res.price == pytest.approx(BLACK_ATM, abs=1e-8)

    def test_discount_factor_honored(self):
        model = ModelSpec(100.0, 1.0, 0.97, LognormalParams(vol=0.2))
        grid = WaveletGrid(m=5, k1=-64, k2=64, J=11, a=-2.0, b=2.0)
        res = PricingContext(model, grid).price_put(100.0)
        assert res.price == pytest.approx(0.97 * BLACK_ATM, abs=1e-8)
        assert res.price == pytest.approx(
            black76_put(100.0, 100.0, 1.0, 0.2, B=0.97), abs=1e-8)

    def test_unknown_strategies_rejected(self, lognormal):
        grid = short_grid()
        with pytest.raises(ValueError):
            PricingContext(lognormal, grid, density_strategy="simpson")
        with pytest.raises(ValueError):
            PricingContext(lognormal, grid).price_put(100.0, payoff_strategy="cosine")
        with pytest.raises(ValueError, match="unknown payoff strategy"):
            PricingContext(lognormal, grid).price_puts([100.0], "cosine")


class TestForwardRoute:
    def test_a_end_terms_computed_once(self, heston_short, monkeypatch):
        calls = {"n": 0}
        real = payoff_mod.ein

        def counting(z):
            calls["n"] += 1
            return real(z)

        monkeypatch.setattr(payoff_mod, "ein", counting)
        grid = short_grid()
        ctx = PricingContext(heston_short, grid)
        ks = np.arange(grid.k1, grid.k2)
        c, F = ctx.coeffs.values, heston_short.forward
        for i, K in enumerate((0.97, 1.0, 1.0064, 1.05)):
            before = calls["n"]
            price = ctx.price_put(K, "forward").price
            # the first price also fills the context's a-end terms
            assert calls["n"] - before == (2 if i == 0 else 1)
            direct = heston_short.discount * np.dot(
                c, payoff_forward_si_ein(K, F, grid.m, ks, grid.a))
            assert abs(price - direct) <= 1e-15 * max(K, F)


class TestPriceCall:
    def test_parity_at_the_money(self, lognormal):
        grid = WaveletGrid(m=5, k1=-64, k2=64, J=11, a=-2.0, b=2.0)
        ctx = PricingContext(lognormal, grid)
        assert ctx.price_call(100.0).price == ctx.price_put(100.0).price

    def test_zero_strike(self, lognormal):
        grid = WaveletGrid(m=5, k1=-64, k2=64, J=11, a=-2.0, b=2.0)
        res = PricingContext(lognormal, grid).price_call(0.0)
        assert res.price == lognormal.discount * lognormal.forward

    def test_vs_black_call(self, lognormal):
        grid = WaveletGrid(m=5, k1=-64, k2=64, J=11, a=-2.0, b=2.0)
        res = PricingContext(lognormal, grid).price_call(100.0)
        assert res.price == pytest.approx(black76_call(100.0, 100.0, 1.0, 0.2),
                                          abs=1e-8)


def check_against_oracle(ctx, strikes):
    # absolute tolerance: the oracle's own rounding is about eps K, so a
    # relative check would fail on prices many digits below K
    got = ctx.price_puts(strikes)
    F = ctx.model.forward
    for K, price in zip(strikes, got):
        assert abs(price - parseval_put(ctx.model, ctx.grid, K)) <= 1e-14 * max(K, F), K
    return got


class TestPricePuts:
    @pytest.mark.parametrize("model, n", [(LOGNORMAL_02, 200), (HESTON_SHORT, 200),
                                          (HESTON_HEAVY, 100)],
                             ids=["lognormal", "heston_short", "heston_heavy"])
    def test_matches_per_strike_oracle(self, model, n):
        grid = auto_grid(model, mass_tol=1e-8)
        ctx = PricingContext(model, grid)
        F = model.forward
        rng = np.random.default_rng(20201)
        z = rng.uniform(1.1 * grid.a, 1.2 * grid.b, n)
        strikes = np.concatenate([F * np.exp(z), [F, 0.0, F * np.exp(1.5 * grid.a),
                                                  F * np.exp(1.5 * grid.b)]])
        got = check_against_oracle(ctx, strikes)
        below = strikes <= F * np.exp(grid.a)
        assert below.sum() >= 2 and np.all(got[below] == 0.0)
        assert np.sum(strikes > F * np.exp(grid.b)) >= 2

    def test_folded_coefficients_on_short_payoff_grid(self, heston_short):
        # em_fft reads no coefficient: a window of odd k1 that spans most of
        # 2^J = 256 prices as the oracle
        grid = WaveletGrid(m=7, k1=-101, k2=139, J=8, a=-0.75, b=1.05)
        ctx = PricingContext(heston_short, grid)
        check_against_oracle(ctx, np.linspace(0.5, 2.5, 41))

    @pytest.mark.parametrize("nodes, n_random", [(1, 40), (2, 40), (128, 40), (1 << 15, 260)])
    def test_factored_sum_on_hand_built_grids(self, heston_short, nodes, n_random):
        # the w_j sum over the 2^(J-1) nodes through the (2^(J-1)/s, s) phase
        # table: s = 2^(J-1)/s = 1 (J = 1), s = 1 (J = 2), non-square (J = 8:
        # 16 x 8, J = 16: 256 x 128); at J = 16 the strikes fill more than
        # one block of _BLOCK_ELEMENTS // 256 = 256
        F = heston_short.forward
        a = float(np.log(0.5 / F))  # z = ln(K/F) is exactly a at K = 0.5
        kh = min(120, nodes)
        grid = WaveletGrid(m=7, k1=-kh, k2=kh, J=nodes.bit_length(), a=a, b=1.05)
        ctx = PricingContext(heston_short, grid)
        assert ctx._em_sums[0].shape == {1: (1, 1), 2: (2, 1), 128: (16, 8),
                                         1 << 15: (256, 128)}[nodes]
        rng = np.random.default_rng(20210)
        edges = [0.0, 0.5, 0.5 * (1.0 + 1e-9), F, F * np.exp(1.2 * grid.b)]
        strikes = np.concatenate([edges, F * np.exp(rng.uniform(a, grid.b, n_random))])
        if nodes == 1 << 15:
            assert len(strikes) > pricer_mod._BLOCK_ELEMENTS // 256
        got = check_against_oracle(ctx, strikes)
        assert got[0] == 0.0 and got[1] == 0.0

    def test_scalar_route_is_a_batch_of_one(self, heston_short):
        strikes = (0.0, 0.3, 0.97, 1.0, 1.02, 5.0)
        for route in PAYOFF_STRATEGIES:
            # the classic window moves with the strike: cover each one
            grid = (grid_for(heston_short, strikes=strikes) if route == "classic"
                    else auto_grid(heston_short))
            ctx = PricingContext(heston_short, grid)
            for K in strikes:
                assert ctx.price_put(K, route).price == ctx.price_puts([K], route)[0]

    def test_zero_strike_exact(self, lognormal):
        ctx = PricingContext(lognormal, auto_grid(lognormal))
        assert ctx.price_puts([0.0, 0.0]).tolist() == [0.0, 0.0]
        assert ctx.price_call(0.0, "em_fft").price == lognormal.discount * lognormal.forward

    def test_sums_filled_on_first_em_fft_use(self, lognormal):
        ctx = PricingContext(lognormal, auto_grid(lognormal))
        ctx.price_put(100.0, "forward")
        assert "_em_sums" not in vars(ctx)
        ctx.price_puts([100.0])
        assert "_em_sums" in vars(ctx)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_bad_strikes_rejected(self, lognormal, bad):
        ctx = PricingContext(lognormal, auto_grid(lognormal))
        for route in PAYOFF_STRATEGIES:
            with pytest.raises(ValueError, match="strike"):
                ctx.price_puts([100.0, bad], route)
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                ctx.price_put(bad, route)
            with pytest.raises(ValueError, match="strike"):
                ctx.price_call(bad, route)

    def test_two_dimensional_strikes_rejected(self, lognormal):
        ctx = PricingContext(lognormal, auto_grid(lognormal))
        with pytest.raises(ValueError, match="1-D sequence"):
            ctx.price_puts([[90.0, 100.0]])

    def test_grid_without_put_coverage_rejected(self, lognormal):
        grid = WaveletGrid(m=5, k1=8, k2=64, J=11, a=0.25, b=2.0)
        ctx = PricingContext(lognormal, grid)
        with pytest.raises(ValueError, match="a < 0 <= b"):
            ctx.price_puts([100.0])

    def test_ten_thousand_strikes_on_heavy_grid(self, heston_heavy):
        grid = auto_grid(heston_heavy, mass_tol=1e-8)
        ctx = PricingContext(heston_heavy, grid)
        F, B = heston_heavy.forward, heston_heavy.discount
        strikes = F * np.exp(np.linspace(1.05 * grid.a, 1.05 * grid.b, 10_000))
        puts = ctx.price_puts(strikes)
        slack = 1e-9 * np.maximum(strikes, F)
        assert np.all(np.isfinite(puts))
        assert np.all(puts >= np.maximum(B * (strikes - F), 0.0) - slack)
        assert np.all(puts <= B * strikes + slack)


class TestParsevalRoute:
    """em_fft prices from fhat on the level-J trapezoidal nodes alone."""

    def test_same_prices_on_every_density(self, heston_short, monkeypatch):
        grid = WaveletGrid(m=7, k1=-101, k2=139, J=8, a=-0.75, b=1.05)
        strikes = np.linspace(0.4, 2.5, 43)
        want = PricingContext(heston_short, grid).price_puts(strikes)
        sizes = record_cf_points(monkeypatch)
        for density in ("trapezoidal", "midpoint", "filon"):
            ctx = PricingContext(heston_short, grid, density)
            before, init_evals = len(sizes), ctx.cf_evals
            assert np.array_equal(ctx.price_puts(strikes), want), density
            ctx.price_puts(strikes[::2])
            # the trapezoidal context prices from the fhat its density
            # used; the others evaluate the 2^(J-1) nodes once
            extra = [] if density == "trapezoidal" else [1 << (grid.J - 1)]
            assert sizes[before:] == extra, density
            assert ctx.cf_evals == init_evals + sum(extra)

    @pytest.mark.parametrize("density", ["midpoint", "filon"])
    def test_carried_fhat_serves_every_density(self, lognormal, monkeypatch, density):
        grid = auto_grid(lognormal)
        strikes = np.linspace(50.0, 200.0, 31)
        want = PricingContext(lognormal, grid).price_puts(strikes)
        ctx = PricingContext(lognormal, grid, density)
        sizes = record_cf_points(monkeypatch)
        evals = ctx.cf_evals
        assert np.array_equal(ctx.price_puts(strikes), want)
        assert sizes == [] and ctx.cf_evals == evals

    def test_accuracy_on_fresh_draws(self):
        # the benchmark's fresh draws, 5 strikes F exp(c1 + u sqrt(c2)),
        # u ~ U(-2, 2), each; a lognormal draw against Black-76
        rng = np.random.default_rng(2610)
        for i in range(60):
            model = fresh_draw(rng)
            c = cumulants(model)
            F = model.forward
            strikes = F * np.exp(c.c1 + rng.uniform(-2.0, 2.0, 5) * np.sqrt(c.c2))
            got = PricingContext(model, auto_grid(model)).price_puts(strikes)
            if isinstance(model.dynamics, LognormalParams):
                ref = black76_put(F, strikes, model.maturity, model.dynamics.vol,
                                  model.discount)
            else:
                ref = reference_put(model, strikes)
            assert np.all(np.abs(got - ref) <= 1e-8 * F), (i, model)

    def test_pricer_calls_no_transform(self):
        # the pricing path is transform-free: no FFT module, no inverse_dft
        # and no cos_sin_sum, whatever the import spelling
        names = []
        for node in ast.walk(ast.parse(Path(pricer_mod.__file__).read_text())):
            if isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.alias):
                names += node.name.split(".")
            elif isinstance(node, ast.ImportFrom) and node.module:
                names += node.module.split(".")
        found = [n for n in names
                 if n in ("fft", "rfft", "irfft", "inverse_dft", "cos_sin_sum")]
        assert not found


def forward_oracle(ctx, K):
    """B sum_k c_k V_k(K), V from one ``payoff_forward_si_ein`` call."""
    g, F = ctx.grid, ctx.model.forward
    if K == 0.0:
        return 0.0
    V = payoff_forward_si_ein(K, F, g.m, np.arange(g.k1, g.k2), g.a)
    return float(ctx.model.discount * np.dot(ctx.coeffs.values, V))


def classic_oracle(ctx, K):
    """B sum_k c_k V_k(K) over the strike-shifted window [a+z, b+z]."""
    g, F = ctx.grid, ctx.model.forward
    if K == 0.0:
        return 0.0
    z = np.log(K / F)
    k1 = int(np.floor(2.0**g.m * (g.a + z)))
    k2 = int(np.ceil(2.0**g.m * (g.b + z))) + 1
    V = payoff_classic_si_ein(K, g.m, np.arange(k1, k2) - 2.0**g.m * z, g.a)
    return float(ctx.model.discount * np.dot(ctx.coeffs.values[k1 - g.k1:k2 - g.k1], V))


class TestSiEinRoutes:
    """``price_puts`` on forward and classic against the per-strike sums."""

    @pytest.mark.parametrize("model", REFERENCE_MODELS,
                             ids=["lognormal", "heston_short", "heston_heavy"])
    @pytest.mark.parametrize("route, oracle", [("forward", forward_oracle),
                                               ("classic", classic_oracle)],
                             ids=["forward", "classic"])
    def test_matches_per_strike_sum(self, model, route, oracle):
        # error-sweep's grid: m = 8 and the L = 12 cumulant window
        a, b = truncation_interval(cumulants(model), 12.0)
        rng = np.random.default_rng(20208)
        z = np.concatenate([rng.uniform(1.5 * a, 1.5 * b, 46), [0.0, 1.2 * a, 1.2 * b]])
        assert np.sum(z <= a) >= 2 and np.sum(z > b) >= 2
        strikes = np.concatenate([[0.0], model.forward * np.exp(z)])
        ctx = PricingContext(model, grid_for(model, m=8, L=12.0, strikes=strikes))
        assert (ctx.grid.a, ctx.grid.b) == (a, b)
        got = ctx.price_puts(strikes, route)
        assert got.tolist() == [oracle(ctx, K) for K in strikes.tolist()]
        assert got[0] == 0.0

    @pytest.mark.parametrize("model", REFERENCE_MODELS,
                             ids=["lognormal", "heston_short", "heston_heavy"])
    def test_combined_call_matches_single_routes(self, model):
        # one row per route, each equal to that route asked alone
        a, b = truncation_interval(cumulants(model), 12.0)
        rng = np.random.default_rng(20213)
        z = np.concatenate([rng.uniform(1.5 * a, 1.5 * b, 30), [0.0, 1.2 * a, 1.2 * b]])
        assert np.sum(z <= a) >= 2 and np.sum(z > b) >= 2
        strikes = np.concatenate([[0.0], model.forward * np.exp(z)])
        ctx = PricingContext(model, grid_for(model, m=8, L=12.0, strikes=strikes))
        single = {route: ctx.price_puts(strikes, route).tolist()
                  for route in ("classic", "forward")}
        both = ctx.price_puts(strikes, ("classic", "forward"))
        assert both.shape == (2, strikes.size)
        assert both.tolist() == [single["classic"], single["forward"]]
        assert ctx.price_puts(strikes, ["forward", "classic"]).tolist() == [
            single["forward"], single["classic"]]

    def test_combined_call_refusals(self, heston_short):
        grid = WaveletGrid(m=8, k1=-80, k2=80, J=9, a=-0.2815, b=0.2810)
        ctx = PricingContext(heston_short, grid)
        with pytest.raises(ValueError, match="not covered"):
            ctx.price_puts([1.0, 1.3], ("classic", "forward"))
        with pytest.raises(ValueError, match="unknown payoff strategy 'cosine'"):
            ctx.price_puts([1.0], ("forward", "cosine"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_price_refused(self, heston_short):
        # b ~ 703 at m = 1: e^{k/2^m - z} overflows and V turns NaN
        ctx = PricingContext(heston_short, grid_for(heston_short, m=1, L=30000.0,
                                                    strikes=[1.0]))
        assert np.isfinite(ctx.price_puts([1.0], "classic")).all()
        with pytest.raises(FloatingPointError, match=r"forward price of strike 1\.0 "):
            ctx.price_puts([0.0, 1.0], "forward")
        with pytest.raises(FloatingPointError, match=r"forward price of strike 1\.0 "):
            ctx.price_puts([0.0, 1.0], ("classic", "forward"))


class TestSharedContexts:
    """``price_puts_shared``: contexts on one model and grid priced with one
    set of Si/Ein payoff vectors per strike."""

    ROUTES = ("forward", "classic", "em_fft", ("classic", "forward"))

    @pytest.mark.parametrize("route", ROUTES, ids=["forward", "classic", "em_fft", "both"])
    def test_bit_for_bit_the_contexts_one_by_one(self, heston_short, route):
        strikes = [0.0, 0.9, 1.0, 1.0064, 1.064]
        grid = grid_for(heston_short, m=6, J=8, strikes=strikes)
        contexts = [PricingContext(heston_short, grid, d) for d in ("midpoint", "trapezoidal")]
        got = pricer_mod.price_puts_shared(contexts, strikes, route)
        want = np.array([c.price_puts(strikes, route) for c in contexts])
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_each_payoff_computed_once(self, heston_short, monkeypatch):
        # the two contexts take the Ein points of one
        points, ein = [], payoff_mod.ein
        monkeypatch.setattr(payoff_mod, "ein", lambda z: points.append(np.size(z)) or ein(z))
        strikes = [0.95, 1.0064, 1.064]
        grid = grid_for(heston_short, m=6, J=8, strikes=strikes)
        PricingContext(heston_short, grid).price_puts(strikes, ("classic", "forward"))
        one = sum(points)
        points.clear()
        contexts = [PricingContext(heston_short, grid, d) for d in ("midpoint", "trapezoidal")]
        pricer_mod.price_puts_shared(contexts, strikes, ("classic", "forward"))
        assert sum(points) == one > 0

    def test_refuses_contexts_on_other_grids(self, heston_short):
        a = PricingContext(heston_short, grid_for(heston_short, m=6, J=8))
        b = PricingContext(heston_short, grid_for(heston_short, m=7, J=8))
        with pytest.raises(ValueError, match="one model and one grid"):
            pricer_mod.price_puts_shared([a, b], [1.0], "forward")


class TestClassicRoute:
    def test_classic_equals_forward_near_money(self, heston_short):
        # wide window so the shifted classic range stays covered
        grid = WaveletGrid(m=8, k1=-128, k2=192, J=10, a=-0.2815, b=0.2810)
        ctx = PricingContext(heston_short, grid, "trapezoidal")
        K = 1.001
        p_classic = ctx.price_put(K, "classic").price
        p_forward = ctx.price_put(K, "forward").price
        ref = reference_put(heston_short, K)
        assert abs(p_forward - ref) <= 1e-9
        assert abs(p_classic - ref) <= 1e-5  # intrinsically less accurate

    def test_uncovered_window_rejected(self, heston_short):
        grid = WaveletGrid(m=8, k1=-80, k2=80, J=9, a=-0.2815, b=0.2810)
        ctx = PricingContext(heston_short, grid, "trapezoidal")
        with pytest.raises(ValueError, match="not covered"):
            ctx.price_put(1.3, "classic")
        # one uncovered strike refuses the whole vector
        with pytest.raises(ValueError, match="not covered"):
            ctx.price_puts([1.0, 1.3], "classic")


    def test_dropped_mass(self, heston_short):
        # |2^{-m/2} sum c_k| over the k outside each strike's classic window,
        # against an explicit loop; 0 at K = 0, which uses no coefficients
        strikes = [0.0, 0.8, 1.0, 1.25]
        grid = grid_for(heston_short, 8, L=12.0, strikes=strikes)
        ctx = PricingContext(heston_short, grid)
        got = ctx.classic_dropped_mass(strikes)
        assert got[0] == 0.0
        for K, mass in zip(strikes[1:], got[1:]):
            z = np.log(K)
            lo, hi = np.floor(256 * (grid.a + z)), np.ceil(256 * (grid.b + z)) + 1
            dropped = sum(c for k, c in enumerate(ctx.coeffs.values, grid.k1)
                          if not lo <= k < hi)
            assert mass == pytest.approx(abs(dropped) / 16, rel=1e-9, abs=1e-16)
        # at 1.25F the window drops the density's lower tail, and the
        # classic price misses about that much
        err = abs(ctx.price_puts([1.25], "classic")[0] - reference_put(heston_short, 1.25))
        assert got[3] / 4 <= err / 1.25 <= got[3]


class TestStrikeIndependence:
    def test_one_density_computation_for_many_strikes(self, lognormal, monkeypatch):
        calls = {"n": 0}
        real = density_mod.char_fn

        def counting(model, u):
            calls["n"] += 1
            return real(model, u)

        monkeypatch.setattr(density_mod, "char_fn", counting)
        grid = WaveletGrid(m=5, k1=-64, k2=64, J=11, a=-2.0, b=2.0)
        ctx = PricingContext(lognormal, grid, "trapezoidal")
        after_init = calls["n"]
        assert after_init == 1  # one vectorized batch
        for K in np.linspace(60.0, 150.0, 100):
            ctx.price_put(float(K), "em_fft")
        assert calls["n"] == after_init


class TestStrategyAgreement:
    def test_all_combinations_agree(self, heston_short):
        grid = WaveletGrid(m=8, k1=-256, k2=256, J=14, a=-1.0, b=0.9)
        K = 1.01
        prices = []
        for dens in ("midpoint", "trapezoidal", "filon"):
            ctx = PricingContext(heston_short, grid, dens)
            for pay in ("classic", "forward", "em_fft"):
                prices.append(ctx.price_put(K, pay).price)
        prices = np.array(prices)
        spread = prices.max() - prices.min()
        assert spread <= 1e-7 * (1.0 + prices.mean())


class TestReferencePut:
    def test_lognormal_vs_black(self):
        got = reference_put(LOGNORMAL_02, 100.0)
        assert got == pytest.approx(BLACK_ATM, abs=1e-10)

    def test_lognormal_wings(self):
        for K in (50.0, 150.0, 250.0):
            got = reference_put(LOGNORMAL_02, K)
            assert got == pytest.approx(black76_put(100.0, K, 1.0, 0.2),
                                        abs=1e-10 * max(1.0, K))

    def test_deep_otm_negligible(self, heston_short):
        K = float(np.exp(-10.0))
        assert abs(reference_put(heston_short, K)) <= 1e-10 * K

    def test_quoted_strike_reference(self, heston_short):
        # table arithmetic: quoted price 0.0063611 minus its error 3.97e-07
        K = 1.0064
        ref_call = reference_put(heston_short, K) + heston_short.discount * (
            heston_short.forward - K)
        assert f"{ref_call:.4g}" == "0.006361"
        assert ref_call == pytest.approx(0.0063611 - 3.97e-07, abs=1e-6)

    def test_zero_strike_exact(self, lognormal):
        assert reference_put(lognormal, 0.0) == 0.0

    @pytest.mark.parametrize("K", [-1.0, float("nan"), float("inf")])
    def test_bad_strikes_rejected(self, lognormal, K):
        with pytest.raises(ValueError, match="strike"):
            reference_put(lognormal, K)

    @pytest.mark.parametrize("model", [LOGNORMAL_02, HESTON_SHORT, HESTON_HEAVY],
                             ids=["lognormal", "heston_short", "heston_heavy"])
    def test_vector_matches_scalar_and_quad(self, model):
        # every 4th of error-sweep's 40 default strikes, plus seeded ones
        F = model.forward
        a, b = truncation_interval(cumulants(model), 12.0)
        rng = np.random.default_rng(4242)
        strikes = np.concatenate([
            F * np.linspace(np.exp(0.25 * a), np.exp(b) * (1 - 1e-9), 40)[::4],
            F * np.exp(rng.uniform(0.25 * a, b, 6))])
        scale = np.maximum(strikes, F)
        batch = reference_put(model, strikes)
        scalar = np.array([reference_put(model, float(K)) for K in strikes])
        oracle = np.array([quad_reference_put(model, float(K), char_fn)
                           for K in strikes])
        assert np.max(np.abs(batch - scalar) / scale) <= 1e-13
        assert np.max(np.abs(scalar - oracle) / scale) <= 1e-13
        assert np.max(np.abs(batch - oracle) / scale) <= 1e-13

    def test_scalar_and_vector_shapes(self, lognormal):
        assert type(reference_put(lognormal, 100.0)) is float
        for strikes in ([90.0, 110.0], np.array([100.0]), np.array([])):
            got = reference_put(lognormal, strikes)
            assert isinstance(got, np.ndarray) and got.shape == np.shape(strikes)

    def test_zero_strike_in_vector_exact(self, lognormal):
        got = reference_put(lognormal, [0.0, 100.0, 0.0])
        assert got[0] == 0.0 and got[2] == 0.0
        assert got[1] == pytest.approx(BLACK_ATM, abs=1e-10)

    @pytest.mark.parametrize("K", [-1.0, float("nan"), float("inf")])
    def test_bad_strike_in_vector_rejected(self, lognormal, K):
        for strikes in ([K, 100.0], [100.0, 90.0, K]):
            with pytest.raises(ValueError, match="strike"):
                reference_put(lognormal, strikes)

    def test_undecayed_tail_raises(self):
        frozen = ModelSpec(1.0, 1e-9, 1.0, LognormalParams(vol=1e-6))
        with pytest.raises(ReferenceError, match="tail"):
            reference_put(frozen, [0.9, 1.0])

    @pytest.mark.parametrize("F,K", [(1e300, 1.6e298), (1e200, 1e200)])
    def test_forward_times_strike_past_overflow(self, F, K):
        # F K > 1.8e308 overflows: the put must not pass through sqrt(F K)
        model = ModelSpec(F, 0.077, 1.0, LognormalParams(vol=0.28))
        got = reference_put(model, K)
        assert np.isfinite(got)
        assert got == pytest.approx(black76_put(F, K, 0.077, 0.28), abs=1e-13 * max(F, K))
        unit = reference_put(replace(model, forward=1.0), K / F)
        assert got == pytest.approx(F * unit, abs=1e-14 * max(F, K))

    def test_non_finite_price_raises(self, lognormal, monkeypatch):
        monkeypatch.setattr(pricer_mod, "_damped_integral",
                            lambda model, X, edges: np.where(X > 0, np.inf, 0.5))
        with pytest.raises(ReferenceError, match="not finite at strike 90.0"):
            reference_put(lognormal, [100.0, 90.0])

    def test_tail_cut_in_one_cf_call(self, monkeypatch):
        # all candidate cuts in the first call, then one call per
        # Gauss-Kronrod round: 6 in all on the heavy error-sweep's low end
        assert pricer_mod._TAIL_CUTS[-1] < 1e8 <= pricer_mod._TAIL_CUTS[-1] * 1.7
        sizes = record_cf_points(monkeypatch)
        F = HESTON_HEAVY.forward
        a, _ = truncation_interval(cumulants(HESTON_HEAVY), 12.0)
        reference_put(HESTON_HEAVY, [F * np.exp(0.25 * a), F])
        assert sizes[0] == 3 * len(pricer_mod._TAIL_CUTS)
        assert len(sizes) == 6

    def test_non_finite_panel_raises(self, lognormal, monkeypatch):
        real = pricer_mod.char_fn

        def holed(model, u):
            out = real(model, u)
            return np.where((u.real > 3.0) & (u.real < 4.0), np.nan, out)

        monkeypatch.setattr(pricer_mod, "char_fn", holed)
        with pytest.raises(ReferenceError, match="quadrature failed"):
            reference_put(lognormal, [90.0, 100.0])


class TestAutoGrid:
    def test_lognormal_auto(self, lognormal):
        grid = auto_grid(lognormal)
        assert grid.m == 4
        assert grid.k2 - grid.k1 <= 1 << grid.J
        res = PricingContext(lognormal, grid).price_put(100.0)
        assert res.price == pytest.approx(BLACK_ATM, abs=1e-8)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            WaveletGrid(m=0, k1=-8, k2=8, J=5, a=-1.0, b=1.0)
        with pytest.raises(ValueError):
            WaveletGrid(m=4, k1=-8, k2=128, J=5, a=-1.0, b=1.0)
        with pytest.raises(ValueError, match="k1 < k2"):
            WaveletGrid(m=4, k1=8, k2=8, J=5, a=-1.0, b=1.0)
        with pytest.raises(ValueError, match="a < b"):
            WaveletGrid(m=4, k1=-8, k2=8, J=5, a=1.0, b=1.0)

    def test_window_past_the_widest_refused(self, heston_heavy):
        # at T = 10 the heavy set keeps 1.6e-4 of its mass outside the
        # widest window [-2^15, 2^15): the doubling stops there
        with pytest.raises(GridSelectionError, match="achieved mass 0.99984"):
            auto_grid(replace(heston_heavy, maturity=10.0))

    def test_grid_for_cumulant_window(self, lognormal):
        # m and J with L: k covers 2^m times the cumulant window of L
        grid = grid_for(lognormal, 6, 8, L=5.0)
        assert (grid.k1, grid.k2, grid.J) == (-66, 64, 8)
        assert (grid.a, grid.b) == (-66 / 64, 1.0)

    def test_grid_for_J_needs_m(self, lognormal):
        with pytest.raises(ValueError, match="J = 8 needs m"):
            grid_for(lognormal, J=8)


def heston_sweep_draw(rng, i):
    """Draw i of the invariant sweep: kappa = 0 on every 8th draw (from 3),
    rho = +1 and -1 on draws 1 and 2 of every 8, sigma = 1.5 on draws 5;
    otherwise kappa in [0, 5], rho in [-1, 1] and sigma in [0.05, 1.5]."""
    kappa = 0.0 if i % 8 == 3 else rng.uniform(0.0, 5.0)
    rho = (1.0, -1.0)[i % 2] if i % 8 in (1, 2) else rng.uniform(-1.0, 1.0)
    sigma = 1.5 if i % 8 == 5 else rng.uniform(0.05, 1.5)
    dyn = HestonParams(v0=rng.uniform(0.005, 0.2), kappa=kappa,
                       theta=rng.uniform(0.005, 0.2), sigma=sigma, rho=rho)
    return ModelSpec(float(np.exp(rng.uniform(0.0, np.log(1e6)))), rng.uniform(0.05, 3.0),
                     rng.uniform(0.9, 1.0), dyn)


class TestHestonInvariantSweep:
    """Seeded Heston draws through the degenerate regimes.  On each auto
    grid at criterion 8d's mass_tol = 1e-10, the em_fft and forward puts at
    50 strikes hold the no-arbitrage bounds and are non-decreasing and
    convex in K to 8d's slack 1e-10 B K, and agree with ``reference_put``
    to 10 mass_tol max(K, F).  The strikes span z = ln(K/F) over 0.9 [a, b]
    cut to [-2, 2]: both routes round at a few eps of max(K, F), which
    passes 1e-10 K once K < 1e-5 F.  A grid the model cannot reach is
    refused with GridSelectionError; nothing comes out NaN."""

    MASS_TOL = 1e-10

    def test_bounds_monotone_convex(self):
        rng = np.random.default_rng(20261019)
        priced = []
        for i in range(40):
            model = heston_sweep_draw(rng, i)
            try:
                grid = auto_grid(model, mass_tol=self.MASS_TOL)
            except GridSelectionError:
                continue
            ctx = PricingContext(model, grid)
            assert 2.0 ** (-grid.m / 2.0) * ctx.coeffs.values.sum() >= 1.0 - self.MASS_TOL
            F, B = model.forward, model.discount
            z = np.linspace(max(0.9 * grid.a, -2.0), min(0.9 * grid.b, 2.0), 50)
            strikes = F * np.exp(z)
            slack = 1e-10 * B * strikes
            ref = reference_put(model, strikes)
            for route in ("em_fft", "forward"):
                puts = ctx.price_puts(strikes, route)
                assert np.isfinite(puts).all()
                assert np.all(np.abs(puts - ref)
                              <= 10 * self.MASS_TOL * np.maximum(strikes, F)), (i, route)
                assert np.all(puts >= np.maximum(B * (strikes - F), 0.0) - slack), (i, route)
                assert np.all(puts <= B * strikes + slack), (i, route)
                assert np.all(np.diff(puts) >= -slack[:-1]), (i, route)
                assert np.all(np.diff(puts, 2) >= -slack[1:-1]), (i, route)
            priced.append(model.dynamics)
        # every regime the sweep is for is priced, not only refused
        assert len(priced) >= 30
        assert any(p.kappa == 0.0 for p in priced)
        assert any(p.rho == -1.0 for p in priced) and any(p.rho == 1.0 for p in priced)
        assert any(p.sigma == 1.5 for p in priced)
        assert any(2.0 * p.kappa * p.theta < p.sigma**2 for p in priced)


class TestGridHandover:
    """auto_grid's search coefficients serve the trapezoidal context."""

    @pytest.mark.parametrize("model", REFERENCE_MODELS)
    def test_search_coefficients_equal_standalone_job(self, model):
        grid = auto_grid(model)
        job, coeffs, _ = grid._search
        assert (job.model, job.m, job.J) == (model, grid.m, grid.J)
        assert job.k1 <= grid.k1 < grid.k2 <= job.k2
        alone = density_trapezoidal_fft(DensityJob(model, grid.m, grid.J, job.k1, job.k2))
        assert coeffs.k1 == alone.k1
        assert np.array_equal(coeffs.values, alone.values)

    @pytest.mark.parametrize("model", REFERENCE_MODELS)
    def test_grid_for_is_auto_grid_with_its_search(self, model, monkeypatch):
        made = []
        monkeypatch.setattr(pricer_mod, "auto_grid",
                            lambda *args, **kw: made.append(auto_grid(*args, **kw)) or made[-1])
        auto, grid = auto_grid(model, mass_tol=1e-8), grid_for(model)
        assert len(made) == 1 and made[0] is grid  # auto_grid's own object
        assert grid == auto
        assert grid._search[0] == auto._search[0]
        assert np.array_equal(grid._search[1].values, auto._search[1].values)
        assert np.array_equal(grid._search[2], auto._search[2])
        sizes = record_cf_points(monkeypatch)
        PricingContext(model, grid).price_puts([model.forward], "em_fft")
        assert sizes == []

    def test_cf_points_nested_and_handed_over(self, heston_heavy, monkeypatch):
        sizes = record_cf_points(monkeypatch)
        grid = auto_grid(heston_heavy, mass_tol=1e-8)
        # select_scale's one call, then the job loop over J = 13..16: all
        # 4096 nodes of J = 13, then the odd nodes of each finer level
        assert sizes == [12, 4096, 4096, 8192, 16384] and grid.J == 16
        assert sum(sizes[1:]) == 32768  # 61440 with every node of every level
        sizes.clear()
        ctx = PricingContext(heston_heavy, grid)
        assert sizes == []
        assert ctx.cf_evals == 1 << (grid.J - 1)

    @pytest.mark.parametrize("model", REFERENCE_MODELS)
    def test_prices_match_recomputed_density(self, model):
        grid = auto_grid(model)
        handed = PricingContext(model, grid)
        fresh = PricingContext(model, replace(grid))  # replace drops the search
        assert fresh.coeffs is not handed.coeffs
        rng = np.random.default_rng(606)
        c = cumulants(model)
        strikes = model.forward * np.exp(c.c1 + rng.uniform(-3.0, 3.0, 200) * np.sqrt(c.c2))
        got, want = handed.price_puts(strikes), fresh.price_puts(strikes)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(strikes, model.forward))
        if (grid.k1, grid.k2) == (grid._search[0].k1, grid._search[0].k2):
            assert np.array_equal(got, want)  # the search's own window

    def test_guards_recompute(self, lognormal, monkeypatch):
        grid = auto_grid(lognormal)
        job = grid._search[0]

        def carrying(g):
            object.__setattr__(g, "_search", grid._search)
            return g

        other = ModelSpec(100.0, 1.0, 1.0, LognormalParams(vol=0.25))
        cases = [
            (other, grid, "trapezoidal"),
            (lognormal, carrying(replace(grid, J=grid.J + 1)), "trapezoidal"),
            (lognormal, carrying(replace(grid, m=grid.m + 1)), "trapezoidal"),
            (lognormal, carrying(replace(grid, k1=job.k1 - 1)), "trapezoidal"),
            (lognormal, carrying(replace(grid, k2=job.k2 + 1)), "trapezoidal"),
            (lognormal, grid, "midpoint"),
            (lognormal, grid, "filon"),
            (lognormal, WaveletGrid(grid.m, grid.k1, grid.k2, grid.J, grid.a, grid.b),
             "trapezoidal"),
            (lognormal, replace(grid, J=grid.J), "trapezoidal"),
        ]
        sizes = record_cf_points(monkeypatch)
        for model, g, strategy in cases:
            sizes.clear()
            ctx = PricingContext(model, g, strategy)
            assert sizes, (model, g, strategy)
            if strategy == "trapezoidal":
                alone = density_trapezoidal_fft(DensityJob(model, g.m, g.J, g.k1, g.k2))
                assert np.array_equal(ctx.coeffs.values, alone.values)

    def test_carried_search_is_invisible(self, lognormal):
        grid = auto_grid(lognormal)
        plain = WaveletGrid(grid.m, grid.k1, grid.k2, grid.J, grid.a, grid.b)
        assert plain._search is None and grid._search is not None
        assert grid == plain and hash(grid) == hash(plain)
        assert repr(grid) == repr(plain) and "_search" not in repr(grid)
        # the grid holds the discretization and nothing else
        init = [f.name for f in fields(WaveletGrid) if f.init]
        assert init == ["m", "k1", "k2", "J", "a", "b"]
        for extra in ({"_search": grid._search}, {"N": 64}, {"L": 10.0}):
            with pytest.raises(TypeError):
                WaveletGrid(grid.m, grid.k1, grid.k2, grid.J, grid.a, grid.b, **extra)

    def test_non_finite_cf_is_a_numerical_failure(self, lognormal, monkeypatch):
        real = density_mod.char_fn
        monkeypatch.setattr(density_mod, "char_fn",
                            lambda model, u: np.where(np.abs(u) > 3.0, np.nan, real(model, u)))
        with pytest.raises(FloatingPointError):
            auto_grid(lognormal)
        with pytest.raises(FloatingPointError):
            PricingContext(lognormal, short_grid())
