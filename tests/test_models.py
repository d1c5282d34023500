"""Tests for characteristic functions, cumulants, and model ingestion."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import HESTON_HEAVY, HESTON_SHORT, LOGNORMAL_02, traced_peak_kib
from oracles import (fd_cumulants, heston_cumulant_series, naive_heston_cf,
                     one_pass_heston_cf)
from swiftpricer import (CoefficientArray, Cumulants, DensityJob, HestonParams,
                         LognormalParams, ModelSpec, PayoffJob, PricingContext, auto_grid,
                         char_fn, cumulants, density_filon, model_from_dict,
                         model_from_json, payoff_classic_si_ein, payoff_forward_si_ein,
                         reference_put)
from swiftpricer.density import _nodes
from swiftpricer.models import _CF_BLOCK
from swiftpricer.payoff import em_correction_D

# pinned by two independent high-precision routes: a 40-digit evaluation of
# the closed form and a DOP853 integration of the Riccati system (they agree
# to 1.3e-16)
HEAVY_PSI_1 = 0.9927755037925598 - 0.0099389406137999j

ALL_MODELS = [LOGNORMAL_02, HESTON_SHORT, HESTON_HEAVY]


class TestValidation:
    def test_heston_invariants(self):
        with pytest.raises(ValueError):
            HestonParams(v0=-0.1, kappa=1.0, theta=0.1, sigma=1.0, rho=0.0)
        with pytest.raises(ValueError):
            HestonParams(v0=0.1, kappa=1.0, theta=0.1, sigma=1.0, rho=1.5)
        with pytest.raises(ValueError):
            HestonParams(v0=0.1, kappa=-1.0, theta=0.1, sigma=1.0, rho=0.0)
        with pytest.raises(ValueError):
            HestonParams(v0=0.1, kappa=1.0, theta=0.1, sigma=0.0, rho=0.0)
        good = dict(v0=0.1, kappa=1.0, theta=0.1, sigma=1.0, rho=0.0)
        for name in ("v0", "kappa", "theta", "sigma", "rho"):
            for bad in (float("inf"), float("nan")):
                with pytest.raises(ValueError, match=name):
                    HestonParams(**{**good, name: bad})

    @pytest.mark.parametrize("vol", [0.0, float("inf"), float("nan")])
    def test_lognormal_invariants(self, vol):
        with pytest.raises(ValueError, match="vol"):
            LognormalParams(vol=vol)

    def test_model_invariants(self):
        dyn = LognormalParams(vol=0.2)
        with pytest.raises(ValueError):
            ModelSpec(forward=-1.0, maturity=1.0, discount=1.0, dynamics=dyn)
        with pytest.raises(ValueError):
            ModelSpec(forward=1.0, maturity=0.0, discount=1.0, dynamics=dyn)
        with pytest.raises(ValueError):
            ModelSpec(forward=1.0, maturity=1.0, discount=1.2, dynamics=dyn)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="forward"):
                ModelSpec(forward=bad, maturity=1.0, discount=1.0, dynamics=dyn)
            with pytest.raises(ValueError, match="maturity"):
                ModelSpec(forward=1.0, maturity=bad, discount=1.0, dynamics=dyn)
            with pytest.raises(ValueError, match="discount"):
                ModelSpec(forward=1.0, maturity=1.0, discount=bad, dynamics=dyn)

    def test_json_infinity_rejected(self):
        doc = json.loads('{"forward": 1.0, "maturity": 1.0, "discount": 1.0,'
                         ' "lognormal": {"vol": Infinity}}')
        with pytest.raises(ValueError, match="vol"):
            model_from_dict(doc)


PAYOFF_JOB = dict(K=1.0, F=1.0, m=4, a=-1.0, b=1.0, k1=-16, k2=16, N=32)
HESTON = dict(v0=0.1, kappa=1.0, theta=0.1, sigma=1.0, rho=0.0)

# (constructor or call, its arguments, the refusal's message)
REFUSALS = {
    "coefficients_empty": (CoefficientArray, (0, np.array([])), "non-empty 1-D"),
    "coefficients_2d": (CoefficientArray, (0, np.ones((2, 2))), "non-empty 1-D"),
    "density_job_J": (DensityJob, (LOGNORMAL_02, 4, 0, -1, 1), "J must be >= 1"),
    "density_job_k": (DensityJob, (LOGNORMAL_02, 4, 4, 3, 3), "need k1 < k2"),
    "filon_m": (density_filon, (LOGNORMAL_02, 0, -4, 4, 1e-8), "m must be >= 1"),
    "filon_k": (density_filon, (LOGNORMAL_02, 4, 4, 4, 1e-8), "need k1 < k2"),
    "heston_theta": (lambda: HestonParams(**{**HESTON, "theta": -0.1}), (),
                     "theta must be >= 0"),
    "cumulants_c2": (Cumulants, (0.0, -1.0), "c2 must be >= 0"),
    "cumulants_c1_nan": (Cumulants, (float("nan"), 1.0), "cumulants must be finite"),
    "cumulants_c2_inf": (Cumulants, (0.0, float("inf")), "cumulants must be finite"),
    "classic_m": (payoff_classic_si_ein, (1.0, 0, np.arange(4), -1.0), "m must be >= 1"),
    "forward_m": (payoff_forward_si_ein, (1.0, 1.0, 0, np.arange(4), -1.0),
                  "m must be >= 1"),
    "em_correction_m": (em_correction_D, (0, -1.0, 0.0), "m must be >= 1"),
    "payoff_job_m": (lambda: PayoffJob(**{**PAYOFF_JOB, "m": 0}), (), "m must be >= 1"),
    "payoff_job_k": (lambda: PayoffJob(**{**PAYOFF_JOB, "k2": -16}), (), "need k1 < k2"),
}


@pytest.mark.parametrize("fn, args, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


class TestCharFn:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_psi_at_zero_is_one_exactly(self, model):
        assert char_fn(model, 0.0) == 1.0 + 0.0j

    def test_lognormal_closed_form(self):
        # psi(u) = exp(-sigma^2 T (u^2 + iu)/2); vol=0.2, T=1, u=1
        got = char_fn(LOGNORMAL_02, 1.0)
        expected = np.exp(-0.5 * 0.04 * (1.0 + 1.0j))
        assert got == pytest.approx(expected, abs=1e-16)

    def test_heavy_heston_pinned_value(self):
        got = char_fn(HESTON_HEAVY, 1.0)
        assert abs(got - HEAVY_PSI_1) <= 1e-13 * abs(HEAVY_PSI_1)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_modulus_bound(self, model):
        u = np.linspace(-500.0, 500.0, 1001)
        assert np.all(np.abs(char_fn(model, u)) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_conjugate_symmetry(self, model):
        u = np.linspace(0.001, 400.0, 1000)
        assert np.abs(char_fn(model, -u) - np.conj(char_fn(model, u))).max() <= 1e-14

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_martingale(self, model):
        # analytic continuation at u = -i: E[e^y] = 1
        assert abs(char_fn(model, -1j) - 1.0) <= 1e-9


def heston_sweep(seed, count):
    """Seeded Heston models at the edges of the domain: kappa = 0 in every
    fourth draw, rho = -1, +1 or uniform in turn, sigma up to 5 (most
    draws violate the Feller condition 2 kappa theta >= sigma^2), and
    maturities from two days to ten years."""
    rng = np.random.default_rng(seed)
    models = []
    for i in range(count):
        dyn = HestonParams(v0=rng.uniform(1e-3, 0.5),
                           kappa=0.0 if i % 4 == 0 else rng.uniform(0.0, 5.0),
                           theta=rng.uniform(0.0, 0.5), sigma=rng.uniform(0.05, 5.0),
                           rho=(-1.0, 1.0, rng.uniform(-1.0, 1.0))[i % 3])
        models.append(ModelSpec(1.0, float(rng.choice([2 / 365, 0.25, 1.0, 10.0])),
                                1.0, dyn))
    return models


HESTON_SWEEP = heston_sweep(2027, 48) + [HESTON_SHORT, HESTON_HEAVY]


class TestHestonCfOracle:
    def test_sweep_covers_the_edges(self):
        dyns = [model.dynamics for model in HESTON_SWEEP]
        assert sum(2 * d.kappa * d.theta < d.sigma**2 for d in dyns) > len(dyns) // 2
        assert {-1.0, 1.0} <= {d.rho for d in dyns}
        assert any(d.kappa == 0.0 for d in dyns) and max(d.sigma for d in dyns) > 4.5

    @pytest.mark.parametrize("m,J", [(3, 9), (7, 11)])
    def test_real_u_on_density_nodes(self, m, J):
        # both FFT rules' nodes, at fhat(x) = psi(-x)
        u = -_nodes(m, J, np.arange(1 << J))
        for model in HESTON_SWEEP:
            ref = naive_heston_cf(u, model.maturity, model.dynamics)
            assert np.abs(char_fn(model, u) - ref).max() <= 1e-15, model

    def test_complex_u_on_the_damping_contour(self):
        # reference_put's psi(u - i/2)
        u = np.concatenate([np.linspace(0.0, 200.0, 1001),
                            np.geomspace(200.0, 1e5, 200)]) - 0.5j
        for model in HESTON_SWEEP:
            ref = naive_heston_cf(u, model.maturity, model.dynamics)
            assert np.abs(char_fn(model, u) - ref).max() <= 1e-15, model

    def test_exactly_one_at_zero_and_minus_i_inside_arrays(self):
        u = np.array([-3.0, 0.0, 2.5 - 0.5j, -1j, 7.0, 0.0])
        for model in HESTON_SWEEP + [LOGNORMAL_02]:
            psi = char_fn(model, u)
            assert psi[1] == psi[3] == psi[5] == 1.0, model
            assert np.all(np.isfinite(psi))
            # the caller's array is not written to
            assert u[1] == 0.0 and u[3] == -1j

    def test_scalar_in_complex_out(self):
        for u in (0.0, 1.0, -1j, 2.0 - 0.5j):
            psi = char_fn(HESTON_HEAVY, u)
            assert type(psi) is complex
            assert psi == complex(char_fn(HESTON_HEAVY, np.array([u]))[0])


class TestBlockedHestonCf:
    # _heston_cf runs in blocks of _CF_BLOCK points, every operation
    # elementwise: psi must equal the one-pass evaluation bit for bit
    B = _CF_BLOCK

    @staticmethod
    def assert_one_pass(u):
        for model in HESTON_SWEEP:
            ref = one_pass_heston_cf(u, model.maturity, model.dynamics)
            psi = char_fn(model, u)
            assert psi.shape == ref.shape and np.array_equal(psi, ref, equal_nan=True), model

    # 2B + 1: a lone last point, which joins the block before it
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1, 3 * B + 5])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_sizes(self, n, dtype):
        rng = np.random.default_rng(n)
        u = rng.uniform(-3000.0, 3000.0, n).astype(dtype)
        if dtype is complex:
            u -= 1j * rng.uniform(0.0, 1.0, n)
        self.assert_one_pass(u)

    @pytest.mark.parametrize("shape", [(), (3, B // 2 + 3), (B + 7, 2)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_shapes(self, shape, dtype):
        rng = np.random.default_rng(len(shape))
        u = np.asarray(rng.uniform(-500.0, 500.0, shape), dtype=dtype)
        if dtype is complex:
            u -= 0.5j
        self.assert_one_pass(u)

    def test_exactly_one_in_a_later_block(self):
        u = np.random.default_rng(7).uniform(-50.0, 50.0, 3 * self.B + 5).astype(complex)
        ones = [self.B + 7, 2 * self.B + 1, 3 * self.B + 4]
        u[ones] = [0.0, -1j, 0.0]
        keep = u.copy()
        self.assert_one_pass(u)
        for model in HESTON_SWEEP:
            assert np.all(char_fn(model, u)[ones] == 1.0), model
        assert np.array_equal(u, keep)

    def test_allocation_budget(self):
        # 32768 real points: the 512 KiB output, the complex copy of one
        # block and its five temporaries (64 KiB each) read 902 KiB; the
        # one-pass evaluation, five full-size buffers, read 3105 KiB
        u = np.linspace(0.0, 3000.0, 32768)
        assert traced_peak_kib(lambda: char_fn(HESTON_HEAVY, u)) <= 1024


class TestCumulants:
    def test_lognormal_closed_form(self):
        c = cumulants(LOGNORMAL_02)
        assert c.c1 == pytest.approx(-0.02, abs=1e-16)
        assert c.c2 == pytest.approx(0.04, abs=1e-16)

    @pytest.mark.parametrize("model", [HESTON_SHORT, HESTON_HEAVY, LOGNORMAL_02])
    def test_against_finite_differences(self, model):
        c = cumulants(model)
        fd1, fd2, _ = fd_cumulants(model, char_fn)
        assert c.c1 == pytest.approx(fd1, rel=1e-6, abs=1e-10)
        assert c.c2 == pytest.approx(fd2, rel=1e-6)

    def test_heston_short_values(self):
        # T = 2/365: c1 = -theta T/2 (theta = v0 kills the other term)
        c = cumulants(HESTON_SHORT)
        assert c.c1 == pytest.approx(-0.1 * (2.0 / 365.0) / 2.0, rel=1e-12)
        fd1, fd2, _ = fd_cumulants(HESTON_SHORT, char_fn)
        assert c.c2 == pytest.approx(fd2, rel=1e-6)

    @pytest.mark.parametrize("base", [HESTON_SHORT, HESTON_HEAVY])
    @pytest.mark.parametrize("kappa", [0.0, 1e-12, 1e-7, 1e-5])
    def test_small_kappa_against_finite_differences(self, base, kappa):
        model = replace(base, dynamics=replace(base.dynamics, kappa=kappa))
        c = cumulants(model)
        fd1, fd2, _ = fd_cumulants(model, char_fn)
        assert c.c1 == pytest.approx(fd1, rel=1e-6, abs=1e-10)
        assert c.c2 == pytest.approx(fd2, rel=1e-6)

    def test_kappa_zero_limits(self):
        dyn = HestonParams(v0=0.04, kappa=0.0, theta=0.09, sigma=0.5, rho=-0.7)
        T = 2.0
        c = cumulants(ModelSpec(1.0, T, 1.0, dyn))
        assert c.c1 == pytest.approx(-0.04 * T / 2.0, rel=1e-15)
        y = 0.5 * T
        assert c.c2 == pytest.approx(0.04 * T * (1 + 0.7 * y / 2 + y * y / 12),
                                     rel=1e-15)

    def test_series_factorials_match_scipy(self):
        # the kappa -> 0 series divides by a math.factorial table; with
        # scipy.special.factorial it gives the same bits
        models = [replace(base, dynamics=replace(base.dynamics, kappa=kappa))
                  for base in (HESTON_SHORT, HESTON_HEAVY)
                  for kappa in (0.0, 1e-12, 1e-7, 1e-5, 5e-4 * (1 - 1e-12) / base.maturity)]
        models += [model for model in HESTON_SWEEP if model.dynamics.kappa == 0.0]
        for model in models:
            assert model.dynamics.kappa * model.maturity < 5e-4
            c = cumulants(model)
            assert (c.c1, c.c2) == heston_cumulant_series(model), model

    @pytest.mark.parametrize("kappa, T", [(50.0, 10.0), (400.0, 1.0), (1000.0, 1.0),
                                          (2.0, 400.0)])
    def test_large_kappa_T(self, kappa, T):
        # past kappa T = 354.9, e^{2 kappa T} overflows: c2 is formed from
        # e^{-kappa T} and e^{-2 kappa T} only, and the model prices
        model = ModelSpec(1.0, T, 1.0, HestonParams(v0=0.04, kappa=kappa, theta=0.04,
                                                    sigma=0.5, rho=-0.5))
        c = cumulants(model)
        fd1, fd2, _ = fd_cumulants(model, char_fn)
        assert c.c1 == pytest.approx(fd1, rel=1e-6, abs=1e-10)
        # the difference quotient itself is off by 2.6e-4 at kappa = 1000:
        # the cf's ~1e-11 relative rounding near u = 0 is divided by h^2 =
        # 1e-6 (in 60-digit arithmetic it matches c2 to 1e-13)
        assert c.c2 == pytest.approx(fd2, rel=1e-3)
        put = PricingContext(model, auto_grid(model)).price_puts([1.0], "em_fft")[0]
        assert put == pytest.approx(reference_put(model, 1.0), abs=1e-9)

    @pytest.mark.parametrize("base", [HESTON_SHORT, HESTON_HEAVY])
    def test_continuous_at_series_switch(self, base):
        # kappa T = 5e-3 switches from the series to the closed form, whose
        # cancellation error there is up to ~1e-10 relative on these dynamics
        T = base.maturity
        below, at = (cumulants(replace(base, dynamics=replace(
            base.dynamics, kappa=x / T))) for x in (5e-3 * (1 - 1e-12), 5e-3))
        assert below.c1 == pytest.approx(at.c1, rel=1e-12)
        assert below.c2 == pytest.approx(at.c2, rel=1e-6)


class TestModelIngestion:
    def test_lognormal_roundtrip(self, lognormal_file):
        model = model_from_json(lognormal_file)
        assert model.forward == 100.0
        assert isinstance(model.dynamics, LognormalParams)

    def test_heston_roundtrip(self, heston_heavy_file):
        model = model_from_json(heston_heavy_file)
        assert isinstance(model.dynamics, HestonParams)
        assert model.dynamics.sigma == 2.0

    def test_missing_top_level_key(self):
        with pytest.raises(ValueError, match="forward"):
            model_from_dict({"maturity": 1.0, "discount": 1.0,
                             "lognormal": {"vol": 0.2}})

    def test_missing_heston_key(self):
        with pytest.raises(ValueError, match="rho"):
            model_from_dict({"forward": 1.0, "maturity": 1.0, "discount": 1.0,
                             "heston": {"v0": 0.1, "kappa": 1.0, "theta": 0.1,
                                        "sigma": 1.0}})

    @pytest.mark.parametrize("doc, match", [
        ([], "model document must be a JSON object, got array"),
        ("model", "model document must be a JSON object, got string"),
        ({"forward": None, "maturity": 1.0, "discount": 1.0, "lognormal": {"vol": 0.2}},
         "'forward' must be a number, got null"),
        ({"forward": 1.0, "maturity": [1.0], "discount": 1.0, "lognormal": {"vol": 0.2}},
         "'maturity' must be a number, got array"),
        ({"forward": 1.0, "maturity": 1.0, "discount": 1.0, "heston": 5},
         "heston block must be a JSON object, got number"),
        ({"forward": 1.0, "maturity": 1.0, "discount": 1.0, "lognormal": None},
         "lognormal block must be a JSON object, got null"),
        ({"forward": 1.0, "maturity": 1.0, "discount": 1.0, "lognormal": {"vol": True}},
         "'vol' must be a number, got boolean"),
        ({"forward": 1.0, "maturity": 1.0, "discount": 1.0,
          "heston": {"v0": 0.1, "kappa": 1.0, "theta": 0.1, "sigma": {}, "rho": 0.0}},
         "'sigma' must be a number, got object"),
        ({"forward": 10**400, "maturity": 1.0, "discount": 1.0, "lognormal": {"vol": 0.2}},
         "'forward' is out of the float range"),
        ({"forward": 1.0, "maturity": 1.0, "discount": 1.0, "lognormal": {"vol": "0.3"}},
         "'vol' must be a number, got string"),
        ({"forward": 1.0, "maturity": 1.0, "discount": 1.0, "lognormal": {"vol": 0.2},
          "heston": {"v0": 0.1, "kappa": 1.0, "theta": 0.1, "sigma": 1.0, "rho": -0.9}},
         "both a 'heston' and a 'lognormal' block"),
    ])
    def test_mistyped_document(self, doc, match):
        with pytest.raises(ValueError, match=match):
            model_from_dict(doc)

    def test_integer_values_accepted(self):
        model = model_from_dict({"forward": 100, "maturity": 1, "discount": 1,
                                 "lognormal": {"vol": 1}})
        assert (model.forward, model.dynamics.vol) == (100.0, 1.0)

    def test_missing_dynamics_block(self):
        with pytest.raises(ValueError, match="heston|lognormal"):
            model_from_dict({"forward": 1.0, "maturity": 1.0, "discount": 1.0})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"forward": 1.0,,}')
        with pytest.raises(json.JSONDecodeError):
            model_from_json(str(path))
