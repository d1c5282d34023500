"""Tests for characteristic functions, cumulants, and model ingestion."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import HESTON_HEAVY, HESTON_SHORT, LOGNORMAL_02
from oracles import fd_cumulants, naive_heston_cf
from swiftpricer import (HestonParams, LognormalParams, ModelSpec, char_fn,
                         cumulants, model_from_dict, model_from_json)
from swiftpricer.density import _nodes

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

    @pytest.mark.parametrize("base", [HESTON_SHORT, HESTON_HEAVY])
    def test_continuous_at_series_switch(self, base):
        # kappa T = 5e-4 switches from the series to the closed form, whose
        # cancellation error there is ~1e-7 relative on these dynamics
        T = base.maturity
        below, at = (cumulants(replace(base, dynamics=replace(
            base.dynamics, kappa=x / T))) for x in (5e-4 * (1 - 1e-12), 5e-4))
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
