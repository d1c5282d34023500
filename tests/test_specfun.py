"""Tests for the Si / Ein special functions."""

import numpy as np
import pytest
from scipy.special import exp1, sici

from oracles import quad_ein, quad_exp_sin, quad_si
import swiftpricer.specfun as specfun
from swiftpricer import ein, exp_sin_integral, si

SI_PI = 1.8519370519824662  # adaptive quadrature of sin(t)/t on [0, pi]
EIN_ONE = 0.7965995992970531  # entire series sum_{n>=1} (-1)^(n+1)/(n n!)


class TestSi:
    def test_zero(self):
        assert si(0.0) == 0.0

    def test_si_pi(self):
        assert si(np.pi) == pytest.approx(SI_PI, abs=1e-14)
        assert quad_si(np.pi) == pytest.approx(SI_PI, abs=1e-13)

    @pytest.mark.parametrize("x", [5.0, 0.3, 6.0, 17.2, 120.0])
    def test_odd(self, x):
        assert si(-x) == -si(x)

    def test_against_scipy_grid(self):
        xs = np.concatenate([np.linspace(0.01, 60.0, 400),
                             [5.999, 6.0, 6.001, 39.99, 40.01, 1e3, 1e5]])
        for x in xs:
            assert si(float(x)) == pytest.approx(float(sici(x)[0]), abs=1e-14)

    def test_asymptotic_envelope(self):
        for x in [10.0, 25.0, 80.0, 300.0, 1e4]:
            assert abs(si(x) - np.pi / 2) <= 2.0 / x

    def test_against_quadrature(self):
        for x in [0.7, 3.1, 9.4, 33.0]:
            assert si(x) == pytest.approx(quad_si(x), abs=2e-14)


class TestEin:
    def test_zero(self):
        assert ein(0.0) == 0.0

    def test_one(self):
        v = ein(1.0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(EIN_ONE, abs=1e-15)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            z = complex(rng.uniform(-40, 40), rng.uniform(-400, 400))
            v, vc = ein(z), ein(z.conjugate())
            assert vc == v.conjugate()  # exact by construction

    def test_against_quadrature_moderate(self):
        pts = [1 + 1j, -4 + 2j, 3 - 9j, -12 + 1j, 0.5 + 30j, -20 + 3j,
               25 + 0.1j, -35 + 8j, 14 - 50j]
        for z in pts:
            ref = quad_ein(complex(z))
            assert abs(ein(z) - ref) <= 1e-12 * max(abs(ref), 1e-6)

    def test_against_scipy_box(self):
        # gamma + log z + E1(z) via scipy's independent complex E1
        rng = np.random.default_rng(5)
        for _ in range(300):
            z = complex(rng.uniform(-50, 50), rng.uniform(-5000, 5000))
            ref = np.euler_gamma + np.log(z) + exp1(z)
            assert abs(ein(z) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("r", [1e-8, 1e-3, 0.5])
    def test_small_argument_against_quadrature(self, r):
        # the Taylor branch, where gamma + log z + E1(z) would cancel
        for theta in np.linspace(-np.pi, np.pi, 13):
            z = r * complex(np.cos(theta), np.sin(theta))
            ref = quad_ein(z)
            assert abs(ein(z) - ref) <= 1e-12 * abs(ref)

    def test_crossover_continuity(self):
        # points straddling |z| = 1, where the Taylor series hands over to
        # the exp1 identity, and spot checks on |z| = 10 and 40
        for r, theta in [(1.0, 0.0), (1.0, 0.7), (1.0, 1.6), (1.0, 2.5),
                         (1.0, np.pi), (1.0, -2.0), (10.0, 0.3), (10.0, 2.0),
                         (40.0, 1.2), (40.0, 2.8)]:
            for eps in (-1e-9, 1e-9):
                z = (r + eps) * complex(np.cos(theta), np.sin(theta))
                ref = quad_ein(z)
                assert abs(ein(z) - ref) <= 1e-12 * max(abs(ref), 1e-6)


class TestArrayCalls:
    def test_ein_array_equals_scalar_calls(self):
        rng = np.random.default_rng(17)
        zs = np.concatenate([
            rng.uniform(-50, 50, 200) + 1j * rng.uniform(-5000, 5000, 200),
            rng.uniform(-1.5, 1.5, 200) + 1j * rng.uniform(-1.5, 1.5, 200),
            [0.0, 1.0, -1.0, 1j, -1j, 2.0 - 0.0j]]).reshape(2, -1)
        got = ein(zs)
        assert got.shape == zs.shape
        ref = np.array([[ein(complex(z)) for z in row] for row in zs])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))

    def test_si_array_equals_scalar_calls(self):
        rng = np.random.default_rng(18)
        xs = np.concatenate([rng.uniform(-1e5, 1e5, 200), rng.uniform(-8, 8, 200),
                             [0.0, -0.0, 6.0, -40.0]])
        got = si(xs)
        assert got.shape == xs.shape
        ref = np.array([si(float(x)) for x in xs])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


class TestExpSinIntegral:
    def test_reduces_to_si(self):
        assert exp_sin_integral(0.0, np.pi) == pytest.approx(SI_PI, abs=1e-14)

    def test_zero_sine(self):
        assert exp_sin_integral(1.0, 0.0) == 0.0

    def test_small_case_vs_quadrature(self):
        ref = quad_exp_sin(1.0, 2.0)
        assert exp_sin_integral(1.0, 2.0) == pytest.approx(ref, abs=1e-12)

    def test_identity_random_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a = rng.uniform(-20, 20)
            b = rng.uniform(-200, 200)
            ref = quad_exp_sin(a, b)
            assert abs(exp_sin_integral(a, b) - ref) <= 1e-11 * (1 + abs(ref))


# |z| where ein's evaluation could switch: 1 (Taylor), 50 (continued
# fraction); 8, 20, 200 and 1000 bound the depth bands a fraction could use
EIN_RADII = (8.0, 20.0, 50.0, 200.0, 1000.0)


def exp1_ein(z):
    """gamma + log z + E1(z) with scipy's independent complex E1."""
    return np.euler_gamma + np.log(z) + exp1(z)


class TestEinPayoffRay:
    """The closed forms' arguments z = t(-1/p + i), p = pi 2^m."""

    @pytest.mark.parametrize("m", [1, 6, 8, 10])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_band_by_band(self, m, sign):
        p = np.pi * 2.0**m
        scale = np.hypot(1.0, 1.0 / p)  # |z| / |t|
        ts = [r / scale * (1 + eps) for r in EIN_RADII for eps in (-1e-6, 1e-6)]
        ts = sign * np.array(ts + [1300.0, 1700.0, 2000.0])
        zs = -ts / p + 1j * ts
        got = ein(zs)
        for t, z, v in zip(ts, zs, got):
            ref = quad_exp_sin(-t / p, t)  # int_0^1 e^{tv/p} sin(tv)/v dv
            assert abs(v.imag - ref) <= 1e-13 * abs(ref), z
            assert abs(v - exp1_ein(z)) <= 1e-13 * abs(v), z
            assert ein(complex(z)) == v

    def test_crossover_continuity(self):
        # both sides of |z| = 50, where exp1 hands over to the continued
        # fraction, at angles up to the sector edge Re z = -Im z/4, and
        # both sides of that edge at radii from 50 to 2000
        edge = np.pi - np.arctan(4.0)
        pts = [(r, theta) for r in (50.0 - 1e-9, 50.0 + 1e-9)
               for theta in np.linspace(0.0, edge, 9)]
        pts += [(r, edge + d) for r in (50.5, 120.0, 700.0, 2000.0) for d in (-1e-9, 1e-9)]
        for r, theta in pts:
            for z in (r * np.exp(1j * theta), r * np.exp(-1j * theta)):
                ref = exp1_ein(z)
                assert abs(ein(z) - ref) <= 1e-13 * abs(ref), z
                if abs(z.real) <= 50.0:
                    assert abs(ein(z).imag - quad_exp_sin(z.real, z.imag)) <= 1e-13 * abs(ref), z

    def test_ray_array_equals_mixed_array(self):
        # a payoff-ray array wholly past |z| = 50, in both half planes, gives
        # bit for bit the values of the same points among points of the
        # other regions
        ts = np.concatenate([np.geomspace(60.0, 1e5, 50), -np.geomspace(60.0, 1e5, 50)])
        zs = -ts / (np.pi * 2.0**6) + 1j * ts
        mixed = ein(np.concatenate([zs, [0.5 + 0.5j, 10.0j, -50.0 + 1.0j]]))
        assert np.array_equal(ein(zs), mixed[:zs.size])


class TestRegionsAgainstMpmath:
    """Each region of si and ein, on both sides of every region edge and on
    seeded draws, against 40-digit mpmath, within the accuracy contract."""

    @pytest.fixture
    def mp(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            yield mp

    def test_laguerre_rule(self, mp):
        # Newton's method on L_64 from each stored node, and the weight
        # 1/(u L_64'(u)^2); L_64' = -L_63^(1)
        for u0, l0 in zip(specfun._LAG_U, specfun._LAG_L):
            u = mp.mpf(float(u0))
            for _ in range(4):
                u += mp.laguerre(64, 0, u) / mp.laguerre(63, 1, u)
            assert abs(u - u0) <= np.spacing(u0)
            assert abs(1 / (u * mp.laguerre(63, 1, u) ** 2) - l0) <= np.spacing(l0)

    def test_ein(self, mp):
        rng = np.random.default_rng(32)
        zs = list(rng.uniform(-50, 50, 60) + 1j * rng.uniform(-5000, 5000, 60))
        zs += list(rng.uniform(-50, 50, 60) + 1j * rng.uniform(-60, 60, 60))
        # s = |w| + Re w = r (1 + cos theta) at the edges s = 3 and 200, and
        # |w| = 45 inside s <= 3
        for s0, radii in ((specfun._SERIES_S, (1.6, 4.0, 20.0, 44.0, 52.0)),
                          (specfun._FRACTION_S, (101.0, 150.0, 700.0))):
            for r in radii:
                theta = np.arccos(s0 / r - 1.0)
                zs += [r * np.exp(1j * (theta + d)) for d in (-1e-9, 1e-9)]
        theta = np.pi - 0.1
        zs += [r * np.exp(1j * theta) for r in (45.0 - 1e-9, 45.0 + 1e-9)]
        zs = np.array(zs)
        zs = np.concatenate([zs, zs.conj()])
        for z, got in zip(zs, ein(zs)):
            w = mp.mpc(z.real, z.imag)
            ref = complex(mp.euler + mp.log(w) + mp.e1(w))
            assert abs(got - ref) <= 1e-13 * abs(ref), z

    def test_si(self, mp):
        rng = np.random.default_rng(33)
        xs = [*rng.uniform(-1e5, 1e5, 60), *rng.uniform(-200, 200, 60)]
        for edge in (specfun._SERIES_S, specfun._SI_ASYM_X):
            xs += [sign * (edge + d) for sign in (1, -1) for d in (-1e-9, 1e-9)]
        for x, got in zip(xs, si(np.array(xs))):
            assert abs(got - float(mp.si(float(x)))) <= 1e-14, x


class TestNonFinite:
    BAD = [np.nan, np.inf, -np.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_ein_refuses(self, bad):
        for z in (complex(bad, 1.0), complex(1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                ein(z)
            with pytest.raises(ValueError, match="finite"):
                ein(np.array([[1.0 + 2.0j, 60.0j], [z, 3.0]]))

    @pytest.mark.parametrize("bad", BAD)
    def test_si_refuses(self, bad):
        with pytest.raises(ValueError, match="finite"):
            si(bad)
        with pytest.raises(ValueError, match="finite"):
            si(np.array([0.5, bad, 2.0]))

    @pytest.mark.parametrize("bad", BAD)
    def test_exp_sin_integral_refuses(self, bad):
        for a, b in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                exp_sin_integral(a, b)
