"""Tests for the density-coefficient strategies."""

import numpy as np
import pytest

from conftest import HESTON_HEAVY, HESTON_SHORT, LOGNORMAL_02, POINT_MASS
from oracles import (direct_trapezoidal, lognormal_density,
                     quad_density_parseval, quad_density_projection,
                     recursive_filon, taylor_moments)
import swiftpricer.density as density_mod
from swiftpricer import (CoefficientArray, DensityJob, FilonConvergenceError,
                         char_fn, density_filon, density_mass,
                         density_midpoint_fft, density_trapezoidal_fft,
                         density_vieta_direct)


def record_cf_calls(monkeypatch):
    """Route density's char_fn through a recorder; returns the list of the
    point counts of its calls."""
    sizes = []

    def recording(model, u):
        sizes.append(np.size(u))
        return char_fn(model, u)

    monkeypatch.setattr(density_mod, "char_fn", recording)
    return sizes


class TestJobValidation:
    def test_rejects_bad_scale(self, lognormal):
        with pytest.raises(ValueError):
            DensityJob(lognormal, 0, 8, -16, 16)

    def test_rejects_wide_range(self, lognormal):
        with pytest.raises(ValueError):
            DensityJob(lognormal, 4, 4, -16, 17)

    def test_allows_full_width(self, lognormal):
        DensityJob(lognormal, 4, 4, -8, 8)  # k2-k1 = 2^J accepted

    def test_coefficient_array_helpers(self):
        arr = CoefficientArray(-2, np.array([1.0, 2.0, 3.0]))
        assert arr.k2 == 1
        assert arr.at(-1) == 2.0
        with pytest.raises(IndexError):
            arr.at(5)


class TestMidpoint:
    def test_point_mass_center_coefficient(self, point_mass):
        # psi == 1: the midpoint sum of the constant 1 gives exactly 2^{m/2}
        c = density_midpoint_fft(DensityJob(point_mass, 4, 8, -8, 8))
        assert c.at(0) == pytest.approx(2.0**2, abs=1e-12 * 4)

    def test_equals_vieta_direct_lognormal(self, lognormal):
        job = DensityJob(lognormal, 5, 11, -64, 64)
        c = density_midpoint_fft(job)
        for k in range(-64, 64):
            assert c.at(k) == pytest.approx(
                density_vieta_direct(lognormal, 5, k, 11), abs=1e-12)

    def test_centered_fast_path_equals_general(self, heston_short):
        # the same k set computed through the swap path and in two
        # general-phase chunks must agree
        m, J = 6, 6
        full = density_midpoint_fft(DensityJob(heston_short, m, J, -32, 32))
        lo = density_midpoint_fft(DensityJob(heston_short, m, J, -31, 1))
        hi = density_midpoint_fft(DensityJob(heston_short, m, J, 0, 32))
        got = np.concatenate([[full.at(-32)], lo.values, hi.values[1:]])
        assert np.abs(got - full.values).max() <= 1e-13 * 2 ** (m / 2)

    def test_converges_to_parseval_integral(self, lognormal):
        # midpoint equals the continuous integral only up to discretization
        # error, which shrinks as J grows
        m = 6
        ks = [-20, -3, 0, 5, 17]
        exact = [quad_density_parseval(lambda u: char_fn(lognormal, u), m, k)
                 for k in ks]
        errs = {}
        for J in (6, 9, 12):
            c = density_midpoint_fft(DensityJob(lognormal, m, J, -32, 32))
            errs[J] = max(abs(c.at(k) - e) for k, e in zip(ks, exact))
        assert errs[9] < errs[6]
        assert errs[12] < 1e-10

    def test_projection_ground_truth_small_J(self, lognormal):
        # against int f(x) phi_{m,k}(x) dx with the closed-form normal density
        m, J = 5, 9
        c = density_midpoint_fft(DensityJob(lognormal, m, J, -32, 32))
        f = lognormal_density(0.2, 1.0)
        for k in (-15, -4, 0, 9):
            ref = quad_density_projection(f, m, k, -3.0, 3.0)
            assert c.at(k) == pytest.approx(ref, abs=1e-6)


class TestVietaDirect:
    def test_point_mass_value(self, point_mass):
        assert density_vieta_direct(point_mass, 4, 0, 8) == pytest.approx(4.0, abs=1e-12)

    def test_heston_regression_anchor(self, heston_short):
        # frozen after cross-validation against the FFT path
        v = density_vieta_direct(heston_short, 6, 0, 5)
        f = density_midpoint_fft(DensityJob(heston_short, 6, 5, -16, 16)).at(0)
        assert v == pytest.approx(f, abs=1e-12 * 2**3)
        assert v == pytest.approx(2.1253599121262376, abs=1e-12)

    def test_rejects_bad_args(self, lognormal):
        with pytest.raises(ValueError):
            density_vieta_direct(lognormal, 0, 0, 5)
        for k in ([0, 2.5], float("nan")):
            with pytest.raises(ValueError, match="integers"):
                density_vieta_direct(lognormal, 6, k, 5)
        # integral floats index the root table as the integers they equal
        assert (density_vieta_direct(lognormal, 6, 3.0, 5)
                == density_vieta_direct(lognormal, 6, 3, 5))

    @pytest.mark.parametrize("model", [LOGNORMAL_02, HESTON_SHORT, HESTON_HEAVY])
    def test_array_equals_scalar_calls(self, model, monkeypatch):
        calls = record_cf_calls(monkeypatch)
        ks = np.arange(-128, 128)
        col = density_vieta_direct(model, 6, ks, 8)
        assert len(calls) == 1  # one cf call serves the whole column
        assert isinstance(density_vieta_direct(model, 6, 3, 8), float)
        assert np.array_equal(col, [density_vieta_direct(model, 6, int(k), 8)
                                    for k in ks])

    @pytest.mark.parametrize("model", [LOGNORMAL_02, HESTON_HEAVY])
    def test_matches_explicit_phases(self, model):
        # k far outside one period of the roots: the phase is reduced in
        # integers, against np.exp of the angle as a float
        m, J = 6, 6
        ks = np.array([-300, -64, -1, 0, 5, 63, 64, 129, 1000])
        odd = 2 * np.arange(1, 33) - 1
        psi = char_fn(model, 2.0**m * np.pi * odd / 2**J)
        ref = [2.0 ** (m / 2) / 32
               * np.sum((psi * np.exp(-1j * np.pi * (int(k) * odd % 128) / 64)).real)
               for k in ks]
        col = density_vieta_direct(model, m, ks, J)
        assert np.abs(col - ref).max() <= 1e-14 * np.abs(ref).max()


class TestTrapezoidal:
    def test_point_mass_truncated_constant(self, point_mass):
        # trapezoid of the constant 1 with the one-sided truncation:
        # 2^{m/2} (1/2^{J-1}) (1/2 + 2^{J-1} - 1)
        m, J = 4, 8
        c = density_trapezoidal_fft(DensityJob(point_mass, m, J, -8, 8))
        nh = 2 ** (J - 1)
        expected = 2.0 ** (m / 2) * (0.5 + nh - 1) / nh
        assert c.at(0) == pytest.approx(expected, abs=1e-12 * 4)

    def test_at_least_as_accurate_as_midpoint(self, lognormal):
        # at these settings both rules are fully converged, so the claim is
        # "trapezoidal never loses beyond the noise floor"; the aggregate
        # superiority shows up in priced errors (see the pricing tests)
        m, J = 6, 10
        job = DensityJob(lognormal, m, J, -64, 64)
        c_mid = density_midpoint_fft(job)
        c_trap = density_trapezoidal_fft(job)
        ks = range(-64, 64, 4)
        exact = np.array([quad_density_parseval(
            lambda u: char_fn(lognormal, u), m, k) for k in ks])
        e_mid = np.abs([c_mid.at(k) for k in ks] - exact)
        e_trap = np.abs([c_trap.at(k) for k in ks] - exact)
        assert e_trap.max() <= 2e-13
        assert np.mean(e_trap <= e_mid + 5e-15) >= 0.9

    def test_projection_ground_truth_large_J(self, lognormal):
        m, J = 6, 13
        c = density_trapezoidal_fft(DensityJob(lognormal, m, J, -64, 64))
        f = lognormal_density(0.2, 1.0)
        for k in (-30, -1, 0, 12):
            ref = quad_density_projection(f, m, k, -3.0, 3.0)
            assert c.at(k) == pytest.approx(ref, abs=1e-10)

    def test_centered_fast_path_equals_general(self, heston_heavy):
        m, J = 8, 7
        full = density_trapezoidal_fft(DensityJob(heston_heavy, m, J, -64, 64))
        lo = density_trapezoidal_fft(DensityJob(heston_heavy, m, J, -63, 1))
        hi = density_trapezoidal_fft(DensityJob(heston_heavy, m, J, 0, 64))
        got = np.concatenate([[full.at(-64)], lo.values, hi.values[1:]])
        assert np.abs(got - full.values).max() <= 1e-12 * 2 ** (m / 2)


class TestCircularIndex:
    # c_k is read at k mod 2^J: a full-width window far from zero and not
    # aligned to 2^J wraps once inside the transform
    @pytest.mark.parametrize("model", [LOGNORMAL_02, HESTON_SHORT, HESTON_HEAVY])
    @pytest.mark.parametrize("m,J", [(4, 6), (6, 8)])
    def test_far_window_equals_direct_sums(self, model, m, J):
        k1 = -3 * (1 << J) + 5
        job = DensityJob(model, m, J, k1, k1 + (1 << J))
        ks = np.arange(job.k1, job.k2)
        tol = 1e-13 * 2 ** (m / 2)
        mid = density_midpoint_fft(job)
        assert np.abs(mid.values - density_vieta_direct(model, m, ks, J)).max() <= tol
        trap = density_trapezoidal_fft(job)
        assert np.abs(trap.values - direct_trapezoidal(model, m, J, ks)).max() <= tol


class TestNestedNodes:
    @pytest.mark.parametrize("model", [LOGNORMAL_02, HESTON_SHORT, HESTON_HEAVY])
    def test_refined_levels_equal_direct_evaluation(self, model):
        # the even nodes of level J are level J-1's: refining from the
        # coarsest level gives the direct node values bit for bit
        fhat = None
        for J in range(5, 11):
            job = DensityJob(model, 6, J, -(1 << (J - 2)), 1 << (J - 2))
            fhat = density_mod._trapezoidal_fhat(job, fhat)
            assert np.array_equal(fhat, density_mod._trapezoidal_fhat(job))

    def test_odd_nodes_only(self, heston_short, monkeypatch):
        coarse = density_mod._trapezoidal_fhat(DensityJob(heston_short, 6, 7, -32, 32))
        sizes = record_cf_calls(monkeypatch)
        density_mod._trapezoidal_fhat(DensityJob(heston_short, 6, 8, -64, 64), coarse)
        assert sizes == [64]

    def test_given_values_replace_the_cf_call(self, heston_heavy, monkeypatch):
        job = DensityJob(heston_heavy, 8, 12, -2048, 2048)
        fhat = density_mod._trapezoidal_fhat(job)
        kept = fhat.copy()
        sizes = record_cf_calls(monkeypatch)
        got = density_trapezoidal_fft(job, fhat)
        assert sizes == []
        assert np.array_equal(fhat, kept)  # the half weight is not applied in place
        assert np.array_equal(got.values, density_trapezoidal_fft(job).values)

    def test_wrong_node_count_rejected(self, lognormal):
        job = DensityJob(lognormal, 4, 8, -16, 16)
        with pytest.raises(ValueError, match="fhat"):
            density_trapezoidal_fft(job, np.ones(64, dtype=complex))


class TestFilon:
    def test_point_mass_exact(self, point_mass):
        for m in (2, 4, 7):
            c, n_evals = density_filon(point_mass, m, 0, 1, tol=1e-8)
            assert c.at(0) == pytest.approx(2.0 ** (m / 2.0), rel=1e-12)
            assert n_evals > 0

    def test_matches_high_resolution_trapezoidal(self, lognormal):
        m = 6
        c, _ = density_filon(lognormal, m, -32, 32, tol=1e-8)
        t = density_trapezoidal_fft(DensityJob(lognormal, m, 14, -32, 32))
        assert np.abs(c.values - t.values).max() <= 1e-7

    def test_eval_count_order_hundreds(self, heston_short):
        _, n_evals = density_filon(heston_short, 6, -64, 64, tol=1e-8)
        assert 100 <= n_evals <= 2000

    def test_node_sharing_across_k_ranges(self, heston_short):
        c_wide, n_wide = density_filon(heston_short, 6, -64, 64, tol=1e-8)
        c_narrow, n_narrow = density_filon(heston_short, 6, -16, 16, tol=1e-8)
        assert n_wide == n_narrow  # identical panel set
        lo = -16 - c_wide.k1
        # same panels imply bit-identical overlapping coefficients
        assert np.array_equal(c_wide.values[lo:lo + 32], c_narrow.values)

    @pytest.mark.parametrize("window", [(3, 9), (0, 1), (-2048, -2032), (1000, 1100)],
                             ids=["one-row", "one-k", "edge-row", "row-blocks"])
    def test_window_agrees_with_wide_to_rounding(self, heston_heavy, window):
        # each row is its own fixed-order sum, so the rounding is the same:
        # bit for bit; [1000, 1100) straddles the wide window's row blocks
        c_wide, n_wide = density_filon(heston_heavy, 8, -2048, 2048, tol=1e-13)
        c, n = density_filon(heston_heavy, 8, *window, tol=1e-13)
        assert n == n_wide
        lo = window[0] - c_wide.k1
        assert np.array_equal(c_wide.values[lo:lo + window[1] - window[0]], c.values)

    def test_depth_cap_raises_with_best_estimate(self, heston_heavy, monkeypatch):
        monkeypatch.setattr(density_mod, "_MAX_DEPTH", 2)
        with pytest.raises(FilonConvergenceError) as exc_info:
            density_filon(heston_heavy, 8, -16, 16, tol=1e-12)
        err = exc_info.value
        assert isinstance(err.best, CoefficientArray)
        assert err.achieved_tol > 1e-12
        assert err.cf_evals > 0

    def test_rejects_bad_tol(self, lognormal):
        with pytest.raises(ValueError):
            density_filon(lognormal, 5, -8, 8, tol=0.0)

    def test_tol_below_rounding_raises_promptly(self, heston_heavy):
        # the split test never passes below rounding: without the cap on
        # open panels they doubled every level until memory ran out
        with pytest.raises(FilonConvergenceError, match="open panels") as exc_info:
            density_filon(heston_heavy, 8, -16, 16, tol=1e-17)
        err = exc_info.value
        assert err.cf_evals <= 4 + 6 * density_mod._MAX_OPEN_PANELS
        assert err.achieved_tol > 1e-17
        c, _ = density_filon(heston_heavy, 8, -16, 16, tol=1e-12)
        assert np.abs(err.best.values - c.values).max() <= 1e-11

    @pytest.mark.parametrize("model", [LOGNORMAL_02, HESTON_SHORT, HESTON_HEAVY])
    # the last two: criterion 9's window, and one whose ends are not on the
    # k-sum's rows of 16
    @pytest.mark.parametrize("m,k1,k2", [(6, -128, 128), (8, -512, 512),
                                         (8, -2048, 2048), (6, -37, 51)])
    def test_matches_recursive_oracle(self, model, m, k1, k2):
        c, n = density_filon(model, m, k1, k2, tol=1e-8)
        c_ref, n_ref = recursive_filon(model, m, k1, k2, tol=1e-8)
        # the same panel set: 3 new nodes per split test instead of 5
        assert n - 4 == 3 * (n_ref - 4) // 5 and (n_ref - 4) % 5 == 0
        scale = np.abs(c_ref.values).max()
        assert np.abs(c.values - c_ref.values).max() <= 1e-14 * scale

    def test_blocked_level_sum_matches_unblocked(self, heston_heavy, monkeypatch):
        # blocks of 4 panels and 64 k-rows, against one block per level
        c, n = density_filon(heston_heavy, 8, -1000, 1000, tol=1e-10)
        monkeypatch.setattr(density_mod, "_BLOCK_ELEMENTS", 4 * 4 * density_mod._K_SPLIT)
        c_blocked, n_blocked = density_filon(heston_heavy, 8, -1000, 1000, tol=1e-10)
        assert n_blocked == n
        scale = np.abs(c.values).max()
        assert np.abs(c_blocked.values - c.values).max() <= 1e-14 * scale

    def test_depth_cap_matches_recursive_oracle(self, heston_heavy, monkeypatch):
        monkeypatch.setattr(density_mod, "_MAX_DEPTH", 2)
        with pytest.raises(FilonConvergenceError) as new_info:
            density_filon(heston_heavy, 8, -16, 16, tol=1e-12)
        with pytest.raises(FilonConvergenceError) as ref_info:
            recursive_filon(heston_heavy, 8, -16, 16, tol=1e-12, max_depth=2)
        new, ref = new_info.value, ref_info.value
        assert new.achieved_tol == pytest.approx(ref.achieved_tol, rel=1e-14)
        scale = np.abs(ref.best.values).max()
        assert np.abs(new.best.values - ref.best.values).max() <= 1e-14 * scale
        assert new.cf_evals - 4 == 3 * (ref.cf_evals - 4) // 5

    @pytest.mark.parametrize("model", [HESTON_SHORT, HESTON_HEAVY])
    def test_one_cf_call_per_level(self, model, monkeypatch):
        # deepest level of the oracle's recursion: the smallest depth cap
        # that does not raise
        deepest = 0
        while True:
            try:
                recursive_filon(model, 6, -4, 4, tol=1e-8, max_depth=deepest)
                break
            except FilonConvergenceError:
                deepest += 1
        sizes = record_cf_calls(monkeypatch)
        _, n = density_filon(model, 6, -4, 4, tol=1e-8)
        assert len(sizes) == 1 + (deepest + 1)  # the first nodes, then one per level
        assert sizes[:2] == [4, 3] and sum(sizes) == n
        sizes.clear()
        monkeypatch.setattr(density_mod, "_MAX_DEPTH", deepest - 1)
        with pytest.raises(FilonConvergenceError):
            density_filon(model, 6, -4, 4, tol=1e-8)
        assert len(sizes) == 1 + deepest


class TestMoments:
    # theta on both sides of the Taylor branch's edges at +-0.5, down to 0
    THETA = np.concatenate([np.linspace(-0.5, 0.5, 101), [0.5 - 1e-12, -0.5 + 1e-12],
                            np.linspace(0.5, 4.0, 36), -np.linspace(0.5, 4.0, 36),
                            [1e-300, -1e-9, 0.0]])

    def test_matches_taylor_loop(self):
        new, ref = density_mod._moments(self.THETA), taylor_moments(self.THETA)
        assert new.shape == (4, self.THETA.size)
        assert np.abs(new - ref).max() <= 1e-15

    def test_zero_frequency_is_exact(self):
        assert np.array_equal(density_mod._moments(np.zeros(3)),
                              np.repeat([[1.0], [1 / 2], [1 / 3], [1 / 4]], 3, axis=1))


class TestDensityMass:
    @pytest.mark.parametrize("model,m,J,kh", [
        (LOGNORMAL_02, 5, 11, 64),
        (HESTON_SHORT, 8, 11, 512),
        (HESTON_HEAVY, 8, 12, 2048),
    ])
    def test_mass_near_one_on_resolved_grids(self, model, m, J, kh):
        c = density_trapezoidal_fft(DensityJob(model, m, J, -kh, kh))
        assert density_mass(c, m) == pytest.approx(1.0, abs=1e-4)


def holed_cf(monkeypatch, lo, hi):
    """Make density's char_fn return NaN for lo < |u| < hi."""
    def holed(model, u):
        return np.where((np.abs(u) > lo) & (np.abs(u) < hi), np.nan, char_fn(model, u))
    monkeypatch.setattr(density_mod, "char_fn", holed)


class TestNonFiniteDensity:
    def test_fft_rules_raise_numerical_failure(self, lognormal, monkeypatch):
        holed_cf(monkeypatch, 3.0, 4.0)
        job = DensityJob(lognormal, 4, 8, -16, 16)
        for rule in (density_midpoint_fft, density_trapezoidal_fft):
            with pytest.raises(FloatingPointError, match="not finite"):
                rule(job)

    def test_filon_raises_numerical_failure(self, lognormal, monkeypatch):
        holed_cf(monkeypatch, 3.0, 4.0)
        with pytest.raises(FloatingPointError, match="not finite"):
            density_filon(lognormal, 4, -16, 16, tol=1e-8)

    def test_caller_array_keeps_value_error(self):
        with pytest.raises(ValueError, match="finite"):
            CoefficientArray(0, np.array([1.0, np.nan]))
