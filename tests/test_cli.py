"""Tests for the command-line harness."""

import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import record_cf_points
from oracles import black76_put, price_json
from swiftpricer import (PricingContext, WaveletGrid, cumulants, model_from_json,
                         reference_put)
import swiftpricer.cli as cli_mod
import swiftpricer.density as density_mod
import swiftpricer.payoff as payoff_mod
import swiftpricer.pricer as pricer_mod
from swiftpricer.cli import build_parser, cmd_error_sweep, main
from swiftpricer.pricer import DENSITY_STRATEGIES, grid_for

TABLE1_EXPECTED = {
    "Vieta J=5": -0.0555195115435162,
    "Simpson J=5": -0.0020905045216672,
    "Vieta J=10": 0.0020428901436641304,
    "Simpson J=10": 0.0020420973516469703,  # 3/8 rule, intervals rounded to 513
    "SiEin": 0.0020420954069492,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def strike_args(*strikes):
    return [arg for K in strikes for arg in ("--strike", repr(K))]


def mask_elapsed(text):
    return re.sub(r'"elapsed_seconds": [^,\n]*', '"elapsed_seconds": 0', text)


def record_grids(monkeypatch):
    """The grid of every PricingContext the CLI builds, in order."""
    grids = []

    def recording(model, grid, *rest):
        grids.append(grid)
        return PricingContext(model, grid, *rest)

    monkeypatch.setattr(cli_mod, "PricingContext", recording)
    return grids


class TestTable1:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,value"
        got = {}
        for line in lines[1:]:
            name, value = line.split(",")
            got[name] = float(value)
        for name, expected in TABLE1_EXPECTED.items():
            assert got[name] == pytest.approx(expected, abs=3e-16), name

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "table1")
        _, out2, _ = run_cli(capsys, "table1")
        assert out1 == out2

    def test_round_trip_precision(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "json")
        rows = json.loads(out)
        by_name = {r["method"]: r["value"] for r in rows}
        _, csv_out, _ = run_cli(capsys, "table1")
        for line in csv_out.strip().splitlines()[1:]:
            name, value = line.split(",")
            assert float(value) == by_name[name]  # no precision loss


class TestPrice:
    def test_lognormal_atm_matches_black(self, capsys, lognormal_file):
        code, out, _ = run_cli(capsys, "price", "--model", lognormal_file,
                               "--strike", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["price"] == pytest.approx(
            black76_put(100.0, 100.0, 1.0, 0.2), abs=1e-8)

    def test_heston_auto_grid_vs_reference(self, capsys, heston_heavy_file):
        code, out, _ = run_cli(capsys, "price", "--model", heston_heavy_file,
                               "--strike", "900000")
        assert code == 0
        doc = json.loads(out)
        model = model_from_json(heston_heavy_file)
        ref = reference_put(model, 900000.0)
        assert abs(doc["price"] - ref) <= 1e-6 * max(1.0, ref)

    def test_heston_kappa_zero_matches_reference(self, capsys, tmp_path):
        path = tmp_path / "kappa0.json"
        path.write_text(json.dumps({
            "forward": 100.0, "maturity": 1.0, "discount": 1.0,
            "heston": {"v0": 0.04, "kappa": 0.0, "theta": 0.04,
                       "sigma": 0.5, "rho": -0.7}}))
        strikes = [90.0, 100.0, 110.0]
        argv = ["price", "--model", str(path)]
        for K in strikes:
            argv += ["--strike", repr(K)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        prices = [d["price"] for d in json.loads(out)]
        refs = reference_put(model_from_json(str(path)), strikes)
        assert np.abs(np.array(prices) - refs).max() <= 1e-10 * 100.0

    def test_em_fft_strike_vector_matches_api(self, capsys, heston_short_file):
        # every route: one price_puts call, whose time each strike shares
        strikes = [0.9, 1.0, 1.07]
        model = model_from_json(heston_short_file)
        for payoff in ("em-fft", "forward", "classic"):
            code, out, _ = run_cli(capsys, "price", "--model", heston_short_file,
                                   "--payoff", payoff, *strike_args(*strikes))
            assert code == 0
            docs = json.loads(out)
            route = payoff.replace("-", "_")
            grid = grid_for(model, strikes=strikes if route == "classic" else None)
            prices = PricingContext(model, grid).price_puts(strikes, route).tolist()
            assert [d["price"] for d in docs] == prices
            assert [d["strike"] for d in docs] == strikes
            assert {d["payoff_strategy"] for d in docs} == {route}
            assert len({d["elapsed_seconds"] for d in docs}) == 1

    @pytest.mark.parametrize("model_file", ["lognormal_file", "heston_short_file",
                                            "heston_heavy_file"])
    def test_classic_payoff_covers_its_strikes(self, capsys, request, model_file):
        path = request.getfixturevalue(model_file)
        model = model_from_json(path)
        F = model.forward
        strikes = [0.8 * F, F, 1.25 * F]
        prices = {}
        for payoff in ("classic", "forward"):
            code, out, err = run_cli(capsys, "price", "--model", path,
                                     "--payoff", payoff, *strike_args(*strikes))
            assert code == 0, err
            prices[payoff] = np.array([d["price"] for d in json.loads(out)])
        # at z = 0 the strike-centered and forward-centered forms coincide
        assert abs(prices["classic"][1] - prices["forward"][1]) <= 1e-12 * F
        if model_file == "lognormal_file":
            ref = reference_put(model, strikes)
            assert np.all(np.abs(prices["classic"] - ref) <= 1e-12 * np.maximum(strikes, F))

    def test_given_J_up_to_the_strike_window_default(self, capsys, heston_heavy_file):
        # the heavy set's classic strike window picks J = 18 on its own
        runs = []
        for extra in ([], ["--J", "18"]):
            code, out, err = run_cli(capsys, "price", "--model", heston_heavy_file,
                                     "--payoff", "classic", *extra)
            assert code == 0, err
            result = json.loads(out)
            result["elapsed_seconds"] = None
            runs.append(result)
        assert runs[0]["grid"]["J"] == 18
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("payoff", ["em-fft", "forward", "classic"])
    @pytest.mark.parametrize("strike", ["nan", "inf", "-1"])
    def test_bad_strike_exit_code(self, capsys, lognormal_file, payoff, strike):
        code, out, err = run_cli(capsys, "price", "--model", lognormal_file,
                                 "--payoff", payoff, "--strike", strike)
        assert code == 1
        assert out == ""
        assert "strike" in err

    def test_malformed_json_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"forward": 1.0, "maturity": }')
        code, _, err = run_cli(capsys, "price", "--model", str(bad))
        assert code == 1
        assert "parse" in err.lower()
        assert "line" in err.lower()

    def test_missing_key_named(self, capsys, tmp_path):
        doc = tmp_path / "missing.json"
        doc.write_text(json.dumps({"forward": 1.0, "maturity": 1.0,
                                   "discount": 1.0, "heston": {"v0": 0.1}}))
        code, _, err = run_cli(capsys, "price", "--model", str(doc))
        assert code == 1
        assert "kappa" in err

    @pytest.mark.parametrize("doc", [
        {"forward": None, "maturity": 1.0, "discount": 1.0, "lognormal": {"vol": 0.2}},
        {"forward": 1.0, "maturity": 1.0, "discount": 1.0, "heston": 5},
        [{"forward": 1.0, "maturity": 1.0, "discount": 1.0, "lognormal": {"vol": 0.2}}],
        {"forward": 1.0, "maturity": 1.0, "discount": 1.0, "lognormal": {"vol": True}},
        {"forward": 1.0, "maturity": 1.0, "discount": 1.0, "lognormal": {"vol": "0.3"}},
        {"forward": 1.0, "maturity": 1.0, "discount": 1.0, "lognormal": {"vol": 0.2},
         "heston": {"v0": 0.1, "kappa": 1.0, "theta": 0.1, "sigma": 1.0, "rho": -0.9}},
    ], ids=["null_forward", "number_block", "array_document", "bool_vol", "string_vol",
            "both_blocks"])
    def test_mistyped_document_exit_code(self, capsys, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "price", "--model", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_model_flag(self, capsys):
        code, _, err = run_cli(capsys, "price")
        assert code == 1
        assert "--model" in err

    def test_numerical_failure_exit_code(self, capsys, tmp_path):
        # cf never decays below the scale-selection tolerance
        frozen = tmp_path / "frozen.json"
        frozen.write_text(json.dumps({"forward": 1.0, "maturity": 1e-9,
                                      "discount": 1.0,
                                      "lognormal": {"vol": 1e-6}}))
        code, _, err = run_cli(capsys, "price", "--model", str(frozen))
        assert code == 2
        assert "numerical" in err.lower()

    def test_search_past_the_widest_window_exit_code(self, capsys, tmp_path):
        heavy = tmp_path / "heavy_t10.json"
        heavy.write_text(json.dumps({"forward": 1e6, "maturity": 10.0, "discount": 1.0,
                                     "heston": {"v0": 0.0225, "kappa": 0.1, "theta": 0.01,
                                                "sigma": 2.0, "rho": 0.5}}))
        code, out, err = run_cli(capsys, "price", "--model", str(heavy))
        assert code == 2
        assert out == ""
        assert "achieved mass 0.99984" in err

    def test_rho_one_large_sigma_exit_code(self, capsys, tmp_path):
        # rho = 1, sigma = 5: |psi(2^12 pi)| = 0.366, no scale is reached
        doc = tmp_path / "rho_one.json"
        doc.write_text(json.dumps({"forward": 100.0, "maturity": 1.0, "discount": 1.0,
                                   "heston": {"v0": 0.04, "kappa": 1.0, "theta": 0.04,
                                              "sigma": 5.0, "rho": 1.0}}))
        code, out, err = run_cli(capsys, "price", "--model", str(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "|psi(2^12 pi)| = 3.66" in err

    @pytest.mark.parametrize("grid_args", [[], ["--m", "4", "--J", "8"]])
    @pytest.mark.parametrize("density", ["trapezoidal", "midpoint", "filon"])
    def test_non_finite_density_exit_code(self, capsys, monkeypatch, lognormal_file,
                                          density, grid_args):
        # a NaN from the cf fails auto_grid's search, or with a given grid
        # the density loader itself: a numerical failure either way
        real = density_mod.char_fn
        monkeypatch.setattr(density_mod, "char_fn", lambda model, u: np.where(
            np.abs(u) > 3.0, np.nan, real(model, u)))
        code, out, err = run_cli(capsys, "price", "--model", lognormal_file,
                                 "--density", density, "--strike", "100", *grid_args)
        assert code == 2
        assert out == ""
        assert "not finite" in err


class TestGridOptions:
    """The grid options of every command go through pricer.grid_for."""

    # each case's id is pinned, so that deleting a case renames no other
    @pytest.mark.parametrize("command, extra, expect", [
        pytest.param("price", ["--J", "20"], "J", id="price-extra0-J"),
        # no command takes --N: no output depends on it
        pytest.param("bench", ["--N", "64"], "unrecognized", id="bench-extra1-unrecognized"),
        pytest.param("price", ["--N", "64"], "unrecognized", id="price-extra2-unrecognized"),
        pytest.param("price", ["--m", "6", "--J", "0"], "J", id="price-extra3-J"),
        pytest.param("price", ["--m", "0"], "m", id="price-extra4-m"),
        pytest.param("error-sweep", ["--J", "0"], "J", id="error-sweep-extra5-J"),
        pytest.param("density-table", ["--m", "6", "--J", "8", "--N", "0"], "unrecognized",
                     id="density-table-extra6-unrecognized"),
        # bench times grid_for's grid: the auto grid, or the m and J given
        pytest.param("bench", ["--reps", "1"], 8, id="bench-extra7-8"),
        pytest.param("bench", ["--m", "6", "--J", "9", "--reps", "1"], 9, id="bench-extra8-9"),
        # J without m is used where the strikes set the k-range
        pytest.param("price", ["--payoff", "classic", "--J", "12"], 12, id="price-extra9-12"),
        pytest.param("error-sweep", ["--J", "12", "--strike", "100"], None,
                     id="error-sweep-extra10-None"),
        # mass_tol is checked on every grid, also where auto_grid never reads it
        pytest.param("density-table", ["--m", "6", "--J", "8", "--mass-tol", "5"], "mass_tol",
                     id="density-table-extra11-mass_tol"),
        pytest.param("price", ["--m", "6", "--J", "8", "--mass-tol", "-1"], "mass_tol",
                     id="price-extra12-mass_tol"),
        pytest.param("price", ["--mass-tol", "nan"], "mass_tol", id="price-extra13-mass_tol"),
        pytest.param("init-table", ["--mass-tol", "1"], "mass_tol",
                     id="init-table-extra14-mass_tol"),
        pytest.param("bench", ["--m", "6", "--J", "8", "--mass-tol", "0"], "mass_tol",
                     id="bench-extra15-mass_tol"),
    ])
    def test_refused_or_rounded(self, capsys, monkeypatch, lognormal_file, command, extra,
                                expect):
        grids = record_grids(monkeypatch)
        code, out, err = run_cli(capsys, command, "--model", lognormal_file, *extra)
        if isinstance(expect, str):
            assert code == 1
            assert out == ""
            assert err.startswith(f"error: {expect} ")
        else:
            assert code == 0, err
            if expect is not None:
                assert [g.J for g in grids] == [expect]


class TestGridDomain:
    """Grid inputs past the float range, or windows and options past
    auto_grid's largest density job, end in one message line and an exit
    code, no traceback."""

    # each case's id is pinned, so that deleting a case renames no other
    @pytest.mark.parametrize("argv, code, cf_points", [
        # the seed window is refused before the search evaluates the cf
        pytest.param(["price", "--m", "25"], 2, [], id="argv0-2-cf_points0"),
        pytest.param(["price", "--m", "40"], 2, [], id="argv1-2-cf_points1"),
        pytest.param(["price", "--m", "1000"], 2, [], id="argv2-2-cf_points2"),
        pytest.param(["price", "--m", "2000"], 2, [], id="argv3-2-cf_points3"),
        # select_scale's one call
        pytest.param(["price", "--L", "1e12"], 2, [12], id="argv4-2-cf_points4"),
        pytest.param(["price", "--L", "1e308"], 2, [12], id="argv5-2-cf_points5"),
        # not finite: L itself, or the grid bounds 2^m [a, b]
        pytest.param(["price", "--L", "inf"], 1, [12], id="argv6-1-cf_points6"),
        pytest.param(["error-sweep", "--L", "inf", "--strike", "1"], 1, [],
                     id="argv7-1-cf_points7"),
        pytest.param(["price", "--m", "2000", "--J", "8"], 1, [], id="argv8-1-cf_points8"),
        pytest.param(["price", "--m", "1", "--J", "1100"], 1, [], id="argv9-1-cf_points9"),
        pytest.param(["error-sweep", "--m", "2000"], 1, [], id="argv10-1-cf_points10"),
        pytest.param(["error-sweep", "--L", "1e308", "--strike", "1"], 1, [],
                     id="argv11-1-cf_points11"),
        # past the largest J that grid_for picks (19), or past auto_grid's
        # largest density job (J = 17), given or needed
        pytest.param(["price", "--m", "6", "--J", "40"], 1, [], id="argv12-1-cf_points12"),
        pytest.param(["price", "--payoff", "classic", "--m", "24", "--strike", "1e-300"], 1, [],
                     id="argv13-1-cf_points13"),
        pytest.param(["error-sweep", "--m", "24", "--strike", "1e-300"], 1, [],
                     id="argv14-1-cf_points14"),
        # the default strikes F [e^(a/4), e^b] overflow
        pytest.param(["error-sweep", "--L", "100000"], 1, [], id="argv15-1-cf_points15",
                     marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
        # the Si/Ein closed form overflows where k/2^m - z > 709: the forward
        # price is NaN, refused instead of printed
        pytest.param(["error-sweep", "--m", "1", "--L", "30000", "--strike", "1"], 2, [16384],
                     id="argv16-2-cf_points16",
                     marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    ])
    def test_refused(self, capsys, monkeypatch, heston_short_file, argv, code, cf_points):
        sizes = record_cf_points(monkeypatch)
        got, out, err = run_cli(capsys, *argv, "--model", heston_short_file)
        assert got == code
        assert out == ""
        assert err.startswith("numerical failure: " if code == 2 else "error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sizes == cf_points


def chain_strikes(model, count, seed):
    """``count`` seeded strikes F exp(c1 + u sqrt(c2)), u ~ U(-3, 3)."""
    c = cumulants(model)
    u = np.random.default_rng(seed).uniform(-3.0, 3.0, count)
    return (model.forward * np.exp(c.c1 + u * math.sqrt(c.c2))).tolist()


class TestPriceJson:
    """price writes, byte for byte, what json.dumps(results, indent=2) writes."""

    @pytest.mark.parametrize("case", ["one", "chain", "edges", "huge"])
    @pytest.mark.parametrize("payoff", ["classic", "forward", "em-fft"])
    @pytest.mark.parametrize("density", DENSITY_STRATEGIES)
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_byte_identical(self, capsys, tmp_path, lognormal_file, case, payoff,
                            density, to_file):
        model_file = lognormal_file
        if case == "huge":  # F and K at 1e300, where F K overflows
            model_file = str(tmp_path / "huge.json")
            Path(model_file).write_text(json.dumps({
                "forward": 1e300, "maturity": 0.077, "discount": 1.0,
                "lognormal": {"vol": 0.28}}))
        model = model_from_json(model_file)
        strikes = {"one": [90.0], "chain": chain_strikes(model, 200, 22),
                   "edges": [0.0, -0.0, 1e-300, 100.0],
                   "huge": [1.6e298, 1e300, 3.0e300]}[case]
        out_path = tmp_path / "price.json"
        argv = ["price", "--model", model_file, "--payoff", payoff, "--density", density,
                *strike_args(*strikes), *(["--out", str(out_path)] if to_file else [])]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        if to_file:
            assert out == ""
            out = out_path.read_text()
        route = payoff.replace("-", "_")
        grid = grid_for(model, strikes=strikes if route == "classic" else None)
        ctx = PricingContext(model, grid, density)
        prices = ctx.price_puts(strikes, route).tolist()
        shared = {"grid": {"m": grid.m, "k1": grid.k1, "k2": grid.k2, "J": grid.J,
                           "a": grid.a, "b": grid.b},
                  "density_strategy": density, "payoff_strategy": route,
                  "cf_evals": ctx.cf_evals, "elapsed_seconds": 0.0}
        assert mask_elapsed(out) == mask_elapsed(price_json(strikes, prices, shared))
        assert out.startswith("{" if len(strikes) == 1 else "[")


class TestPriceTable:
    def test_rows_and_errors(self, capsys):
        code, out, _ = run_cli(capsys, "price-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "set,density,strike,side,price,error"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 8
        by_key = {(r[0], r[1], float(r[2])): (float(r[4]), float(r[5]))
                  for r in rows}
        price, err = by_key[("short", "trapezoidal", 1.0064)]
        assert f"{price:.4g}" == "0.006361"
        assert err == pytest.approx(-7.39e-8, abs=2e-9)
        price_m, err_m = by_key[("short", "midpoint", 1.0064)]
        assert err_m == pytest.approx(3.97e-7, abs=1e-8)
        for key in by_key:
            p, e = by_key[key]
            assert abs(e) < 0.05 * max(1.0, p)


    def test_paper_grids(self, capsys, monkeypatch):
        grids = record_grids(monkeypatch)
        code, _, _ = run_cli(capsys, "price-table")
        assert code == 0
        assert grids == 2 * [WaveletGrid(6, -16, 16, 5, -0.25, 0.25)] + 2 * [
            WaveletGrid(8, -2048, 2048, 12, -8.0, 8.0)]

    def test_classic_payoff_refused(self, capsys):
        # the fixed J = 5 grid cannot hold the strike-shifted window
        code, out, err = run_cli(capsys, "price-table", "--payoff", "classic")
        assert code == 1
        assert out == ""
        assert "not covered" in err

    def test_one_reference_call_per_experiment(self, capsys, monkeypatch):
        calls = []

        def counting(model, K):
            calls.append(list(K))
            return reference_put(model, K)

        monkeypatch.setattr(cli_mod, "reference_put", counting)
        code, _, _ = run_cli(capsys, "price-table")
        assert code == 0
        assert calls == [[1.0064, 1.064], [250000.0, 4000000.0]]


class TestDensityTable:
    def test_strategies_agree(self, capsys, heston_short_file):
        code, out, _ = run_cli(capsys, "density-table", "--model",
                               heston_short_file, "--m", "6", "--J", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,midpoint,trapezoidal,filon,vieta_direct"
        assert len(lines) == 1 + 256  # centered 2^J range by default
        for line in lines[1:]:
            k, mid, trap, fil, vieta = line.split(",")
            assert float(mid) == pytest.approx(float(vieta), abs=1e-12)
            # J=8 leaves visible rule error in the far tail; the Filon
            # column is the tighter one of the three
            assert float(fil) == pytest.approx(float(trap), abs=1e-5)


class TestInitTable:
    def test_counts(self, capsys, heston_short_file):
        code, out, _ = run_cli(capsys, "init-table", "--model",
                               heston_short_file, "--m", "6", "--J", "7",
                               "--reps", "1")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        rows = {r.split(",")[0]: dict(zip(header, r.split(","))) for r in lines[1:]}
        assert int(rows["trapezoidal_fft"]["cf_evals"]) == 64
        assert 50 <= int(float(rows["filon"]["cf_evals"])) <= 2000


class TestErrorSweep:
    def test_reference_finite_past_forward_strike_overflow(self, capsys, tmp_path):
        # F K > 1.8e308: every numeric column, the reference included, finite
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"forward": 1e300, "maturity": 0.077, "discount": 1.0,
                                    "lognormal": {"vol": 0.28}}))
        code, out, _ = run_cli(capsys, "error-sweep", "--model", str(path),
                               *strike_args(1.6e298, 1e300))
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(np.isfinite(float(cell)) for row in rows for cell in row[:6])

    def test_empty_strike_list_header_only(self, capsys, heston_short_file):
        args = argparse.Namespace(
            model=heston_short_file, strike=[], m=8, J=10, L=12.0,
            mass_tol=1e-8, density="trapezoidal", payoff="forward",
            out=None, format="csv", reps=1)
        code = cmd_error_sweep(args)
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("strike,price_classic,price_forward")

    def test_sweep_rows(self, capsys, heston_short_file):
        code, out, _ = run_cli(capsys, "error-sweep", "--model",
                               heston_short_file, "--m", "8", "--J", "11",
                               "--L", "12", "--strike", "1.0",
                               "--strike", "1.25", "--strike", "1.4")
        assert code == 0
        lines = out.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        # K=1.4 has z > b: flagged, not dropped
        assert rows[2][6] == "beyond_truncation"
        for row in rows[:2]:
            assert abs(float(row[5])) < 1e-6  # forward-route error

    def test_reference_column_matches_per_strike(self, capsys, heston_short_file):
        code, out, _ = run_cli(capsys, "error-sweep", "--model", heston_short_file)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 40
        model = model_from_json(heston_short_file)
        strikes = [float(r[0]) for r in rows]
        got = np.array([float(r[3]) for r in rows])
        want = np.array([reference_put(model, K) for K in strikes])
        scale = np.maximum(strikes, model.forward)
        assert np.max(np.abs(got - want) / scale) <= 1e-13

    @pytest.mark.parametrize("model_file, pinned", [
        ("lognormal_file", (8, -776, 1221, 13)),
        ("heston_short_file", (8, -92, 146, 10)),
        ("heston_heavy_file", (8, -521, 823, 13)),
    ])
    def test_default_grids(self, capsys, monkeypatch, request, model_file, pinned):
        grids = record_grids(monkeypatch)
        code, _, _ = run_cli(capsys, "error-sweep", "--model",
                             request.getfixturevalue(model_file))
        assert code == 0
        assert [(g.m, g.k1, g.k2, g.J) for g in grids] == [pinned]

    def test_one_call_per_route(self, capsys, monkeypatch, heston_short_file):
        calls = []

        def recording(name):
            real = getattr(PricingContext, name)

            def wrapper(self, strikes, payoff_strategy):
                calls.append((name, payoff_strategy))
                return real(self, strikes, payoff_strategy)
            return wrapper

        for name in ("price_put", "price_puts"):
            monkeypatch.setattr(PricingContext, name, recording(name))
        code, out, err = run_cli(capsys, "error-sweep", "--model", heston_short_file)
        assert code == 0, err
        assert len(out.strip().splitlines()) == 41
        # one call prices both Si/Ein routes
        assert calls == [("price_puts", ("classic", "forward"))]

    @pytest.mark.parametrize("model_file", ["lognormal_file", "heston_short_file",
                                            "heston_heavy_file"])
    def test_each_ein_point_once(self, capsys, monkeypatch, request, model_file):
        # the routes still run through their module-level closed forms, and
        # the sweep evaluates no Ein argument twice
        calls, ein_args = {"forward": 0, "classic": 0}, []

        def counting(route, real):
            def wrapper(*args, **kwargs):
                calls[route] += 1
                return real(*args, **kwargs)
            return wrapper

        for route in calls:
            name = f"payoff_{route}_si_ein"
            monkeypatch.setattr(pricer_mod, name, counting(route, getattr(pricer_mod, name)))
        real_ein = payoff_mod.ein
        monkeypatch.setattr(payoff_mod, "ein", lambda z: ein_args.append(z) or real_ein(z))
        code, out, err = run_cli(capsys, "error-sweep", "--model",
                                 request.getfixturevalue(model_file))
        assert code == 0, err
        strikes = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert len(strikes) == 40 and min(strikes) > 0.0
        assert calls == {"forward": 40, "classic": 40}
        points = np.concatenate(ein_args)
        assert np.unique(points).size == points.size

    def test_window_uncovered_flag(self, capsys, heston_short_file, lognormal_file,
                                   heston_heavy_file):
        # on the short set, 1.25F's classic window drops ~1e-2 of the
        # density (its classic price is ~3e-3 low); 1.4F is past b, which
        # takes precedence
        code, out, _ = run_cli(capsys, "error-sweep", "--model", heston_short_file,
                               *strike_args(1.0, 1.25, 1.4))
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[6] for row in rows] == ["", "window_uncovered", "beyond_truncation"]
        assert abs(float(rows[1][4])) > 1e-3
        # lognormal |z| <= 0.75: the window covers the density
        code, out, _ = run_cli(capsys, "error-sweep", "--model", lognormal_file,
                               *strike_args(*(100.0 * np.exp(np.linspace(-0.75, 0.75, 7))).tolist()))
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert code == 0 and len(rows) == 7
        assert all(row[6] == "" and abs(float(row[4])) < 1e-12 for row in rows)
        # the heavy set's L = 12 window itself leaves ~1e-3 of mass out
        code, out, _ = run_cli(capsys, "error-sweep", "--model", heston_heavy_file)
        assert code == 0
        assert {line.split(",")[6] for line in out.strip().splitlines()[1:]} == {"window_uncovered"}

    def test_sweep_calls_payoff_ein(self, capsys, monkeypatch, heston_short_file):
        # benchmarks/spans.py times Ein by wrapping this module binding: a
        # sweep that bypassed it would read as no Ein work at all
        calls = []
        real_ein = payoff_mod.ein
        monkeypatch.setattr(payoff_mod, "ein", lambda z: calls.append(1) or real_ein(z))
        code, _, err = run_cli(capsys, "error-sweep", "--model", heston_short_file,
                               "--strike", "1.0")
        assert code == 0, err
        assert len(calls) > 0

    @pytest.mark.parametrize("strike", ["-1", "nan", "inf"])
    def test_bad_strike_exit_code(self, capsys, lognormal_file, strike):
        code, out, err = run_cli(capsys, "error-sweep", "--model", lognormal_file,
                                 "--strike", strike)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "strike" in err

    def test_zero_strike_prices_zero(self, capsys, lognormal_file):
        code, out, _ = run_cli(capsys, "error-sweep", "--model", lognormal_file,
                               "--strike", "0", "--strike", "95")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(cell) for cell in rows[0][:6]] == [0.0] * 6
        assert abs(float(rows[1][5])) < 1e-6  # forward-route error at K=95


class TestBench:
    def test_bench_shape_and_warning(self, capsys, heston_short_file):
        code, out, _ = run_cli(capsys, "bench", "--model", heston_short_file,
                               "--m", "6", "--J", "7", "--reps", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "task,variant,k_count,median_seconds,cf_evals,warning"
        rows = [line.split(",") for line in lines[1:]]
        tasks = {(r[0], r[1]) for r in rows}
        assert ("payoff", "em_fft") not in tasks
        assert ("pricing_warm_density", "em_fft") in tasks
        assert ("payoff", "si_ein_per_k") in tasks
        assert ("density", "trapezoidal_fft") in tasks
        assert ("density", "filon") in tasks
        assert all(r[5] == "single-sample" for r in rows)


def cell_by_cell_csv(rows, header, err_cols):
    """CSV text written one cell at a time: a float with 17 significant
    digits (scientific in ``err_cols``), anything else by ``str``."""
    def cell_text(name, x):
        if isinstance(x, float):
            return f"{x:.17e}" if name in err_cols else f"{x:.17g}"
        return str(x)

    lines = [",".join(header)] + [
        ",".join(cell_text(name, cell) for name, cell in zip(header, row)) for row in rows]
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    """The per-column templates write what the per-cell conversion wrote."""

    @pytest.mark.parametrize("argv", [
        ["table1"], ["price-table"],
        ["density-table", "--model", "LN", "--m", "6", "--J", "6"],
        ["init-table", "--model", "HS", "--m", "6", "--J", "6", "--reps", "1"],
        # a zero strike and one past the truncation (flagged)
        ["error-sweep", "--model", "HS", "--m", "8", "--J", "11",
         "--strike", "0", "--strike", "1.0", "--strike", "1.4"],
        ["bench", "--model", "HS", "--m", "6", "--J", "7", "--reps", "1"],
    ], ids=["table1", "price-table", "density-table", "init-table", "error-sweep",
            "bench"])
    def test_commands_byte_identical(self, capsys, monkeypatch, lognormal_file,
                                     heston_short_file, argv):
        argv = [{"LN": lognormal_file, "HS": heston_short_file}.get(a, a) for a in argv]
        emitted = []
        real = cli_mod._emit

        def recording(rows, header, err_cols, args):
            emitted.append((list(rows), header, err_cols))
            real(rows, header, err_cols, args)

        monkeypatch.setattr(cli_mod, "_emit", recording)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(emitted) == 1
        assert out == cell_by_cell_csv(*emitted[0])

    def test_special_cells_byte_identical(self, capsys):
        header = ("name", "value", "count", "error", "flag")
        rows = [
            ("a", 1.5, 3, 2.5e-17, True),
            ("b%s", float("nan"), np.int64(-7), float("-inf"), False),
            ("", np.float64(-0.0), 0, np.float64(3.0), "x,y"),
            ("d", float("inf"), 10**20, 0.0, None),
        ]
        for rows_ in (rows, rows[:1], []):
            args = argparse.Namespace(format="csv", out=None)
            cli_mod._emit(rows_, header, {"error"}, args)
            out, _ = capsys.readouterr()
            assert out == cell_by_cell_csv(rows_, header, {"error"})

    @pytest.mark.parametrize("other", ["", 7, None])
    def test_mixed_float_column_refused(self, other):
        with pytest.raises(TypeError, match="'value'"):
            cli_mod._csv_lines([("a", 1.5), ("b", other)], ("name", "value"), set())


# The options each command accepts: those that can change its output.
ACCEPTED = {
    "price": {"model", "strike", "m", "J", "L", "mass-tol", "density", "payoff", "out"},
    "table1": {"out", "format"},
    "price-table": {"payoff", "out", "format"},
    "density-table": {"model", "m", "J", "L", "mass-tol", "out", "format"},
    "init-table": {"model", "m", "J", "L", "mass-tol", "reps", "out", "format"},
    "error-sweep": {"model", "strike", "m", "J", "L", "density", "out", "format"},
    "bench": {"model", "m", "J", "L", "mass-tol", "reps", "out", "format"},
}
OPTION_VALUES = {"model": None, "strike": "100", "m": "6", "J": "8", "L": "10",
                 "mass-tol": "1e-8", "density": "filon", "payoff": "em-fft",
                 "out": "out.csv", "format": "json", "reps": "1"}
PAIRS = [(command, option) for command in ACCEPTED for option in OPTION_VALUES]


def single_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


class TestParser:
    def test_option_table(self):
        assert sum(map(len, ACCEPTED.values())) == 45
        assert set(cli_mod.COMMANDS) == set(ACCEPTED)
        assert set(cli_mod.OPTIONS) == set(OPTION_VALUES)

    @pytest.mark.parametrize("command, option",
                             [pair for pair in PAIRS if pair[1] in ACCEPTED[pair[0]]])
    def test_accepted_option(self, lognormal_file, command, option):
        model = [] if "model" not in ACCEPTED[command] else ["--model", lognormal_file]
        value = OPTION_VALUES[option] or lognormal_file
        args = build_parser().parse_args([command, *model, f"--{option}", value])
        assert args.command == command and option.replace("-", "_") in args

    @pytest.mark.parametrize("command, option",
                             [pair for pair in PAIRS if pair[1] not in ACCEPTED[pair[0]]])
    def test_refused_option(self, capsys, lognormal_file, command, option):
        model = [] if "model" not in ACCEPTED[command] else ["--model", lognormal_file]
        value = OPTION_VALUES[option] or lognormal_file
        code, out, err = run_cli(capsys, command, *model, f"--{option}", value)
        assert code == 1
        assert out == ""
        assert single_error_line(err) and f"--{option}" in err

    @pytest.mark.parametrize("argv, named", [
        (["price", "--m", "abc"], "--m"),                          # bad int
        (["price", "--payoff", "foo"], "em-fft"),                  # bad choice
        (["error-sweep", "--density", "vieta"], "trapezoidal"),
        (["bench", "--reps", "2.5"], "--reps"),
    ])
    def test_usage_error_exit_code(self, capsys, lognormal_file, argv, named):
        code, out, err = run_cli(capsys, *argv, "--model", lognormal_file)
        assert code == 1
        assert out == ""
        assert single_error_line(err) and named in err

    @pytest.mark.parametrize("command", ["init-table", "bench"])
    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_one_refused(self, capsys, heston_short_file, command, reps):
        code, out, err = run_cli(capsys, command, "--model", heston_short_file,
                                 "--m", "6", "--J", "7", "--reps", reps)
        assert code == 1
        assert out == ""
        assert err == f"error: reps must be at least 1, got {reps}\n"

    @pytest.mark.parametrize("command", sorted(c for c in ACCEPTED if "model" in ACCEPTED[c]))
    def test_missing_model_exit_code(self, capsys, command):
        code, out, err = run_cli(capsys, command)
        assert code == 1
        assert out == ""
        assert single_error_line(err) and "--model" in err

    def test_rejects_unknown_command(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert out == ""
        assert single_error_line(err) and "frobnicate" in err

    def test_rejects_missing_command(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 1
        assert out == ""
        assert single_error_line(err) and "command" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--help"])
        assert exc.value.code == 0
        assert "--mass-tol" in capsys.readouterr().out

    def test_consecutive_calls_match_lone_calls(self, capsys, lognormal_file,
                                               heston_short_file):
        # the parser is built once per process; a call in a sequence, with
        # a usage error in between, prints what it prints alone, and no
        # --strike list carries over to the next call
        sequence = [
            ["price", "--model", lognormal_file, "--strike", "90", "--strike", "110"],
            ["error-sweep", "--model", heston_short_file, "--strike", "1.01"],
            ["price", "--model", lognormal_file, "--m", "not-an-int"],
            ["price", "--model", lognormal_file, "--payoff", "em-fft"],
            ["table1"],
            ["error-sweep", "--model", heston_short_file, "--strike", "0.98",
             "--strike", "1.02", "--format", "json"],
            ["price", "--model", lognormal_file],
        ]

        def outcome(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            return code, re.sub(r'"elapsed_seconds": [^,\n]*', '"elapsed_seconds": 0', out), err

        alone = []
        for argv in sequence:
            cli_mod._parser.cache_clear()
            alone.append(outcome(argv))
        cli_mod._parser.cache_clear()
        assert [outcome(argv) for argv in sequence] == alone
        assert cli_mod._parser.cache_info().misses == 1
        assert alone[2][0] == 1
        # the last price has no --strike: one result, at the forward
        assert json.loads(alone[-1][1])["strike"] == 100.0

    @pytest.mark.parametrize("argv", [
        ["price", "--model", "LN", "--strike", "90", "--strike", "110"],
        ["price", "--model", "LN", "--strike=90", "--strike", "110"],
        # abbreviations, mixed with the full forms, in order
        ["price", "--model", "LN", "--str", "95", "--s", "90", "--strike=110",
         "--strike", "100"],
        ["price", "--strike", "90", "--model", "LN", "--s=110", "--strike", "100",
         "--m", "5"],
        ["price", "--model", "LN", "--strike", "-1"],
        ["price", "--model", "LN", "--strike", "nan"],
        ["price", "--model", "LN", "--strike", "-0.0", "--strike=-.5e-300"],
        # float() reads these, argparse takes them for options
        ["price", "--model", "LN", "--strike", "-1e5"],
        ["price", "--model", "LN", "--strike", "-inf"],
        ["price", "--model", "LN", "--strike", "abc"],
        ["price", "--model", "LN", "--strike", "90", "--strike"],
        ["price", "--model", "LN", "--strike", "--m", "4"],
        # --strike where the option before it wants its value
        ["price", "--model", "--strike", "90", "LN"],
        ["price", "--model", "LN", "--out", "--strike", "90"],
        # after --, argparse reads no option
        ["price", "--model", "LN", "--strike", "90", "--", "--strike", "110"],
        ["price", "--model", "LN", "--strike", "90", "--m", "abc"],
        ["price", "--model", "LN", "--strike", "90", "stray"],
        ["price", "--model", "LN", "--payoff", "em-fft"],
        ["density-table", "--model", "LN", "--m", "6", "--J", "6", "--strike", "1"],
        ["error-sweep", "--model", "LN", "--strike", "90", "--strike", "110"],
    ])
    def test_strike_parse_matches_argparse(self, capsys, monkeypatch, lognormal_file, argv):
        argv = [lognormal_file if a == "LN" else a for a in argv]

        def plain(argv):
            return build_parser().parse_args(argv)

        def parsed(parse):
            try:
                return sorted((k, repr(v)) for k, v in vars(parse(argv)).items())
            except ValueError as exc:
                return str(exc)

        def outcome():
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 or code == 1 and single_error_line(err)
            return code, mask_elapsed(out), err

        assert parsed(cli_mod._parse_args) == parsed(plain)
        ran = outcome()
        monkeypatch.setattr(cli_mod, "_parse_args", plain)
        assert ran == outcome()

    def test_plain_strikes_never_reach_argparse(self, monkeypatch, lognormal_file):
        parser, seen = build_parser(), []
        real = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: seen.append(argv) or real(argv))
        monkeypatch.setattr(cli_mod, "_parser", lambda: parser)
        strikes = np.linspace(50.0, 150.0, 200).tolist()
        argv = ["price", "--model", lognormal_file, *strike_args(*strikes), "--m", "5"]
        args = cli_mod._parse_args(argv)
        assert args.strike == strikes and args.m == 5
        assert seen == [["price", "--model", lognormal_file, "--m", "5"]]

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "t1.csv"
        code = main(["table1", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().startswith("method,value")


class TestScipyImports:
    """No command loads any scipy module: scipy is a test oracle only.  In
    a fresh interpreter: the test process has loaded scipy already."""

    SCRIPT = """
import contextlib, io, sys
from swiftpricer.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv[:1], "--model", sys.argv[1], *argv[1:]]) == 0

for payoff in ("em-fft", "forward", "classic"):
    run("price", "--payoff", payoff, "--strike", "90", "--strike", "110")
run("density-table", "--m", "6", "--J", "6")
run("init-table", "--m", "6", "--J", "6", "--reps", "1")
run("error-sweep", "--strike", "90")
run("bench", "--reps", "1")
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["table1"]) == 0 and main(["price-table"]) == 0
from swiftpricer.transform import cos_sin_sum, dct2_via_fft, dst2_via_fft
dct2_via_fft([1.0, 2.0]), dst2_via_fft([1.0, 2.0]), cos_sin_sum([1.0], [2.0], [0, 5])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

    def test_no_command_loads_scipy(self, lognormal_file):
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, lognormal_file],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]

    def test_no_module_imports_scipy(self):
        package = Path(cli_mod.__file__).resolve().parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    found += [(path.name, a.name) for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    found.append((path.name, node.module))
        assert [f for f in found if f[1].split(".")[0] == "scipy"] == []
