"""Tests for the command-line harness."""

import argparse
import json

import numpy as np
import pytest

from conftest import record_cf_points
from oracles import black76_put
from swiftpricer import PricingContext, WaveletGrid, model_from_json, reference_put
import swiftpricer.cli as cli_mod
import swiftpricer.density as density_mod
from swiftpricer.cli import build_parser, cmd_error_sweep, main
from swiftpricer.pricer import grid_for

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

    def test_N_keeps_the_carried_search(self, capsys, monkeypatch, heston_heavy_file):
        argv = ["price", "--model", heston_heavy_file, "--payoff", "em-fft",
                *strike_args(8e5, 1e6, 1.25e6)]
        sizes = record_cf_points(monkeypatch)
        runs = []
        for extra in ([], ["--N", "65536"]):
            sizes.clear()
            code, out, err = run_cli(capsys, *argv, *extra)
            assert code == 0, err
            # select_scale, then auto_grid's search; the context slices it
            assert sizes == [12, 4096, 4096, 8192, 16384]
            runs.append(json.loads(out))
        assert [d["grid"]["N"] for d in runs[1]] == [65536] * 3
        for plain, wide in zip(*runs):
            assert abs(wide["price"] - plain["price"]) <= 1e-14 * max(plain["strike"], 1e6)

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

    @pytest.mark.parametrize("command, extra, expect", [
        ("price", ["--J", "20"], "J"),
        ("price", ["--N", "0"], "N"),
        ("price", ["--N", "-5"], "N"),
        ("price", ["--m", "6", "--J", "0"], "J"),
        ("price", ["--m", "0"], "m"),
        ("error-sweep", ["--J", "0"], "J"),
        ("density-table", ["--m", "6", "--J", "8", "--N", "0"], "N"),
        # an N that is not a power of two rounds up on every grid
        ("price", ["--N", "100"], 128),
        ("price", ["--m", "6", "--J", "8", "--N", "100"], 128),
        # J without m is used where the strikes set the k-range
        ("price", ["--payoff", "classic", "--J", "12"], 128),
        ("error-sweep", ["--J", "12", "--strike", "100"], None),
    ])
    def test_refused_or_rounded(self, capsys, lognormal_file, command, extra, expect):
        code, out, err = run_cli(capsys, command, "--model", lognormal_file, *extra)
        if isinstance(expect, str):
            assert code == 1
            assert out == ""
            assert err.startswith(f"error: {expect} ")
        else:
            assert code == 0, err
            if expect is not None:
                assert json.loads(out)["grid"]["N"] == expect


class TestGridDomain:
    """Grid inputs past the float range, or windows and options past
    auto_grid's largest density job, end in one message line and an exit
    code, no traceback."""

    @pytest.mark.parametrize("argv, code, cf_points", [
        # the seed window is refused before the search evaluates the cf
        (["price", "--m", "25"], 2, []),
        (["price", "--m", "40"], 2, []),
        (["price", "--m", "1000"], 2, []),
        (["price", "--m", "2000"], 2, []),
        (["price", "--L", "1e12"], 2, [12]),      # select_scale's one call
        (["price", "--L", "1e308"], 2, [12]),
        # not finite: L itself, or the grid bounds 2^m [a, b]
        (["price", "--L", "inf"], 1, [12]),
        (["error-sweep", "--L", "inf", "--strike", "1"], 1, []),
        (["price", "--m", "2000", "--J", "8"], 1, []),
        (["price", "--m", "1", "--J", "1100"], 1, []),
        (["error-sweep", "--m", "2000"], 1, []),
        (["error-sweep", "--L", "1e308", "--strike", "1"], 1, []),
        # past the largest J that grid_for picks (19), or past auto_grid's
        # largest density job (J = 17), given or needed
        (["price", "--m", "6", "--J", "40"], 1, []),
        (["price", "--N", "1099511627776"], 1, []),
        (["error-sweep", "--m", "24", "--strike", "1e-300"], 1, []),
        # the default strikes F [e^(a/4), e^b] overflow
        pytest.param(["error-sweep", "--L", "100000"], 1, [],
                     marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
        # the Si/Ein closed form overflows where k/2^m - z > 709: the forward
        # price is NaN, refused instead of printed
        pytest.param(["error-sweep", "--m", "1", "--L", "30000", "--strike", "1"], 2, [16384],
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
        assert grids == 2 * [WaveletGrid(6, -16, 16, 5, 32, -0.25, 0.25)] + 2 * [
            WaveletGrid(8, -2048, 2048, 12, 4096, -8.0, 8.0)]

    def test_classic_payoff_refused(self, capsys):
        # the fixed J = 5 grid cannot hold the strike-shifted window
        code, out, err = run_cli(capsys, "price-table", "--payoff", "classic")
        assert code == 1
        assert out == ""
        assert "not covered" in err

    def test_one_reference_call_per_experiment(self, capsys, monkeypatch):
        calls = []

        def counting(model, K, tol=1e-10):
            calls.append(list(K))
            return reference_put(model, K, tol)

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
    def test_empty_strike_list_header_only(self, capsys, heston_short_file):
        args = argparse.Namespace(
            model=heston_short_file, strike=[], m=8, J=10, N=None, L=12.0,
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
        ("lognormal_file", (8, -776, 1221, 13, 2048)),
        ("heston_short_file", (8, -92, 146, 10, 256)),
        ("heston_heavy_file", (8, -521, 823, 13, 2048)),
    ])
    def test_default_grids(self, capsys, monkeypatch, request, model_file, pinned):
        grids = record_grids(monkeypatch)
        code, _, _ = run_cli(capsys, "error-sweep", "--model",
                             request.getfixturevalue(model_file))
        assert code == 0
        assert [(g.m, g.k1, g.k2, g.J, g.N) for g in grids] == [pinned]

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
        assert sorted(calls) == [("price_puts", "classic"), ("price_puts", "forward")]

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
        assert ("payoff", "em_fft") in tasks
        assert ("payoff", "si_ein_per_k") in tasks
        assert ("density", "trapezoidal_fft") in tasks
        assert ("density", "filon") in tasks
        assert all(r[5] == "single-sample" for r in rows)


class TestParser:
    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "t1.csv"
        code = main(["table1", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().startswith("method,value")
