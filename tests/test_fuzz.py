"""A seeded fuzz of the public contract on extreme model documents.

Every draw either prices with finite numbers or is refused by a documented
error: on the command line, exit 0 with every numeric field finite, or exit
1 (bad input) or 2 (numerical failure) with exactly one stderr line; in the
Python API, finite values or one of the documented error types.  No numpy
warning may be raised on the way.  The seeds are fixed; a draw that breaks
the contract is a defect to fix or a refusal to document, never a draw to
leave out.
"""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from conftest import HESTON_HEAVY
from swiftpricer import (FilonConvergenceError, GridSelectionError, PricingContext,
                         ReferenceError, auto_grid, model_from_dict, reference_put)
import swiftpricer.cli as cli_mod
from swiftpricer.cli import main
from swiftpricer.pricer import DENSITY_STRATEGIES, PAYOFF_STRATEGIES, grid_for

DOCUMENTED = (ValueError, GridSelectionError, FilonConvergenceError, ReferenceError,
              FloatingPointError)
SEEDS = range(60)


def log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def draw(seed):
    """(model document, strikes) of one seeded draw: F over 1e-6..1e8 or at
    1e-300 / 1e300, T down to 1e-300, vol up to 20, Heston parameters with
    zeros, rho = +-1 and kappa T up to 1e3."""
    rng = np.random.default_rng([2025, seed])
    F = float(rng.choice([1e-300, 1e300])) if rng.random() < 0.1 else log_uniform(rng, 1e-6, 1e8)
    u = rng.random()
    T = 1e-300 if u < 0.05 else (log_uniform(rng, 1e-12, 1e-4) if u < 0.15
                                 else log_uniform(rng, 1e-3, 30.0))
    doc = {"forward": F, "maturity": T, "discount": float(rng.uniform(0.5, 1.0))}
    if rng.random() < 0.3:
        doc["lognormal"] = {"vol": log_uniform(rng, 1e-3, 20.0)}
    else:
        doc["heston"] = {
            "v0": log_uniform(rng, 1e-4, 1.0),
            "kappa": 0.0 if rng.random() < 0.15 else log_uniform(rng, 1e-4, 1e3) / T,
            "theta": 0.0 if rng.random() < 0.15 else log_uniform(rng, 1e-4, 1.0),
            "sigma": log_uniform(rng, 1e-2, 5.0),
            "rho": float(rng.choice([-1.0, 1.0])) if rng.random() < 0.2
            else float(rng.uniform(-1.0, 1.0)),
        }
    return doc, [F, F * math.exp(rng.uniform(-1.0, 1.0))]


def numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def csv_numbers(text):
    out = []
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        for cell in row:
            try:
                out.append(float(cell))
            except ValueError:
                pass  # a flag or a method name
    return out


def check_cli(capsys, argv, parse):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    if code == 0:
        values = parse(out)
        assert values and all(math.isfinite(x) for x in values), (argv, out)
    else:
        assert code in (1, 2), (argv, code)
        assert len(err.splitlines()) == 1, (argv, err)


def finite_or_documented(numbers_of, fn, *args):
    """fn(*args) when ``numbers_of`` its result are finite, None when it
    raises a documented error; anything else fails the test."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fn(*args)
    except DOCUMENTED:
        return None
    assert np.all(np.isfinite(numbers_of(result))), (fn, args)
    return result


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_contract(capsys, tmp_path, seed):
    doc, strikes = draw(seed)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    base = ["--model", str(path)] + [a for K in strikes for a in ("--strike", repr(K))]
    for payoff in PAYOFF_STRATEGIES:
        for density in DENSITY_STRATEGIES:
            check_cli(capsys, ["price", *base, "--payoff", payoff.replace("_", "-"),
                               "--density", density], lambda out: numbers(json.loads(out)))
    check_cli(capsys, ["error-sweep", *base], csv_numbers)
    # a fixed grid: an auto grid of 2^16 coefficients and J = 17 is refused
    # (test_density_table_refuses_a_huge_vieta_column)
    check_cli(capsys, ["density-table", "--model", str(path), "--m", "6", "--J", "8"],
              csv_numbers)


def test_density_table_refuses_a_huge_vieta_column(capsys, tmp_path, monkeypatch):
    # seed 56's auto grid, [-32768, 32768) with J = 17, asks the Vieta column
    # for 2^32 terms (about a minute): refused before any column is computed
    doc, _ = draw(56)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for name in ("density_midpoint_fft", "density_filon", "density_vieta_direct"):
        monkeypatch.setattr(cli_mod, name, None)
    code = main(["density-table", "--model", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == ("error: the vieta_direct column needs (k2 - k1) 2^(J-1) = 4294967296 "
                   "terms, over 2^30; choose a smaller grid with --m/--J\n")


def test_vieta_cap_admits_the_heavy_auto_grid():
    # the cap is the heavy reference model's own density-table grid, which
    # still runs, as does any --m 6 --J 8 table (256 x 128 terms)
    grid = grid_for(HESTON_HEAVY)
    assert (grid.k2 - grid.k1) << (grid.J - 1) == cli_mod._MAX_VIETA_TERMS == 1 << 30


@pytest.mark.parametrize("seed", SEEDS)
def test_api_contract(seed):
    doc, strikes = draw(seed)
    model = finite_or_documented(lambda m: [m.forward, m.maturity], model_from_dict, doc)
    if model is None:
        return
    finite_or_documented(np.asarray, reference_put, model, strikes)
    grid = finite_or_documented(lambda g: [g.a, g.b], auto_grid, model)
    if grid is None:
        return
    for density in DENSITY_STRATEGIES:
        ctx = finite_or_documented(lambda c: c.coeffs.values, PricingContext, model, grid,
                                   density)
        if ctx is None:
            continue
        for route in PAYOFF_STRATEGIES:
            finite_or_documented(np.asarray, ctx.price_puts, strikes, route)
