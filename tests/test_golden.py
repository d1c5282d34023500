"""Prices held to ``golden_prices.json`` (written by ``make_golden_prices.py``):
the same grids, and every put within 1e-14 max(K, F) of its recorded value."""

import functools
import json

import numpy as np
import pytest

from make_golden_prices import DENSITIES, PATH, ROUTES, grid_key
from swiftpricer import PricingContext, auto_grid, model_from_dict
from swiftpricer.pricer import grid_for

GOLDEN = json.loads(PATH.read_text())


@functools.cache
def model_and_grids(name):
    rec = GOLDEN[name]
    model = model_from_dict(rec["doc"])
    return model, {"auto": auto_grid(model),
                   "strikes": grid_for(model, strikes=rec["strikes"])}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_grids(name):
    _, grids = model_and_grids(name)
    assert {key: grid_key(grid) for key, grid in grids.items()} == GOLDEN[name]["grids"]


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_prices(name, density):
    model, grids = model_and_grids(name)
    rec = GOLDEN[name]
    K = np.array(rec["strikes"])
    tol = 1e-14 * np.maximum(K, model.forward)
    for route, grid in ROUTES.items():
        got = PricingContext(model, grids[grid], density).price_puts(K, route)
        err = np.abs(got - np.array(rec["puts"][density][route]))
        assert np.all(err <= tol), f"{route}: max err/tol {np.max(err / tol):.3g}"
