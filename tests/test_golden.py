"""Prices held to ``golden_prices.json`` (written by ``make_golden_prices.py``):
the same grids, and every put within 1e-14 max(K, F) of its recorded value;
and the script's records, the same bytes whatever the BLAS thread count."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swiftpricer
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


# Prints make_golden_prices.record on the committed strikes of every model;
# writes no file
RECORD_SCRIPT = """
import json, make_golden_prices as g
golden = json.loads(g.PATH.read_text())
print(json.dumps({name: g.record(doc, golden[name]["strikes"])
                  for name, doc in g.MODELS.items()}))
"""


def test_records_do_not_depend_on_thread_count():
    # no price sums through BLAS, whose dot and matrix products split their
    # sums by the thread count: two fresh interpreters, one thread and two,
    # print every grid and put bit for bit alike
    paths = [str(Path(__file__).parent), str(Path(swiftpricer.__file__).parents[1]),
             os.environ.get("PYTHONPATH")]
    out = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n,
                   PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-c", RECORD_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]
