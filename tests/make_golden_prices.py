"""Write ``golden_prices.json``, the put prices ``test_golden.py`` holds the
pricer to.

For each reference model: nine strikes (K = 0, K = F and F e^{x sd}, sd the
cumulant standard deviation), the auto grid and the strike-window grid of
``grid_for``, and the puts of both FFT densities (midpoint, trapezoidal)
on every payoff route.  ``em_fft`` and ``forward`` price on the auto grid,
``classic`` on the strike-window grid.  A model already in the file keeps
its recorded strikes, so that a rounding change in the cumulants moves no
strike.  Run from the repository root:

    PYTHONPATH=src python tests/make_golden_prices.py
"""

import json
import math
from pathlib import Path

from swiftpricer import PricingContext, auto_grid, cumulants, model_from_dict
from swiftpricer.pricer import grid_for

MODELS = {
    "heston_short": {"forward": 1.0, "maturity": 2.0 / 365.0, "discount": 1.0,
                     "heston": {"v0": 0.1, "kappa": 1.0, "theta": 0.1,
                                "sigma": 1.0, "rho": -0.9}},
    "heston_heavy": {"forward": 1e6, "maturity": 1.0, "discount": 1.0,
                     "heston": {"v0": 0.0225, "kappa": 0.1, "theta": 0.01,
                                "sigma": 2.0, "rho": 0.5}},
    "lognormal": {"forward": 100.0, "maturity": 1.0, "discount": 1.0,
                  "lognormal": {"vol": 0.2}},
}
# strikes F e^{x sd}; x = 0 is K = F exactly
SPREADS = (-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
ROUTES = {"em_fft": "auto", "forward": "auto", "classic": "strikes"}
DENSITIES = ("midpoint", "trapezoidal")
PATH = Path(__file__).with_name("golden_prices.json")


def grid_key(grid):
    return [grid.m, grid.k1, grid.k2, grid.J]


def record(doc, strikes=None):
    model = model_from_dict(doc)
    if strikes is None:
        sd = math.sqrt(cumulants(model).c2)
        strikes = [0.0] + [model.forward * math.exp(x * sd) for x in SPREADS]
    grids = {"auto": auto_grid(model), "strikes": grid_for(model, strikes=strikes)}
    puts = {}
    for density in DENSITIES:
        ctxs = {name: PricingContext(model, grid, density) for name, grid in grids.items()}
        puts[density] = {route: ctxs[grid].price_puts(strikes, route).tolist()
                         for route, grid in ROUTES.items()}
    return {"doc": doc, "strikes": strikes,
            "grids": {name: grid_key(grid) for name, grid in grids.items()},
            "puts": puts}


if __name__ == "__main__":
    old = json.loads(PATH.read_text()) if PATH.exists() else {}
    golden = {}
    for name, doc in MODELS.items():
        kept = old.get(name, {})
        golden[name] = record(doc, kept["strikes"] if kept.get("doc") == doc else None)
    PATH.write_text(json.dumps(golden, indent=1) + "\n")
