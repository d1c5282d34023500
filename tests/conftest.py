import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from swiftpricer import HestonParams, LognormalParams, ModelSpec, char_fn
import swiftpricer.density as density_mod
import swiftpricer.pricer as pricer_mod

# Short-maturity set: 2-day options on a unit forward (strong skew).
HESTON_SHORT = ModelSpec(
    forward=1.0, maturity=2.0 / 365.0, discount=1.0,
    dynamics=HestonParams(v0=0.1, kappa=1.0, theta=0.1, sigma=1.0, rho=-0.9))

# Heavy-tail set: 1-year options on a 1e6 forward (large vol-of-vol).
HESTON_HEAVY = ModelSpec(
    forward=1e6, maturity=1.0, discount=1.0,
    dynamics=HestonParams(v0=0.0225, kappa=0.1, theta=0.01, sigma=2.0, rho=0.5))

LOGNORMAL_02 = ModelSpec(
    forward=100.0, maturity=1.0, discount=1.0, dynamics=LognormalParams(vol=0.2))

# Near-point-mass stand-in for psi == 1 (vol so small the cf is 1 to 1e-16
# over every frequency the tests touch).
POINT_MASS = ModelSpec(
    forward=1.0, maturity=1.0, discount=1.0, dynamics=LognormalParams(vol=1e-12))


@pytest.fixture
def heston_short():
    return HESTON_SHORT


@pytest.fixture
def heston_heavy():
    return HESTON_HEAVY


@pytest.fixture
def lognormal():
    return LOGNORMAL_02


@pytest.fixture
def point_mass():
    return POINT_MASS


@pytest.fixture
def lognormal_file(tmp_path):
    path = tmp_path / "lognormal.json"
    path.write_text(json.dumps({
        "forward": 100.0, "maturity": 1.0, "discount": 1.0,
        "lognormal": {"vol": 0.2},
    }))
    return str(path)


@pytest.fixture
def heston_heavy_file(tmp_path):
    path = tmp_path / "heston_heavy.json"
    path.write_text(json.dumps({
        "forward": 1e6, "maturity": 1.0, "discount": 1.0,
        "heston": {"v0": 0.0225, "kappa": 0.1, "theta": 0.01,
                   "sigma": 2.0, "rho": 0.5},
    }))
    return str(path)


@pytest.fixture
def heston_short_file(tmp_path):
    path = tmp_path / "heston_short.json"
    path.write_text(json.dumps({
        "forward": 1.0, "maturity": 2.0 / 365.0, "discount": 1.0,
        "heston": {"v0": 0.1, "kappa": 1.0, "theta": 0.1,
                   "sigma": 1.0, "rho": -0.9},
    }))
    return str(path)


def record_cf_points(monkeypatch):
    """Route density's and pricer's char_fn through one recorder; returns
    the list of the point counts of their calls."""
    sizes = []

    def recording(model, u):
        sizes.append(np.size(u))
        return char_fn(model, u)

    monkeypatch.setattr(density_mod, "char_fn", recording)
    monkeypatch.setattr(pricer_mod, "char_fn", recording)
    return sizes


def traced_peak_kib(fn):
    """Peak KiB that ``fn()`` holds in Python and numpy allocations
    (tracemalloc: the same count on every run and allocator), its result
    included.  A first untraced call fills lazy caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()
