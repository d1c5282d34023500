"""Models priced by the wavelet expansion: Heston and lognormal.

Everything is expressed through the characteristic function of the
forward-centered log return y = ln(S_T / F), so that E[e^y] = 1
(psi(-i) = 1) and density coefficients are strike independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import factorial

# Convention: the truncation rule uses no fourth cumulant.  The Heston c4
# has an unwieldy closed form, the rule only needs a rough guess, and the
# printed reference interval in the experiments is reproduced without it.


@dataclass(frozen=True)
class HestonParams:
    """Heston variance process parameters.

    dv_t = kappa (theta - v_t) dt + sigma sqrt(v_t) dW_t,  corr(dW, dB) = rho.
    """

    v0: float
    kappa: float
    theta: float
    sigma: float
    rho: float

    def __post_init__(self):
        for name in ("v0", "kappa", "theta", "sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.v0 > 0:
            raise ValueError(f"v0 must be > 0, got {self.v0}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class LognormalParams:
    """Flat lognormal (Black-76) dynamics with volatility per sqrt-year."""

    vol: float

    def __post_init__(self):
        if not (np.isfinite(self.vol) and self.vol > 0):
            raise ValueError(f"vol must be finite and > 0, got {self.vol}")


@dataclass(frozen=True)
class ModelSpec:
    """A priced model: forward, maturity, discount factor and dynamics."""

    forward: float
    maturity: float
    discount: float
    dynamics: HestonParams | LognormalParams

    def __post_init__(self):
        if not (np.isfinite(self.forward) and self.forward > 0):
            raise ValueError(f"forward must be finite and > 0, got {self.forward}")
        if not (np.isfinite(self.maturity) and self.maturity > 0):
            raise ValueError(f"maturity must be finite and > 0, got {self.maturity}")
        if not 0 < self.discount <= 1:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")


@dataclass(frozen=True)
class Cumulants:
    """Mean c1 and variance c2 of y = ln(S_T/F)."""

    c1: float
    c2: float

    def __post_init__(self):
        if self.c2 < 0:
            raise ValueError(f"c2 must be >= 0, got {self.c2}")


def _heston_cf(u, T, p: HestonParams):
    """Little-trap Heston cf of y = ln(S_T/F); branch-stable for large T.

    With A = u(u+i), beta = kappa - i rho sigma u, d = sqrt(beta^2 +
    sigma^2 A), g = (beta-d)/(beta+d) and q = 1 - g e^{-dT}:

      psi = exp(kappa theta/sigma^2 [(beta-d) T - 2 ln(q/(1-g))]
                + v0 (beta-d)/sigma^2 (1 - e^{-dT})/q),

    evaluated in five full-size complex buffers by in-place arithmetic, in
    the operation order of that expression: bit for bit its value.
    """
    u = np.asarray(u, dtype=complex)
    shape = u.shape
    u = u.reshape(-1)  # ufuncs on 0-d input return scalars, not buffers
    a = u * 1j
    beta = a * (-p.rho * p.sigma)
    beta += p.kappa
    d = u * u
    a += d
    # A = u(u+i) = 0 at u = 0 and u = -i, where psi = 1 exactly
    # (normalization resp. the martingale condition E[e^y] = 1)
    one = a == 0
    np.multiply(beta, beta, out=d)
    a *= p.sigma * p.sigma
    d += a
    np.sqrt(d, out=d)
    bmd = beta - d
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.add(beta, d, out=beta)
        np.divide(bmd, g, out=g)
        edt = np.multiply(d, -T, out=d)
        np.exp(edt, out=edt)
        q = np.multiply(g, edt, out=a)
        np.subtract(1.0, q, out=q)
        log_ratio = np.subtract(1.0, g, out=g)
        np.divide(q, log_ratio, out=log_ratio)
        np.log(log_ratio, out=log_ratio)
        v0d = bmd / p.sigma**2
        v0d *= np.subtract(1.0, edt, out=edt)
        v0d /= q
        v0d *= p.v0
        c = np.multiply(bmd, T, out=bmd)
        log_ratio *= 2.0
        c -= log_ratio
        c *= p.kappa * p.theta / p.sigma**2
        c += v0d
        out = np.exp(c, out=c)
    out[one] = 1.0
    return out.reshape(shape)


def _lognormal_cf(u, T, p: LognormalParams):
    u = np.asarray(u, dtype=complex)
    return np.exp(-0.5 * p.vol * p.vol * T * (u * u + 1j * u))


def char_fn(model: ModelSpec, u):
    """Characteristic function psi(u) = E[exp(i u ln(S_T/F))].

    Vectorized over ``u``; real input is the supported contract, complex
    input evaluates the same analytic expressions (used e.g. for the
    martingale check psi(-i) = 1).
    """
    scalar = np.isscalar(u)
    if isinstance(model.dynamics, HestonParams):
        out = _heston_cf(u, model.maturity, model.dynamics)
    else:
        out = _lognormal_cf(u, model.maturity, model.dynamics)
    return complex(out[()]) if scalar else out


def cumulants(model: ModelSpec) -> Cumulants:
    """Cumulants c1, c2 of y = ln(S_T/F).

    Lognormal: exact (c1 = -sigma^2 T/2, c2 = sigma^2 T).
    Heston: closed-form c1 and c2, by their series in kappa for
    kappa T < 5e-4 (kappa = 0 included); no c4 (the convention noted at
    the top of this module), adequate for seeding truncation guesses.
    """
    T = model.maturity
    dyn = model.dynamics
    if isinstance(dyn, LognormalParams):
        var = dyn.vol * dyn.vol * T
        return Cumulants(c1=-0.5 * var, c2=var)

    k, th, s, r, v0 = dyn.kappa, dyn.theta, dyn.sigma, dyn.rho, dyn.v0
    x, y = k * T, s * T
    if x < 5e-4:
        # the closed forms below cancel as x -> 0 (c2 divides by 8 k^3):
        # their series in x instead, whose terms past x^5 are below rounding
        n = np.arange(6.0)
        a = y * y * ((2 ** (n + 2) - n - 3) * v0 - (2 ** (n + 1) - n - 2) * th)
        b = 2 * (n + 3) * (r * y * (n * th - (n + 1) * v0) + (n + 2) * (v0 - th * (n > 0)))
        c1 = -th * T / 2.0 + (th - v0) * T / 2.0 * np.sum((-x) ** n / factorial(n + 1))
        c2 = T * np.sum((-x) ** n * (a + b) / (2.0 * factorial(n + 3)))
        return Cumulants(c1=float(c1), c2=float(c2))
    ekt = np.exp(-k * T)
    c1 = -th * T / 2.0 + (th - v0) * (1.0 - ekt) / (2.0 * k)
    e1 = np.exp(k * T)
    e2 = np.exp(2.0 * k * T)
    term_th = th * (
        2.0 * T * k * (4.0 * k * k - 4.0 * k * r * s + s * s) * e2
        + s * s
        + (-8.0 * k * k + 16.0 * k * r * s - 5.0 * s * s) * e2
        + 4.0 * (-2.0 * T * k * k * r * s + T * k * s * s
                 + 2.0 * k * k - 4.0 * k * r * s + s * s) * e1
    )
    term_v0 = 2.0 * v0 * (
        4.0 * k * k * e2 - 4.0 * k * r * s * e2
        + 2.0 * k * (2.0 * T * k * r * s - T * s * s - 2.0 * k + 2.0 * r * s) * e1
        + s * s * e2 - s * s
    )
    c2 = (term_th + term_v0) * np.exp(-2.0 * k * T) / (8.0 * k**3)
    return Cumulants(c1=float(c1), c2=float(c2))


# JSON's name for each non-number type json.load returns
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               type(None): "null"}


def _fields(block, keys, name: str) -> dict:
    """The number at each key of the JSON object ``block``, as floats.

    A block that is not an object, a missing key, a value that is not a
    JSON number (string, null, boolean, array or object), and an integer
    past the float range raise ``ValueError`` naming the block and key."""
    if not isinstance(block, dict):
        raise ValueError(f"{name} must be a JSON object, "
                         f"got {_JSON_TYPES.get(type(block), 'number')}")
    out = {}
    for key in keys:
        if key not in block:
            raise ValueError(f"{name} missing required key '{key}'")
        kind = _JSON_TYPES.get(type(block[key]), "number")
        if kind != "number":
            raise ValueError(f"{name} key '{key}' must be a number, got {kind}")
        try:
            out[key] = float(block[key])
        except OverflowError:
            raise ValueError(f"{name} key '{key}' is out of the float range") from None
    return out


def model_from_dict(doc: dict) -> ModelSpec:
    """Build a ModelSpec from the JSON document layout.

    {"forward": F, "maturity": T, "discount": B,
     "heston": {"v0":..,"kappa":..,"theta":..,"sigma":..,"rho":..}}
    or ... "lognormal": {"vol": ..}.  Anything else raises ``ValueError``.
    """
    spec = _fields(doc, ("forward", "maturity", "discount"), "model document")
    if "heston" in doc and "lognormal" in doc:
        raise ValueError("model document has both a 'heston' and a 'lognormal' block")
    if "heston" in doc:
        dyn = HestonParams(**_fields(doc["heston"], ("v0", "kappa", "theta", "sigma", "rho"),
                                     "heston block"))
    elif "lognormal" in doc:
        dyn = LognormalParams(**_fields(doc["lognormal"], ("vol",), "lognormal block"))
    else:
        raise ValueError("model document needs a 'heston' or 'lognormal' block")
    return ModelSpec(**spec, dynamics=dyn)


def model_from_json(path) -> ModelSpec:
    with open(path) as fh:
        doc = json.load(fh)
    return model_from_dict(doc)
