"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths under test: naive
O(n^2) transform sums, scipy adaptive quadrature of defining integrals,
the Black-76 closed form, and finite differences of log characteristic
functions.
"""

import json
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import factorial
from scipy.stats import norm

from swiftpricer import char_fn
from swiftpricer.density import (_NODES, _PROBE, _VAND_INV, CoefficientArray,
                                 FilonConvergenceError, _fhat, _moments,
                                 _poly_eval)
from swiftpricer.payoff import _moment
from swiftpricer.transform import _cis


def naive_heston_cf(u, T, p):
    """The little-trap Heston cf of y = ln(S_T/F), one full-size temporary
    per operation: the expression the in-place ``_heston_cf`` evaluates."""
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    A = iu + u * u
    beta = p.kappa - p.rho * p.sigma * iu
    d = np.sqrt(beta * beta + p.sigma * p.sigma * A)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (beta - d) / (beta + d)
        edt = np.exp(-d * T)
        C = p.kappa * p.theta / p.sigma**2 * (
            (beta - d) * T - 2.0 * np.log((1.0 - g * edt) / (1.0 - g))
        )
        D = (beta - d) / p.sigma**2 * (1.0 - edt) / (1.0 - g * edt)
        out = np.exp(C + D * p.v0)
    # A = u(u+i) = 0 at u = 0 and u = -i, where psi = 1 exactly
    # (normalization resp. the martingale condition E[e^y] = 1)
    return np.where(A == 0, 1.0 + 0.0j, out)


def one_pass_heston_cf(u, T, p):
    """The little-trap Heston cf in one pass over all of ``u``: five
    full-size complex buffers by in-place arithmetic, in the operation
    order of ``naive_heston_cf``'s expression.  The blocked ``char_fn``
    must match it bit for bit."""
    u = np.asarray(u, dtype=complex)
    shape = u.shape
    u = u.reshape(-1)
    a = u * 1j
    beta = a * (-p.rho * p.sigma)
    beta += p.kappa
    d = u * u
    a += d
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


def direct_trapezoidal(model, m, J, ks):
    """c_{m,k} by the trapezoidal rule as an explicit sum over its 2^{J-1}
    nodes 2^m pi 2j/2^J (half weight at j = 0), the phase k j reduced
    mod 2^J in integers."""
    n = 1 << J
    j = np.arange(n // 2)
    psi = char_fn(model, -(2.0**m) * np.pi * (2 * j) / n)
    psi[0] *= 0.5
    out = [np.sum((psi * np.exp(2j * np.pi * ((int(k) * j) % n) / n)).real)
           for k in ks]
    return 2.0 ** (m / 2.0) / (n // 2) * np.array(out)


def parseval_put(model, grid, K):
    """The em_fft put as the trapezoidal Parseval sum written out, one
    strike at a time and no factoring:

      B F delta/pi [M(0)/2 + Re sum_{1 <= j < 2^(J-1)} psi(-u_j) M(u_j)],

    u_j = j delta, delta = 2^m pi/2^(J-1), M = ``payoff._moment`` on
    [a, z], z = ln(K/F), and M(0) = e^z (z - a - 1) + e^a; 0 for z <= a."""
    F = model.forward
    if K == 0.0 or np.log(K / F) <= grid.a:
        return 0.0
    z, a = np.log(K / F), grid.a
    n = 1 << (grid.J - 1)
    delta = 2.0**grid.m * np.pi / n
    u = delta * np.arange(1, n)
    total = 0.5 * (np.exp(z) * (z - a - 1.0) + np.exp(a))
    total += np.sum((char_fn(model, -u) * _moment(u, a, z)).real)
    return float(model.discount * F * delta / np.pi * total)


def naive_inverse_dft(x):
    x = np.asarray(x, dtype=complex)
    n = len(x)
    out = np.empty(n, dtype=complex)
    for l in range(n):
        acc = 0.0 + 0.0j
        for j in range(n):
            acc += x[j] * np.exp(2j * np.pi * l * j / n)
        out[l] = acc
    return out


def _half_sample_angles(k, n):
    # pi k (j+1/2)/n with the integer product reduced mod 4n exactly, so the
    # angle itself carries no large-argument rounding
    j = np.arange(n, dtype=np.int64)
    r = (int(k) * (2 * j + 1)) % (4 * n)
    return np.pi * r / (2 * n)


def naive_dct2(a):
    a = np.asarray(a, dtype=float)
    n = len(a)
    return np.array([np.sum(a * np.cos(_half_sample_angles(k, n))) for k in range(n)])


def naive_dst2(b):
    b = np.asarray(b, dtype=float)
    n = len(b)
    return np.array([np.sum(b * np.sin(_half_sample_angles(k, n))) for k in range(n)])


def naive_cos_sin(a, b, ks):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    out = []
    for k in ks:
        ang = _half_sample_angles(k, n)
        out.append(np.sum(a * np.cos(ang) + b * np.sin(ang)))
    return np.array(out)


def quad_exp_sin(a, b, tol=1e-13):
    """int_0^1 e^{-a t} sin(b t)/t dt by adaptive quadrature."""
    if b == 0.0:
        return 0.0

    def f(t):
        return np.exp(-a * t) * np.sin(b * t) / t if t > 0 else b

    limit = max(200, int(abs(b) / np.pi) * 4 + 50)
    val, _ = quad(f, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=limit)
    return val


def quad_ein(z, tol=1e-13):
    """Ein(a+ib) componentwise: Re = int (1-e^{-at} cos(bt))/t, Im = quad_exp_sin."""
    a, b = z.real, z.imag

    def fre(t):
        if t == 0.0:
            return a
        # 1 - e^{-at} cos(bt) without cancellation at small |z| t
        return (-np.expm1(-a * t) + 2.0 * np.exp(-a * t) * np.sin(0.5 * b * t) ** 2) / t

    limit = max(200, int(abs(b) / np.pi) * 4 + 50)
    re, _ = quad(fre, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=limit)
    return complex(re, quad_exp_sin(a, b, tol))


def quad_si(x, tol=1e-14):
    def f(t):
        return np.sin(t) / t if t != 0 else 1.0

    limit = max(200, int(abs(x) / np.pi) * 4 + 50)
    val, _ = quad(f, 0.0, abs(x), epsabs=tol, epsrel=tol, limit=limit)
    return val if x >= 0 else -val


def quad_payoff_classic(K, m, k, a, tol=1e-13):
    """K 2^{m/2} int_a^0 (1 - e^y) sinc(2^m y - k) dy."""

    def f(y):
        return (1.0 - np.exp(y)) * np.sinc(2.0**m * y - k)

    limit = max(300, int(2.0**m * abs(a)) * 4 + 100)
    val, _ = quad(f, a, 0.0, epsabs=tol, epsrel=tol, limit=limit)
    return K * 2.0 ** (m / 2.0) * val


def quad_payoff_forward(K, F, m, k, a, tol=1e-13):
    """K e^{-z} 2^{m/2} int_a^z (e^z - e^y) sinc(2^m y - k) dy, z = ln(K/F)."""
    z = np.log(K / F)
    if z <= a:
        return 0.0

    def f(y):
        return (np.exp(z) - np.exp(y)) * np.sinc(2.0**m * y - k)

    limit = max(300, int(2.0**m * (z - a)) * 4 + 100)
    val, _ = quad(f, a, z, epsabs=tol, epsrel=tol, limit=limit)
    return K * np.exp(-z) * 2.0 ** (m / 2.0) * val


def quad_density_parseval(model_cf, m, k, tol=1e-12):
    """2^{m/2+1} Re int_0^{1/2} psi(-2^{m+1} pi t) e^{2 pi i k t} dt."""

    def f(t):
        return (model_cf(-(2.0 ** (m + 1)) * np.pi * t) * np.exp(2j * np.pi * k * t)).real

    limit = max(300, abs(int(k)) * 4 + 200)
    val, _ = quad(f, 0.0, 0.5, epsabs=tol, epsrel=tol, limit=limit)
    return 2.0 ** (m / 2.0 + 1.0) * val


def quad_density_projection(density, m, k, lo, hi, tol=1e-12):
    """2^{m/2} int f(x) sinc(2^m x - k) dx against an explicit density."""

    def f(x):
        return density(x) * np.sinc(2.0**m * x - k)

    limit = max(300, int(2.0**m * (hi - lo)) * 4 + 100)
    val, _ = quad(f, lo, hi, epsabs=tol, epsrel=tol, limit=limit)
    return 2.0 ** (m / 2.0) * val


def quad_reference_put(model, K, char_fn, tol=1e-10):
    """Damped Fourier inversion put, one scalar ``quad`` per panel: the
    panels, tail cut and per-panel tolerances of ``reference_put``, with
    QUADPACK in place of its vectorized Gauss-Kronrod."""
    F, B = model.forward, model.discount
    X = np.log(F / K)

    def damped(u):
        return complex(char_fn(model, complex(u, -0.5)))

    def integrand(u):
        return (np.exp(1j * u * X) * damped(u)).real / (u * u + 0.25)

    budget = tol / 10.0 * np.pi / np.sqrt(F * K) * max(K, F * 1e-8)
    u_max = 50.0
    while max(abs(damped(u_max)), abs(damped(1.3 * u_max)),
              abs(damped(1.7 * u_max))) / u_max > budget:
        u_max *= 1.7
    edges = np.unique(np.concatenate([
        np.linspace(0.0, min(u_max, 200.0), 21),
        np.geomspace(max(1.0, min(u_max, 200.0)), u_max, 12),
    ]))
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += quad(integrand, lo, hi, limit=400, epsabs=1e-15, epsrel=1e-13)[0]
    return float(B * (K - np.sqrt(F * K) / np.pi * total))


def recursive_filon(model, m, k1, k2, tol, max_depth=40):
    """Filon density coefficients by depth-first recursive panel refinement:
    five one-node cf calls per split test and one moment table per panel.
    The panel set, estimate and budget of ``density_filon``, visited one
    panel at a time.  Returns (CoefficientArray, cf_eval_count)."""
    evals = [0]

    def g(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        evals[0] += ts.size
        return _fhat(model, 2.0 ** (m + 1) * np.pi * ts)

    panels = []
    tol_integral = 0.5 * tol
    leftovers = []

    def refine(t0, h, vals, depth):
        c = _VAND_INV @ vals
        tl = t0 + (h / 2.0) * _NODES
        tr = t0 + h / 2.0 + (h / 2.0) * _NODES
        vl = np.array([vals[0], g(tl[1])[0], g(tl[2])[0], g(tl[3])[0]])
        vr = np.array([vl[3], g(tr[1])[0], g(tr[2])[0], vals[3]])
        cl = _VAND_INV @ vl
        cr = _VAND_INV @ vr
        half = len(_PROBE) // 2
        child = np.concatenate([
            _poly_eval(cl, _PROBE[: half + 1] * 2.0),
            _poly_eval(cr, (_PROBE[half + 1:] - 0.5) * 2.0),
        ])
        est = float(np.trapezoid(np.abs(_poly_eval(c, _PROBE) - child),
                                 dx=1.0 / (len(_PROBE) - 1))) * h
        if est <= tol_integral * (h / 0.5) or depth >= max_depth:
            if est > tol_integral * (h / 0.5):
                leftovers.append(est)
            panels.append((t0, h / 2.0, cl))
            panels.append((t0 + h / 2.0, h / 2.0, cr))
        else:
            refine(t0, h / 2.0, vl, depth + 1)
            refine(t0 + h / 2.0, h / 2.0, vr, depth + 1)

    first = np.concatenate([g(0.5 * _NODES[:3]), g(0.5 * _NODES[3])])
    refine(0.0, 0.5, first, 0)

    omega = 2.0 * np.pi * np.arange(k1, k2)
    integral = np.zeros(omega.size, dtype=complex)
    for t0, h, c in panels:
        mom = _moments(omega * h)
        integral += h * np.exp(1j * omega * t0) * (
            c[0] * mom[0] + c[1] * mom[1] + c[2] * mom[2] + c[3] * mom[3])
    coeffs = CoefficientArray(k1, 2.0 ** (m / 2.0 + 1.0) * integral.real)
    if leftovers:
        achieved = 2.0 * (tol_integral + float(np.sum(leftovers)))
        raise FilonConvergenceError("depth cap", best=coeffs,
                                    achieved_tol=achieved, cf_evals=evals[0])
    return coeffs, evals[0]


def taylor_moments(theta):
    """m_p = int_0^1 s^p e^{i theta s} ds for p = 0..3: upward recursion for
    |theta| >= 1/2, below that the 25-term Taylor series as a loop per p,
    term by term (``density._moments`` sums it against a table by einsum).
    e^{i theta} is the package's kernel ``_cis``, as in ``_moments``: the
    recursion amplifies the kernel's rounding, and with np.exp here m_3
    would differ by 1.2e-14 at |theta| = 1/2."""
    theta = np.asarray(theta, dtype=float)
    it = 1j * theta
    eit = _cis(theta)
    small = np.abs(theta) < 0.5
    safe = np.where(small, 1.0, it)
    out = np.empty((4,) + theta.shape, dtype=complex)
    out[0] = (eit - 1.0) / safe
    for p in range(1, 4):
        out[p] = (eit - p * out[p - 1]) / safe
    if np.any(small):
        ts = it[small]
        for p in range(4):
            acc = np.zeros(ts.shape, dtype=complex)
            term = np.ones(ts.shape, dtype=complex)
            for jj in range(0, 25):
                acc = acc + term / (p + jj + 1)
                term = term * ts / (jj + 1)
            out[p][small] = acc
    return out


def black76_put(F, K, T, vol, B=1.0):
    sd = vol * np.sqrt(T)
    d1 = np.log(F / K) / sd + 0.5 * sd
    d2 = d1 - sd
    return B * (K * norm.cdf(-d2) - F * norm.cdf(-d1))


def black76_call(F, K, T, vol, B=1.0):
    return black76_put(F, K, T, vol, B) + B * (F - K)


def lognormal_density(vol, T):
    """Density of y = ln(S_T/F): normal with mean -vol^2 T/2, var vol^2 T."""
    var = vol * vol * T
    mu = -0.5 * var

    def f(x):
        return np.exp(-((x - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)

    return f


def fd_cumulants(model, char_fn, h=1e-3):
    """c1, c2, c4 from central finite differences of K(s) = ln psi(-is)."""

    def K(s):
        return float(np.log(char_fn(model, -1j * s).real))

    c1 = (K(h) - K(-h)) / (2 * h)
    c2 = (K(h) - 2 * K(0.0) + K(-h)) / (h * h)
    c4 = (K(2 * h) - 4 * K(h) + 6 * K(0.0) - 4 * K(-h) + K(-2 * h)) / h**4
    return c1, c2, c4


def heston_cumulant_series(model):
    """(c1, c2) of the Heston kappa -> 0 cumulant series, with its
    factorials from scipy.special: the form ``cumulants`` evaluates."""
    d, T = model.dynamics, model.maturity
    k, th, s, r, v0 = d.kappa, d.theta, d.sigma, d.rho, d.v0
    x, y = k * T, s * T
    n = np.arange(6.0)
    a = y * y * ((2 ** (n + 2) - n - 3) * v0 - (2 ** (n + 1) - n - 2) * th)
    b = 2 * (n + 3) * (r * y * (n * th - (n + 1) * v0) + (n + 2) * (v0 - th * (n > 0)))
    c1 = -th * T / 2.0 + (th - v0) * T / 2.0 * np.sum((-x) ** n / factorial(n + 1))
    c2 = T * np.sum((-x) ** n * (a + b) / (2.0 * factorial(n + 3)))
    return float(c1), float(c2)


def price_json(strikes, prices, shared):
    """What ``swiftpricer price`` writes: json.dumps of the records
    {"strike": K, "price": p, **shared}, one per strike, a bare object when
    there is one."""
    results = [{"strike": K, "price": p, **shared} for K, p in zip(strikes, prices)]
    return json.dumps(results if len(results) > 1 else results[0], indent=2) + "\n"
