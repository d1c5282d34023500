"""Option pricing: assemble density and payoff coefficients, choose the
grid, and provide the independent reference pricer used for error columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .density import (_BLOCK_ELEMENTS, CoefficientArray, DensityJob,
                      _trapezoidal_fhat, density_filon, density_midpoint_fft,
                      density_trapezoidal_fft)
from .models import Cumulants, ModelSpec, char_fn, cumulants
from .payoff import (_end_terms, _moment, em_correction_D,
                     payoff_classic_si_ein, payoff_forward_si_ein)

DENSITY_STRATEGIES = ("midpoint", "trapezoidal", "filon")
PAYOFF_STRATEGIES = ("classic", "forward", "em_fft")
# Default tolerance of the Filon density route
FILON_TOL = 1e-8
# auto_grid's scale cutoff |psi(2^m pi)| and its widest window [-2^15, 2^15),
# whose trapezoidal job has J = 17; grid_for caps a given N and a strike
# window there, and a given J at the J = 19 the strike-window default
# max(10, need + 2) may pick
_SCALE_TOL = 1e-8
_MAX_K_HALF = 1 << 15
_MAX_J = (2 * _MAX_K_HALF).bit_length()


@dataclass(frozen=True)
class WaveletGrid:
    """The discretization: scale, coefficient range, resolutions, truncation."""

    m: int
    k1: int
    k2: int
    J: int
    N: int
    a: float
    b: float
    L: float | None = None
    # The last wide job of the auto_grid search that chose this grid, with
    # its coefficients, for PricingContext to slice instead of redoing the
    # FFT.  Only ``_grid`` sets it, for auto_grid and grid_for; it is not
    # compared, not shown and not carried over by ``replace``.
    _search: tuple[DensityJob, CoefficientArray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not self.k1 < self.k2:
            raise ValueError("need k1 < k2")
        if self.k2 - self.k1 > (1 << self.J):
            raise ValueError(f"k2-k1 = {self.k2 - self.k1} exceeds 2^J = {1 << self.J}")
        if not self.a < self.b:
            raise ValueError("need a < b")
        if self.N < 1 or (self.N & (self.N - 1)) != 0:
            raise ValueError("N must be a power of two")


@dataclass(frozen=True)
class PricingResult:
    price: float


class GridSelectionError(RuntimeError):
    pass


def truncation_interval(cum: Cumulants, L: float) -> tuple[float, float]:
    """[a, b] = c1 -+ L sqrt(c2), the cumulant truncation rule."""
    if not 0 < L < math.inf:
        raise ValueError(f"L must be finite and > 0, got {L}")
    half = L * np.sqrt(cum.c2)
    return float(cum.c1 - half), float(cum.c1 + half)


def select_scale(model: ModelSpec) -> int:
    """Smallest m in 1..12 with |psi(2^m pi)| <= ``_SCALE_TOL``: the cf is
    then negligible beyond the scale's bandwidth and is never evaluated
    past 2^m pi.  One cf call covers every candidate scale."""
    ms = np.arange(1, 13)
    psi = np.abs(char_fn(model, 2.0**ms * np.pi))
    hit = np.flatnonzero(psi <= _SCALE_TOL)
    if hit.size:
        return int(ms[hit[0]])
    raise GridSelectionError(
        f"no scale in [1, 12] reaches |psi(2^m pi)| <= {_SCALE_TOL} "
        f"(|psi(2^12 pi)| = {psi[-1]:.3e})")


def select_k_range(coeffs: CoefficientArray, m: int, mass_tol: float) -> tuple[int, int]:
    """Smallest zero-centered doubling range [-2^p, 2^p) whose density mass
    2^{-m/2} sum c_{m,k} reaches 1 - mass_tol."""
    if not 0 < mass_tol < 1:
        raise ValueError("mass_tol must be in (0, 1)")
    target = 1.0 - mass_tol
    achieved = 0.0
    p = 0
    while True:
        k1, k2 = -(1 << p), 1 << p
        if k1 < coeffs.k1 or k2 > coeffs.k2:
            raise GridSelectionError(
                f"mass target 1-{mass_tol:g} unreachable on candidate range "
                f"[{coeffs.k1}, {coeffs.k2}): achieved mass {achieved:.12g}")
        lo, hi = k1 - coeffs.k1, k2 - coeffs.k1
        achieved = float(2.0 ** (-m / 2.0) * np.sum(coeffs.values[lo:hi]))
        if achieved >= target:
            return k1, k2
        p += 1


def _search_slice(model: ModelSpec, grid: WaveletGrid) -> CoefficientArray | None:
    """The trapezoidal coefficients of ``grid`` cut from the auto_grid search
    that chose it, or None when that search does not fit.

    With the search's model, m and J, and [k1, k2) inside its window, the
    slice holds the same trapezoidal sums on the same nodes as a new FFT:
    equal to rounding, and bit for bit when the window is the search's.
    """
    if grid._search is None:
        return None
    job, coeffs = grid._search
    if (job.model != model or (job.m, job.J) != (grid.m, grid.J)
            or not job.k1 <= grid.k1 < grid.k2 <= job.k2):
        return None
    return CoefficientArray(grid.k1, coeffs.values[grid.k1 - job.k1:grid.k2 - job.k1])


def _compute_density(model: ModelSpec, grid: WaveletGrid, strategy: str):
    """Returns (CoefficientArray, cf_evals); cf_evals counts the nodes
    behind the coefficients, also when they come from the grid search."""
    if strategy in ("midpoint", "trapezoidal"):
        n_cf = 1 << (grid.J - 1)
        if strategy == "trapezoidal":
            coeffs = _search_slice(model, grid)
            if coeffs is not None:
                return coeffs, n_cf
        rule = density_midpoint_fft if strategy == "midpoint" else density_trapezoidal_fft
        return rule(DensityJob(model, grid.m, grid.J, grid.k1, grid.k2)), n_cf
    if strategy == "filon":
        return density_filon(model, grid.m, grid.k1, grid.k2, FILON_TOL)
    raise ValueError(f"unknown density strategy '{strategy}' "
                     f"(choose from {DENSITY_STRATEGIES})")


def _check_strikes(strikes) -> np.ndarray:
    K = np.asarray(strikes, dtype=float)
    if K.ndim != 1:
        raise ValueError(f"strikes must be a 1-D sequence, got shape {K.shape}")
    bad = ~(np.isfinite(K) & (K >= 0.0))
    if bad.any():
        raise ValueError(f"strike must be finite and >= 0, got {float(K[bad][0])!r}")
    return K


def _cis(theta) -> np.ndarray:
    """e^{i theta} for real theta, filled in place as cos + i sin: about
    half the time of np.exp(1j * theta)."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _classic_window(g: WaveletGrid, z):
    """[k1c, k2c): the coefficients the classic route uses at z = ln(K/F),
    the k-window [2^m(a+z), 2^m(b+z)) moved with the strike and rounded
    outward for wider coverage; integral floats, elementwise in z."""
    return np.floor(2.0**g.m * (g.a + z)), np.ceil(2.0**g.m * (g.b + z)) + 1.0


class PricingContext:
    """Model + grid + density coefficients, computed once and then shared.

    Pricing different strikes against the same context reuses the density
    work.  The only state set after initialization is the em_fft sums and
    the forward payoff's a-end terms, each filled on first use by a
    deterministic computation, so concurrent pricing stays safe.
    """

    def __init__(self, model: ModelSpec, grid: WaveletGrid,
                 density_strategy: str = "trapezoidal"):
        self.model = model
        self.grid = grid
        self.density_strategy = density_strategy
        self.coeffs, self.cf_evals = _compute_density(model, grid, density_strategy)

    @cached_property
    def _forward_a_end(self):
        """The strike-independent a-end terms of the forward payoff."""
        g = self.grid
        return _end_terms(g.m, np.arange(g.k1, g.k2), g.a)

    def _put_si_ein(self, K: float, routes) -> dict:
        """The ``forward`` and ``classic`` puts among ``routes`` of one
        strike K > 0, by their Si/Ein closed forms.

        With z = ln(K/F) and s = 2^m z, the classic form's 0-end terms at the
        shifted index k - s are at t = pi(0 - (k - s)), the same floats as
        the forward form's z-end terms t = pi(s - k) at k: when both routes
        are asked, one ``_end_terms`` call at z serves both.
        """
        g, B = self.grid, self.model.discount
        z = np.log(K / self.model.forward)
        ks = np.arange(g.k1, g.k2)
        z_terms = (_end_terms(g.m, ks, z)
                   if "forward" in routes and "classic" in routes and z > g.a else None)
        puts = {}
        if "forward" in routes:
            V = payoff_forward_si_ein(K, self.model.forward, g.m, ks, g.a,
                                      self._forward_a_end, z_terms)
            puts["forward"] = float(B * np.dot(self.coeffs.values, V))
        if "classic" in routes:
            # strike-centered payoff over the shifted window [a+z, z]: the
            # coefficient index k pairs with the classic formula at offset
            # k - 2^m z
            k1c, k2c = (int(k) for k in _classic_window(g, z))
            if k1c < g.k1 or k2c > g.k2:
                raise ValueError(
                    f"classic payoff window [{k1c}, {k2c}) not covered by the "
                    f"density range [{g.k1}, {g.k2}); widen the grid")
            window = slice(k1c - g.k1, k2c - g.k1)
            zero_terms = None if z_terms is None else tuple(t[window] for t in z_terms)
            V = payoff_classic_si_ein(K, g.m, ks[window] - 2.0**g.m * z, g.a, zero_terms)
            puts["classic"] = float(B * np.dot(self.coeffs.values[window], V))
        return puts

    def classic_dropped_mass(self, strikes) -> np.ndarray:
        """|2^{-m/2} sum c_k| over the density's k outside each strike's
        classic window: the Riemann mass of the density that the classic
        route leaves out, which its price error tracks.  0 at K = 0, which
        uses no coefficients."""
        K = _check_strikes(strikes)
        g, c = self.grid, self.coeffs.values
        sums = np.concatenate(([0.0], np.cumsum(c)))
        live = K > 0.0
        window = np.subtract(_classic_window(g, np.log(K[live] / self.model.forward)), g.k1)
        lo, hi = np.clip(window, 0, c.size).astype(int)
        out = np.zeros(K.shape)
        out[live] = np.abs(sums[-1] - (sums[hi] - sums[lo]))
        return 2.0 ** (-g.m / 2.0) * out

    @cached_property
    def _em_sums(self):
        """Everything em_fft pricing needs from the density coefficients.

        With alpha_n + i beta_n = sum_k c_k e^{i pi k (n+1/2)/N} (n < N) and
        q_n = (n+1/2) pi 2^m / N, the moment sum of ``_puts_em_fft`` is

          sum_n C_n(z) alpha_n + S_n(z) beta_n
            = e^z Re sum_n w_n e^{i q_n z} + e^z A0 + B0,

          w_n = -conj(alpha_n + i beta_n) / (q_n (q_n - i)),
          A0 = sum_n Im(u_n) / q_n,
          B0 = e^a sum_n (Re(u_n) - q_n Im(u_n)) / (1 + q_n^2),
          u_n = (alpha_n + i beta_n) e^{-i q_n a}

        alpha_n + i beta_n = sum_k c_k e^{2 pi i k (2n+1)/(4N)} is the
        conjugate of odd bin 2n+1 of one real FFT of length 4N, with c_k
        accumulated at k mod 4N (the sum's period in k).

        Returns (W, A0, B0, s0, s1): W is w reshaped to (N/s, s) with s the
        largest power of two <= sqrt(N), s0 = sum_k (-1)^k c_k and
        s1 = sum_k (-1)^k k c_k."""
        g, c = self.grid, self.coeffs.values
        ks = np.arange(g.k1, g.k2)
        x = np.bincount(ks % (4 * g.N), weights=c, minlength=4 * g.N)
        ab_conj = np.fft.rfft(x)[1:2 * g.N:2]
        q = (np.arange(g.N) + 0.5) / g.N * (np.pi * 2.0**g.m)
        w = -ab_conj / (q * (q - 1j))
        u = ab_conj.conj() * _cis(-q * g.a)
        a0 = float(np.sum(u.imag / q))
        b0 = math.exp(g.a) * float(np.sum((u.real - q * u.imag) / (1.0 + q * q)))
        signed = (1.0 - 2.0 * (np.abs(ks) & 1)) * c
        # an elementwise sum, not np.dot, keeps this off BLAS and its
        # thread pool
        s1 = float((ks * signed).sum())
        s = 1 << ((g.N.bit_length() - 1) // 2)
        return w.reshape(-1, s), a0, b0, float(signed.sum()), s1

    def price_puts(self, strikes, payoff_strategy="em_fft") -> np.ndarray:
        """Put prices B sum_k c_k V_k(K) for a vector of strikes; the routes
        differ only in V.  ``forward`` and ``classic`` evaluate their Si/Ein
        closed forms strike by strike; ``em_fft`` is ``_puts_em_fft``.
        K = 0 prices exactly 0 on every route, as does z <= a on em_fft and
        forward.  A non-finite price raises ``FloatingPointError`` naming
        its route and strike.

        ``payoff_strategy`` is one route (1-D result) or a sequence of
        routes (one row per route).  Asked together, ``forward`` and
        ``classic`` share each strike's Si/Ein terms at z = ln(K/F)
        (``_put_si_ein``), with the same prices as asked one by one.
        """
        routes = ((payoff_strategy,) if isinstance(payoff_strategy, str)
                  else tuple(payoff_strategy))
        for route in routes:
            if route not in PAYOFF_STRATEGIES:
                raise ValueError(f"unknown payoff strategy '{route}' "
                                 f"(choose from {PAYOFF_STRATEGIES})")
        K = _check_strikes(strikes)
        rows = {route: np.zeros(K.shape) for route in routes}
        with np.errstate(over="ignore", invalid="ignore"):
            if "em_fft" in rows:
                rows["em_fft"] = self._puts_em_fft(K)
            if rows.keys() - {"em_fft"}:
                for i in np.flatnonzero(K > 0.0):  # K = 0 stays 0: call(0) = B F exactly
                    for route, put in self._put_si_ein(float(K[i]), rows).items():
                        rows[route][i] = put
        for route in routes:
            bad = np.flatnonzero(~np.isfinite(rows[route]))
            if bad.size:
                raise FloatingPointError(f"the {route} price of strike "
                                         f"{float(K[bad[0]])!r} is {rows[route][bad[0]]}")
        if isinstance(payoff_strategy, str):
            return rows[payoff_strategy]
        return np.array([rows[route] for route in routes])

    def _puts_em_fft(self, K: np.ndarray) -> np.ndarray:
        """em_fft puts.  The price is linear in the density coefficients, so
        with z = ln(K/F), scale = K e^{-z} 2^{m/2} = F 2^{m/2} and the sums
        of ``_em_sums`` it is B times

          scale/N sum_n [C_{n+1/2}(z) alpha_n + S_{n+1/2}(z) beta_n]
            - pi scale/(24 N^2) (D(z) s0 - S_N(z) s1)

        (see ``payoff_fft_euler_maclaurin`` for C, S and D), where the
        moment sum is e^z Re sum_n w_n e^{i q_n z} + e^z A0 + B0.  With
        q_n = (n+1/2) delta, delta = pi 2^m / N, and n = h s + l, the
        phases factor as
        e^{i q_n z} = e^{i delta z/2} e^{i delta s h z} e^{i delta l z}, so
        for a block of strikes

          sum_n w_n e^{i q_n z} = e^{i delta z/2} sum_h E_hi[h] (W @ E_lo)[h]:

        one complex matrix product and N/s + s exponentials per strike.
        """
        g, F = self.grid, self.model.forward
        if not g.a < 0 <= g.b:
            raise ValueError(f"need a < 0 <= b for put coverage, got [{g.a}, {g.b}]")
        z = np.full(K.shape, -np.inf)
        np.log(K / F, out=z, where=K > 0.0)
        live = np.flatnonzero(z > g.a)
        sums = np.zeros(K.shape)
        if live.size == 0:
            return sums
        W, a0, b0, s0, s1 = self._em_sums
        p = np.pi * 2.0**g.m
        n_hi, s = W.shape
        step = max(1, _BLOCK_ELEMENTS // n_hi)
        for lo in range(0, live.size, step):
            idx = live[lo:lo + step]
            zb = z[idx]
            t = p / g.N * zb
            e_lo = _cis(np.outer(np.arange(s), t))
            e_hi = _cis(np.outer(np.arange(0, g.N, s), t))
            waves = (_cis(0.5 * t) * np.sum(e_hi * (W @ e_lo), axis=0)).real
            s_cap = _moment(p, g.a, zb).imag
            d_cap = em_correction_D(g.m, g.a, zb)
            sums[idx] = ((np.exp(zb) * (waves + a0) + b0) / g.N
                         - np.pi / (24.0 * g.N**2) * (d_cap * s0 - s_cap * s1))
        return self.model.discount * F * 2.0 ** (g.m / 2.0) * sums

    def price_put(self, K: float, payoff_strategy: str = "forward") -> PricingResult:
        return PricingResult(float(self.price_puts([K], payoff_strategy)[0]))

    def price_call(self, K: float, payoff_strategy: str = "forward") -> PricingResult:
        parity = self.model.discount * (self.model.forward - K)
        return PricingResult(self.price_put(K, payoff_strategy).price + parity)


def auto_grid(model: ModelSpec, L: float = 10.0, mass_tol: float = 1e-9,
              m: int | None = None) -> WaveletGrid:
    """Grid selection: scale from the cf decay, a seed interval from the
    cumulants, and the k-range from the density-mass doubling search (the
    candidate window itself doubles until the mass target is reachable,
    which matters for heavy-tailed models whose cumulant guess is short).

    Each doubling of the window adds one trapezoidal level J, whose even
    nodes are the previous level's: only its odd nodes need the cf.  The
    grid carries the last wide coefficients, which a trapezoidal
    ``PricingContext`` on it slices instead of redoing the FFT.  A window
    past ``_MAX_K_HALF``, the seed too, raises ``GridSelectionError``."""
    if m is None:
        m = select_scale(model)
    a, b = truncation_interval(cumulants(model), L)
    if max(-a, b) > math.ldexp(_MAX_K_HALF, -m):  # 2^m max(-a, b), overflow-free
        raise GridSelectionError(f"the seed window 2^m max(-a, b) of m = {m}, L = {L} "
                                 f"exceeds max_k_half = {_MAX_K_HALF}")
    k_half = 1 << int(np.ceil(np.log2(max(8.0, 2.0**m * max(-a, b)))))
    fhat = None
    while True:
        J = int(np.ceil(np.log2(2 * k_half))) + 1
        wide = DensityJob(model, m, J, -k_half, k_half)
        fhat = _trapezoidal_fhat(wide, fhat)
        coeffs = density_trapezoidal_fft(wide, fhat)
        try:
            k1, k2 = select_k_range(coeffs, m, mass_tol)
            break
        except GridSelectionError:
            k_half *= 2
            if k_half > _MAX_K_HALF:
                raise
    return _grid(m, k1, k2, J, min(a, k1 / 2.0**m), max(b, k2 / 2.0**m), L,
                 search=(wide, coeffs))


def _grid(m, k1, k2, J, a, b, L, N=None, search=None) -> WaveletGrid:
    """The package's one WaveletGrid build.  The payoff FFT size is ``N``,
    or the coefficient count (at least 32), rounded up to a power of two."""
    n = max(32, k2 - k1) if N is None else N
    grid = WaveletGrid(m=m, k1=k1, k2=k2, J=J, N=1 << (n - 1).bit_length(),
                       a=a, b=b, L=L)
    object.__setattr__(grid, "_search", search)
    return grid


def _k_range(m: int, lo: float, hi: float, L: float | None) -> tuple[int, int]:
    """(floor(2^m lo), ceil(2^m hi)), refused unless both are finite floats."""
    scale = 2.0**m if m < 1024 else math.inf
    k_lo, k_hi = scale * float(lo), scale * float(hi)
    if not (math.isfinite(k_lo) and math.isfinite(k_hi)):
        raise ValueError(f"m = {m}, L = {L}: the grid bounds 2^m [a, b] are not finite floats")
    return int(np.floor(k_lo)), int(np.ceil(k_hi))


def grid_for(model: ModelSpec, m: int | None = None, J: int | None = None,
             N: int | None = None, L: float | None = None, mass_tol: float = 1e-8,
             strikes=None) -> WaveletGrid:
    """The command line's grid: the options given, the rest chosen.

    * ``m`` and ``J``, no ``strikes``: k in [-2^(J-1), 2^(J-1)), or the
      cumulant window of ``L`` at scale m; [a, b] = [k1, k2) / 2^m.
    * else, no ``strikes``: ``auto_grid(model, L or 10, mass_tol, m=m)``;
      a new ``N`` keeps its carried search.
    * ``strikes``: [a, b] is the cumulant window of ``L or 10`` when ``m``
      is given, else the auto grid's; k covers the classic window
      [2^m(a+z), 2^m(b+z)] of each strike and of z = b, one index to spare
      each side; J defaults to max(10, log2(k2 - k1) + 2).

    ``N`` rounds up to a power of two.  A ``J`` that would be ignored, an
    ``m``, ``J`` or ``N`` below 1, a ``mass_tol`` outside (0, 1) on any
    grid, an ``N`` above 2^17 or a strike window that needs J > 17
    (auto_grid's largest density job), a ``J`` above 19 (the largest the
    strike-window default picks), and grid bounds that are not finite
    floats raise ``ValueError``."""
    for name, value, cap in (("m", m, math.inf), ("J", J, _MAX_J + 2),
                             ("N", N, 1 << _MAX_J)):
        if value is not None and not 1 <= value <= cap:
            raise ValueError(f"{name} must be in [1, {cap}], got {value}")
    if not 0 < mass_tol < 1:
        raise ValueError(f"mass_tol must be in (0, 1), got {mass_tol}")
    if J is not None and m is None and strikes is None:
        raise ValueError(f"J = {J} needs m: an auto-selected grid chooses its own J")
    if strikes is None and m is not None and J is not None:
        if L is None:
            h = 2.0 ** (J - 1 - m)
            k1, k2 = _k_range(m, -h, h, L)
        else:
            k1, k2 = _k_range(m, *truncation_interval(cumulants(model), L), L)
            k2 += 1
        return _grid(m, k1, k2, J, k1 / 2.0**m, k2 / 2.0**m, L, N)
    if m is None or strikes is None:
        auto = auto_grid(model, 10.0 if L is None else L, mass_tol=mass_tol, m=m)
        if strikes is None:
            return _grid(auto.m, auto.k1, auto.k2, auto.J, auto.a, auto.b, auto.L,
                         N, auto._search)
        m, a, b, L = auto.m, auto.a, auto.b, auto.L
    else:
        L = 10.0 if L is None else L
        a, b = truncation_interval(cumulants(model), L)
    K = _check_strikes(strikes)
    # a zero strike prices 0 on every route and needs no coefficients
    z = np.log(K[K > 0] / model.forward)
    z_max, z_min = np.max(z, initial=b), np.min(z, initial=0.0)
    k1, k2 = _k_range(m, a + z_min, b + max(z_max, 0.0), L)
    k1, k2 = k1 - 1, k2 + 2
    need = (k2 - k1 - 1).bit_length()  # the smallest J with 2^J >= k2 - k1
    if need > _MAX_J:
        raise ValueError(f"J = {need}, needed by the strike window [{k1}, {k2}), exceeds {_MAX_J}")
    J = J if J is not None else max(10, need + 2)
    return _grid(m, k1, k2, J, a, b, L, N)


class ReferenceError(RuntimeError):
    pass


def reference_put(model: ModelSpec, K, tol: float = 1e-10):
    """Independent reference put price by damped Fourier inversion.

    Uses the fixed -i/2 damping contour (always inside the moment strip of
    a martingale model):

      P = B [ K - sqrt(F K)/pi * int_0^inf Re(e^{i u X} psi(u - i/2))
                                  / (u^2 + 1/4) du ],   X = ln(F/K),

    integrated panelwise by adaptive Gauss-Kronrod with the tail truncated
    where the cf envelope bounds the remainder below tol/10.  ``K`` may be a
    scalar (float out) or a 1-D strike array (ndarray out): the strikes
    share every cf evaluation and differ only in e^{i u X}, and the tail is
    cut at the smallest of their budgets.  K = 0 prices an exact 0; a
    negative or non-finite K raises ``ValueError``.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    scalar = np.ndim(K) == 0
    strikes = _check_strikes([K] if scalar else K)
    F, B = model.forward, model.discount
    puts = np.zeros(strikes.shape)
    live = strikes > 0.0
    if live.any():
        Kl = strikes[live]
        # tail cut: |integrand| <= |psi(u - i/2)|/u^2, so remainder <= env/U
        budget = np.min(tol / 10.0 * np.pi / np.sqrt(F * Kl) * np.maximum(Kl, F * 1e-8))
        u_max = 50.0
        while u_max < 1e8:
            env = np.max(np.abs(char_fn(model, np.array([1.0, 1.3, 1.7]) * u_max - 0.5j)))
            if env / u_max <= budget or env == 0.0:
                break
            u_max *= 1.7
        else:
            raise ReferenceError(f"cf tail does not decay below the budget by u = {u_max:.3g}")
        edges = np.unique(np.concatenate([
            np.linspace(0.0, min(u_max, 200.0), 21),
            np.geomspace(max(1.0, min(u_max, 200.0)), u_max, 12),
        ]))
        total = _damped_integral(model, np.log(F / Kl), edges)
        puts[live] = B * (Kl - np.sqrt(F * Kl) / np.pi * total)
    return float(puts[0]) if scalar else puts


# QUADPACK's 21-point Kronrod rule on [-1, 1] and its embedded 10-point
# Gauss rule (the Gauss nodes are every other Kronrod node, centre excluded)
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745105380, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068])
_WGK0 = 0.149445554002916905664936468389821
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_GK_KRONROD = np.concatenate([_WGK, [_WGK0], _WGK[::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[11:20:2] = _WG[::-1]
# Bisections of one panel before its pieces are accepted as they stand: at
# most 2^9 pieces, the order of QUADPACK's default limit of 400 intervals
_GK_MAX_DEPTH = 9


def _damped_integral(model: ModelSpec, X: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """int_{edges[0]}^{edges[-1]} Re(e^{i u X} psi(u - i/2)) / (u^2 + 1/4) du
    for each entry of X.

    Adaptive 21-point Gauss-Kronrod by synchronous bisection: each round
    evaluates the cf once on the nodes of every open piece, shared by all
    X.  A piece is accepted when, for every X, QUADPACK's error estimate
    meets its width share of max(1e-15, 1e-13 |I_panel|), I_panel being
    the first estimate on its whole panel, or is down to the rounding
    floor 50 eps int|f|.  Every open piece of round d is 2^-d of its panel.
    """
    lo, hi = edges[:-1], edges[1:]
    panel = np.arange(lo.size)
    total = np.zeros(X.shape)
    target = None
    for depth in range(_GK_MAX_DEPTH + 1):
        half = 0.5 * (hi - lo)
        u = ((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES).ravel()
        g = char_fn(model, u - 0.5j) / (u * u + 0.25)
        val, err, floor = (np.empty((X.size, lo.size)) for _ in range(3))
        step = max(1, _BLOCK_ELEMENTS // u.size)
        for s in range(0, X.size, step):
            rows = slice(s, s + step)
            f = (np.exp(1j * X[rows, None] * u) * g).real.reshape(-1, lo.size, 21)
            k_sum = f @ _GK_KRONROD
            diff = np.abs(k_sum - f @ _GK_GAUSS) * half
            resasc = np.abs(f - 0.5 * k_sum[..., None]) @ _GK_KRONROD * half
            ratio = 200.0 * diff / np.where(resasc > 0.0, resasc, 1.0)
            val[rows] = k_sum * half
            err[rows] = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio) ** 1.5, diff)
            floor[rows] = 50.0 * np.finfo(float).eps * (np.abs(f) @ _GK_KRONROD) * half
        bad = ~np.isfinite(val).all(axis=0)
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise ReferenceError(f"quadrature failed on panel [{lo[i]}, {hi[i]}]")
        if target is None:
            target = np.maximum(1e-15, 1e-13 * np.abs(val))
        done = (err <= np.maximum(target[:, panel] * 0.5**depth, floor)).all(axis=0)
        done |= depth == _GK_MAX_DEPTH
        total += val[:, done].sum(axis=1)
        keep = ~done
        if not keep.any():
            break
        mid = 0.5 * (lo + hi)[keep]
        lo, hi = np.concatenate([lo[keep], mid]), np.concatenate([mid, hi[keep]])
        panel = np.tile(panel[keep], 2)
    return total


def reference_call(model: ModelSpec, K, tol: float = 1e-10):
    """Reference call by put-call parity; ``K`` as for ``reference_put``."""
    put = reference_put(model, K, tol)
    strikes = K if np.ndim(K) == 0 else np.asarray(K, dtype=float)
    return put + model.discount * (model.forward - strikes)
