"""Option pricing: assemble density and payoff coefficients, or price by
the Parseval sum on the density's nodes (em_fft), choose the grid, and
provide the independent reference pricer used for error columns.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .density import (_BLOCK_ELEMENTS, CoefficientArray, DensityJob,
                      _trapezoidal_fhat, density_filon, density_midpoint_fft,
                      density_trapezoidal_fft)
from .models import _CF_BLOCK, Cumulants, ModelSpec, char_fn, cumulants
from .payoff import _end_arg, _terms, payoff_classic_si_ein, payoff_forward_si_ein
from .transform import _cis

DENSITY_STRATEGIES = ("midpoint", "trapezoidal", "filon")
PAYOFF_STRATEGIES = ("classic", "forward", "em_fft")
# Default tolerance of the Filon density route
FILON_TOL = 1e-8
# Tolerance of reference_put, relative to max(K, 1e-8 F)
_REFERENCE_TOL = 1e-10
# auto_grid's scale cutoff |psi(2^m pi)| and its widest window [-2^15, 2^15),
# whose trapezoidal job has J = 17; grid_for caps a strike window there, and
# a given J at the J = 19 the strike-window default max(10, need + 2) may pick
_SCALE_TOL = 1e-8
_MAX_K_HALF = 1 << 15
_MAX_J = (2 * _MAX_K_HALF).bit_length()


@dataclass(frozen=True)
class WaveletGrid:
    """The discretization: scale m, coefficient range [k1, k2), Parseval
    node level J and truncation [a, b]: ints m, J >= 1 and finite a < b."""

    m: int
    k1: int
    k2: int
    J: int
    a: float
    b: float
    # The last wide job of the auto_grid search that chose this grid, with
    # its coefficients and fhat, for PricingContext to reuse instead of
    # redoing the cf call and FFT.  Only auto_grid sets it; it is not
    # compared, not shown and not carried over by ``replace``.
    _search: tuple[DensityJob, CoefficientArray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("m", "J"):
            object.__setattr__(self, name, _grid_int(name, getattr(self, name)))
        if not self.k1 < self.k2:
            raise ValueError("need k1 < k2")
        if self.k2 - self.k1 > (1 << self.J):
            raise ValueError(f"k2-k1 = {self.k2 - self.k1} exceeds 2^J = {1 << self.J}")
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"need finite a < b, got [{self.a}, {self.b}]")


def _grid_int(name: str, value, cap=math.inf) -> int:
    """``value`` as an int in [1, cap]: a numpy integer passes, a float raises."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not 1 <= value <= cap:
        raise ValueError(f"{name} must be in [1, {cap}], got {value}")
    return value


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
    2^{-m/2} sum c_{m,k} reaches 1 - mass_tol.

    One pass over the coefficients: ``np.add.reduceat`` sums the rings
    between consecutive doublings, [-2^p, -2^(p-1)) and [2^(p-1), 2^p)
    (p = 0: [-1, 0) and [0, 1)), and a cumsum of the ring pairs is every
    window's mass.  A target that no window within [k1, k2) reaches raises
    ``GridSelectionError`` with the largest such window's mass."""
    if not 0 < mass_tol < 1:
        raise ValueError("mass_tol must be in (0, 1)")
    # the windows that fit: p = 0 .. top - 1
    top = max(0, min(-coeffs.k1, coeffs.k2)).bit_length()
    achieved = 0.0
    if top:
        half = 1 << np.arange(top)
        edges = np.concatenate((-half[::-1], [0], half[:-1])) - coeffs.k1
        rings = np.add.reduceat(coeffs.values[:half[-1] - coeffs.k1], edges)
        mass = 2.0 ** (-m / 2.0) * np.cumsum(rings[top - 1::-1] + rings[top:])
        hit = np.flatnonzero(mass >= 1.0 - mass_tol)
        if hit.size:
            return -int(half[hit[0]]), int(half[hit[0]])
        achieved = mass[-1]
    raise GridSelectionError(
        f"mass target 1-{mass_tol:g} unreachable on candidate range "
        f"[{coeffs.k1}, {coeffs.k2}): achieved mass {achieved:.12g}")


def _compute_density(model: ModelSpec, grid: WaveletGrid, strategy: str):
    """Returns (CoefficientArray, cf_evals, fhat): cf_evals counts the nodes
    behind the coefficients, fhat is fhat on the level-J trapezoidal nodes
    where the context has it, else None.

    The auto_grid search that chose ``grid`` serves when it has the model,
    m and J and [k1, k2) lies in its window: its fhat, and for the
    trapezoidal rule a slice of its coefficients, the same sums on the same
    nodes as a new FFT (equal to rounding, bit for bit on its window)."""
    search = grid._search
    if search is not None:
        job = search[0]
        if (job.model != model or (job.m, job.J) != (grid.m, grid.J)
                or not job.k1 <= grid.k1 < grid.k2 <= job.k2):
            search = None
    fhat = None if search is None else search[2]
    if strategy == "filon":
        return *density_filon(model, grid.m, grid.k1, grid.k2, FILON_TOL), fhat
    if strategy not in DENSITY_STRATEGIES:
        raise ValueError(f"unknown density strategy '{strategy}' "
                         f"(choose from {DENSITY_STRATEGIES})")
    n_cf = 1 << (grid.J - 1)
    job = DensityJob(model, grid.m, grid.J, grid.k1, grid.k2)
    if strategy == "midpoint":
        return density_midpoint_fft(job), n_cf, fhat
    if search is not None:
        lo = grid.k1 - search[0].k1
        values = search[1].values[lo:lo + grid.k2 - grid.k1]
        return CoefficientArray(grid.k1, values), n_cf, fhat
    fhat = _trapezoidal_fhat(job)
    return density_trapezoidal_fft(job, fhat), n_cf, fhat


def _check_strikes(strikes) -> np.ndarray:
    K = np.asarray(strikes, dtype=float)
    if K.ndim != 1:
        raise ValueError(f"strikes must be a 1-D sequence, got shape {K.shape}")
    bad = ~(np.isfinite(K) & (K >= 0.0))
    if bad.any():
        raise ValueError(f"strike must be finite and >= 0, got {float(K[bad][0])!r}")
    return K


def _classic_window(g: WaveletGrid, z):
    """[k1c, k2c): the coefficients the classic route uses at z = ln(K/F),
    the k-window [2^m(a+z), 2^m(b+z)) moved with the strike and rounded
    outward for wider coverage; integral floats, elementwise in z."""
    return np.floor(2.0**g.m * (g.a + z)), np.ceil(2.0**g.m * (g.b + z)) + 1.0


class PricingContext:
    """Model + grid + density coefficients, computed once and then shared.

    Pricing different strikes against the same context reuses the density
    work.  The only state set after initialization is the em_fft sums (with
    cf_evals, when they need a cf call) and the forward payoff's a-end terms,
    each filled on first use by a deterministic computation, so concurrent
    pricing stays safe.
    """

    def __init__(self, model: ModelSpec, grid: WaveletGrid,
                 density_strategy: str = "trapezoidal"):
        self.model = model
        self.grid = grid
        self.coeffs, self._density_evals, self._fhat = _compute_density(
            model, grid, density_strategy)
        self.cf_evals = self._density_evals
        # the forward payoff's strike-independent a-end terms, on first use
        self._a_terms = None

    def _puts_si_ein(self, K: np.ndarray, routes) -> dict:
        """The ``forward`` and ``classic`` puts among ``routes`` of strikes
        K > 0, by their Si/Ein closed forms: {route: puts}.  Each payoff
        vector is summed with the coefficients by einsum (no BLAS).

        The Si/Ein end terms of a block of strikes are one ``_terms`` call
        (one ``ein`` and one ``si`` call per ``_BLOCK_ELEMENTS`` points):
        each strike's z end, then its classic a+z end, and first the
        forward a end when this context has not kept it yet.  With
        s = 2^m z, the classic form's 0-end terms at the shifted index k - s
        are at t = pi(0 - (k - s)), the same floats as the forward form's
        z-end terms t = pi(s - k) at k, so one z end serves both routes: at
        every k when the forward put is live (z > a), else on the classic
        window.  ``ein`` and ``si`` are elementwise, so each price is bit for
        bit that of its strike priced alone.
        """
        g, F, m, c = self.grid, self.model.forward, self.grid.m, self.coeffs.values
        forward, classic = "forward" in routes, "classic" in routes
        ks = np.arange(g.k1, g.k2)
        z = np.log(K / F)
        s = 2.0**m * z
        # strike-centered payoff over the shifted window [a+z, z]: the
        # coefficient index k pairs with the classic formula at offset k - s
        k1c, k2c = _classic_window(g, z)
        if classic:
            bad = np.flatnonzero((k1c < g.k1) | (k2c > g.k2))
            if bad.size:
                raise ValueError(
                    f"classic payoff window [{int(k1c[bad[0]])}, {int(k2c[bad[0]])}) not "
                    f"covered by the density range [{g.k1}, {g.k2}); widen the grid")
            k1c, k2c = k1c.astype(int) - g.k1, k2c.astype(int) - g.k1
        live = forward & (z > g.a)
        puts = {r: np.empty(K.size) for r in ("forward", "classic") if r in routes}
        a_terms = self._a_terms
        step = max(1, _BLOCK_ELEMENTS // (2 * ks.size))  # <= 2 (k2 - k1) points a strike
        for b in range(0, K.size, step):
            block = range(b, min(b + step, K.size))
            args = [_end_arg(m, ks, g.a)] if forward and a_terms is None else []
            for i in block:
                if live[i] or classic:
                    args.append(_end_arg(m, ks if live[i] else ks[k1c[i]:k2c[i]], z[i]))
                if classic:
                    args.append(_end_arg(m, ks[k1c[i]:k2c[i]] - s[i], g.a))
            if args:
                cuts = np.cumsum([t.size for t in args])[:-1]
                terms = zip(*(np.split(x, cuts) for x in _terms(m, np.concatenate(args))))
            if forward and a_terms is None:
                a_terms = self._a_terms = next(terms)
            for i in block:
                z_terms = next(terms) if live[i] or classic else None
                if forward:
                    V = payoff_forward_si_ein(K[i], F, m, ks, g.a, a_terms,
                                              z_terms if live[i] else None)
                    puts["forward"][i] = np.einsum("k,k->", c, V)
                if classic:
                    window = slice(k1c[i], k2c[i])
                    zero_terms = tuple(t[window] for t in z_terms) if live[i] else z_terms
                    V = payoff_classic_si_ein(K[i], m, ks[window] - s[i], g.a, zero_terms,
                                              next(terms))
                    puts["classic"][i] = np.einsum("k,k->", c[window], V)
        for route in puts:
            puts[route] *= self.model.discount
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
        """(W, A0, B0) of ``_puts_em_fft`` from fhat_j = fhat(u_j) on the
        level-J trapezoidal nodes u_j = j delta, j < 2^(J-1): the context's
        fhat, or, on a midpoint or Filon context without one, a cf call that
        ``cf_evals`` counts.  Over j >= 1,

          w_j = -fhat_j (u_j + i) / (u_j (1 + u_j^2)),
          A0 = -Re sum_j fhat_j e^{i u_j a} / (i u_j),
          B0 = e^a Re sum_j fhat_j e^{i u_j a} / (1 + i u_j),

        and W is w (w_0 = 0) reshaped to (2^(J-1)/s, s), s the largest power
        of two <= sqrt(2^(J-1)).  Rows go in blocks of ``_CF_BLOCK`` entries,
        so no temporary is full size; with j = h s + l, e^{i u_j a} is
        e^{i delta s h a} e^{i delta l a}, as ``_puts_em_fft`` factors it."""
        g, fhat = self.grid, self._fhat
        if fhat is None:
            fhat = _trapezoidal_fhat(DensityJob(self.model, g.m, g.J, g.k1, g.k2))
            self.cf_evals = self._density_evals + fhat.size
        delta = math.ldexp(np.pi, g.m - g.J + 1)
        s = 1 << ((fhat.size.bit_length() - 1) // 2)
        W = np.zeros((fhat.size // s, s), dtype=complex)
        w, t = W.reshape(-1), delta * g.a
        e_hi, e_lo = _cis(np.arange(0, fhat.size, s) * t), _cis(np.arange(s) * t)
        rows = max(1, _CF_BLOCK // s)
        a0 = b0 = 0.0
        for h in range(0, W.shape[0], rows):
            # the nodes j0 <= j < j1 of rows h .. h + rows - 1, node 0 left out
            j0, j1 = max(1, h * s), min(fhat.size, (h + rows) * s)
            fa = np.multiply.outer(e_hi[h:h + rows], e_lo).reshape(-1)[j0 - h * s:]
            f, u = fhat[j0:j1], delta * np.arange(j0, j1)
            fa *= f  # fhat_j e^{i u_j a}
            den = 1.0 + u * u
            a0 -= float(np.sum(fa.imag / u))
            b0 += float(np.sum((fa.real + u * fa.imag) / den))
            den *= -u
            wb = np.multiply(f, u + 1j, out=w[j0:j1])
            wb.real /= den
            wb.imag /= den
        return W, a0, math.exp(g.a) * b0

    def price_puts(self, strikes, payoff_strategy="em_fft") -> np.ndarray:
        """Put prices for a vector of strikes.  ``forward`` and ``classic``
        are B sum_k c_k V_k(K), their Si/Ein closed forms V strike by
        strike; ``em_fft`` is the Parseval sum of ``_puts_em_fft``, which
        reads fhat on the density nodes, not the coefficients.  On every
        route K = 0 prices exactly 0 and a grid without a < 0 <= b is
        refused; z <= a prices 0 on em_fft and forward.  A non-finite price
        raises ``FloatingPointError`` naming its route and strike.

        ``payoff_strategy`` is one route (1-D result) or a non-empty
        sequence of routes (one row per route).  Asked together, ``forward``
        and ``classic`` share each strike's Si/Ein terms at z = ln(K/F)
        (``_puts_si_ein``), with the same prices as asked one by one.
        """
        routes = ((payoff_strategy,) if isinstance(payoff_strategy, str)
                  else tuple(payoff_strategy))
        if not routes:
            raise ValueError("payoff_strategy names no route")
        for route in routes:
            if route not in PAYOFF_STRATEGIES:
                raise ValueError(f"unknown payoff strategy '{route}' "
                                 f"(choose from {PAYOFF_STRATEGIES})")
        K = _check_strikes(strikes)
        g = self.grid
        if not g.a < 0 <= g.b:
            raise ValueError(f"need a < 0 <= b for put coverage, got [{g.a}, {g.b}]")
        live = np.flatnonzero(K > 0.0)
        rows = {route: np.zeros(K.shape) for route in routes}
        with np.errstate(over="ignore", invalid="ignore"):
            if "em_fft" in rows:
                rows["em_fft"][live] = self._puts_em_fft(K[live])
            if rows.keys() - {"em_fft"}:
                for route, puts in self._puts_si_ein(K[live], rows).items():
                    rows[route][live] = puts
        out = np.stack([rows[route] for route in routes])
        bad = np.argwhere(~np.isfinite(out))
        if bad.size:
            j, i = bad[0]
            raise FloatingPointError(f"the {routes[j]} price of strike "
                                     f"{float(K[i])!r} is {out[j, i]}")
        return out[0] if isinstance(payoff_strategy, str) else out

    def _puts_em_fft(self, K: np.ndarray) -> np.ndarray:
        """em_fft puts of strikes K > 0 by the paper's Parseval identity:
        the payoff transform M(u) = int_a^z (e^z - e^y) e^{i u y} dy,
        z = ln(K/F), against fhat by the trapezoidal rule on the density
        nodes u_j = j delta, delta = 2^m pi / 2^(J-1):

          B F delta/pi [e^z (Re sum_j w_j e^{i u_j z} + A0) + B0 + M(0)/2]

        with ``_em_sums``; M(0) = e^z (z - a - 1) + e^a is node 0 at weight
        1/2, and the Nyquist node is left out, as in the density loader.  The
        integrand is Hermitian, so this is the periodic full-line trapezoid:
        no end correction.  With j = h s + l, e^{i u_j z} = e^{i delta s h z}
        e^{i delta l z}, so a strike costs 2^(J-1)/s + s exponentials and the
        sums sum_h E_hi[h] sum_l W[h, l] E_lo[l]: einsums (no BLAS) over its
        own row, so its price depends neither on the strikes beside it nor
        on the thread count.
        """
        g, F = self.grid, self.model.forward
        z = np.log(K / F)
        live = np.flatnonzero(z > g.a)
        sums = np.zeros(K.shape)
        if live.size == 0:
            return sums
        W, a0, b0 = self._em_sums
        delta = math.ldexp(np.pi, g.m - g.J + 1)
        n_hi, s = W.shape
        step = max(1, _BLOCK_ELEMENTS // n_hi)
        for lo in range(0, live.size, step):
            idx = live[lo:lo + step]
            zb = z[idx]
            t = delta * zb
            e_lo = _cis(np.outer(t, np.arange(s)))
            e_hi = _cis(np.outer(t, np.arange(0, n_hi * s, s)))
            waves = np.einsum("bh,bh->b", e_hi, np.einsum("hs,bs->bh", W, e_lo)).real
            ez = np.exp(zb)
            sums[idx] = ez * (waves + a0) + b0 + 0.5 * (ez * (zb - g.a - 1.0) + math.exp(g.a))
        return self.model.discount * F * math.ldexp(1.0, g.m - g.J + 1) * sums

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
    ``PricingContext`` on it slices instead of redoing the FFT, and their
    fhat, which em_fft prices from on any context.  A window past
    ``_MAX_K_HALF``, the seed too, raises ``GridSelectionError``; an ``m``
    that is not an integer >= 1 raises ``ValueError``."""
    m = select_scale(model) if m is None else _grid_int("m", m)
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
    grid = WaveletGrid(m, k1, k2, J, min(a, k1 / 2.0**m), max(b, k2 / 2.0**m))
    object.__setattr__(grid, "_search", (wide, coeffs, fhat))
    return grid


def _k_range(m: int, lo: float, hi: float, L: float | None) -> tuple[int, int]:
    """(floor(2^m lo), ceil(2^m hi)), refused unless both are finite floats."""
    scale = 2.0**m if m < 1024 else math.inf
    k_lo, k_hi = scale * float(lo), scale * float(hi)
    if not (math.isfinite(k_lo) and math.isfinite(k_hi)):
        raise ValueError(f"m = {m}, L = {L}: the grid bounds 2^m [a, b] are not finite floats")
    return int(np.floor(k_lo)), int(np.ceil(k_hi))


def grid_for(model: ModelSpec, m: int | None = None, J: int | None = None,
             L: float | None = None, mass_tol: float = 1e-8,
             strikes=None) -> WaveletGrid:
    """The command line's grid: the options given, the rest chosen.

    * ``m`` and ``J``, no ``strikes``: k in [-2^(J-1), 2^(J-1)), or the
      cumulant window of ``L`` at scale m; [a, b] = [k1, k2) / 2^m.
    * else, no ``strikes``: ``auto_grid(model, L or 10, mass_tol, m=m)``,
      with its carried search.
    * ``strikes``: [a, b] is the cumulant window of ``L or 10`` when ``m``
      is given, else the auto grid's; k covers the classic window
      [2^m(a+z), 2^m(b+z)] of each strike and of z = b, one index to spare
      each side; J defaults to max(10, log2(k2 - k1) + 2).

    A ``J`` that would be ignored, an ``m`` or ``J`` that is not an
    integer >= 1, a ``mass_tol`` outside (0, 1) on any grid, a strike
    window that needs J > 17 (auto_grid's largest density job), a ``J``
    above 19 (the largest the strike-window default picks), and grid
    bounds that are not finite floats raise ``ValueError``, before any cf
    call for ``m`` and ``J``."""
    m = None if m is None else _grid_int("m", m)
    J = None if J is None else _grid_int("J", J, _MAX_J + 2)
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
        return WaveletGrid(m, k1, k2, J, k1 / 2.0**m, k2 / 2.0**m)
    L = 10.0 if L is None else L
    if m is None or strikes is None:
        auto = auto_grid(model, L, mass_tol=mass_tol, m=m)
        if strikes is None:
            return auto
        m, a, b = auto.m, auto.a, auto.b
    else:
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
    return WaveletGrid(m, k1, k2, J, a, b)


class ReferenceError(RuntimeError):
    pass


# reference_put's candidate tail cuts 50, 50 (1.7), 50 (1.7)^2, ...: the 28
# below 1e8, as repeated products
_TAIL_CUTS = np.cumprod(np.r_[50.0, np.full(27, 1.7)])


def reference_put(model: ModelSpec, K):
    """Independent reference put price by damped Fourier inversion.

    Uses the fixed -i/2 damping contour (always inside the moment strip of
    a martingale model):

      P = B [ K - sqrt(F K)/pi * int_0^inf Re(e^{i u X} psi(u - i/2))
                                  / (u^2 + 1/4) du ],   X = ln(F/K),

    integrated panelwise by adaptive Gauss-Kronrod with the tail truncated
    where the cf envelope bounds the remainder below _REFERENCE_TOL/10.
    ``K`` may be a scalar (float out) or a 1-D strike array (ndarray out):
    the strikes share every cf evaluation and differ only in e^{i u X}, and
    the tail is cut at the smallest of their budgets.  K = 0 prices an
    exact 0; a negative or non-finite K raises ``ValueError``, and a price
    that comes out non-finite raises ``ReferenceError``.
    """
    scalar = np.ndim(K) == 0
    strikes = _check_strikes([K] if scalar else K)
    F, B = model.forward, model.discount
    puts = np.zeros(strikes.shape)
    live = strikes > 0.0
    if live.any():
        Kl = strikes[live]
        # sqrt(F) sqrt(K), not sqrt(F K): the product overflows past 1.8e308
        root_fk = np.sqrt(F) * np.sqrt(Kl)
        # tail cut: |integrand| <= |psi(u - i/2)|/u^2, so remainder <= env/U;
        # the first candidate U that meets the budget, with the envelopes
        # of all of them from one cf call
        budget = np.min(_REFERENCE_TOL / 10 * np.pi / root_fk * np.maximum(Kl, F * 1e-8))
        env = np.abs(char_fn(model, np.outer(_TAIL_CUTS, [1.0, 1.3, 1.7]).ravel() - 0.5j))
        env = env.reshape(-1, 3).max(axis=1)
        met = np.flatnonzero((env / _TAIL_CUTS <= budget) | (env == 0.0))
        if not met.size:
            raise ReferenceError(
                f"cf tail does not decay below the budget by u = {_TAIL_CUTS[-1] * 1.7:.3g}")
        u_max = _TAIL_CUTS[met[0]]
        edges = np.linspace(0.0, min(u_max, 200.0), 21)
        if u_max > 200.0:
            edges = np.r_[edges, np.geomspace(200.0, u_max, 12)[1:]]
        total = _damped_integral(model, np.log(F / Kl), edges)
        puts[live] = B * (Kl - root_fk / np.pi * total)
        if not np.all(np.isfinite(puts)):
            bad = float(strikes[~np.isfinite(puts)][0])
            raise ReferenceError(f"reference price is not finite at strike {bad!r}")
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
# Seed pieces span at most this many periods 2 pi/max|X| of e^{i u X}, and
# a refinement round splits its few open pieces 2^k-fold, k >= 1, into about
# this many: a few full rounds cost less than one round per bisection
_SEED_PERIODS = 2.0
_ROUND_PIECES = 16


def _split(panel, depth, index, k):
    """Each piece (panel, depth, index) of ``_damped_integral`` split into
    2^k equal pieces, ``k`` one per piece or one for all; piece ``index``
    of depth d is [index, index + 1] 2^-d of its panel."""
    n = np.broadcast_to(1 << k, panel.shape)
    rep = np.repeat(np.arange(panel.size), n)
    sub = np.arange(rep.size) - np.repeat(np.cumsum(n) - n, n)
    return panel[rep], (depth + k)[rep], (index << k)[rep] + sub


def _damped_integral(model: ModelSpec, X: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """int_{edges[0]}^{edges[-1]} Re(e^{i u X} psi(u - i/2)) / (u^2 + 1/4) du
    for each entry of X.

    Adaptive 21-point Gauss-Kronrod in synchronous rounds: each round
    evaluates the cf once on the nodes of every open piece, shared by all
    X.  A piece of depth d is 2^-d of its panel.  Each panel is seeded at
    the depth that makes its pieces no wider than ``_SEED_PERIODS``
    periods of e^{i u X}, and its first piece is graded toward edges[0] = 0
    down to width 1, twice the distance of the poles +-i/2 of
    1/(u^2 + 1/4).  Each round splits every open piece 2^k-fold, into
    about ``_ROUND_PIECES`` pieces in all.  A piece is accepted when, for
    every X, QUADPACK's error estimate meets its width share
    2^-d max(1e-15, 1e-13 |I_panel|), I_panel being the first estimate on
    its whole panel (the sum over its seed pieces), or is down to the
    rounding floor 50 eps int|f|, or has depth ``_GK_MAX_DEPTH``.
    """
    widths = np.diff(edges)
    periods = widths * np.max(np.abs(X)) / (2.0 * np.pi * _SEED_PERIODS)
    root = np.arange(widths.size)
    seed = np.clip(np.frexp(periods)[1], 0, _GK_MAX_DEPTH)
    panel, depth, index = _split(root, 0 * root, 0 * root, seed)
    # piece 0 at depth d becomes pieces at depths d + h, d + h, ..., d + 1
    d = depth[0]
    h = min(_GK_MAX_DEPTH - d, max(0, int(np.frexp(np.ldexp(widths[0], -d))[1])))
    panel = np.r_[np.zeros(h, int), panel]
    depth = np.r_[d + h, np.arange(d + h, d, -1), depth[1:]]
    index = np.r_[0, np.ones(h, int), index[1:]]
    first = np.searchsorted(panel, root)
    total = np.zeros(X.shape)
    target = None
    while True:
        half = np.ldexp(0.5 * widths[panel], -depth)
        mid = edges[panel] + (2 * index + 1) * half
        u = (mid[:, None] + half[:, None] * _GK_NODES).ravel()
        g = char_fn(model, u - 0.5j) / (u * u + 0.25)
        val, err, floor = (np.empty((X.size, panel.size)) for _ in range(3))
        step = max(1, _BLOCK_ELEMENTS // u.size)
        for s in range(0, X.size, step):
            rows = slice(s, s + step)
            e = _cis(X[rows, None] * u)  # Re(e^{i u X} g) in real arithmetic
            f = e.real * g.real
            f -= e.imag * g.imag
            f = f.reshape(-1, panel.size, 21)
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
            raise ReferenceError(f"quadrature failed on panel "
                                 f"[{mid[i] - half[i]}, {mid[i] + half[i]}]")
        if target is None:
            target = np.maximum(1e-15, 1e-13 * np.abs(np.add.reduceat(val, first, axis=1)))
        done = (err <= np.maximum(np.ldexp(target[:, panel], -depth), floor)).all(axis=0)
        done |= depth == _GK_MAX_DEPTH
        total += val[:, done].sum(axis=1)
        keep = ~done
        if not keep.any():
            return total
        panel, depth, index = panel[keep], depth[keep], index[keep]
        k = max(1, (_ROUND_PIECES // panel.size).bit_length() - 1)
        panel, depth, index = _split(panel, depth, index, min(k, _GK_MAX_DEPTH - depth.max()))
