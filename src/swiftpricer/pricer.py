"""Option pricing: assemble density and payoff coefficients, or price by
the Parseval sum on the density's nodes (em_fft), choose the grid, and
provide the independent reference pricer used for error columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .density import (_BLOCK_ELEMENTS, CoefficientArray, DensityJob,
                      _trapezoidal_fhat, density_filon, density_midpoint_fft,
                      density_trapezoidal_fft)
from .models import _CF_BLOCK, Cumulants, ModelSpec, char_fn, cumulants
from .payoff import _end_terms, payoff_classic_si_ein, payoff_forward_si_ein
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
    node level J and truncation [a, b]."""

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
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not self.k1 < self.k2:
            raise ValueError("need k1 < k2")
        if self.k2 - self.k1 > (1 << self.J):
            raise ValueError(f"k2-k1 = {self.k2 - self.k1} exceeds 2^J = {1 << self.J}")
        if not self.a < self.b:
            raise ValueError("need a < b")


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

    @cached_property
    def _forward_a_end(self):
        """The strike-independent a-end terms of the forward payoff."""
        g = self.grid
        return _end_terms(g.m, np.arange(g.k1, g.k2), g.a)

    def _put_si_ein(self, K: float, routes, contexts=None) -> dict:
        """The ``forward`` and ``classic`` puts among ``routes`` of one
        strike K > 0, by their Si/Ein closed forms, on each of ``contexts``
        (default: this one alone), which share this context's model and
        grid: {route: [put on each context]}.  Each payoff vector is
        computed once and dotted with every context's coefficients.

        With z = ln(K/F) and s = 2^m z, the classic form's 0-end terms at the
        shifted index k - s are at t = pi(0 - (k - s)), the same floats as
        the forward form's z-end terms t = pi(s - k) at k: when both routes
        are asked, one ``_end_terms`` call at z serves both.
        """
        g, B = self.grid, self.model.discount
        coeffs = [c.coeffs.values for c in (contexts or (self,))]
        z = np.log(K / self.model.forward)
        ks = np.arange(g.k1, g.k2)
        z_terms = (_end_terms(g.m, ks, z)
                   if "forward" in routes and "classic" in routes and z > g.a else None)
        puts = {}
        if "forward" in routes:
            V = payoff_forward_si_ein(K, self.model.forward, g.m, ks, g.a,
                                      self._forward_a_end, z_terms)
            puts["forward"] = [float(B * np.dot(c, V)) for c in coeffs]
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
            puts["classic"] = [float(B * np.dot(c[window], V)) for c in coeffs]
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
        reads fhat on the density nodes, not the coefficients.
        K = 0 prices exactly 0 on every route, as does z <= a on em_fft and
        forward.  A non-finite price raises ``FloatingPointError`` naming
        its route and strike.

        ``payoff_strategy`` is one route (1-D result) or a sequence of
        routes (one row per route).  Asked together, ``forward`` and
        ``classic`` share each strike's Si/Ein terms at z = ln(K/F)
        (``_put_si_ein``), with the same prices as asked one by one.
        """
        return price_puts_shared([self], strikes, payoff_strategy)[0]

    def _puts_em_fft(self, K: np.ndarray) -> np.ndarray:
        """em_fft puts by the paper's Parseval identity: the payoff transform
        M(u) = int_a^z (e^z - e^y) e^{i u y} dy, z = ln(K/F), against fhat
        by the trapezoidal rule on the density nodes u_j = j delta,
        delta = 2^m pi / 2^(J-1):

          B F delta/pi [e^z (Re sum_j w_j e^{i u_j z} + A0) + B0 + M(0)/2]

        with ``_em_sums``; M(0) = e^z (z - a - 1) + e^a is node 0 at weight
        1/2, and the Nyquist node is left out, as in the density loader.  The
        integrand is Hermitian, so this is the periodic full-line trapezoid:
        no end correction.  With j = h s + l, e^{i u_j z} = e^{i delta s h z}
        e^{i delta l z}, so a block of strikes costs one complex matrix
        product, sum_h E_hi[h] (W @ E_lo)[h], and 2^(J-1)/s + s exponentials
        per strike.
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
        W, a0, b0 = self._em_sums
        delta = math.ldexp(np.pi, g.m - g.J + 1)
        n_hi, s = W.shape
        step = max(1, _BLOCK_ELEMENTS // n_hi)
        for lo in range(0, live.size, step):
            idx = live[lo:lo + step]
            zb = z[idx]
            t = delta * zb
            e_lo = _cis(np.outer(np.arange(s), t))
            e_hi = _cis(np.outer(np.arange(0, n_hi * s, s), t))
            waves = np.sum(e_hi * (W @ e_lo), axis=0).real
            ez = np.exp(zb)
            sums[idx] = ez * (waves + a0) + b0 + 0.5 * (ez * (zb - g.a - 1.0) + math.exp(g.a))
        return self.model.discount * F * math.ldexp(1.0, g.m - g.J + 1) * sums

    def price_put(self, K: float, payoff_strategy: str = "forward") -> PricingResult:
        return PricingResult(float(self.price_puts([K], payoff_strategy)[0]))

    def price_call(self, K: float, payoff_strategy: str = "forward") -> PricingResult:
        parity = self.model.discount * (self.model.forward - K)
        return PricingResult(self.price_put(K, payoff_strategy).price + parity)


def price_puts_shared(contexts, strikes, payoff_strategy="em_fft") -> np.ndarray:
    """``[c.price_puts(strikes, payoff_strategy) for c in contexts]`` as one
    array, for contexts on one model and grid (say, two density strategies):
    each strike's Si/Ein payoff vectors are computed once, for all of them,
    and the prices are bit for bit those of the contexts asked one by one."""
    routes = ((payoff_strategy,) if isinstance(payoff_strategy, str)
              else tuple(payoff_strategy))
    for route in routes:
        if route not in PAYOFF_STRATEGIES:
            raise ValueError(f"unknown payoff strategy '{route}' "
                             f"(choose from {PAYOFF_STRATEGIES})")
    first = contexts[0]
    if any(c.model != first.model or c.grid != first.grid for c in contexts[1:]):
        raise ValueError("contexts sharing payoffs need one model and one grid")
    K = _check_strikes(strikes)
    rows = {route: np.zeros((len(contexts),) + K.shape) for route in routes}
    with np.errstate(over="ignore", invalid="ignore"):
        if "em_fft" in rows:
            for row, ctx in zip(rows["em_fft"], contexts):
                row[:] = ctx._puts_em_fft(K)
        if rows.keys() - {"em_fft"}:
            for i in np.flatnonzero(K > 0.0):  # K = 0 stays 0: call(0) = B F exactly
                for route, puts in first._put_si_ein(float(K[i]), rows, contexts).items():
                    rows[route][:, i] = puts
    for route in routes:
        if not np.isfinite(rows[route]).all():
            j, i = np.argwhere(~np.isfinite(rows[route]))[0]
            raise FloatingPointError(f"the {route} price of strike "
                                     f"{float(K[i])!r} is {rows[route][j, i]}")
    if isinstance(payoff_strategy, str):
        return rows[payoff_strategy]
    return np.stack([rows[route] for route in routes], axis=1)


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
    ``_MAX_K_HALF``, the seed too, raises ``GridSelectionError``."""
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

    A ``J`` that would be ignored, an ``m`` or ``J`` below 1, a
    ``mass_tol`` outside (0, 1) on any grid, a strike window that needs
    J > 17 (auto_grid's largest density job), a ``J`` above 19 (the
    largest the strike-window default picks), and grid bounds that are not
    finite floats raise ``ValueError``."""
    for name, value, cap in (("m", m, math.inf), ("J", J, _MAX_J + 2)):
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
        edges = np.unique(np.concatenate([
            np.linspace(0.0, min(u_max, 200.0), 21),
            np.geomspace(max(1.0, min(u_max, 200.0)), u_max, 12),
        ]))
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
