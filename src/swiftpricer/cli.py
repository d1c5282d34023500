"""Command-line harness: table reproduction, error sweeps, benchmarks, and
ad-hoc pricing from JSON model files.

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time

import numpy as np

from .density import (DensityJob, FilonConvergenceError, density_filon,
                      density_midpoint_fft, density_trapezoidal_fft,
                      density_vieta_direct)
from .models import HestonParams, ModelSpec, cumulants, model_from_json
from .payoff import (PayoffJob, payoff_classic_si_ein, payoff_classic_simpson,
                     payoff_classic_vieta, payoff_fft_euler_maclaurin,
                     payoff_forward_si_ein)
from .pricer import (DENSITY_STRATEGIES, FILON_TOL, PAYOFF_STRATEGIES,
                     GridSelectionError, PricingContext, ReferenceError, grid_for,
                     reference_put, truncation_interval)

# The default --mass-tol, and the density mass left out of the classic
# window above which error-sweep flags a row window_uncovered
MASS_TOL = 1e-8

# The two Heston experiment configurations used by the built-in tables.
# The quoted-price tables pair the short-maturity dynamics with F = 1 and
# the heavy-tail dynamics with F = 1e6; the tabulated strikes are the
# out-of-the-money side (put below the forward, call above).
EXPERIMENT_SHORT = dict(
    model=ModelSpec(1.0, 2.0 / 365.0, 1.0,
                    HestonParams(v0=0.1, kappa=1.0, theta=0.1, sigma=1.0, rho=-0.9)),
    m=6, J=5,
    strikes=((1.0064, "call"), (1.064, "call")),
)
EXPERIMENT_HEAVY = dict(
    model=ModelSpec(1e6, 1.0, 1.0,
                    HestonParams(v0=0.0225, kappa=0.1, theta=0.01, sigma=2.0, rho=0.5)),
    m=8, J=12,
    strikes=((250000.0, "put"), (4000000.0, "call")),
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _fmt_err(x) -> str:
    return f"{x:.17e}" if isinstance(x, float) else str(x)


def _write(text, args):
    """Write text to --out, or to stdout without one."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(rows, header, err_cols, args):
    """Write rows as CSV (17 significant digits, scientific errors) or JSON."""
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        lines = [",".join(header)] + [
            ",".join(_fmt_err(cell) if name in err_cols else _fmt(cell)
                     for name, cell in zip(header, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(text, args)


def cmd_table1(args) -> int:
    rows = [
        ("Vieta J=5", payoff_classic_vieta(1.0, 6, -1, -1.0, 5)),
        ("Simpson J=5", payoff_classic_simpson(1.0, 6, -1, -1.0, 16)),
        ("Vieta J=10", payoff_classic_vieta(1.0, 6, -1, -1.0, 10)),
        ("Simpson J=10", payoff_classic_simpson(1.0, 6, -1, -1.0, 512)),
        ("SiEin", payoff_classic_si_ein(1.0, 6, -1, -1.0)),
    ]
    _emit(rows, ("method", "value"), set(), args)
    return 0


def cmd_price(args) -> int:
    model = model_from_json(args.model)
    strikes = args.strike or [model.forward]
    # the classic payoff's window moves with the strike: cover each one
    grid = grid_for(model, args.m, args.J, args.N, args.L, args.mass_tol,
                    strikes if args.payoff == "classic" else None)
    ctx = PricingContext(model, grid, args.density)
    # one call prices every strike; each reports its share of the elapsed time
    t0 = time.perf_counter()
    prices = ctx.price_puts(strikes, args.payoff).tolist()
    share = (time.perf_counter() - t0) / len(strikes)
    results = [{
        "strike": K,
        "price": price,
        "grid": {"m": grid.m, "k1": grid.k1, "k2": grid.k2, "J": grid.J,
                 "N": grid.N, "a": grid.a, "b": grid.b},
        "density_strategy": ctx.density_strategy,
        "payoff_strategy": args.payoff,
        "cf_evals": ctx.cf_evals,
        "elapsed_seconds": share,
    } for K, price in zip(strikes, prices)]
    _write(json.dumps(results if len(results) > 1 else results[0], indent=2) + "\n", args)
    return 0


def cmd_price_table(args) -> int:
    rows = []
    for name, exp in (("short", EXPERIMENT_SHORT), ("heavy", EXPERIMENT_HEAVY)):
        model = exp["model"]
        grid = grid_for(model, exp["m"], exp["J"])
        strikes = [K for K, _ in exp["strikes"]]
        refs = reference_put(model, strikes).tolist()
        for strategy in ("midpoint", "trapezoidal"):
            prices = PricingContext(model, grid, strategy).price_puts(strikes, args.payoff)
            for (K, side), price, refp in zip(exp["strikes"], prices.tolist(), refs):
                if side == "call":
                    parity = model.discount * (model.forward - K)
                    price, refp = price + parity, refp + parity
                rows.append((name, strategy, K, side, price, price - refp))
    _emit(rows, ("set", "density", "strike", "side", "price", "error"),
          {"error"}, args)
    return 0


def cmd_density_table(args) -> int:
    model = model_from_json(args.model)
    grid = grid_for(model, args.m, args.J, L=args.L, mass_tol=args.mass_tol)
    job = DensityJob(model, grid.m, grid.J, grid.k1, grid.k2)
    mid = density_midpoint_fft(job)
    trap = density_trapezoidal_fft(job)
    fil, _ = density_filon(model, grid.m, grid.k1, grid.k2, tol=FILON_TOL)
    ks = np.arange(grid.k1, grid.k2)
    vieta = density_vieta_direct(model, grid.m, ks, grid.J)
    rows = list(zip(ks.tolist(), mid.values, trap.values, fil.values, vieta))
    _emit(rows, ("k", "midpoint", "trapezoidal", "filon", "vieta_direct"), set(), args)
    return 0


def _median_seconds(fn, reps: int) -> float:
    """Median wall time of ``reps`` calls of ``fn``."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _density_timings(model, grid, reps: int):
    """(variant, cf_evals, median seconds) of the trapezoidal FFT and of Filon."""
    job = DensityJob(model, grid.m, grid.J, grid.k1, grid.k2)
    t_trap = _median_seconds(lambda: density_trapezoidal_fft(job), reps)
    evals = []
    t_fil = _median_seconds(lambda: evals.append(density_filon(
        model, grid.m, grid.k1, grid.k2, tol=FILON_TOL)[1]), reps)
    return [("trapezoidal_fft", 2 ** (grid.J - 1), t_trap), ("filon", evals[-1], t_fil)]


def cmd_init_table(args) -> int:
    model = model_from_json(args.model)
    grid = grid_for(model, args.m, args.J, L=args.L, mass_tol=args.mass_tol)
    rows = [(v, evals, t * 1e6) for v, evals, t in _density_timings(model, grid, args.reps)]
    _emit(rows, ("method", "cf_evals", "median_microseconds"), set(), args)
    return 0


def cmd_error_sweep(args) -> int:
    model = model_from_json(args.model)
    m = args.m if args.m is not None else 8
    L = args.L if args.L is not None else 12.0
    a, b = truncation_interval(cumulants(model), L)
    if args.strike is not None:
        strikes = list(args.strike)  # may be empty: emit the header only
    else:
        with np.errstate(all="ignore"):
            strikes = model.forward * np.linspace(np.exp(0.25 * a), np.exp(b) * (1 - 1e-9), 40)
        if not np.isfinite(strikes).all():
            raise ValueError(f"L = {L}: the default strikes F e^(a/4)..F e^b overflow")
    grid = grid_for(model, m, args.J, L=L, strikes=strikes)
    ctx = PricingContext(model, grid, args.density)
    # one pass prices both Si/Ein routes, sharing each strike's z-end terms
    columns = (*ctx.price_puts(strikes, ("classic", "forward")),
               reference_put(model, strikes))
    dropped = ctx.classic_dropped_mass(strikes)
    rows = []
    for K, cls, fwd, ref, mass in zip(strikes, *(col.tolist() for col in columns), dropped):
        if K > 0 and np.log(K / model.forward) > b:
            flag = "beyond_truncation"
        else:
            flag = "window_uncovered" if mass > MASS_TOL else ""
        rows.append((K, cls, fwd, ref, cls - ref, fwd - ref, flag))
    _emit(rows, ("strike", "price_classic", "price_forward", "reference",
                 "err_classic", "err_forward", "flag"),
          {"err_classic", "err_forward"}, args)
    return 0


def cmd_bench(args) -> int:
    model = model_from_json(args.model)
    grid = grid_for(model, args.m, args.J, args.N, args.L, args.mass_tol)
    reps, n_k = args.reps, grid.k2 - grid.k1
    warn = "single-sample" if reps == 1 else ""
    job = PayoffJob(K=model.forward, F=model.forward, m=grid.m, a=grid.a,
                    b=grid.b, k1=grid.k1, k2=grid.k2, N=grid.N)
    t_fft = _median_seconds(lambda: payoff_fft_euler_maclaurin(job), reps)
    rows = [("payoff", "em_fft", n_k, t_fft, "", warn)]
    ks = np.arange(grid.k1, grid.k2)
    t_direct = _median_seconds(lambda: payoff_forward_si_ein(
        model.forward, model.forward, grid.m, ks, grid.a), reps)
    rows.append(("payoff", "si_ein_per_k", n_k, t_direct, "", warn))
    rows += [("density", variant, n_k, t, evals, warn)
             for variant, evals, t in _density_timings(model, grid, reps)]
    ctx = PricingContext(model, grid, "trapezoidal")
    t_price = _median_seconds(lambda: ctx.price_put(model.forward, "em_fft"), reps)
    rows.append(("pricing_warm_density", "em_fft", n_k, t_price, "", warn))
    _emit(rows, ("task", "variant", "k_count", "median_seconds", "cf_evals",
                 "warning"), set(), args)
    return 0


# Every option, and for each command the options that can change its output.
OPTIONS = {
    "model": dict(required=True, help="path to a JSON model file"),
    "strike": dict(type=float, action="append", help="strike (repeatable)"),
    "m": dict(type=int, help="wavelet scale"),
    "J": dict(type=int, help="density resolution exponent"),
    "N": dict(type=int, help="payoff FFT size"),
    "L": dict(type=float, help="cumulant truncation level"),
    "mass-tol": dict(type=float, default=MASS_TOL),
    "density": dict(choices=DENSITY_STRATEGIES, default="trapezoidal"),
    "payoff": dict(choices=tuple(p.replace("_", "-") for p in PAYOFF_STRATEGIES),
                   default="forward"),
    "out": dict(help="output path (default: stdout)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "reps": dict(type=int, default=3),
}
COMMANDS = {
    "price": (cmd_price, "model strike m J N L mass-tol density payoff out"),
    "table1": (cmd_table1, "out format"),
    "price-table": (cmd_price_table, "payoff out format"),
    "density-table": (cmd_density_table, "model m J L mass-tol out format"),
    "init-table": (cmd_init_table, "model m J L mass-tol reps out format"),
    "error-sweep": (cmd_error_sweep, "model strike m J L density out format"),
    "bench": (cmd_bench, "model m J N L mass-tol reps out format"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 through main
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="swiftpricer", description="Shannon-wavelet option pricing harness")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, options) in COMMANDS.items():
        parser = sub.add_parser(name)
        parser.set_defaults(fn=fn)
        for option in options.split():
            parser.add_argument(f"--{option}", **OPTIONS[option])
    return ap


# parsing leaves no state in the parser, so main builds it once per process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if "payoff" in args:
            args.payoff = args.payoff.replace("-", "_")
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse model file: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GridSelectionError, FilonConvergenceError, ReferenceError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
