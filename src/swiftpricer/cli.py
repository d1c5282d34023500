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
import timeit

import numpy as np

from .density import (DensityJob, FilonConvergenceError, density_filon,
                      density_midpoint_fft, density_trapezoidal_fft,
                      density_vieta_direct)
from .models import HestonParams, ModelSpec, cumulants, model_from_json
from .payoff import (payoff_classic_si_ein, payoff_classic_simpson,
                     payoff_classic_vieta, payoff_forward_si_ein)
from .pricer import (DENSITY_STRATEGIES, FILON_TOL, PAYOFF_STRATEGIES,
                     GridSelectionError, PricingContext, ReferenceError, grid_for,
                     reference_put, truncation_interval)

# The default --mass-tol, and the density mass left out of the classic
# window above which error-sweep flags a row window_uncovered
MASS_TOL = 1e-8

# density-table's cap on (k2 - k1) 2^(J-1), the heavy reference auto grid's
_MAX_VIETA_TERMS = 1 << 30

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
        text = "\n".join(_csv_lines(rows, header, err_cols)) + "\n"
    _write(text, args)


def _csv_lines(rows, header, err_cols):
    """The header and each row as a CSV line, each row written by one
    %-template: a column of floats with 17 significant digits (scientific
    in ``err_cols``), any other column by ``str``.  A column that mixes
    floats with other cells raises TypeError."""
    specs = []
    for name, col in zip(header, zip(*rows)):
        floats = sum(isinstance(cell, float) for cell in col)
        if 0 < floats < len(col):
            raise TypeError(f"CSV column {name!r} mixes floats with other cells")
        specs.append(("%.17e" if name in err_cols else "%.17g") if floats else "%s")
    template = ",".join(specs)
    return [",".join(header)] + [template % tuple(row) for row in rows]


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
    grid = grid_for(model, args.m, args.J, L=args.L, mass_tol=args.mass_tol,
                    strikes=strikes if args.payoff == "classic" else None)
    ctx = PricingContext(model, grid, args.density)
    # one call prices every strike; each reports its share of the elapsed time
    t0 = time.perf_counter()
    prices = ctx.price_puts(strikes, args.payoff).tolist()
    share = (time.perf_counter() - t0) / len(strikes)
    shared = {
        "grid": {"m": grid.m, "k1": grid.k1, "k2": grid.k2, "J": grid.J,
                 "a": grid.a, "b": grid.b},
        "density_strategy": args.density,
        "payoff_strategy": args.payoff,
        "cf_evals": ctx.cf_evals,
        "elapsed_seconds": share,
    }
    _write(_records_json(strikes, prices, shared), args)
    return 0


def _records_json(strikes, prices, shared) -> str:
    """``json.dumps(records, indent=2) + "\\n"`` of the records
    {"strike": K, "price": p, **shared}, one per strike, a bare object when
    there is one.  ``shared`` is formatted once; K and p are spliced in by
    ``float.__repr__``, which is what json writes for a finite float.  Both
    are finite: price_puts refuses a non-finite strike or price."""
    pad = "  " if len(strikes) > 1 else ""
    # '{\n  "grid": ...\n}' without its brace, indented to the record's depth
    tail = json.dumps(shared, indent=2)[1:].replace("\n", "\n" + pad)
    head, mid = f'{pad}{{\n{pad}  "strike": ', f',\n{pad}  "price": '
    body = ",\n".join([head + float.__repr__(K) + mid + float.__repr__(p) + "," + tail
                        for K, p in zip(strikes, prices)])
    return f"[\n{body}\n]\n" if pad else body + "\n"


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
    terms = (grid.k2 - grid.k1) << (grid.J - 1)
    if terms > _MAX_VIETA_TERMS:
        raise ValueError(f"the vieta_direct column needs (k2 - k1) 2^(J-1) = {terms} "
                         f"terms, over 2^30; choose a smaller grid with --m/--J")
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
    """Median wall time of ``reps`` calls of ``fn``, with ``timeit``'s gc pause."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    return statistics.median(timeit.repeat(fn, number=1, repeat=reps))


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
    grid = grid_for(model, args.m, args.J, L=args.L, mass_tol=args.mass_tol)
    reps, n_k = args.reps, grid.k2 - grid.k1
    warn = "single-sample" if reps == 1 else ""
    ks = np.arange(grid.k1, grid.k2)
    t_direct = _median_seconds(lambda: payoff_forward_si_ein(
        model.forward, model.forward, grid.m, ks, grid.a), reps)
    rows = [("payoff", "si_ein_per_k", n_k, t_direct, "", warn)]
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
    "price": (cmd_price, "model strike m J L mass-tol density payoff out"),
    "table1": (cmd_table1, "out format"),
    "price-table": (cmd_price_table, "payoff out format"),
    "density-table": (cmd_density_table, "model m J L mass-tol out format"),
    "init-table": (cmd_init_table, "model m J L mass-tol reps out format"),
    "error-sweep": (cmd_error_sweep, "model strike m J L density out format"),
    "bench": (cmd_bench, "model m J L mass-tol reps out format"),
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

_STRIKE_COMMANDS = {name for name, (_, options) in COMMANDS.items()
                    if "strike" in options.split()}


def _split_strikes(argv):
    """(strikes, rest): the values of every ``--strike V`` and
    ``--strike=V`` in argv, in order, and argv without those tokens.  None
    unless argparse plainly reads each as a strike: a V or a token before
    ``--strike`` that starts with '-' (an option to argparse, or a negative
    number), a V that is no float, or a ``--`` (after which argparse reads
    no option) is left to argparse."""
    if "--" in argv:
        return None
    strikes, rest, i = [], [], 0
    while i < len(argv):
        name, eq, value = argv[i].partition("=")
        if name != "--strike":
            rest.append(argv[i])
        elif argv[i - 1].startswith("-") and "=" not in argv[i - 1]:
            return None
        else:
            if not eq:
                i += 1
                if i == len(argv) or argv[i].startswith("-"):
                    return None
                value = argv[i]
            try:
                strikes.append(float(value))
            except ValueError:
                return None
        i += 1
    return strikes, rest


def _parse_args(argv):
    """``_parser().parse_args(argv)``, with the strikes taken out of argv in
    one pass first: argparse rescans every option's index for each option,
    so n strikes cost it O(n^2).  Any other spelling of ``--strike``, and
    any argv the reduced parse refuses, goes to argparse whole, so the
    outcome is always argparse's own."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    split = _split_strikes(argv) if argv and argv[0] in _STRIKE_COMMANDS else None
    if split and split[0]:
        try:
            args = parser.parse_args(split[1])
            if args.strike is None:  # no abbreviated --strike was left in
                args.strike = split[0]
                return args
        except ValueError:
            pass  # reported from the whole argv below
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
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
