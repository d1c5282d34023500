"""Workloads of the swiftpricer benchmark: seeded inputs, ops and checks.

Each workload runs in its own process as a closed loop with one client.
It is a repeating cycle of ops; an op is one call into swiftpricer (timed)
and a check of what it returned (not timed).  The program receives only
the generated model JSON files, strike vectors and argv.

chain      One in-process ``swiftpricer price --payoff em-fft`` call per op,
           rotating over the three reference models (lognormal vol 0.2 at
           F=100, Heston short at F=1, Heston heavy at F=1e6), each with a
           seeded strike vector: 200 strikes on the two small models (auto
           grids of 64 coefficients), 4 on the heavy one (32768).  Strikes
           are F exp(c1 + u sqrt(c2)), u ~ U(-3, 3), from the model's
           cumulants.  This is the paper's "initialize once, price many
           strikes" path: payoff, transform and assembly do most of the work.
fresh      One new seeded model per op, priced at one strike through the
           Python API: auto_grid -> PricingContext(trapezoidal) -> em_fft
           put or call.  3/4 of draws are Heston (v0, theta in [0.01, 0.1],
           kappa in [0.1, 2], sigma in [0.2, 1.5], rho in [-0.9, 0.5], T in
           [2/365, 1], F log-uniform on [1, 1e6], B = 1), the rest lognormal
           (vol in [0.05, 0.8], T in [0.05, 2], B in [0.9, 1], F = 100);
           K = F exp(c1 + u sqrt(c2)), u ~ U(-2, 2).  No two ops share work:
           cf evaluation, grid selection and the density FFT dominate.
           sigma stops at 1.5 because auto_grid refuses (GridSelectionError:
           the mass target needs a window wider than its default max_k_half)
           a small corner of sigma in [0.2, 2]: about 1 Heston draw in 60000,
           all seen with sigma > 1.65, v0 < 0.02, rho < -0.6 and T > 0.8, e.g.
           v0=0.0127 kappa=0.110 theta=0.0359 sigma=2.0 rho=-0.859 T=0.868.
           A workload must not fail, and draws are never filtered by outcome.
reproduce  The paper's table commands, in-process, in a fixed rotation of
           31 ops: 27 ``error-sweep`` (9 per model; each prices the low end
           of the command's default strike range and one seeded strike,
           log-stratified over that range), 3
           ``density-table --m 6 --J 8`` (1 per model) and 1 ``price-table``.
           The only path where reference_put, the scalar Si/Ein payoffs,
           Filon and Vieta do the work.

References for the checks (Black-76 for lognormal models, reference_put
otherwise) are computed before timing and memoized by (model, strike).
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from swiftpricer import cli, models, pricer

# Largest |price - reference| / F a priced strike may show on chain and
# fresh (they reach ~1e-9 or better), and the rounding slack allowed on
# the no-arbitrage put bounds, relative to max(K, F).
PRICE_TOL = 1e-6
BOUND_SLACK = 1e-12

LOGNORMAL_02 = models.ModelSpec(100.0, 1.0, 1.0, models.LognormalParams(vol=0.2))
HESTON_SHORT = models.ModelSpec(1.0, 2.0 / 365.0, 1.0, models.HestonParams(
    v0=0.1, kappa=1.0, theta=0.1, sigma=1.0, rho=-0.9))
HESTON_HEAVY = models.ModelSpec(1e6, 1.0, 1.0, models.HestonParams(
    v0=0.0225, kappa=0.1, theta=0.01, sigma=2.0, rho=0.5))
REFERENCE_MODELS = {"lognormal": LOGNORMAL_02, "heston_short": HESTON_SHORT,
                    "heston_heavy": HESTON_HEAVY}
# price-table's sets: the paper's quoted out-of-the-money strikes
PRICE_TABLE = {"short": (HESTON_SHORT, ((1.0064, "call"), (1.064, "call"))),
               "heavy": (HESTON_HEAVY, ((250000.0, "put"), (4000000.0, "call")))}


@dataclass
class Outcome:
    """What the check of one op found."""

    strikes: int = 0                  # strikes priced by the op
    errors: list = field(default_factory=list)   # |price - ref| / F, checked prices
    problem: str | None = None        # why the op failed, if it did
    bound_violations: int = 0         # error-sweep rows outside the put bounds


@dataclass
class Op:
    label: str                        # the op's input, for failure reports
    call: object                      # () -> result; the timed part
    check: object                     # result -> Outcome


def model_doc(model) -> dict:
    doc = {"forward": model.forward, "maturity": model.maturity,
           "discount": model.discount}
    dyn = model.dynamics
    if isinstance(dyn, models.HestonParams):
        doc["heston"] = {"v0": dyn.v0, "kappa": dyn.kappa, "theta": dyn.theta,
                         "sigma": dyn.sigma, "rho": dyn.rho}
    else:
        doc["lognormal"] = {"vol": dyn.vol}
    return doc


def black76_put(model, K: float) -> float:
    F, B = model.forward, model.discount
    s = model.dynamics.vol * math.sqrt(model.maturity)
    d1 = (math.log(F / K) + 0.5 * s * s) / s
    d2 = d1 - s

    def n(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    return B * (K * n(-d2) - F * n(-d1))


class References:
    """Memoized reference put prices by (model, strike)."""

    def __init__(self):
        self._memo = {}

    def put(self, model, K: float) -> float:
        key = (model, K)
        if key not in self._memo:
            if isinstance(model.dynamics, models.LognormalParams):
                self._memo[key] = black76_put(model, K)
            else:
                self._memo[key] = pricer.reference_put(model, K)
        return self._memo[key]

    def get(self, model, K: float):
        return self._memo.get((model, K))


def bound_problem(model, K: float, put: float) -> str | None:
    """Why ``put`` is not a put price for strike K, or None."""
    if not math.isfinite(put):
        return f"non-finite price {put!r} at K={K!r}"
    B, F = model.discount, model.forward
    slack = BOUND_SLACK * max(K, F)
    lo, hi = max(B * (K - F), 0.0), B * K
    if not lo - slack <= put <= hi + slack:
        return f"put {put!r} at K={K!r} outside [{lo!r}, {hi!r}]"
    return None


def accuracy_problem(model, K: float, put: float, ref: float, errors: list):
    err = abs(put - ref) / model.forward
    errors.append(err)
    if not err <= PRICE_TOL:
        return f"|price - reference|/F = {err:.3e} at K={K!r} exceeds {PRICE_TOL:g}"
    return None


def strike_argv(strikes) -> list:
    out = []
    for K in strikes:
        out += ["--strike", repr(float(K))]
    return out


def cli_op(argv):
    def call():
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return rc
    return call


def context_setup_s(model, mass_tol: float) -> float:
    """Seconds from a ModelSpec to a ready trapezoidal PricingContext."""
    t0 = perf_counter()
    grid = pricer.auto_grid(model, mass_tol=mass_tol)
    pricer.PricingContext(model, grid, "trapezoidal")
    return perf_counter() - t0


class Workload:
    """Base: subclasses build ``self.cycle`` (or override ``next_cycle``)."""

    name = ""
    cli_mass_tol = 1e-8             # the CLI's --mass-tol default

    def __init__(self, workdir: Path, seed: int, quick: bool):
        self.quick = quick
        self.refs = References()
        self.setup_times = []       # setup_s samples
        seq = np.random.SeedSequence([seed, sum(map(ord, self.name))])
        self.rng, self.warm_rng = (np.random.default_rng(s) for s in seq.spawn(2))
        self.model_files = {}
        for key, model in REFERENCE_MODELS.items():
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(model_doc(model)))
            self.model_files[key] = str(path)

    def spec(self) -> dict:
        return {}

    def next_cycle(self) -> list:
        return self.cycle

    def warmup_ops(self) -> list:
        return self.cycle

    def setup_sample(self) -> float:
        """One setup_s sample taken between ops: every reference model set
        up as the CLI's ``price`` does it."""
        return sum(context_setup_s(model, self.cli_mass_tol)
                   for model in REFERENCE_MODELS.values())


class Chain(Workload):
    name = "chain"

    def __init__(self, workdir, seed, quick):
        super().__init__(workdir, seed, quick)
        small = 20 if quick else 200
        self.lengths = {"lognormal": small, "heston_short": small,
                        "heston_heavy": 2 if quick else 4}
        # reference_put subsample per vector; lognormal checks every strike
        self.checked = {"lognormal": None, "heston_short": 2 if quick else 4,
                        "heston_heavy": 1 if quick else 2}
        vectors = 2 if quick else 8
        self.out = str(workdir / "price.json")
        self.cycle = []
        for v in range(vectors):
            for key, model in REFERENCE_MODELS.items():
                c = models.cumulants(model)
                u = self.rng.uniform(-3.0, 3.0, self.lengths[key])
                strikes = [float(K) for K in
                           model.forward * np.exp(c.c1 + u * math.sqrt(c.c2))]
                n_chk = self.checked[key]
                idx = (range(len(strikes)) if n_chk is None else
                       sorted(self.rng.choice(len(strikes), n_chk, replace=False)))
                for i in idx:
                    self.refs.put(model, strikes[i])
                argv = (["price", "--model", self.model_files[key],
                         "--payoff", "em-fft", "--out", self.out]
                        + strike_argv(strikes))
                self.cycle.append(Op(f"{key} vector {v}: K={strikes}",
                                     cli_op(argv),
                                     self._checker(model, strikes)))

    def spec(self):
        return {"strikes_per_vector": self.lengths,
                "reference_put_checks_per_vector": self.checked,
                "vectors_per_model": len(self.cycle) // 3,
                "strike_draw": "F exp(c1 + u sqrt(c2)), u ~ U(-3, 3)"}

    def warmup_ops(self):
        return self.cycle[:3]

    def _checker(self, model, strikes):
        def check(_):
            out = Outcome(strikes=len(strikes))
            with open(self.out) as fh:
                rows = json.load(fh)
            if len(rows) != len(strikes):
                out.problem = f"{len(rows)} results for {len(strikes)} strikes"
                return out
            for K, row in zip(strikes, rows):
                out.problem = (f"strike {row['strike']!r} reported for {K!r}"
                               if row["strike"] != K else
                               bound_problem(model, K, row["price"]))
                ref = self.refs.get(model, K)
                if out.problem is None and ref is not None:
                    out.problem = accuracy_problem(model, K, row["price"], ref,
                                                   out.errors)
                if out.problem:
                    return out
            return out
        return check


class Fresh(Workload):
    name = "fresh"

    def __init__(self, workdir, seed, quick):
        super().__init__(workdir, seed, quick)
        self.block = 8
        self.ref_stride = 4 if quick else 16
        self.n_ref = 4 if quick else 96
        # draws whose price is checked against a reference: every
        # ref_stride-th of the first n_ref * ref_stride, fixed before timing
        self.pending = [self._draw(self.rng) for _ in range(self.n_ref * self.ref_stride)]
        for i in range(0, len(self.pending), self.ref_stride):
            model, K, _ = self.pending[i]
            self.refs.put(model, K)

    def spec(self):
        return {"heston_share": 0.75,
                "heston": {"v0": [0.01, 0.1], "theta": [0.01, 0.1],
                           "kappa": [0.1, 2.0], "sigma": [0.2, 1.5],
                           "rho": [-0.9, 0.5], "T": [2.0 / 365.0, 1.0],
                           "F_log_uniform": [1.0, 1e6], "B": 1.0},
                "lognormal": {"vol": [0.05, 0.8], "T": [0.05, 2.0],
                              "B": [0.9, 1.0], "F": 100.0},
                "strike_draw": "F exp(c1 + u sqrt(c2)), u ~ U(-2, 2)",
                "side": "put or call, 1/2 each",
                "reference_check_every": self.ref_stride,
                "reference_checks": self.n_ref}

    @staticmethod
    def _draw(rng):
        if rng.random() < 0.75:
            dyn = models.HestonParams(
                v0=rng.uniform(0.01, 0.1), kappa=rng.uniform(0.1, 2.0),
                theta=rng.uniform(0.01, 0.1), sigma=rng.uniform(0.2, 1.5),
                rho=rng.uniform(-0.9, 0.5))
            model = models.ModelSpec(float(np.exp(rng.uniform(0.0, np.log(1e6)))),
                                     rng.uniform(2.0 / 365.0, 1.0), 1.0, dyn)
        else:
            model = models.ModelSpec(100.0, rng.uniform(0.05, 2.0), rng.uniform(0.9, 1.0),
                                     models.LognormalParams(rng.uniform(0.05, 0.8)))
        c = models.cumulants(model)
        K = float(model.forward * np.exp(c.c1 + rng.uniform(-2.0, 2.0) * math.sqrt(c.c2)))
        side = "call" if rng.random() < 0.5 else "put"
        return model, K, side

    def _op(self, draw, record_setup: bool):
        model, K, side = draw

        def call():
            t0 = perf_counter()
            grid = pricer.auto_grid(model)
            ctx = pricer.PricingContext(model, grid, "trapezoidal")
            t1 = perf_counter()
            if record_setup:
                self.setup_times.append(t1 - t0)
            if side == "call":
                return ctx.price_call(K, "em_fft").price
            return ctx.price_put(K, "em_fft").price

        def check(price):
            out = Outcome(strikes=1)
            put = price - model.discount * (model.forward - K) if side == "call" else price
            out.problem = bound_problem(model, K, put)
            ref = self.refs.get(model, K)
            if out.problem is None and ref is not None:
                out.problem = accuracy_problem(model, K, put, ref, out.errors)
            return out
        return Op(f"{side} K={K!r} model={model!r}", call, check)

    def next_cycle(self):
        ops = []
        for _ in range(self.block):
            draw = self.pending.pop(0) if self.pending else self._draw(self.rng)
            ops.append(self._op(draw, record_setup=True))
        return ops

    def warmup_ops(self):
        """Random draws, then the corner of the draw ranges with the widest
        grid (65536 coefficients), so FFT plans up to the largest size are
        built before timing and peak RSS does not depend on whether a
        seed's draws reach that size."""
        ops = [self._op(self._draw(self.warm_rng), record_setup=False)
               for _ in range(4 if self.quick else 40)]
        corner = models.ModelSpec(1.0, 1.0, 1.0, models.HestonParams(
            v0=0.01, kappa=0.1, theta=0.01, sigma=1.5, rho=-0.9))
        return ops + [self._op((corner, 1.0, "put"), record_setup=False)]

    setup_sample = None             # setup_s is timed inside each op


class Reproduce(Workload):
    name = "reproduce"

    def __init__(self, workdir, seed, quick):
        super().__init__(workdir, seed, quick)
        self.sweeps_per_model = 1 if quick else 9
        self.out = str(workdir / "table.csv")
        sweeps = [op for group in zip(*(self._sweep_ops(key, model)
                                        for key, model in REFERENCE_MODELS.items()))
                  for op in group]
        # one density-table per model after each third of the sweeps
        step = len(sweeps) // 3
        self.cycle = []
        for i, key in enumerate(REFERENCE_MODELS):
            self.cycle += sweeps[i * step:(i + 1) * step]
            self.cycle.append(Op(f"density-table {key}",
                                 cli_op(["density-table", "--model", self.model_files[key],
                                         "--m", "6", "--J", "8", "--out", self.out]),
                                 self._check_density_table))
        for model, quotes in PRICE_TABLE.values():
            for K, _ in quotes:
                self.refs.put(model, K)
        self.cycle.append(Op("price-table", cli_op(["price-table", "--out", self.out]),
                             self._check_price_table))

    def spec(self):
        return {"error_sweeps_per_model": self.sweeps_per_model,
                "strikes_per_sweep": 2,
                "strike_draw": "F exp(a/4) and one seeded strike, log-stratified "
                               "on [F exp(a/4), F exp(b)), one stratum per sweep, "
                               "[a, b] = truncation_interval(cumulants, 12)",
                "density_tables_per_model": 1,
                "price_tables": 1, "cycle_ops": len(self.cycle)}

    def warmup_ops(self):
        kinds = {}
        for op in self.cycle:
            kinds.setdefault(op.label.split(" ")[0], op)
        return list(kinds.values())

    def _sweep_ops(self, key, model):
        """One cycle's error-sweeps on one model.  Each prices the low end
        F exp(a/4) of the command's default strike range (at its default L),
        which fixes the sweep's grid, and one seeded strike; the seeded
        strikes are stratified over the range, one per sweep, so that every
        seed spreads the same work over a cycle."""
        a, b = pricer.truncation_interval(models.cumulants(model), 12.0)
        n = self.sweeps_per_model
        z = 0.25 * a + (np.arange(n) + self.rng.uniform(size=n)) * (b - 0.25 * a) / n
        ops = []
        for zi in z:
            strikes = [float(K) for K in model.forward * np.exp([0.25 * a, zi])]
            for K in strikes:
                self.refs.put(model, K)
            argv = (["error-sweep", "--model", self.model_files[key], "--out", self.out]
                    + strike_argv(strikes))
            ops.append(Op(f"error-sweep {key} K={strikes}", cli_op(argv),
                          lambda _, strikes=strikes: self._check_sweep(model, strikes)))
        return ops

    def _rows(self):
        with open(self.out, newline="") as fh:
            return list(csv.DictReader(fh))

    def _check_sweep(self, model, strikes):
        """An error-sweep row reports errors by design: it is checked as a
        report (reference and error columns, flags).  Its forward price's
        distance from the reference feeds accuracy_digits, and a forward
        price outside the put bounds is counted, not failed."""
        out = Outcome(strikes=len(strikes))
        rows = self._rows()
        if len(rows) != len(strikes):
            out.problem = f"{len(rows)} rows for {len(strikes)} strikes"
            return out
        F = model.forward
        for K, row in zip(strikes, rows):
            vals = {c: float(row[c]) for c in ("strike", "price_classic", "price_forward",
                                               "reference", "err_classic", "err_forward")}
            ref = self.refs.get(model, K)
            fwd, cls = vals["price_forward"], vals["price_classic"]
            tol = 1e-9 * max(F, K)
            if vals["strike"] != K:
                out.problem = f"row for {vals['strike']!r}, expected {K!r}"
            elif not math.isfinite(fwd):
                out.problem = f"non-finite forward price at K={K!r}"
            elif not abs(vals["reference"] - ref) <= tol:
                out.problem = f"reference {vals['reference']!r} at K={K!r}, expected {ref!r}"
            elif not abs(vals["err_forward"] - (fwd - ref)) <= tol:
                out.problem = f"err_forward inconsistent at K={K!r}"
            elif math.isnan(cls) and not row["flag"]:
                out.problem = f"unflagged non-finite classic price at K={K!r}"
            elif not math.isnan(cls) and not abs(vals["err_classic"] - (cls - ref)) <= tol:
                out.problem = f"err_classic inconsistent at K={K!r}"
            elif row["flag"] not in ("", "beyond_truncation", "window_uncovered"):
                out.problem = f"unknown flag {row['flag']!r}"
            if out.problem:
                return out
            out.errors.append(abs(fwd - ref) / F)
            if bound_problem(model, K, fwd):
                out.bound_violations += 1
        return out

    def _check_density_table(self, _):
        out = Outcome()
        rows = self._rows()
        cols = ("midpoint", "trapezoidal", "filon", "vieta_direct")
        vals = np.array([[float(r[c]) for c in cols] for r in rows])
        ks = [int(r["k"]) for r in rows]
        if ks != list(range(-128, 128)):
            out.problem = f"k column {ks[:2]}..{ks[-2:]}, expected -128..127"
        elif not np.all(np.isfinite(vals)):
            out.problem = "non-finite density coefficient"
        elif not np.max(np.abs(vals[:, 0] - vals[:, 3])) <= 1e-12 * 2.0 ** 3:
            # the midpoint FFT and the Vieta sum are the same sum
            out.problem = "midpoint and vieta_direct columns differ"
        return out

    def _check_price_table(self, _):
        expected = [(name, model, K, side)
                    for name, (model, quotes) in PRICE_TABLE.items()
                    for _density in ("midpoint", "trapezoidal")
                    for K, side in quotes]
        out = Outcome(strikes=len(expected))
        rows = self._rows()
        if len(rows) != len(expected):
            out.problem = f"{len(rows)} rows, expected {len(expected)}"
            return out
        for (name, model, K, side), row in zip(expected, rows):
            price, err = float(row["price"]), float(row["error"])
            parity = model.discount * (model.forward - K) if side == "call" else 0.0
            put, ref = price - parity, self.refs.get(model, K)
            if (row["set"], float(row["strike"]), row["side"]) != (name, K, side):
                out.problem = f"row {row} out of order"
            elif not abs(err - (put - ref)) <= 1e-9 * max(model.forward, K):
                out.problem = f"error column inconsistent at {name} K={K!r}"
            else:
                out.problem = bound_problem(model, K, put)
            if out.problem:
                return out
            out.errors.append(abs(put - ref) / model.forward)
        return out


WORKLOADS = {w.name: w for w in (Chain, Fresh, Reproduce)}


def cli_start_op(root: Path, workdir: Path, env: dict) -> Op:
    """A fresh interpreter running ``python -m swiftpricer.cli table1``."""
    out_path = workdir / "table1.csv"
    argv = [sys.executable, "-m", "swiftpricer.cli", "table1", "--out", str(out_path)]

    def call():
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()}")

    def check(_):
        with open(out_path, newline="") as fh:
            rows = {r["method"]: float(r["value"]) for r in csv.DictReader(fh)}
        if not abs(rows.get("SiEin", math.nan) - rows.get("Simpson J=10", math.nan)) <= 1e-8:
            return Outcome(problem=f"table1 rows {rows}")
        return Outcome()
    return Op("cli table1", call, check)
