#!/usr/bin/env python3
"""swiftpricer benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 benchmarks/run.py --workload chain --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

``--workload all`` runs chain, fresh and reproduce, each in a child process
of its own.  Workloads, their inputs and their checks are described in
workloads.py.

--trace 0 (end to end, untraced):
  op_s.p50, op_s.p90   latency of one op (median, 90th percentile)
  strikes_per_s        priced strikes per second of summed op latency
  setup_s              median seconds from a ModelSpec to a ready
                       PricingContext (auto_grid + trapezoidal init): inside
                       each op on fresh; on chain and reproduce, the three
                       reference models at the CLI's mass_tol, repeated
  accuracy_digits      -log10 of max |price - reference| / F over the
                       checked prices
  peak_rss_mb          peak resident set of this process
--trace 1 (per layer): the ops run in alternating untraced and traced
  passes; spans (spans.py) give each layer's calls, self seconds and work
  counts, per traced op, and trace.overhead_frac is the traced over the
  untraced time of the same ops, minus 1.  cli.start_s is the median wall
  time of a fresh interpreter running ``python -m swiftpricer.cli table1``
  (what every real CLI call pays on top of an in-process op); it is a
  per-layer metric, without a bound, because its run-to-run spread on a
  small shared machine exceeds any bound the end-to-end metrics can take.  Spans are written to
  .bench_work/spans-<workload>-s<seed>.npz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it, starting with
``detail``, holds the run metadata (commit, versions, cpu count, seed,
workload spec) and, for each metric, the median, IQR and sample count.
An op fails if it raises, exits non-zero (a refusal) or returns a result
its check rejects (a wrong result); every failure is printed with its
input.  correct is false when any result was wrong or no op succeeded;
refusals count in failed only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("chain", "fresh", "reproduce")
# BLAS/OpenMP pools stay at one thread here and in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"op_s.p50": "s", "op_s.p90": "s", "strikes_per_s": "1/s",
              "setup_s": "s", "accuracy_digits": "digits",
              "peak_rss_mb": "MB"}
PER_LAYER = (
    ("models.char_fn.calls", "count/op"), ("models.char_fn.points", "count/op"),
    ("models.char_fn.self_s", "s/op"),
    ("density.trapezoidal.self_s", "s/op"), ("density.midpoint.self_s", "s/op"),
    ("density.vieta_direct.self_s", "s/op"), ("density.coeffs", "count/op"),
    ("density.filon.self_s", "s/op"), ("density.filon.cf_evals", "count/op"),
    ("payoff.em_fft.self_s", "s/op"), ("payoff.em_fft.coeffs", "count/op"),
    ("transform.cos_sin_sum.self_s", "s/op"),
    ("payoff.forward.calls", "count/op"), ("payoff.forward.self_s", "s/op"),
    ("payoff.classic.calls", "count/op"), ("payoff.classic.self_s", "s/op"),
    ("specfun.si.calls", "count/op"), ("specfun.si.self_s", "s/op"),
    ("specfun.ein.calls", "count/op"), ("specfun.ein.self_s", "s/op"),
    ("transform.inverse_dft.calls", "count/op"),
    ("transform.inverse_dft.points", "count/op"),
    ("transform.inverse_dft.flops_computed", "flop/op"),
    ("transform.inverse_dft.self_s", "s/op"),
    ("pricer.select_scale.self_s", "s/op"), ("pricer.auto_grid.self_s", "s/op"),
    ("pricer.auto_grid.density_jobs", "count/op"),
    ("pricer.context_init.self_s", "s/op"),
    ("pricer.price_put.calls", "count/op"), ("pricer.price_put.self_s", "s/op"),
    ("pricer.reference_put.calls", "count/op"),
    ("pricer.reference_put.self_s", "s/op"),
    ("cli.main.calls", "count/op"), ("cli.main.self_s", "s/op"),
    ("cli.start_s", "s"), ("trace.overhead_frac", "ratio"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs and no minimum op count (smoke test)")
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Import swiftpricer from this checkout's src/, or exit 2."""
    if not (SRC / "swiftpricer" / "__init__.py").is_file():
        sys.exit(f"error: no swiftpricer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import swiftpricer
    if Path(swiftpricer.__file__).resolve().parent != SRC / "swiftpricer":
        sys.exit(f"error: swiftpricer imported from {swiftpricer.__file__}, not {SRC}")


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def summary(values) -> dict:
    values = list(values)
    iqr = quantile(values, 0.75) - quantile(values, 0.25) if len(values) > 1 else 0.0
    return {"n": len(values), "median": statistics.median(values), "iqr": iqr}


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "swiftpricer").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"commit": commit or "unknown", "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(), "seed": seed}


class Ledger:
    """Attempted ops, failures by input, and what the checks measured."""

    def __init__(self):
        self.attempted = 0
        self.failures = []          # every failed op, with its input
        self.wrong = 0              # failed ops whose result a check rejected
        self.errors = []
        self.bound_violations = 0

    def record(self, op, result, exc) -> int:
        """Check one op's result; returns the strikes it priced."""
        self.attempted += 1
        if exc is not None:         # refused: raised or exited non-zero
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return 0
        try:
            out = op.check(result)
            problem = out.problem
        except (OSError, ValueError, KeyError, TypeError) as err:
            problem = f"unreadable output: {err}"
        if problem:
            self.failures.append(f"{op.label}: {problem}")
            self.wrong += 1
            return 0
        self.errors += out.errors
        self.bound_violations += out.bound_violations
        return out.strikes


def call_op(op):
    try:
        return op.call(), None
    except Exception as exc:  # an op that raises is a failure, not the end of the run
        return None, exc


def timed_loop(wl, ledger, seconds, min_ops, samplers):
    """Whole cycles until `seconds` have passed (and at least min_ops ops):
    op latencies and, per cycle, (strikes, seconds).

    ``samplers`` are (count, take) pairs: each ``take()`` runs `count` times,
    spread evenly over the run between ops, so that its samples see the
    same machine as the ops; the time they take is not part of the run's
    `seconds`."""
    lat, cycles = [], []
    taken = [0] * len(samplers)
    side = 0.0

    def take_due(elapsed):
        nonlocal side
        for i, (count, take) in enumerate(samplers):
            while taken[i] < count and elapsed >= taken[i] * seconds / count:
                s0 = perf_counter()
                take()
                side += perf_counter() - s0
                taken[i] += 1

    t_start = perf_counter()
    while True:
        c0 = perf_counter()
        strikes, busy = 0, 0.0
        for op in wl.next_cycle():
            t0 = perf_counter()
            result, exc = call_op(op)
            dt = perf_counter() - t0
            lat.append(dt)
            busy += dt
            strikes += ledger.record(op, result, exc)
            take_due(perf_counter() - t_start - side)
        cycles.append((strikes, busy))
        now = perf_counter()
        if len(lat) >= min_ops and now - t_start - side + (now - c0) / 2 >= seconds:
            take_due(math.inf)
            return lat, cycles


def traced_loop(wl, ledger, tracer, seconds):
    """Each cycle runs once untraced and once traced (alternating which
    goes first); returns (untraced seconds, traced seconds, traced ops)."""
    plain = traced = 0.0
    n_traced = 0
    t_start = perf_counter()
    for i in itertools.count():
        c0 = perf_counter()
        ops = wl.next_cycle()
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                for op in ops:
                    t0 = perf_counter()
                    if with_trace:
                        result, exc = tracer.run_op(n_traced, lambda: call_op(op))
                        n_traced += 1
                    else:
                        result, exc = call_op(op)
                    dt = perf_counter() - t0
                    if with_trace:
                        traced += dt
                    else:
                        plain += dt
                    ledger.record(op, result, exc)
            finally:
                tracer.uninstall()
        now = perf_counter()
        if now - t_start + (now - c0) / 2 >= seconds:
            return plain, traced, n_traced


def end_to_end(wl, ledger, args):
    quick = args.quick
    samplers = []
    if wl.setup_sample is not None:
        samplers.append((3 if quick else 21,
                         lambda: wl.setup_times.append(wl.setup_sample())))
    gc.collect()
    gc.freeze()
    lat, cycles = timed_loop(wl, ledger, args.seconds, 1 if quick else 100, samplers)
    setup = wl.setup_times
    rates = [s / b for s, b in cycles if b > 0]
    strikes = sum(s for s, _ in cycles)
    busy = sum(b for _, b in cycles)
    max_err = max(ledger.errors) if ledger.errors else math.nan
    digits = [-math.log10(max(e, 1e-17)) for e in ledger.errors] or [math.nan]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "op_s.p50": (statistics.median(lat), summary(lat)),
        "op_s.p90": (quantile(lat, 0.9), summary(lat)),
        "strikes_per_s": (strikes / busy if busy else 0.0, summary(rates)),
        "setup_s": (statistics.median(setup), summary(setup)),
        "accuracy_digits": (-math.log10(max(max_err, 1e-17)), summary(digits)),
        "peak_rss_mb": (rss_mb, summary([rss_mb])),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in values.items()}
    stats = {k: dict(s, unit=END_TO_END[k]) for k, (_, s) in values.items()}
    return metrics, stats


def cli_start_times(ledger, workdir, spawns: int) -> list:
    import workloads
    op = workloads.cli_start_op(ROOT, workdir, child_env())
    times = []
    for _ in range(spawns):
        t0 = perf_counter()
        result, exc = call_op(op)
        times.append(perf_counter() - t0)
        ledger.record(op, result, exc)
    return times


def per_layer(wl, ledger, args, workdir):
    import spans
    tracer = spans.Tracer()
    gc.collect()
    gc.freeze()
    plain, traced, n_ops = traced_loop(wl, ledger, tracer, args.seconds)
    starts = cli_start_times(ledger, workdir, 1 if args.quick else 5)
    arrays = tracer.arrays()
    path = WORK / f"spans-{wl.name}-s{args.seed}.npz"
    tracer.save(path)
    totals = spans.layer_totals(arrays, tracer.layers)
    per_op = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if name == "trace.overhead_frac":
            value = traced / plain - 1.0
        elif name == "cli.start_s":
            value = statistics.median(starts)
        elif name == "density.coeffs":
            value = sum(totals[f"density.{s}"]["work"]
                        for s in ("trapezoidal", "midpoint", "vieta_direct", "filon"))
        elif name == "density.filon.cf_evals":
            value = totals[layer]["cf_evals"]
        else:
            key = {"points": "work", "coeffs": "work"}.get(field, field)
            value = totals[layer][key]
        if unit.endswith("/op"):
            value /= n_ops
        per_op[name] = {"value": value, "unit": unit}
    stats = {"traced_ops": n_ops, "spans": len(arrays["name"]),
             "spans_nested": spans.nested(arrays), "spans_file": str(path),
             "untraced_s": plain, "traced_s": traced,
             "cli.start_s": summary(starts)}
    return per_op, stats


def run_one(args) -> int:
    import workloads
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        t0 = perf_counter()
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed, args.quick)
        prepare_s = perf_counter() - t0
        warm = Ledger()
        for op in wl.warmup_ops():
            warm.record(op, *call_op(op))
        ledger = Ledger()
        if args.trace:
            metrics, stats = per_layer(wl, ledger, args, workdir)
        else:
            metrics, stats = end_to_end(wl, ledger, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in warm.failures + ledger.failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        extra = stats.get(name)
        tail = (f"  (n={extra['n']}, median {extra['median']:.6g}, IQR {extra['iqr']:.3g})"
                if extra else "")
        print(f"{args.workload:10s} {name:38s} {m['value']:.6g} {m['unit']}{tail}")
    detail = {"workload": args.workload, "trace": args.trace, "quick": args.quick,
              "seconds": args.seconds, "meta": run_metadata(args.seed),
              "spec": wl.spec(), "prepare_s": prepare_s,
              "warmup_attempted": warm.attempted, "warmup_failed": len(warm.failures),
              "failed_frac": len(ledger.failures) / max(ledger.attempted, 1),
              "checked_prices": len(ledger.errors),
              "bound_violations": ledger.bound_violations, "stats": stats}
    print("detail " + json.dumps(detail))
    correct = warm.wrong + ledger.wrong == 0 and len(ledger.failures) < ledger.attempted
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a child process of its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        sys.exit("error: --seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"          # before numpy loads a BLAS
    import_program()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
