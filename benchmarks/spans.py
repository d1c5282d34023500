"""Span recorder for the traced benchmark run.

The recorder measures each layer of swiftpricer from outside, by wrapping
the public functions named in ``TARGETS``.  ``from .x import f`` copies the
binding of ``f`` into the importing module, so ``install`` rebinds the
wrapper under every name, in every ``swiftpricer`` module, that holds the
original function; ``PricingContext.__init__`` and ``price_put`` are wrapped
on the class.  ``uninstall`` restores every binding.

Each call records one span: layer name, start, end, parent span, op id and
one work count (points, coefficients; 0 where the layer has none).  Spans
stay in flat arrays in memory and are written out once, by ``save``.  A
span's self time is its duration minus the time its child spans cover;
calls nest on one thread, so the children of a span are disjoint and
their coverage is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

OP = "bench.op"


def _size_of_first(args, kwargs, result):
    return float(np.size(args[1]))          # char_fn(model, u)


def _len_of_first(args, kwargs, result):
    return float(len(args[0]))              # inverse_dft(buf)


def _job_width(args, kwargs, result):
    job = args[0]                           # DensityJob / PayoffJob
    return float(job.k2 - job.k1)


def _one(args, kwargs, result):
    return 1.0


# (layer, module, attribute, work count); attributes containing a dot are
# methods wrapped on their class
TARGETS = (
    ("models.char_fn", "swiftpricer.models", "char_fn", _size_of_first),
    ("density.trapezoidal", "swiftpricer.density", "density_trapezoidal_fft", _job_width),
    ("density.midpoint", "swiftpricer.density", "density_midpoint_fft", _job_width),
    ("density.vieta_direct", "swiftpricer.density", "density_vieta_direct", _one),
    ("density.filon", "swiftpricer.density", "density_filon", None),
    ("payoff.em_fft", "swiftpricer.payoff", "payoff_fft_euler_maclaurin", _job_width),
    ("payoff.forward", "swiftpricer.payoff", "payoff_forward_si_ein", None),
    ("payoff.classic", "swiftpricer.payoff", "payoff_classic_si_ein", None),
    ("specfun.si", "swiftpricer.specfun", "si", None),
    ("specfun.ein", "swiftpricer.specfun", "ein", None),
    ("transform.inverse_dft", "swiftpricer.transform", "inverse_dft", _len_of_first),
    ("transform.cos_sin_sum", "swiftpricer.transform", "cos_sin_sum", None),
    ("pricer.select_scale", "swiftpricer.pricer", "select_scale", None),
    ("pricer.auto_grid", "swiftpricer.pricer", "auto_grid", None),
    ("pricer.context_init", "swiftpricer.pricer", "PricingContext.__init__", None),
    ("pricer.price_put", "swiftpricer.pricer", "PricingContext.price_put", None),
    ("pricer.reference_put", "swiftpricer.pricer", "reference_put", None),
    ("cli.main", "swiftpricer.cli", "main", None),
)


class Tracer:
    """In-memory span recorder; ``install`` before and ``uninstall`` after
    the traced ops, ``run_op`` around each op."""

    def __init__(self):
        self.layers = [OP] + [t[0] for t in TARGETS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._patches = []
        self._op_span = self._recorder(0, lambda fn: fn(), None)
        self._wrappers = []
        for i, (_, module, attr, work) in enumerate(TARGETS, start=1):
            owner = importlib.import_module(module)
            if "." in attr:
                cls, meth = attr.split(".")
                owner, attr = getattr(owner, cls), meth
            original = getattr(owner, attr)
            self._wrappers.append((owner, attr, original,
                                   functools.wraps(original)(
                                       self._recorder(i, original, work))))

    def _recorder(self, name_id, fn, work):
        name, start, end, parent, op, work_arr = (
            self.name, self.start, self.end, self.parent, self.op, self.work)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1])
            op.append(self._op_id)
            work_arr.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if work is not None:
                work_arr[idx] = work(args, kwargs, result)
            return result
        return traced

    def install(self):
        for owner, attr, original, wrapper in self._wrappers:
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "swiftpricer"
                                       or mod_name.startswith("swiftpricer.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn):
        """Call ``fn()`` as op ``op_id`` under a root span."""
        self._op_id = op_id
        return self._op_span(fn)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, layers=np.array(self.layers), **self.arrays())


def nested(spans: dict) -> bool:
    """True when every child span lies inside its parent span."""
    child = spans["parent"] >= 0
    par = spans["parent"][child]
    return bool(np.all(spans["start"][child] >= spans["start"][par])
                and np.all(spans["end"][child] <= spans["end"][par]))


def layer_totals(spans: dict, layers: list[str]) -> dict:
    """Per-layer calls, self seconds and work counts, plus the derived
    counts (auto_grid density jobs, Filon cf evaluations, FFT flops)."""
    name, parent, work = spans["name"], spans["parent"], spans["work"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    self_time = dur - covered
    ids = {layer: i for i, layer in enumerate(layers)}
    out = {}
    for layer, i in ids.items():
        mask = name == i
        out[layer] = {"calls": int(mask.sum()),
                      "self_s": float(self_time[mask].sum()),
                      "work": float(work[mask].sum())}
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    out["pricer.auto_grid"]["density_jobs"] = int(np.sum(
        (name == ids["density.trapezoidal"])
        & (parent_name == ids["pricer.auto_grid"])))
    under_filon = (name == ids["models.char_fn"]) & (parent_name == ids["density.filon"])
    out["density.filon"]["cf_evals"] = float(work[under_filon].sum())
    n = work[name == ids["transform.inverse_dft"]]
    out["transform.inverse_dft"]["flops_computed"] = float(
        np.sum(5.0 * n * np.log2(np.maximum(n, 1.0))))
    return out
