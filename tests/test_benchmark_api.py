"""Every name the benchmark's workloads take from swiftpricer still exists.

``benchmarks/workloads.py`` reaches into the package's modules by attribute
(``pricer.auto_grid``, ``models.cumulants``, ``cli.main``, ...), so a rename
or a deletion there would only fail a benchmark run.  The file is parsed
with ``ast``, not imported: nothing is written under ``benchmarks/``.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from swiftpricer import models, pricer

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
TREE = ast.parse(WORKLOADS.read_text())
# the modules bound by ``from swiftpricer import ...``
MODULES = {alias.asname or alias.name for node in ast.walk(TREE)
           if isinstance(node, ast.ImportFrom) and node.module == "swiftpricer"
           for alias in node.names}


def _taken(node):
    """(module, attribute) of ``node`` if it reads ``<module>.<attribute>``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES):
        return node.value.id, node.attr
    return None


ATTRIBUTES = sorted({_taken(node) for node in ast.walk(TREE)} - {None})
# each call of a taken attribute: its positional count and keyword names
CALLS = sorted({(*_taken(node.func), len(node.args), tuple(kw.arg for kw in node.keywords))
                for node in ast.walk(TREE)
                if isinstance(node, ast.Call) and _taken(node.func)})


def _resolve(module, attr):
    return getattr(importlib.import_module(f"swiftpricer.{module}"), attr, None)


def test_workloads_use_the_modules():
    assert MODULES == {"cli", "models", "pricer"}
    assert {module for module, _ in ATTRIBUTES} == MODULES


@pytest.mark.parametrize("module, attr", ATTRIBUTES, ids=[".".join(a) for a in ATTRIBUTES])
def test_attribute_resolves(module, attr):
    assert _resolve(module, attr) is not None


@pytest.mark.parametrize("module, attr, n_args, keywords", CALLS,
                         ids=[f"{m}.{a}/{n}{''.join('+' + k for k in kw)}"
                              for m, a, n, kw in CALLS])
def test_call_form_binds(module, attr, n_args, keywords):
    inspect.signature(_resolve(module, attr)).bind(
        *[None] * n_args, **dict.fromkeys(keywords))


def test_context_and_result_members():
    # fresh prices through ctx.price_put / price_call(K, route).price, and
    # chain and fresh draw strikes from cumulants(model).c1 and .c2
    for method in (pricer.PricingContext.price_put, pricer.PricingContext.price_call):
        inspect.signature(method).bind(None, 1.0, "em_fft")
    assert "price" in {f.name for f in dataclasses.fields(pricer.PricingResult)}
    assert {"c1", "c2"} <= {f.name for f in dataclasses.fields(models.Cumulants)}
