"""Every function the traced benchmark wraps still exists.

``benchmarks/spans.py`` resolves its ``TARGETS`` when a traced run starts,
so a rename or a deletion there would stop the benchmark at start-up.  The
file is read and executed here, not imported: nothing is written under
``benchmarks/``.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def load_spans():
    module = types.ModuleType("benchmark_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


TARGETS = load_spans().TARGETS


@pytest.mark.parametrize("layer, module, attr", [t[:3] for t in TARGETS],
                         ids=[t[0] for t in TARGETS])
def test_target_resolves(layer, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), layer
