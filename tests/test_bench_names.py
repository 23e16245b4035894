"""Every library name the benchmark harness reaches still resolves.

``bench/tracing.py`` wraps functions by (module, name) and patches
``conic.ConsensusSolver.iterate``; ``bench/workloads.py`` calls
``swarm.neighbor_set`` when it sets up ``oracle_direct``.  A deleted or
renamed one would otherwise show only when the traced benchmark runs.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    """The object ``swarmsentry.<module>.<attr>...`` names (AttributeError if any part is gone)."""
    module, *attrs = dotted.split(".")
    return reduce(getattr, attrs, importlib.import_module(f"swarmsentry.{module}"))


tracing = load_tracing()


@pytest.mark.parametrize("dotted", dict.fromkeys([f"{module}.{name}" for module, name in tracing.TRACED_FUNCTIONS]
                                                 + ["conic.ConsensusSolver.iterate", "swarm.neighbor_set"]))
def test_bench_name_resolves(dotted):
    assert callable(resolve(dotted))
