"""The benchmark's tracer (``bench/tracing.py``) instruments the package from
outside by rebinding its functions and methods by name, so renaming one of
them breaks ``bench/run.py --trace 1``.  This guard loads the tracer, solves
one instance under its instrumentation, and checks that leaving it restores
every binding."""

import importlib.util
import sys
from pathlib import Path

import omnifair
from omnifair import LinearSource

from conftest import DEMO_HOLDINGS, DEMO_PACKETS

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "omnifair" or name.startswith("omnifair.")
            for attr, value in vars(module).items()}


def test_bench_tracer_enters_and_leaves():
    tracing = load_tracing()
    before = package_bindings()
    source = LinearSource.from_packets(
        {u: set(p) for u, p in DEMO_HOLDINGS.items()}, universe=DEMO_PACKETS)
    with tracing.instrumented(tracing.Tracer()) as tracer:
        ctx = omnifair.min_sum_rate(source)
    assert package_bindings() == before
    metrics = tracing.summarize(tracer)
    assert ctx.min_sum_rate == 13 / 2
    assert metrics["omniscience.min_sum_rate_s"] > 0
    assert metrics["sources.entropy_distinct"] > 0
