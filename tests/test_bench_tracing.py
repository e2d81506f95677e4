"""The benchmark's tracer (``bench/tracing.py``) instruments the package from
outside by rebinding its functions and methods by name, so renaming one of
them breaks ``bench/run.py --trace 1``.  This guard loads the tracer, runs
the solvers under its instrumentation, and checks that the answers do not
change and that leaving it restores every binding, of modules and of
classes."""

import importlib.util
import sys
from pathlib import Path

import omnifair
import omnifair.cli  # noqa: F401  (the tracer wraps cli.main, so cli must be loaded)
from omnifair import LinearSource

from conftest import DEMO_HOLDINGS, DEMO_PACKETS

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict:
    """Every name bound in an omnifair module, and every attribute of each
    class bound there."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "omnifair" or name.startswith("omnifair."):
            for attr, value in vars(module).items():
                found[name, attr] = value
                if isinstance(value, type):
                    found.update(((name, attr, key), v) for key, v in vars(value).items())
    return found


def demo_source() -> LinearSource:
    return LinearSource.from_packets(
        {u: set(p) for u, p in DEMO_HOLDINGS.items()}, universe=DEMO_PACKETS)


def solve_everything(source) -> tuple:
    """Exact and sampled Shapley, the continuous egalitarian point, sda and
    the verdicts of ``verify``, each on a context of its own."""
    return (omnifair.shapley_exact(omnifair.min_sum_rate(source)),
            omnifair.shapley_approx(omnifair.min_sum_rate(source), count=4, seed=1),
            omnifair.egalitarian_continuous(omnifair.min_sum_rate(source)),
            omnifair.sda(omnifair.min_sum_rate(source)),
            omnifair.cli._run_verify(omnifair.cli.RunConfig("verify"), omnifair.min_sum_rate(source)))


def test_bench_tracer_enters_and_leaves():
    tracing = load_tracing()
    before = package_bindings()
    source = demo_source()
    with tracing.instrumented(tracing.Tracer()) as tracer:
        ctx = omnifair.min_sum_rate(source)
    assert package_bindings() == before
    metrics = tracing.summarize(tracer)
    assert ctx.min_sum_rate == 13 / 2
    assert metrics["omniscience.min_sum_rate_s"] > 0
    assert metrics["sources.entropy_distinct"] > 0


def test_bench_tracer_wraps_the_solvers_and_restores_every_binding():
    tracing = load_tracing()
    want = solve_everything(demo_source())
    before = package_bindings()
    with tracing.instrumented(tracing.Tracer()) as tracer:
        got = solve_everything(demo_source())
    assert package_bindings() == before
    assert got == want
    metrics = tracing.summarize(tracer)
    for spanned in ("shapley.exact_s", "shapley.approx_s", "egalitarian.fw_s", "egalitarian.sda_s",
                    "setfn.is_submodular_s"):
        assert metrics[spanned] > 0, spanned
    assert metrics["egalitarian.sda_iterations"] == want[3][1].iterations > 0
    assert metrics["egalitarian.dep_calls"] > 0

