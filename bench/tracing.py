"""Spans and counters recorded around omnifair's public functions.

The package is instrumented from outside: :func:`instrumented` swaps each
traced function for a wrapper in its defining module, in every omnifair
module that imported it by name (``sfm_min`` in ``omniscience`` and
``egalitarian``, ``core_membership`` in ``egalitarian`` and ``cli``, ...),
and on the classes whose methods are traced.  Spans are kept in memory as
flat arrays and written out once, when the run ends.

``Source.entropy``, ``SetFunction.__call__`` and ``GameContext.greedy_vertex``
are counted, not spanned: they run hundreds of thousands of times per
operation, and a span each would swamp the work they do.  The uncached
entropy computation (``_entropy``) is spanned, so each span is one distinct
subset evaluated by the oracle.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

#: (module, attribute, span name) of every spanned function.
SPANNED_FUNCTIONS = (
    ("omnifair.cli", "main", "cli.main"),
    ("omnifair.sources", "load_source", "sources.load_source"),
    ("omnifair.setfn", "sfm_min", "setfn.sfm_min"),
    ("omnifair.setfn", "is_submodular", "setfn.is_submodular"),
    ("omnifair.omniscience", "min_sum_rate", "omniscience.min_sum_rate"),
    ("omnifair.omniscience", "core_membership", "omniscience.core_membership"),
    ("omnifair.omniscience", "decompose", "omniscience.decompose"),
    ("omnifair.shapley", "shapley_exact", "shapley.exact"),
    ("omnifair.shapley", "shapley_approx", "shapley.approx"),
    ("omnifair.shapley", "shapley_decomposed", "shapley.decomposed"),
    ("omnifair.egalitarian", "sda", "egalitarian.sda"),
    ("omnifair.egalitarian", "dep", "egalitarian.dep"),
    ("omnifair.egalitarian", "egalitarian_continuous", "egalitarian.fw"),
    ("omnifair.egalitarian", "egalitarian_decomposed", "egalitarian.decomposed"),
)

#: (module, class, method, span name) of every spanned method.
SPANNED_METHODS = (
    ("omnifair.omniscience", "GameContext", "hat", "omniscience.hat"),
    ("omnifair.sources", "LinearSource", "_entropy", "sources.entropy"),
    ("omnifair.sources", "PmfSource", "_entropy", "sources.entropy"),
)


class Tracer:
    """In-memory span store plus named counters.

    A span is (name id, start, end, parent index, op id); the parent is the
    innermost span open when it started, -1 for an operation's root.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def inside(self, name: str) -> bool:
        """True if a span called ``name`` is open."""
        target = self._name_ids.get(name)
        return target is not None and any(self.name[i] == target for i in self._open)

    def spanned(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so every call records a span called ``name``.

        ``before(args, kwargs)`` runs inside the span before the call and
        ``after(result)`` after it, for counters that need the arguments or
        the result.
        """
        nid = self.name_id(name)
        open_spans = self._open

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            open_spans.append(idx)
            self.start.append(perf_counter())
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                self.end[idx] = perf_counter()
                open_spans.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn, when=None):
        """Wrap ``fn`` so every call adds one to counter ``key`` (only while
        ``when()`` holds, if given)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if when is None or when():
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span, the name table and the counters to ``path`` (.npz)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(),
                            counter_keys=np.array(sorted(self.counts)),
                            counter_values=np.array([self.counts[k] for k in sorted(self.counts)]))


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one span never overlap and
    their durations add up to the covered time.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def _rebind(original, replacement, undo: list) -> None:
    """Point every omnifair module name bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname != "omnifair" and not modname.startswith("omnifair."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)


@contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from omnifair.omniscience import GameContext
    from omnifair.setfn import SetFunction
    from omnifair.sources import Source

    counts = tracer.counts
    undo: list = []

    def sfm_points(args, kwargs):
        f = args[0]
        forced_in = frozenset(kwargs.get("forced_in", args[1] if len(args) > 1 else ()))
        forced_out = frozenset(kwargs.get("forced_out", args[2] if len(args) > 2 else ()))
        points = 2 ** len(f.ground - forced_in - forced_out)
        counts["setfn.sfm_points"] += points
        parent = "dep" if tracer.inside("egalitarian.dep") else "dilworth"
        counts[f"setfn.sfm_points.{parent}"] += points

    def loaded(source):
        counts["sources.lattice_points"] += 2 ** len(source.users) - 1

    def sda_done(result):
        counts["egalitarian.sda_iterations"] += result[1].iterations

    hooks = {
        "setfn.sfm_min": {"before": sfm_points},
        "sources.load_source": {"after": loaded},
        "egalitarian.sda": {"after": sda_done},
    }
    for modname, attr, name in SPANNED_FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        _rebind(original, tracer.spanned(name, original, **hooks.get(name, {})), undo)
    for modname, cls_name, attr, name in SPANNED_METHODS:
        cls = getattr(sys.modules[modname], cls_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.spanned(name, original))

    def in_shapley() -> bool:
        return tracer.inside("shapley.exact") or tracer.inside("shapley.approx")

    for cls, attr, key, when in (
        (Source, "entropy", "sources.entropy_calls", None),
        (SetFunction, "__call__", "setfn.setfn_evals", None),
        (GameContext, "greedy_vertex", "shapley.vertices", in_shapley),
    ):
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.counted(key, original, when))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


#: Per-layer metric units; the names are those listed in BENCHMARK.json.
LAYER_UNITS = {
    "sources.entropy_calls": "count",
    "sources.entropy_distinct": "count",
    "sources.lattice_points": "count",
    "sources.lattice_share": "ratio",
    "sources.entropy_s": "s",
    "sources.load_source_s": "s",
    "setfn.sfm_calls": "count",
    "setfn.sfm_points": "count",
    "setfn.sfm_points.dep": "count",
    "setfn.sfm_points.dilworth": "count",
    "setfn.sfm_self_s": "s",
    "setfn.setfn_evals": "count",
    "setfn.is_submodular_s": "s",
    "omniscience.min_sum_rate_s": "s",
    "omniscience.hat_calls": "count",
    "omniscience.hat_misses": "count",
    "omniscience.hat_hit_ratio": "ratio",
    "omniscience.hat_self_s": "s",
    "omniscience.core_membership_calls": "count",
    "omniscience.core_membership_s": "s",
    "omniscience.decompose_s": "s",
    "shapley.exact_s": "s",
    "shapley.approx_s": "s",
    "shapley.decomposed_s": "s",
    "shapley.vertices": "count",
    "egalitarian.sda_s": "s",
    "egalitarian.sda_iterations": "count",
    "egalitarian.dep_calls": "count",
    "egalitarian.dep_s": "s",
    "egalitarian.dep_self_s": "s",
    "egalitarian.dep_share_of_sda": "ratio",
    "egalitarian.dep_per_exchange": "ratio",
    "egalitarian.fw_s": "s",
    "egalitarian.decomposed_s": "s",
    "cli.ops": "count",
    "cli.self_s": "s",
    "cli.report_bytes": "B",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the two the runner adds
    (``cli.report_bytes`` and ``trace.overhead_ratio``)."""
    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    own = self_times(spans["parent"], spans["start"], spans["end"])
    ids = {name: i for i, name in enumerate(tracer.names)}

    def where(name: str) -> np.ndarray:
        return spans["name"] == ids.get(name, -1)

    def calls(name: str) -> int:
        return int(where(name).sum())

    def inclusive(name: str) -> float:
        return float(duration[where(name)].sum())

    def exclusive(name: str) -> float:
        return float(own[where(name)].sum())

    sfm_parents = spans["parent"][where("setfn.sfm_min") & (spans["parent"] >= 0)]
    hat_misses = len(np.unique(sfm_parents[spans["name"][sfm_parents] == ids["omniscience.hat"]]))
    counts = tracer.counts
    metrics = {
        "sources.entropy_calls": counts["sources.entropy_calls"],
        "sources.entropy_distinct": calls("sources.entropy"),
        "sources.lattice_points": counts["sources.lattice_points"],
        "sources.lattice_share": _ratio(calls("sources.entropy"), counts["sources.lattice_points"]),
        "sources.entropy_s": inclusive("sources.entropy"),
        "sources.load_source_s": inclusive("sources.load_source"),
        "setfn.sfm_calls": calls("setfn.sfm_min"),
        "setfn.sfm_points": counts["setfn.sfm_points"],
        "setfn.sfm_points.dep": counts["setfn.sfm_points.dep"],
        "setfn.sfm_points.dilworth": counts["setfn.sfm_points.dilworth"],
        "setfn.sfm_self_s": exclusive("setfn.sfm_min"),
        "setfn.setfn_evals": counts["setfn.setfn_evals"],
        "setfn.is_submodular_s": inclusive("setfn.is_submodular"),
        "omniscience.min_sum_rate_s": inclusive("omniscience.min_sum_rate"),
        "omniscience.hat_calls": calls("omniscience.hat"),
        "omniscience.hat_misses": hat_misses,
        "omniscience.hat_hit_ratio": _ratio(calls("omniscience.hat") - hat_misses, calls("omniscience.hat")),
        "omniscience.hat_self_s": exclusive("omniscience.hat"),
        "omniscience.core_membership_calls": calls("omniscience.core_membership"),
        "omniscience.core_membership_s": inclusive("omniscience.core_membership"),
        "omniscience.decompose_s": inclusive("omniscience.decompose"),
        "shapley.exact_s": inclusive("shapley.exact"),
        "shapley.approx_s": inclusive("shapley.approx"),
        "shapley.decomposed_s": inclusive("shapley.decomposed"),
        "shapley.vertices": counts["shapley.vertices"],
        "egalitarian.sda_s": inclusive("egalitarian.sda"),
        "egalitarian.sda_iterations": counts["egalitarian.sda_iterations"],
        "egalitarian.dep_calls": calls("egalitarian.dep"),
        "egalitarian.dep_s": inclusive("egalitarian.dep"),
        "egalitarian.dep_self_s": exclusive("egalitarian.dep"),
        "egalitarian.dep_share_of_sda": _ratio(inclusive("egalitarian.dep"), inclusive("egalitarian.sda")),
        "egalitarian.dep_per_exchange": _ratio(calls("egalitarian.dep"), counts["egalitarian.sda_iterations"]),
        "egalitarian.fw_s": inclusive("egalitarian.fw"),
        "egalitarian.decomposed_s": inclusive("egalitarian.decomposed"),
        "cli.ops": calls("cli.main"),
        "cli.self_s": exclusive("cli.main"),
        "trace.spans": len(duration),
    }
    return metrics
