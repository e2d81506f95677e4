"""Whole-report regression: every README command-line invocation on
``scripts/example_source.json``, and the Shapley and weighted continuous egalitarian commands on
the sources under ``tests/golden/sources/`` (a seeded random 4-user pmf
table, whose answers are floats, and the four-cycle packet source, whose
rates are in thirds), must reproduce its stored report under
``tests/golden/`` byte for byte, apart from the ``timings`` block and the
machine-specific ``config.input``/``config.output`` paths.  Three invocations
give rates outside the core and pin the witness of the first violated
constraint: two failed verifications and one error record.

Regenerate the stored reports (only when a report change is intended) with
``PYTHONPATH=src python tests/test_golden.py``; it prints each key that
disappeared or appeared, each float that changed and the largest absolute
change, so a last-bit change can be reviewed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from omnifair.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLE = "scripts/example_source.json"
PMF = "tests/golden/sources/pmf-4.json"
CYCLE = "tests/golden/sources/four-cycle.json"

#: name -> (input spec relative to the repository root, or None; argv
#: without --input)
INVOCATIONS = {
    "solve": (EXAMPLE, ["solve"]),
    "shapley-exact": (EXAMPLE, ["shapley", "--mode", "exact"]),
    "shapley-approx": (EXAMPLE, ["shapley", "--mode", "approx", "--seed", "7",
                                 "--permutations", "10"]),
    "shapley-decomposed": (EXAMPLE, ["shapley", "--mode", "decomposed"]),
    "shapley-decomposed-approx": (EXAMPLE, ["shapley", "--mode", "decomposed",
                                            "--seed", "7", "--permutations", "2"]),
    "egalitarian-sda": (EXAMPLE, [
        "egalitarian", "--mode", "sda", "--K", "2",
        "--rates", '{"1":"1","2":"1/2","3":"1/2","4":"9/2","5":"0"}',
        "--trace", "--trace-csv", "error_curve.csv"]),
    "egalitarian-continuous": (EXAMPLE, ["egalitarian", "--mode", "continuous",
                                         "--weights", '{"1":6,"2":1,"3":1,"4":3,"5":2}']),
    "egalitarian-decomposed": (EXAMPLE, ["egalitarian", "--mode", "decomposed"]),
    "verify": (EXAMPLE, ["verify",
                         "--rates", '{"1":"1","2":"1/2","3":"1/2","4":"4","5":"1/2"}']),
    "split-plan": (None, ["split-plan",
                          "--rates", '{"1":"5/4","2":"1/2","3":"1/2","4":"3","5":"5/4"}']),
    # rates outside the core: the first violated constraint is the witness
    "verify-outside-core": (EXAMPLE, ["verify",
                                      "--rates", '{"1":"1","2":"1/2","3":"1/2","4":"0","5":"9/2"}']),
    "egalitarian-decomposed-outside-core": (EXAMPLE, [
        "egalitarian", "--mode", "decomposed",
        "--rates", '{"1":"0","2":"1/2","3":"1/2","4":"11/2","5":"0"}']),
    "pmf-4-verify-outside-core": (PMF, ["verify", "--rates",
                                        '{"1":"0.5","2":"1","3":"1.5","4":"1.13231506723642"}']),
}
#: the exit status of each invocation that does not succeed: a failed
#: verification (3) or an error record (2)
STATUS = {"verify-outside-core": 3, "egalitarian-decomposed-outside-core": 2,
          "pmf-4-verify-outside-core": 3}
#: the commands run on every source under ``tests/golden/sources/``
SOURCE_COMMANDS = {
    "shapley-exact": ["shapley", "--mode", "exact"],
    "shapley-approx": ["shapley", "--mode", "approx", "--seed", "7", "--permutations", "10"],
    "egalitarian-continuous": ["egalitarian", "--mode", "continuous",
                               "--weights", '{"1":3,"2":1,"3":2,"4":1}'],
}
INVOCATIONS |= {f"{label}-{command}": (spec, argv)
                for label, spec in (("pmf-4", PMF), ("four-cycle", CYCLE))
                for command, argv in SOURCE_COMMANDS.items()}

#: invocations that also write a trace CSV into the working directory
CSV_OUTPUTS = {"egalitarian-sda": "error_curve.csv"}


#: the floats of the pmf-4 Shapley reports as the per-subset table sums gave
#: them, before one marginalization pass moved their last bits; the reports
#: now stored must stay within ``PREVIOUS_PMF_TOL`` of them
PREVIOUS_PMF_SOLUTION = {
    "solution.I": 0.07933959900031162, "solution.R_CO": 4.13231506723642,
    "solution.vertex.1": 0.9052576587558392, "solution.vertex.2": 0.9206602571065199,
    "solution.vertex.3": 1.4347944918866087, "solution.vertex.4": 0.8716026594874524,
}
PREVIOUS_PMF_FLOATS = {
    "pmf-4-shapley-exact": PREVIOUS_PMF_SOLUTION | {
        "fairness.vector.1": 0.905257658755839, "fairness.vector.2": 0.9206602571065196,
        "fairness.vector.3": 1.4347944918866085, "fairness.vector.4": 0.871602659487453},
    "pmf-4-shapley-approx": PREVIOUS_PMF_SOLUTION | {
        "fairness.vector.1": 0.9052576587558387, "fairness.vector.2": 0.9206602571065196,
        "fairness.vector.3": 1.4347944918866085, "fairness.vector.4": 0.8716026594874531},
}
#: the pmf-4 verification as the one marginalization pass gave it, before
#: batched marginals moved the last bits of its witness's conditional entropy
#: (a witness's float is the number after its last " = ")
PREVIOUS_PMF_FLOATS["pmf-4-verify-outside-core"] = PREVIOUS_PMF_SOLUTION | {
    "verification.3.witness": 0.8247524850551327}
PREVIOUS_PMF_TOL = 1e-12

#: the floats of the weighted continuous egalitarian reports as Frank-Wolfe
#: gave them, before the exact solver replaced it; the reports now stored
#: must stay within ``PREVIOUS_PMF_TOL`` of them
PREVIOUS_CONTINUOUS_FLOATS = {
    "egalitarian-continuous": {
        "fairness.vector.1": 1.5, "fairness.vector.2": 0.5, "fairness.vector.3": 0.5,
        "fairness.vector.4": 2.4000000000000004, "fairness.vector.5": 1.5999999999999996},
    "four-cycle-egalitarian-continuous": {
        f"fairness.vector.{u}": 0.6666666666666666 for u in range(1, 5)},
    "pmf-4-egalitarian-continuous": PREVIOUS_PMF_SOLUTION | {
        "fairness.vector.1": 0.9052576587558392, "fairness.vector.2": 0.9206602571065199,
        "fairness.vector.3": 1.4347944918866087, "fairness.vector.4": 0.8716026594874524},
}


def report_leaves(node, path: str = "") -> dict:
    """Every value in a parsed report that is not an object or a list,
    keyed by its dotted path (``fairness.vector.1``)."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {key: value for k, child in items
                for key, value in report_leaves(child, f"{path}.{k}" if path else str(k)).items()}
    return {path: node}


def report_floats(node) -> dict[str, float]:
    """Every float in a parsed report, keyed by its dotted path."""
    return {key: value for key, value in report_leaves(node).items() if isinstance(value, float)}


def normalized_report(name: str, workdir: Path) -> tuple[int, str]:
    """Run one invocation inside ``workdir``; return its exit status and the
    report text with timings dropped and file paths replaced."""
    out = workdir / f"{name}.json"
    spec, argv = INVOCATIONS[name]
    argv = [*argv, "--output", str(out)]
    if spec is not None:
        argv += ["--input", str(ROOT / spec)]
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        status = main(argv)
    finally:
        os.chdir(previous)
    report = json.loads(out.read_text(encoding="utf-8"))
    report.pop("timings", None)
    report["config"].update(input=spec, output=None)
    return status, json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_matches_golden(name, tmp_path):
    status, text = normalized_report(name, tmp_path)
    assert status == STATUS.get(name, 0)
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    if name in CSV_OUTPUTS:
        csv = CSV_OUTPUTS[name]
        assert ((tmp_path / csv).read_text(encoding="utf-8")
                == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8"))


def assert_near_previous_floats(name: str, previous: dict, workdir: Path) -> None:
    status, text = normalized_report(name, workdir)
    assert status == STATUS.get(name, 0)
    report = json.loads(text)
    witnesses = {key: float(value.rsplit(" = ", 1)[1])
                 for key, value in report_leaves(report).items() if key in previous and isinstance(value, str)}
    floats = report_floats(report) | witnesses
    assert floats.keys() == previous.keys()
    assert all(abs(floats[k] - previous[k]) <= PREVIOUS_PMF_TOL for k in previous)


@pytest.mark.parametrize("name", sorted(PREVIOUS_PMF_FLOATS))
def test_pmf_report_near_previous_floats(name, tmp_path):
    assert_near_previous_floats(name, PREVIOUS_PMF_FLOATS[name], tmp_path)


@pytest.mark.parametrize("name", sorted(PREVIOUS_CONTINUOUS_FLOATS))
def test_continuous_report_near_previous_floats(name, tmp_path):
    assert_near_previous_floats(name, PREVIOUS_CONTINUOUS_FLOATS[name], tmp_path)


def float_changes(old: dict, new: dict) -> list[str]:
    """One line per float that differs between two parsed reports, then the
    largest absolute change among those present in both."""
    before, after = report_floats(old), report_floats(new)
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    lines = [f"  {k}: {before.get(k)!r} -> {after.get(k)!r}" for k in changed]
    both = [abs(after[k] - before[k]) for k in changed if k in before and k in after]
    if both:
        lines.append(f"  largest absolute change: {max(both):.3g}")
    return lines


def key_changes(old: dict, new: dict) -> list[str]:
    """One line per dotted path that disappeared (-) or appeared (+)
    between two parsed reports."""
    before, after = report_leaves(old).keys(), report_leaves(new).keys()
    return ([f"  - {k}" for k in sorted(before - after)]
            + [f"  + {k}" for k in sorted(after - before)])


def test_key_changes_lists_the_paths_that_come_and_go():
    old = {"config": {"tol": None, "K": 2}, "b": [1, 2]}
    new = {"config": {"K": 2}, "b": [1, 2, 3], "c": {"d": "x"}}
    assert key_changes(old, new) == ["  - config.tol", "  + b.2", "  + c.d"]
    assert key_changes(old, old) == []


def test_float_changes_lists_each_float_and_the_largest_change():
    old = {"a": {"x": 1.0, "y": 2.0}, "b": [0.5, "1/2"], "c": 3.0}
    new = {"a": {"x": 1.0, "y": 2.25}, "b": [0.375, "1/2"], "d": 4.0}
    assert float_changes(old, new) == [
        "  a.y: 2.0 -> 2.25", "  b.0: 0.5 -> 0.375", "  c: 3.0 -> None", "  d: None -> 4.0",
        "  largest absolute change: 0.25"]
    assert float_changes(old, old) == []


def regenerate() -> None:
    """Rewrite every stored report, printing each float that changed."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in sorted(INVOCATIONS):
            status, text = normalized_report(name, workdir)
            if status != STATUS.get(name, 0):
                raise SystemExit(f"{name} exited {status}")
            stored = GOLDEN / f"{name}.json"
            changes = []
            if stored.exists():
                before, after = json.loads(stored.read_text(encoding="utf-8")), json.loads(text)
                changes = key_changes(before, after) + float_changes(before, after)
            stored.write_text(text, encoding="utf-8")
            if name in CSV_OUTPUTS:
                csv = (workdir / CSV_OUTPUTS[name]).read_text(encoding="utf-8")
                (GOLDEN / f"{name}.csv").write_text(csv, encoding="utf-8")
            print(f"wrote {stored}", *changes, sep="\n", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
