"""Whole-report regression: every README command-line invocation on
``scripts/example_source.json``, and the Shapley and Frank-Wolfe commands on
the sources under ``tests/golden/sources/`` (a seeded random 4-user pmf
table, whose answers are floats, and the four-cycle packet source, whose
rates are in thirds), must reproduce its stored report under
``tests/golden/`` byte for byte, apart from the ``timings`` block and the
machine-specific ``config.input``/``config.output`` paths.  Three invocations
give rates outside the core and pin the witness of the first violated
constraint: two failed verifications and one error record.

Regenerate the stored reports (only when a report change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
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
    report = json.loads(out.read_text())
    report.pop("timings", None)
    report["config"].update(input=spec, output=None)
    return status, json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_matches_golden(name, tmp_path):
    status, text = normalized_report(name, tmp_path)
    assert status == STATUS.get(name, 0)
    assert text == (GOLDEN / f"{name}.json").read_text()
    if name in CSV_OUTPUTS:
        csv = CSV_OUTPUTS[name]
        assert (tmp_path / csv).read_text() == (GOLDEN / f"{name}.csv").read_text()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in sorted(INVOCATIONS):
            status, text = normalized_report(name, workdir)
            if status != STATUS.get(name, 0):
                raise SystemExit(f"{name} exited {status}")
            (GOLDEN / f"{name}.json").write_text(text)
            if name in CSV_OUTPUTS:
                csv = (workdir / CSV_OUTPUTS[name]).read_text()
                (GOLDEN / f"{name}.csv").write_text(csv)
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
