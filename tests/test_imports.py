"""numpy, and dataclasses with the inspect module it loads, stay off the CLI's
import path: a command on a linear source that builds no array runs without
them, and the commands that compute with arrays load numpy when they run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from omnifair.cli import main

from conftest import DEMO_HOLDINGS, DEMO_PACKETS

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Runs ``cli.main`` once per JSON argv list in sys.argv[1] and prints each
#: report, with numpy unimportable when sys.argv[2] is "block".
RUNNER = """
import json, sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")

if sys.argv[2] == "block":
    sys.meta_path.insert(0, BlockNumpy())
from omnifair.cli import main

reports = []
for argv in json.loads(sys.argv[1]):
    status = main(argv)
    reports.append([status, json.loads(open(argv[argv.index("--output") + 1], encoding="utf-8").read())])
print(json.dumps({"reports": reports, "numpy": "numpy" in sys.modules}))
"""

#: The commands whose answers on a linear source need no array.
ARRAY_FREE = [
    ["solve"],
    ["shapley", "--mode", "exact"],
    ["shapley", "--mode", "approx", "--seed", "3"],
    ["shapley", "--mode", "decomposed"],
    ["shapley", "--mode", "decomposed", "--seed", "3"],
    ["egalitarian", "--mode", "continuous"],
]


def run_fresh(argvs: list[list[str]], block: bool) -> dict:
    """The output of :data:`RUNNER` in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(argvs), "block" if block else "-"],
                          capture_output=True, encoding="utf-8", timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def comparable(report: dict) -> dict:
    """``report`` without its timings and the paths it echoes."""
    report = {key: value for key, value in report.items() if key != "timings"}
    report["config"] = {key: value for key, value in report["config"].items()
                        if key not in ("input", "output")}
    return report


def in_process(argvs: list[list[str]]) -> list:
    reports = []
    for argv in argvs:
        status = main(argv)
        report = Path(argv[argv.index("--output") + 1]).read_text(encoding="utf-8")
        reports.append([status, comparable(json.loads(report))])
    return reports


@pytest.fixture()
def spec_files(tmp_path):
    packets = tmp_path / "packets.json"
    packets.write_text(json.dumps({"model": "linear", "packets": list(DEMO_PACKETS),
                                   "users": {str(u): list(p) for u, p in DEMO_HOLDINGS.items()}}),
                       encoding="utf-8")
    pmf = tmp_path / "pmf.json"
    pmf.write_text(json.dumps({"model": "pmf", "alphabets": {"1": [0, 1], "2": [0, 1], "3": [0, 1]},
                               "table": [[[0.25, 0.0], [0.0, 0.25]], [[0.25, 0.0], [0.0, 0.25]]]}),
                   encoding="utf-8")
    return str(packets), str(pmf)


def with_files(runs: list[tuple[list[str], str]], tmp_path) -> list[list[str]]:
    """Each (argv, spec path) of ``runs`` as one argv with its own report."""
    return [[*argv, "--input", spec, "--output", str(tmp_path / f"report{k}.json")]
            for k, (argv, spec) in enumerate(runs)]


def test_cli_import_loads_neither_numpy_nor_dataclasses():
    probe = ("import sys\nbefore = set(sys.modules)\nimport omnifair.cli\n"
             "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, encoding="utf-8",
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    added = done.stdout.split()
    assert "omnifair.cli" in added
    assert not {"numpy", "dataclasses", "inspect"} & set(added)


def test_array_free_commands_run_without_numpy(spec_files, tmp_path):
    argvs = with_files([(argv, spec_files[0]) for argv in ARRAY_FREE], tmp_path)
    blocked = run_fresh(argvs, block=True)
    assert not blocked["numpy"]
    got = [[status, comparable(report)] for status, report in blocked["reports"]]
    assert got == in_process(argvs)
    assert all(status == 0 for status, _ in got)


def test_array_commands_load_numpy_when_they_run(spec_files, tmp_path):
    packets, pmf = spec_files
    argvs = with_files([(["verify"], packets), (["egalitarian", "--mode", "sda"], packets),
                        (["solve"], pmf)], tmp_path)
    fresh = run_fresh(argvs, block=False)
    assert fresh["numpy"]
    got = [[status, comparable(report)] for status, report in fresh["reports"]]
    assert got == in_process(argvs)
    assert all(status == 0 for status, _ in got)
