"""Smoke tests: the example scripts run end to end on the public API."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(script: Path, *args: str, cwd: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd, env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def test_fairness_survey(tmp_path):
    lines = run_script(SCRIPTS / "fairness_survey.py", "3", cwd=tmp_path)
    assert lines[-1] == "egalitarian splitting at least as coarse on 3/3 instances"


def test_run_worked_example(tmp_path):
    # run a copy, so the error-curve CSV it writes next to itself lands in tmp_path
    for name in ("run_worked_example.py", "example_source.json"):
        shutil.copy(SCRIPTS / name, tmp_path / name)
    lines = run_script(tmp_path / "run_worked_example.py", cwd=tmp_path)
    assert "  egalitarian (w=6,1,1,3,2)    r_1=3/2, r_2=1/2, r_3=1/2, r_4=12/5, r_5=8/5" in lines
    assert ("  weighted     10 chunks/packet, chunk rates {1: 15, 2: 5, 3: 5, 4: 24, 5: 16}"
            in lines)
    assert lines[-1] == "iterations: 5, exchanges: [(5, 4), (5, 4), (1, 4), (5, 4), (5, 4)]"
    curve = (tmp_path / "sda_error_curve.csv").read_text(encoding="utf-8")
    assert curve.startswith("iteration,l1_error,objective\n")
