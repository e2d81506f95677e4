"""Answer checker: compares each CLI report with the stored reference answer.

``reference.json`` holds, for every operation any seed can produce, the
answer the reference commit gave (see ``make_reference.py``).  Exact
(linear-source) values are ``"p/q"`` strings and must match exactly; pmf
values are floats and must match within ``PMF_TOL``; Frank-Wolfe vectors
within ``FW_TOL``.  A grid-egalitarian (``sda``) endpoint must reach the
reference objective exactly; a different vector with that objective is
accepted when it lies on the 1/K grid and in the core, which is checked with
the package itself, outside the timed operation.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

PMF_TOL = 1e-9
FW_TOL = 1e-6

#: Operation kinds whose answer is a point of the 1/K grid found by sda.
GRID_KINDS = ("egal-sda", "egal-decomposed")

OK, EXPECTED_FAILURE, FAILED = "ok", "expected-failure", "failed"


def spec_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def grid_objective(vector: dict) -> str:
    """sum(r_i^2), the unweighted egalitarian objective, as an exact 'p/q'."""
    return str(sum(Fraction(v) ** 2 for v in vector.values()))


def answer_of(kind: str, report: dict) -> dict:
    """The parts of a report the checker compares."""
    if "error" in report:
        return {"error": {"type": report["error"]["type"], "message": report["error"]["message"]}}
    solution = report["solution"]
    answer = {key: solution[key] for key in ("R_CO", "I", "fundamental_partition", "vertex")}
    if "fairness" in report:
        answer["vector"] = report["fairness"]["vector"]
        if kind in GRID_KINDS:
            answer["objective"] = grid_objective(answer["vector"])
            answer["K"] = max(len(solution["fundamental_partition"]) - 1, 1)
    if "verification" in report:
        answer["verdicts"] = [[v["check"], v["pass"]] for v in report["verification"]]
    return answer


def _same(a, b, tol: float) -> bool:
    """Exact equality for 'p/q' strings, |a - b| <= tol for floats."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(a - b) <= tol


def _same_vector(a: dict, b: dict, tol: float) -> bool:
    return a.keys() == b.keys() and all(_same(a[u], b[u], tol) for u in a)


def _in_core(spec_path: Path, vector: dict) -> bool:
    from omnifair.omniscience import RateVector, core_membership, min_sum_rate
    from omnifair.sources import load_source

    values = {int(u): (Fraction(v) if isinstance(v, str) else v) for u, v in vector.items()}
    ctx = min_sum_rate(load_source(spec_path))
    return core_membership(ctx, RateVector(values))[0]


def check(kind: str, exit_code, report: dict | None, ref: dict, spec_path: Path) -> tuple[str, str]:
    """Verdict on one operation: (OK | EXPECTED_FAILURE | FAILED, reason)."""
    if spec_digest(spec_path.read_bytes()) != ref["spec_sha256"]:
        return FAILED, "spec file differs from the one the reference was made from"
    expected = ref["answer"]
    if report is None:
        return FAILED, f"no readable report (exit {exit_code})"
    try:
        got = answer_of(kind, report)
    except (KeyError, TypeError) as exc:
        return FAILED, f"report lacks {exc}"
    if "error" in expected:
        return _check_expected_error(kind, exit_code, got, ref, spec_path)
    if exit_code != ref["exit"]:
        return FAILED, f"exit {exit_code}, reference {ref['exit']}: {got.get('error')}"
    if "error" in got:
        return FAILED, f"error {got['error']}"
    tol = PMF_TOL
    for key in ("R_CO", "I"):
        if not _same(got[key], expected[key], tol):
            return FAILED, f"{key} {got[key]} != reference {expected[key]}"
    if got["fundamental_partition"] != expected["fundamental_partition"]:
        return FAILED, f"partition {got['fundamental_partition']} != {expected['fundamental_partition']}"
    if not _same_vector(got["vertex"], expected["vertex"], tol):
        return FAILED, "solver vertex differs from the reference"
    if "verdicts" in expected and got.get("verdicts") != expected["verdicts"]:
        return FAILED, f"verdicts {got.get('verdicts')} != {expected['verdicts']}"
    if "vector" in expected:
        return _check_vector(kind, got, expected, spec_path)
    return OK, ""


def _check_vector(kind: str, got: dict, expected: dict, spec_path: Path) -> tuple[str, str]:
    tol = FW_TOL if kind == "egal-continuous" else PMF_TOL
    if _same_vector(got["vector"], expected["vector"], tol):
        return OK, ""
    if kind not in GRID_KINDS:
        return FAILED, f"vector {got['vector']} != reference {expected['vector']}"
    if got["objective"] != expected["objective"]:
        return FAILED, f"sda objective {got['objective']} != reference {expected['objective']}"
    K = expected["K"]
    off_grid = [u for u, v in got["vector"].items() if (Fraction(v) * K).denominator != 1]
    if off_grid:
        return FAILED, f"users {off_grid} are off the 1/{K} grid"
    if not _in_core(spec_path, got["vector"]):
        return FAILED, "sda endpoint is outside the core"
    return OK, "different optimal grid point"


def _check_expected_error(kind, exit_code, got, ref, spec_path) -> tuple[str, str]:
    """The reference commit failed this operation (pmf ``sda``: initial rates
    off the 1/K grid).  The same error, or any refusal with an error record,
    is the expected failure; an answer is accepted if it is in the core."""
    message = ref["answer"]["error"]["message"]
    if "error" in got:
        if exit_code == ref["exit"] and got["error"] == ref["answer"]["error"]:
            return EXPECTED_FAILURE, message
        if exit_code not in (0, None):
            return EXPECTED_FAILURE, f"refused: {got['error']['message']}"
        return FAILED, f"error record with exit {exit_code}"
    if exit_code != 0:
        return FAILED, f"exit {exit_code} without an error record"
    if kind in GRID_KINDS or kind == "egal-continuous":
        if _in_core(spec_path, got["vector"]):
            return OK, "answer where the reference commit failed"
    return FAILED, "answer where the reference commit failed, not verified"


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text())
