"""Tests of the benchmark itself: corpus determinism, the answer checker and
the tracer.  Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

import run  # sets up the import paths of the benchmark and of omnifair
import check
import corpus
import tracing

run.sys.path.insert(0, str(run.SRC))
import omnifair.cli as cli  # noqa: E402

REFERENCE = check.load_reference(run.BENCH_DIR / "reference.json")
COST = {key: entry["seconds"] for key, entry in REFERENCE["ops"].items()}


def _cheapest(workload: str, kind: str, model: str = "") -> corpus.Op:
    ops = [op for op in corpus.pool_ops(workload)
           if op.kind == kind and op.family.startswith(model)]
    return min(ops, key=lambda op: (COST[op.key], op.key))


def _run(op: corpus.Op, tmp_path):
    spec_dir = tmp_path / "specs"
    corpus.write_specs([op], spec_dir)
    seconds, code, report = run.run_op(cli, op, spec_dir, tmp_path / "report.json")
    return code, report, spec_dir / op.spec_name


def _verdict(op, code, report, spec):
    return check.check(op.kind, code, report, REFERENCE["ops"][op.key], spec)[0]


def test_same_seed_gives_byte_identical_specs(tmp_path):
    for workload in corpus.WORKLOADS:
        first = corpus.workload_ops(workload, corpus.PRIMARY_SEED, COST)
        again = corpus.workload_ops(workload, corpus.PRIMARY_SEED, COST)
        assert first == again
        corpus.write_specs(first, tmp_path / "a")
        corpus.write_specs(again, tmp_path / "b")
        held_out = corpus.workload_ops(workload, corpus.HELD_OUT_SEED, COST)
        assert [op.key for op in held_out] != [op.key for op in first]
        assert sorted(op.kind for op in held_out) == sorted(op.kind for op in first)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_every_pool_op_has_a_reference_for_its_spec():
    for workload in corpus.WORKLOADS:
        for op in corpus.pool_ops(workload):
            entry = REFERENCE["ops"][op.key]
            assert entry["spec_sha256"] == check.spec_digest(corpus.spec_bytes(op.family, op.member))


def test_checker_catches_a_tampered_solve_report(tmp_path):
    op = _cheapest("shapley-core", "solve")
    code, report, spec = _run(op, tmp_path)
    assert _verdict(op, code, report, spec) == check.OK
    for key, value in (("R_CO", "1/3"), ("fundamental_partition", [[1]])):
        tampered = json.loads(json.dumps(report))
        tampered["solution"][key] = value
        assert _verdict(op, code, tampered, spec) == check.FAILED


def test_checker_catches_a_tampered_verdict(tmp_path):
    op = _cheapest("egal-grid", "verify")
    code, report, spec = _run(op, tmp_path)
    assert _verdict(op, code, report, spec) == check.OK
    report["verification"][0]["pass"] = not report["verification"][0]["pass"]
    assert _verdict(op, code, report, spec) == check.FAILED


def test_checker_catches_a_wrong_sda_endpoint(tmp_path):
    op = _cheapest("egal-grid", "egal-sda", "mixed")
    code, report, spec = _run(op, tmp_path)
    assert _verdict(op, code, report, spec) == check.OK
    vector = report["fairness"]["vector"]
    users = sorted(vector, key=int)
    # move one grid step between two users: same sum, higher objective
    K = REFERENCE["ops"][op.key]["answer"]["K"]
    big, small = max(users, key=lambda u: Fraction(vector[u])), min(users, key=lambda u: Fraction(vector[u]))
    vector[big] = str(Fraction(vector[big]) + Fraction(1, K))
    vector[small] = str(Fraction(vector[small]) - Fraction(1, K))
    assert _verdict(op, code, report, spec) == check.FAILED


def test_checker_catches_a_drifted_frank_wolfe_vector(tmp_path):
    op = _cheapest("shapley-core", "egal-continuous")
    code, report, spec = _run(op, tmp_path)
    assert _verdict(op, code, report, spec) == check.OK
    user = next(iter(report["fairness"]["vector"]))
    report["fairness"]["vector"][user] += 1e-7
    assert _verdict(op, code, report, spec) == check.OK
    report["fairness"]["vector"][user] += 1e-5
    assert _verdict(op, code, report, spec) == check.FAILED


def test_pmf_sda_fails_as_at_the_reference_commit(tmp_path):
    op = next(o for o in corpus.pool_ops("egal-grid") if o.family.startswith("pmf"))
    code, report, spec = _run(op, tmp_path)
    assert _verdict(op, code, report, spec) == check.EXPECTED_FAILURE
    assert "off the 1/" in report["error"]["message"]
    report["error"]["message"] = "something else"
    assert _verdict(op, code, report, spec) == check.EXPECTED_FAILURE
    assert _verdict(op, 0, report, spec) == check.FAILED


def test_self_time_subtracts_direct_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    assert tracing.self_times(parent, start, end).tolist() == [4.0, 2.0, 3.0, 1.0]


def _traced_counts(ops, tmp_path) -> dict:
    spec_dir = tmp_path / "specs"
    corpus.write_specs(ops, spec_dir)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        out = run.run_pass(cli, ops, spec_dir, REFERENCE, tracer)
    assert all(status != check.FAILED for _, status, _ in out["verdicts"])
    metrics = tracing.summarize(tracer)
    return {k: v for k, v in metrics.items() if tracing.LAYER_UNITS[k] == "count"}


def test_traced_counts_repeat_exactly(tmp_path):
    ops = [_cheapest(workload, kind)
           for workload in corpus.WORKLOADS
           for kind in sorted({op.kind for op in corpus.pool_ops(workload)})]
    first = _traced_counts(ops, tmp_path / "one")
    second = _traced_counts(ops, tmp_path / "two")
    assert first == second
    assert first["cli.ops"] == len(ops)
    assert first["egalitarian.dep_calls"] > 0 and first["omniscience.hat_calls"] > 0
    # the wrappers are gone after the block
    from omnifair import egalitarian, setfn
    assert not hasattr(egalitarian.dep, "__wrapped__")
    assert not hasattr(setfn.SetFunction.__call__, "__wrapped__")


@pytest.mark.parametrize("ops", [11, 24, 26, 41])
def test_tail_mean_covers_the_percentile_and_ten_beyond(ops):
    values = list(range(ops))[::-1]
    tail = run.tail_mean(values, run.tail_percentile(ops))
    assert tail == sum(range(ops - run.TAIL_BEYOND - 1, ops)) / (run.TAIL_BEYOND + 1)
