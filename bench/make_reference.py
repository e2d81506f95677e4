"""Regenerate ``reference.json``: the answer to every operation any seed of
any workload can produce, plus each operation's time (the least of
``REPEATS`` runs), which ranks the pool members into cost strata (see
``corpus.workload_ops``).

Run it from the root of a checkout of the commit whose answers are the
reference, with this directory copied in::

    python3 bench/make_reference.py --commit <sha>
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run  # sets up the import paths of the benchmark and of omnifair

REPEATS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="commit the answers come from")
    args = parser.parse_args()
    os.environ.pop("OMNIFAIR_THREADS", None)
    sys.path.insert(0, str(run.SRC))
    import omnifair.cli as cli

    run_dir = run.WORK / "reference"
    spec_dir = run_dir / "specs"
    ops = {}
    for workload in run.corpus.WORKLOADS:
        for op in run.corpus.pool_ops(workload):
            ops[op.key] = op
    run.corpus.write_specs(list(ops.values()), spec_dir)
    entries = {}
    for key, op in sorted(ops.items()):
        runs = [run.run_op(cli, op, spec_dir, run_dir / "report.json") for _ in range(REPEATS)]
        answers = [(code, run.check.answer_of(op.kind, report)) for _, code, report in runs]
        if any(answer != answers[0] for answer in answers):
            raise SystemExit(f"{key}: the answer changed between repeats")
        seconds = min(seconds for seconds, _, _ in runs)
        entries[key] = {
            "spec_sha256": run.check.spec_digest((spec_dir / op.spec_name).read_bytes()),
            "exit": answers[0][0],
            "answer": answers[0][1],
            "seconds": round(seconds, 4),
        }
        print(f"{key} exit={answers[0][0]} {seconds:.3f}s", flush=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    out = {"commit": args.commit, "ops": entries}
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
