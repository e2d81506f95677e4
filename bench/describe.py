"""Write ``workloads.json``: what each workload runs and what its corpus
looks like at the primary seed (op count, op_tail_s percentile, user-count
and fundamental-partition histograms, expected failures, and the
``sources.lattice_share`` of the traced run when one has been made)::

    python3 bench/run.py --workload <name> --seed 1 --seconds 60 --trace 1
    python3 bench/describe.py
"""

from __future__ import annotations

import json
from collections import Counter

import run  # sets up the import paths of the benchmark

corpus, check = run.corpus, run.check


def describe(workload: str, reference: dict, cost: dict) -> dict:
    ops = corpus.workload_ops(workload, corpus.PRIMARY_SEED, cost)
    answers = [reference["ops"][op.key] for op in ops]
    users = Counter(int(op.family.rsplit("-", 1)[1]) for op in ops)
    blocks = Counter(len(a["answer"]["fundamental_partition"])
                     for a in answers if "fundamental_partition" in a["answer"])
    failures = Counter(a["answer"]["error"]["message"].split(" are ")[-1]
                       for a in answers if "error" in a["answer"])
    traced = run.WORK / "results" / f"{workload}-seed{corpus.PRIMARY_SEED}-trace1.json"
    share = None
    if traced.exists():
        share = json.loads(traced.read_text())["metrics"]["sources.lattice_share"]["value"]
    return {
        "ops_per_pass": len(ops),
        "op_tail_percentile": round(run.tail_percentile(len(ops)), 2),
        "commands": dict(sorted(Counter(op.kind for op in ops).items())),
        "families": [f"{s.family} {'+'.join(s.kinds)}: {s.count} of {s.pool}"
                     for s in corpus.WORKLOADS[workload]],
        "ops_by_users": {str(n): c for n, c in sorted(users.items())},
        "ops_by_partition_blocks": {str(n): c for n, c in sorted(blocks.items())},
        "sources.lattice_share": share,
        "expected_failures": {
            "count": sum(failures.values()),
            "cause": [f"pmf sda: initial rates {msg} (ROADMAP open item 4)" for msg in sorted(failures)],
        },
    }


def main() -> int:
    reference = check.load_reference(run.BENCH_DIR / "reference.json")
    cost = {key: entry["seconds"] for key, entry in reference["ops"].items()}
    out = {
        "primary_seed": corpus.PRIMARY_SEED,
        "held_out_seed": corpus.HELD_OUT_SEED,
        "reference_commit": reference["commit"],
        "workloads": {w: describe(w, reference, cost) for w in corpus.WORKLOADS},
    }
    (run.BENCH_DIR / "workloads.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
