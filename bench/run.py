"""Benchmark of the omnifair command line: time to solution per CLI call.

Usage, from the root of a checkout::

    python3 bench/run.py --workload egal-grid --seed 1 --seconds 60 --trace 0

One run is one process and one workload.  It builds the workload's corpus
from ``--seed``, then runs its operation list as a closed loop: one
``omnifair.cli.main([...])`` call at a time, in this process, on one thread,
with ``OMNIFAIR_THREADS`` removed from the environment (the package's
sequential default).  Each call loads its spec file again, so every cache
starts cold, as it does for a user of the CLI.  Every report is checked
against the stored reference answer after its call, outside the timed span.

``--trace 0`` repeats the operation list until ``--seconds`` have passed (at
least ``MIN_PASSES`` times), each pass in a fresh order drawn from the seed,
and reports the end-to-end metrics.  An operation's time is its mean over
the passes; ``wall_s`` is their sum (one pass over the whole list),
``op_p50_s`` their median and ``op_tail_s`` the mean of the operations at or
beyond the highest percentile with ``TAIL_BEYOND`` operations beyond it.
The machine is shared: its speed drifts by up to 25% either way over tens of
seconds, as other tenants come and go.  The mean over the whole run averages
that drift; the median or the fastest of the passes spread more from run to
run.  The passes also alternate between the CPUs (see :func:`pinned`).  The
mean beyond the tail percentile, rather than the single operation at it,
because the operation times cluster by command and the order statistic jumps
across the gaps between clusters from seed to seed.

``--trace 1`` runs the list once untraced and once with spans and counters
around each layer (see ``tracing.py``) and reports the per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations whose
answer fails the check; operations that fail exactly as they did at the
reference commit (pmf ``sda``) are expected failures, printed on the
``failed_ops`` line but not counted.  A full record of the run, with its
environment, is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: The untraced loop runs the operation list at least this many times.
MIN_PASSES = 4

#: CPUs this process may run on.  Set-up repeats and passes are pinned to
#: each in turn (see :func:`pinned`).
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

#: Set-up (fresh import plus corpus generation) is repeated this many times
#: and its median reported.
SETUP_REPEATS = 5

#: op_tail_s is the mean operation time at and beyond the highest
#: nearest-rank percentile with at least this many operations beyond it.
TAIL_BEYOND = 10

sys.path.insert(0, str(BENCH_DIR))
import check  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import omnifair.cli\n"
    "print(time.perf_counter() - start)\n"
)


def tail_percentile(ops: int) -> float:
    """Highest percentile with at least TAIL_BEYOND of ``ops`` beyond it."""
    return 100.0 * max(ops - TAIL_BEYOND, 1) / ops


def tail_mean(values: list[float], percentile: float) -> float:
    """Mean of the values at and beyond the nearest-rank ``percentile``."""
    ordered = sorted(values)
    rank = max(math.ceil(round(percentile / 100.0 * len(ordered), 9)), 1)
    return statistics.mean(ordered[rank - 1:])


@contextlib.contextmanager
def pinned(turn: int):
    """Pin this process to one of its CPUs, the ``turn``-th round-robin.

    On a shared host one CPU can stay slower than another for a while, when
    another tenant keeps its sibling busy, and the scheduler keeps a process
    on whichever CPU it started on; measuring on each CPU in turn keeps that
    draw out of the result.
    """
    if len(CPUS) < 2:
        yield None
        return
    cpu = CPUS[turn % len(CPUS)]
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, CPUS)


def import_seconds() -> float:
    """Time to import omnifair in a fresh interpreter, measured inside it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def build_corpus(workload: str, seed: int, cost: dict, spec_dir: Path) -> tuple[list, float]:
    """Generate the operation list and write its spec files; returns the ops
    and the seconds spent."""
    shutil.rmtree(spec_dir, ignore_errors=True)
    started = perf_counter()
    ops = corpus.workload_ops(workload, seed, cost)
    corpus.write_specs(ops, spec_dir)
    return ops, perf_counter() - started


def run_op(cli, op, spec_dir: Path, out_path: Path):
    """One CLI call; returns (seconds, exit code, report or None)."""
    out_path.unlink(missing_ok=True)
    argv = [*op.argv, "--input", str(spec_dir / op.spec_name), "--output", str(out_path)]
    stderr = io.StringIO()
    started = perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - started
    try:
        report = json.loads(out_path.read_text())
    except (OSError, json.JSONDecodeError):
        report = None
    return seconds, code, report


def run_pass(cli, ops, spec_dir: Path, reference: dict, tracer=None, order=None) -> dict:
    """Run every operation once, in ``order`` (indices into ``ops``, the list
    order by default), and check its answer.  Times and verdicts are
    returned in list order."""
    out_path = spec_dir.parent / "report.json"
    times, verdicts, report_bytes = [None] * len(ops), [None] * len(ops), 0
    for idx in order or range(len(ops)):
        op = ops[idx]
        if tracer is not None:
            tracer.op_id = idx
        seconds, code, report = run_op(cli, op, spec_dir, out_path)
        times[idx] = seconds
        if out_path.exists():
            report_bytes += out_path.stat().st_size
        status, reason = check.check(op.kind, code, report, reference["ops"][op.key],
                                     spec_dir / op.spec_name)
        verdicts[idx] = (op.key, status, reason)
    return {"times": times, "verdicts": verdicts, "report_bytes": report_bytes}


def environment(threads_env: str | None) -> dict:
    import numpy

    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "omnifair_threads_removed": True,
        "omnifair_threads_was": threads_env,
        "process_per_workload_run": True,
        "pid": os.getpid(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "omnifair" / "cli.py").is_file():
        print(f"error: no omnifair sources under {SRC}", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("OMNIFAIR_THREADS", None)
    sys.path.insert(0, str(SRC))
    import omnifair.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: omnifair imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    reference = check.load_reference(BENCH_DIR / "reference.json")
    cost = {key: entry["seconds"] for key, entry in reference["ops"].items()}
    run_dir = WORK / f"run-{os.getpid()}"
    spec_dir = run_dir / "specs"
    try:
        setup = []
        for turn in range(SETUP_REPEATS):
            with pinned(turn):
                ops, corpus_s = build_corpus(args.workload, args.seed, cost, spec_dir)
                setup.append(import_seconds() + corpus_s)
        if args.trace:
            summary = traced_run(cli, ops, spec_dir, reference, args)
        else:
            summary = untraced_run(cli, ops, spec_dir, reference, args.seconds, args.seed)
            summary["metrics"]["setup_s"] = statistics.median(setup)
            summary["metrics"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return report(args, ops, summary, environment(threads_env))


def untraced_run(cli, ops, spec_dir, reference, seconds: float, seed: int) -> dict:
    shuffler = random.Random(f"order:{seed}")
    passes = []
    started = perf_counter()
    # stop after a whole round over the CPUs (or MIN_PASSES of them)
    group = min(max(len(CPUS), 1), MIN_PASSES)
    while True:
        order = shuffler.sample(range(len(ops)), len(ops))
        with pinned(len(passes)) as cpu:
            passes.append(run_pass(cli, ops, spec_dir, reference, order=order))
        passes[-1]["cpu"] = cpu
        elapsed, done = perf_counter() - started, len(passes)
        if done >= MIN_PASSES and done % group == 0 and elapsed * (done + group) / done > seconds:
            break
    per_op = [statistics.mean(p["times"][i] for p in passes) for i in range(len(ops))]
    metrics = {
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail_mean(per_op, tail_percentile(len(ops))),
    }
    return {"metrics": metrics, "passes": passes}


def traced_run(cli, ops, spec_dir, reference, args) -> dict:
    plain = run_pass(cli, ops, spec_dir, reference)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        traced = run_pass(cli, ops, spec_dir, reference, tracer)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer.write(results / f"{args.workload}-seed{args.seed}-spans.npz")
    metrics = tracing.summarize(tracer)
    metrics["cli.report_bytes"] = traced["report_bytes"]
    metrics["trace.overhead_ratio"] = sum(traced["times"]) / sum(plain["times"])
    return {"metrics": metrics, "passes": [plain, traced]}


def report(args, ops, summary: dict, env: dict) -> int:
    """Write the run's record and print every metric; the last line is the
    JSON result."""
    verdicts = [v for p in summary["passes"] for v in p["verdicts"]]
    failed = [v for v in verdicts if v[1] == check.FAILED]
    expected = [v for v in verdicts if v[1] == check.EXPECTED_FAILURE]
    units = tracing.LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": summary["metrics"][name], "unit": unit}
               for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "ops_per_pass": len(ops), "passes": len(summary["passes"]),
        "pass_cpus": [p.get("cpu") for p in summary["passes"]],
        "op_tail_percentile": tail_percentile(len(ops)),
        "metrics": metrics,
        "ops": [{"key": op.key, "seconds": [p["times"][i] for p in summary["passes"]],
                 "verdicts": [p["verdicts"][i][1:] for p in summary["passes"]]}
                for i, op in enumerate(ops)],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(summary['passes'])} passes, op_tail_s = p{tail_percentile(len(ops)):.1f} "
          f"of {len(ops)} ops")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, status, reason in failed:
        print(f"FAILED {key}: {reason}")
    print(f"failed_ops {len(failed) + len(expected)} of {len(verdicts)} "
          f"({len(expected)} expected from the reference commit"
          + (f": {expected[0][2]}" if expected else "") + f"; {len(failed)} unexpected)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(verdicts),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
