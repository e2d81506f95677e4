"""Command-line front end.

Ingests JSON source specs, runs the solve / fairness / verification
pipelines, and emits machine-readable JSON reports.  Exact rationals are
serialized losslessly as "p/q" strings; reports are byte-stable across runs
for a fixed config (seed included) apart from the timing block.

A flag that the chosen mode never reads is a flag error, not ignored.
Exit codes: 0 success, 2 parse or flag error, 3 verification failure,
4 numerical non-convergence, 5 instance too large for an exhaustive routine,
6 internal invariant violated.  Codes 4-6, and code 2 once the flags have
parsed, write a JSON error record in place of the report.  A file that cannot
be read or written is a code-2 error; if it is the report's, stderr says so.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .egalitarian import (
    ConvergenceError,
    SplitError,
    egalitarian_continuous,
    egalitarian_decomposed,
    packet_split_plan,
    sda,
)
from .omniscience import (
    DecompositionError,
    GameContext,
    RateVector,
    _SlackTable,
    check_decomposition,
    core_membership,
    min_sum_rate,
)
from .setfn import GroundSetTooLarge, int_array, is_submodular
from .shapley import shapley_approx, shapley_decomposed, shapley_exact
from .sources import SourceSpecError, _parse_user_keys, _unique_keys, load_source

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_NONCONVERGENCE = 4
EXIT_TOO_LARGE = 5
EXIT_INTERNAL = 6

#: Submodularity verification enumerates subset pairs; skip beyond this size.
VERIFY_SUBMODULAR_LIMIT = 12

#: The separability check reads a 2^|V| raw-cost table; skip beyond this size.
VERIFY_DECOMPOSITION_LIMIT = 10


class ConfigError(ValueError):
    """A flag combination or inline value is invalid."""


#: The :class:`RunConfig` fields given as user -> rational maps.
USER_MAPS = ("weights", "rates")

#: (command, mode) -> the flags that mode never reads; giving one is a flag
#: error rather than a silently ignored, echoed value.
UNREAD_FLAGS = {
    ("shapley", "exact"): ("seed", "permutations"),
    ("egalitarian", "decomposed"): ("trace", "trace_csv"),
    ("egalitarian", "continuous"): ("K", "rates", "trace", "trace_csv"),
}


class RunConfig(NamedTuple):
    """Echoed verbatim (minus derived fields) into every report."""

    command: str
    input: str | None = None
    output: str | None = None
    mode: str | None = None
    K: int | None = None
    seed: int | None = None
    permutations: int | None = None
    weights: dict | None = None
    trace: bool = False
    trace_csv: str | None = None
    rates: dict | None = None

    def echo(self) -> dict:
        out = self._asdict()
        for name in USER_MAPS:
            if out[name] is not None:
                out[name] = emit_user_map(out[name])
        return out


def emit_value(value):
    """Rationals as 'p/q' strings, floats as JSON numbers."""
    if isinstance(value, (Fraction, int)):
        return str(value)
    return float(value)


def parse_rational(raw) -> Fraction:
    if isinstance(raw, bool):
        raise ConfigError(f"not a rational: {raw!r}")
    if isinstance(raw, (int, float, str)):
        try:
            return Fraction(raw)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ConfigError(f"not a rational: {raw!r}") from exc
    raise ConfigError(f"not a rational: {raw!r}")


def emit_rates(r: RateVector) -> dict:
    return {str(u): emit_value(r[u]) for u in r.users}


def emit_user_map(values: dict) -> dict:
    return {str(u): emit_value(v) for u, v in sorted(values.items())}


def _parse_user_map(raw: str, what: str) -> dict[int, Fraction]:
    """Parse an inline JSON object (or @file reference) of user -> rational,
    its keys checked as a source spec's users are."""
    text = raw
    if raw.startswith("@"):
        try:
            text = Path(raw[1:]).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {what} file {raw[1:]}: {getattr(exc, 'strerror', exc)}") from exc
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
        if not isinstance(obj, dict):
            raise ConfigError(f"{what} must be a JSON object of user -> value")
        users = _parse_user_keys(obj)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid {what} JSON: {exc}") from exc
    except SourceSpecError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    return {user: parse_rational(value) for user, value in users.items()}


@functools.cache  # parsing does not change it, and one built per call is cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omnifair",
        description="Minimum sum-rate and fair rate allocation for communication for omniscience")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="JSON source spec path")
        p.add_argument("--output", help="report path (default: stdout)")

    p_solve = sub.add_parser("solve", help="minimum sum-rate, fundamental partition, one core vertex")
    add_common(p_solve)

    p_shap = sub.add_parser("shapley", help="Shapley-value rate allocation")
    add_common(p_shap)
    p_shap.add_argument("--mode", choices=["exact", "approx", "decomposed"], default="exact")
    p_shap.add_argument("--seed", type=int)
    p_shap.add_argument("--permutations", type=int, help="sample size for approx modes")

    p_eg = sub.add_parser("egalitarian", help="(fractional) egalitarian rate allocation")
    add_common(p_eg)
    p_eg.add_argument("--mode", choices=["sda", "continuous", "decomposed"], default="sda")
    p_eg.add_argument("--K", type=int, help="grid denominator (default: |P*| - 1)")
    p_eg.add_argument("--weights", help="JSON object user -> positive weight, or @file")
    p_eg.add_argument("--trace", action="store_true", help="embed the iterate trace in the report")
    p_eg.add_argument("--trace-csv", help="write iteration,l1_error,objective CSV here")
    p_eg.add_argument("--rates", help="initial point as JSON object user -> rational, or @file")

    p_ver = sub.add_parser("verify", help="submodularity, decomposition, and core-membership checks")
    add_common(p_ver)
    p_ver.add_argument("--rates", help="rate vector to test, JSON object or @file")

    p_split = sub.add_parser("split-plan", help="integer chunk rates for a fractional rate vector")
    p_split.add_argument("--output", help="report path (default: stdout)")
    p_split.add_argument("--rates", required=True, help="rate vector, JSON object or @file")
    p_split.add_argument("--K", type=int, help="chunk count (default: minimal valid)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {name: getattr(args, name) for name in RunConfig._fields if hasattr(args, name)}
    for name in USER_MAPS:
        raw = values.get(name)
        values[name] = _parse_user_map(raw, name) if raw else None
    return RunConfig(**values)


def _refuse_unread_flags(cfg: RunConfig) -> None:
    unread = UNREAD_FLAGS.get((cfg.command, cfg.mode), ())
    if (cfg.command, cfg.mode) == ("shapley", "decomposed") and cfg.seed is None:
        unread = ("permutations",)  # only sampling reads it, and sampling needs --seed
    # by identity: --K 0 is given, though 0 == False
    given = [name for name in unread if all(getattr(cfg, name) is not v for v in (None, False))]
    if given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise ConfigError(f"{cfg.command} --mode {cfg.mode} does not read {flags}")


def _rate_vector_from(cfg_rates: dict, users: tuple[int, ...], what: str) -> RateVector:
    missing = set(users) - set(cfg_rates)
    unknown = set(cfg_rates) - set(users)
    if missing or unknown:
        raise ConfigError(
            f"{what} must cover exactly the users {list(users)}; "
            f"missing {sorted(missing)}, unknown {sorted(unknown)}")
    return RateVector(cfg_rates)


def _solution_record(ctx: GameContext) -> dict:
    return {
        "R_CO": emit_value(ctx.min_sum_rate),
        "fundamental_partition": ctx.fundamental_partition.to_lists(),
        "I": emit_value(ctx.shared_randomness),
        "vertex": emit_rates(ctx.vertex),
    }


def _run_shapley(cfg: RunConfig, ctx: GameContext) -> dict:
    mode = cfg.mode or "exact"
    if mode == "exact":
        vector = shapley_exact(ctx)
    elif mode == "approx":
        if cfg.seed is None:
            raise ConfigError("shapley --mode approx needs --seed")
        vector = shapley_approx(ctx, count=cfg.permutations, seed=cfg.seed)
    else:
        if cfg.seed is None:
            vector = shapley_decomposed(ctx, mode="exact")
        else:
            vector = shapley_decomposed(ctx, mode="approx", count=cfg.permutations, seed=cfg.seed)
    return {
        "method": "shapley",
        "mode": mode,
        "seed": cfg.seed,
        "permutations": cfg.permutations,
        "vector": emit_rates(vector),
    }


def _run_egalitarian(cfg: RunConfig, ctx: GameContext) -> dict:
    mode = cfg.mode or "sda"
    weights = cfg.weights
    record: dict = {"method": "egalitarian", "mode": mode, "K": cfg.K, "iterations": None,
                    "weights": None if weights is None else emit_user_map(weights)}
    trace = None
    r0 = _rate_vector_from(cfg.rates, ctx.users, "--rates") if cfg.rates else None
    try:
        if mode == "continuous":
            optimum = egalitarian_continuous(ctx, weights)
            # reported as floats: the bench checker compares these vectors
            # within a tolerance, and "p/q" strings exactly
            vector = RateVector({u: float(optimum[u]) for u in optimum.users})
        elif mode == "decomposed":
            vector = egalitarian_decomposed(ctx, weights=weights, K=cfg.K, r0=r0)
        else:
            vector, trace = sda(ctx, r0=r0, K=cfg.K, weights=weights)
    except GroundSetTooLarge:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if trace is not None:
        record["iterations"] = trace.iterations
        record["warnings"] = trace.warnings
        if trace.locally_optimal is not None:
            record["locally_optimal"] = trace.locally_optimal
            record["left_core"] = trace.left_core
        if cfg.trace:
            record["trace"] = {
                "iterates": [emit_rates(it) for it in trace.iterates],
                "pairs": [list(pair) for pair in trace.pairs],
                "objectives": [emit_value(v) for v in trace.objectives],
            }
        if cfg.trace_csv:
            _write_trace_csv(Path(cfg.trace_csv), trace, vector)
    record["vector"] = emit_rates(vector)
    return record


def _write_trace_csv(path: Path, trace, endpoint: RateVector) -> None:
    lines = ["iteration,l1_error,objective"]
    for n, (iterate, obj) in enumerate(zip(trace.iterates, trace.objectives)):
        lines.append(f"{n},{float(iterate.l1_distance(endpoint))},{float(obj)}")
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --trace-csv {path}: {exc.strerror}") from exc


def _run_verify(cfg: RunConfig, ctx: GameContext) -> list[dict]:
    import numpy as np
    verdicts = []
    source = ctx.source
    if len(source.users) <= VERIFY_SUBMODULAR_LIMIT:
        h = [0] + [source.raw_entropy(m) for m in range(1, 1 << len(source.users))]
        ok, witness = is_submodular(int_array(h) if source.is_exact else np.array(h), tol=source.tol)
        if not ok:
            X, Y = (sorted(source.members(m)) for m in witness)
            witness = f"f({X}) + f({Y}) violates submodularity"
        verdicts.append({"check": "entropy_submodular", "pass": ok, "witness": witness})
    else:
        verdicts.append({"check": "entropy_submodular", "pass": True,
                         "witness": f"skipped: more than {VERIFY_SUBMODULAR_LIMIT} users"})
    if len(source.users) <= VERIFY_DECOMPOSITION_LIMIT:
        try:
            check_decomposition(ctx)
            verdicts.append({"check": "fundamental_decomposition", "pass": True, "witness": None})
        except DecompositionError as exc:
            verdicts.append({"check": "fundamental_decomposition", "pass": False, "witness": str(exc)})
    else:
        verdicts.append({"check": "fundamental_decomposition", "pass": True,
                         "witness": f"skipped: more than {VERIFY_DECOMPOSITION_LIMIT} users"})
    table = _SlackTable(ctx)
    ok, witness = core_membership(ctx, ctx.vertex, table)
    verdicts.append({"check": "solver_vertex_in_core", "pass": ok, "witness": witness})
    if cfg.rates is not None:
        r = _rate_vector_from(cfg.rates, ctx.users, "--rates")
        ok, witness = core_membership(ctx, r, table)
        verdicts.append({"check": "rate_vector_in_core", "pass": ok, "witness": witness})
    return verdicts


def run(cfg: RunConfig) -> tuple[dict, int]:
    """Execute one command; returns (report, exit_status)."""
    started = time.perf_counter()
    _refuse_unread_flags(cfg)
    report: dict = {"config": cfg.echo()}
    status = EXIT_OK

    if cfg.command == "split-plan":
        rates = RateVector(cfg.rates)
        plan = packet_split_plan(rates, K=cfg.K)
        report["split_plan"] = {
            "chunks_per_packet": plan.chunks_per_packet,
            "chunk_rates": {str(u): n for u, n in sorted(plan.chunk_rates.items())},
        }
    else:
        source = load_source(cfg.input)
        solve_started = time.perf_counter()
        ctx = min_sum_rate(source)
        solve_seconds = time.perf_counter() - solve_started
        report["solution"] = _solution_record(ctx)
        if cfg.command == "shapley":
            report["fairness"] = _run_shapley(cfg, ctx)
        elif cfg.command == "egalitarian":
            report["fairness"] = _run_egalitarian(cfg, ctx)
        elif cfg.command == "verify":
            verdicts = _run_verify(cfg, ctx)
            report["verification"] = verdicts
            if not all(v["pass"] for v in verdicts):
                status = EXIT_VERIFY
        report.setdefault("timings", {})["solve_s"] = solve_seconds

    report.setdefault("timings", {})["total_s"] = time.perf_counter() - started
    return report, status


def _emit(report: dict, output: str | None, status: int) -> int:
    """Write ``report`` to ``output`` (stdout if None) and return ``status``,
    or exit 2 with only an ``error:`` line if ``output`` cannot be written."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if not output:
        sys.stdout.write(text)
        return status
    try:
        Path(output).write_text(text)
    except OSError as exc:
        print(f"error: cannot write --output {output}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    return status


def _fail(head: dict, exc: Exception, output: str | None, status: int, **details) -> int:
    """Emit the JSON error record for ``exc`` and return ``status``."""
    error = {"type": type(exc).__name__, "message": str(exc), **details}
    status = _emit({**head, "error": error}, output, status)
    print(f"error: {exc}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ConfigError as exc:
        return _fail({}, exc, getattr(args, "output", None), EXIT_PARSE)
    head = {"config": cfg.echo()}
    try:
        report, status = run(cfg)
    except GroundSetTooLarge as exc:
        return _fail(head, exc, cfg.output, EXIT_TOO_LARGE)
    except SplitError as exc:
        return _fail(head, exc, cfg.output, EXIT_PARSE,
                     offending_users=exc.offenders, minimal_valid_K=exc.minimal_chunks)
    except (SourceSpecError, ConfigError, ValueError) as exc:
        return _fail(head, exc, cfg.output, EXIT_PARSE)
    except ConvergenceError as exc:
        return _fail(head, exc, cfg.output, EXIT_NONCONVERGENCE)
    except ArithmeticError as exc:
        return _fail(head, exc, cfg.output, EXIT_INTERNAL)
    return _emit(report, cfg.output, status)


if __name__ == "__main__":
    raise SystemExit(main())
