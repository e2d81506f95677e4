import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnifair import RateVector, egalitarian_decomposed, load_source, min_sum_rate
from omnifair.cli import (
    RunConfig,
    _run_verify,
    EXIT_INTERNAL,
    EXIT_NONCONVERGENCE,
    EXIT_PARSE,
    EXIT_TOO_LARGE,
    EXIT_VERIFY,
    VERIFY_DECOMPOSITION_LIMIT,
    emit_rates,
    emit_value,
    main,
    parse_rational,
)

from conftest import (DEMO_HOLDINGS, DEMO_PACKETS, LINEAR_SPEC_IDS, LINEAR_SPECS_MISREAD,
                      PMF_SPEC_IDS, PMF_SPECS_READ_SILENTLY, every_key, linear_spec, pmf_from_packets,
                      spy_cost)


@pytest.fixture()
def spec_path(tmp_path):
    spec = {
        "model": "linear",
        "field": 2,
        "packets": list(DEMO_PACKETS),
        "users": {str(u): list(p) for u, p in DEMO_HOLDINGS.items()},
    }
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, json.loads(out) if out else None


def test_solve_report(capsys, spec_path):
    status, report = run_cli(capsys, "solve", "--input", spec_path)
    assert status == 0
    assert report["solution"]["R_CO"] == "13/2"
    assert report["solution"]["fundamental_partition"] == [[1, 4, 5], [2], [3]]
    assert report["solution"]["I"] == "7/2"
    assert report["config"]["command"] == "solve"
    assert "timings" in report


def test_shapley_exact_vector(capsys, spec_path):
    status, report = run_cli(capsys, "shapley", "--input", spec_path, "--mode", "exact")
    assert status == 0
    assert report["fairness"]["vector"] == {
        "1": "5/4", "2": "1/2", "3": "1/2", "4": "3", "5": "5/4"}


#: users 1-5 share two packets and user 6 holds a third
SIX_USERS = {
    "model": "linear",
    "field": 2,
    "packets": ["a", "b", "c"],
    "users": {**{str(u): ["a", "b"] for u in range(1, 6)}, "6": ["c"]},
}

README_RATES = '{"1":"1","2":"1/2","3":"1/2","4":"9/2","5":"0"}'


def test_egalitarian_decomposed_starts_at_rates(capsys, spec_path):
    status, report = run_cli(capsys, "egalitarian", "--input", spec_path, "--mode", "decomposed",
                             "--K", "2", "--rates", README_RATES)
    assert status == 0
    ctx = min_sum_rate(load_source(spec_path))
    r0 = RateVector({int(u): parse_rational(v) for u, v in json.loads(README_RATES).items()})
    assert report["fairness"]["vector"] == emit_rates(egalitarian_decomposed(ctx, K=2, r0=r0))


@pytest.mark.parametrize("mode", ["sda", "decomposed"])
def test_egalitarian_rates_outside_core(capsys, spec_path, mode):
    status, report = run_cli(capsys, "egalitarian", "--input", spec_path, "--mode", mode,
                             "--rates", '{"1":0,"2":0,"3":0,"4":0,"5":0}')
    assert status == EXIT_PARSE
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["message"].startswith("initial point is outside the core: sum rate 0 != ")


@pytest.mark.parametrize(("argv", "flags"), [
    (["egalitarian", "--mode", "continuous", "--K", "7"], "--K"),
    (["egalitarian", "--mode", "continuous", "--rates", README_RATES, "--K", "2"], "--K, --rates"),
    (["egalitarian", "--mode", "continuous", "--trace"], "--trace"),
    (["egalitarian", "--mode", "continuous", "--trace-csv", "curve.csv"], "--trace-csv"),
    (["egalitarian", "--mode", "decomposed", "--trace"], "--trace"),
    (["egalitarian", "--mode", "decomposed", "--trace-csv", "curve.csv"], "--trace-csv"),
    (["shapley", "--mode", "exact", "--seed", "7"], "--seed"),
    (["shapley", "--mode", "exact", "--permutations", "10"], "--permutations"),
    (["shapley", "--mode", "decomposed", "--permutations", "3"], "--permutations"),
])
def test_flags_the_mode_never_reads_are_refused(capsys, spec_path, argv, flags):
    command, _, mode = argv[:3]
    status, report = run_cli(capsys, command, "--input", spec_path, *argv[1:])
    assert status == EXIT_PARSE
    assert report["error"] == {"type": "ConfigError",
                               "message": f"{command} --mode {mode} does not read {flags}"}
    assert report["config"]["command"] == command and report["config"]["mode"] == mode
    assert "solution" not in report


@pytest.mark.parametrize(("argv", "message"), [
    (["--weights", '{"1":0}'], "weight for user 1 must be positive and finite, got 0"),
    (["--weights", '{"1":-2}'], "weight for user 1 must be positive and finite, got -2"),
    (["--weights", '{"1":NaN}'], "not a rational: nan"),
    (["--weights", '{"1":Infinity}'], "not a rational: inf"),
])
@pytest.mark.parametrize("mode", ["continuous", "sda", "decomposed"])
def test_egalitarian_bad_weights_and_tol_are_config_errors(capsys, spec_path, mode, argv, message):
    status, report = run_cli(capsys, "egalitarian", "--input", spec_path, "--mode", mode, *argv)
    assert status == EXIT_PARSE
    assert report["error"] == {"type": "ConfigError", "message": message}


def test_shapley_approx_needs_seed(capsys, spec_path):
    status, report = run_cli(capsys, "shapley", "--input", spec_path, "--mode", "approx")
    assert status == EXIT_PARSE
    assert "seed" in report["error"]["message"]


def test_egalitarian_sda_trace(capsys, spec_path, tmp_path):
    csv_path = tmp_path / "trace.csv"
    status, report = run_cli(
        capsys, "egalitarian", "--input", spec_path, "--mode", "sda", "--K", "2",
        "--rates", '{"1":"1","2":"1/2","3":"1/2","4":"9/2","5":"0"}',
        "--trace", "--trace-csv", str(csv_path))
    assert status == 0
    fairness = report["fairness"]
    assert fairness["vector"] == {"1": "3/2", "2": "1/2", "3": "1/2", "4": "2", "5": "2"}
    assert fairness["iterations"] == 5
    assert len(fairness["trace"]["iterates"]) == 6
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "iteration,l1_error,objective"
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert errors == [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]


def test_egalitarian_continuous(capsys, spec_path):
    # the exact optimum (3/2, 1/2, 1/2, 12/5, 8/5), reported as floats
    status, report = run_cli(
        capsys, "egalitarian", "--input", spec_path, "--mode", "continuous",
        "--weights", '{"1":6,"2":1,"3":1,"4":3,"5":2}')
    assert status == 0
    assert report["fairness"]["vector"] == {"1": 1.5, "2": 0.5, "3": 0.5, "4": 2.4, "5": 1.6}


def test_tol_is_not_a_flag(capsys, spec_path):
    with pytest.raises(SystemExit) as exit_:
        main(["egalitarian", "--input", spec_path, "--mode", "continuous", "--tol", "1e-6"])
    assert exit_.value.code == EXIT_PARSE
    assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err


def test_egalitarian_continuous_refuses_a_wide_truncation_step(capsys, tmp_path, monkeypatch):
    # blocks {1, ..., 5} and {6}: the solve's truncation steps hold at most
    # one block, and block {1, ..., 5}, above a limit of 4, still solves; its
    # split question leaves four users out as singleton blocks before the
    # fifth user's step, which a limit of 3 refuses
    from omnifair import setfn

    path = tmp_path / "six.json"
    path.write_text(json.dumps(SIX_USERS), encoding="utf-8")
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 4)
    status, report = run_cli(capsys, "egalitarian", "--input", str(path), "--mode", "continuous")
    assert status == 0
    assert report["fairness"]["vector"] == {"1": 0.4, "2": 0.4, "3": 0.4, "4": 0.4, "5": 0.4, "6": 1.0}
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 3)
    status, report = run_cli(capsys, "egalitarian", "--input", str(path), "--mode", "continuous")
    assert status == EXIT_TOO_LARGE
    assert report["error"] == {
        "type": "GroundSetTooLarge",
        "message": "ground set of size 4 exceeds the exhaustive limit 3"}
    assert report["config"]["mode"] == "continuous"
    assert "solution" not in report


@pytest.mark.parametrize("mode", ["approx", "decomposed"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_sampling_no_permutations_is_refused(capsys, spec_path, mode, count):
    # 0 is a sample size like any other, not a request for the default
    status, report = run_cli(capsys, "shapley", "--input", spec_path, "--mode", mode,
                             "--seed", "7", "--permutations", count)
    assert status == EXIT_PARSE
    assert report["error"] == {"type": "ValueError", "message": "need at least one permutation"}
    assert report["config"]["permutations"] == int(count)
    assert "fairness" not in report


def test_split_plan_refuses_input(capsys, tmp_path):
    # split-plan reads no source, so --input is not one of its flags
    with pytest.raises(SystemExit) as exit_:
        main(["split-plan", "--input", str(tmp_path / "missing.json"),
              "--rates", '{"1":"5/4","2":"1/2"}'])
    assert exit_.value.code == EXIT_PARSE
    assert "unrecognized arguments: --input" in capsys.readouterr().err


def test_verify_passes(capsys, spec_path):
    status, report = run_cli(
        capsys, "verify", "--input", spec_path,
        "--rates", '{"1":"1","2":"1/2","3":"1/2","4":"4","5":"1/2"}')
    assert status == 0
    checks = {v["check"]: v["pass"] for v in report["verification"]}
    assert checks == {
        "entropy_submodular": True,
        "fundamental_decomposition": True,
        "solver_vertex_in_core": True,
        "rate_vector_in_core": True,
    }


def test_verify_skips_decomposition_above_its_limit(capsys, tmp_path):
    rng = random.Random(13)
    packets = [f"p{k}" for k in range(16)]
    spec = {
        "model": "linear",
        "field": 2,
        "packets": packets,
        "users": {str(u): rng.sample(packets, rng.randint(1, 6)) for u in range(1, 14)},
    }
    path = tmp_path / "thirteen.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    started = time.perf_counter()
    status, report = run_cli(capsys, "verify", "--input", str(path))
    assert time.perf_counter() - started < 15
    assert status == 0
    verdict = {v["check"]: v for v in report["verification"]}["fundamental_decomposition"]
    assert verdict == {"check": "fundamental_decomposition", "pass": True,
                       "witness": f"skipped: more than {VERIFY_DECOMPOSITION_LIMIT} users"}


def test_verify_checks_submodularity_of_eleven_users_quickly(capsys, tmp_path):
    # verify checks all 4^11 subset pairs of the entropy; the time bound
    # holds only while one subset is tested against all others per array op
    rng = random.Random(11)
    packets = [f"p{k}" for k in range(22)]
    spec = {
        "model": "linear",
        "field": 2,
        "packets": packets,
        "users": {str(u): rng.sample(packets, rng.randint(1, 8)) for u in range(1, 12)},
    }
    path = tmp_path / "eleven.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    started = time.perf_counter()
    status, report = run_cli(capsys, "verify", "--input", str(path))
    assert time.perf_counter() - started < 15
    assert status == 0
    assert report["verification"] == [
        {"check": "entropy_submodular", "pass": True, "witness": None},
        {"check": "fundamental_decomposition", "pass": True,
         "witness": f"skipped: more than {VERIFY_DECOMPOSITION_LIMIT} users"},
        {"check": "solver_vertex_in_core", "pass": True, "witness": None},
    ]


def test_verify_fails_on_zero_vector(capsys, spec_path):
    status, report = run_cli(
        capsys, "verify", "--input", spec_path,
        "--rates", '{"1":"0","2":"0","3":"0","4":"0","5":"0"}')
    assert status == EXIT_VERIFY
    verdict = {v["check"]: v for v in report["verification"]}["rate_vector_in_core"]
    assert verdict["pass"] is False
    assert "sum rate" in verdict["witness"]


@pytest.mark.parametrize("kind", ["linear", "pmf"])
def test_verify_names_a_submodularity_violation(spec_path, kind, monkeypatch):
    # a real entropy is always submodular, so poke a supermodular H({1, 2})
    source = load_source(spec_path) if kind == "linear" else pmf_from_packets(
        {1: ["a"], 2: ["b"], 3: ["a", "b"]}, ["a", "b"])
    ctx = min_sum_rate(source)
    keys, h = source.keyed()
    poked = {keys[0] | keys[1]: h(keys[0]) + h(keys[1]) + 1}
    monkeypatch.setattr(source, "keyed", lambda: (keys, lambda k: poked.get(k, h(k))))
    entropy_check = _run_verify(RunConfig("verify"), ctx)[0]
    assert entropy_check == {"check": "entropy_submodular", "pass": False,
                             "witness": "f([1]) + f([2]) violates submodularity"}


@pytest.mark.parametrize("kind", ["packets", "pmf"])
def test_verify_reads_entropies_by_keys(spec_path, kind, monkeypatch):
    # the submodularity table comes off the source's keys, not one memoized
    # entropy call per mask
    source = load_source(spec_path) if kind == "packets" else pmf_from_packets(
        {1: ["a"], 2: ["b"], 3: ["a", "b"]}, ["a", "b"])
    ctx = min_sum_rate(source)
    ctx.vertex  # the solution record computes it before verify runs
    calls = []
    for name in ("raw_entropy", "_entropy"):
        read = getattr(source, name)
        monkeypatch.setattr(source, name, lambda mask, read=read: calls.append(mask) or read(mask))
    verdicts = _run_verify(RunConfig("verify"), ctx)
    assert all(v["pass"] for v in verdicts) and calls == []


def unreadable(tmp_path, kind: str) -> str:
    """A path that exists but cannot be read as text."""
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
def test_unreadable_input_is_a_spec_error(capsys, tmp_path, kind):
    path = unreadable(tmp_path, kind)
    status, report = run_cli(capsys, "solve", "--input", path)
    assert status == EXIT_PARSE
    assert report["error"]["type"] == "SourceSpecError"
    assert report["error"]["message"].startswith(f"cannot read source file {path}: ")


@pytest.mark.parametrize("kind", ["directory", "undecodable", "missing"])
def test_unreadable_rates_file_is_a_config_error(capsys, spec_path, tmp_path, kind):
    path = str(tmp_path / "missing.json") if kind == "missing" else unreadable(tmp_path, kind)
    status, report = run_cli(capsys, "verify", "--input", spec_path, "--rates", f"@{path}")
    assert status == EXIT_PARSE
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["message"].startswith(f"cannot read rates file {path}: ")


def test_unwritable_trace_csv_is_a_config_error(capsys, spec_path, tmp_path):
    csv = tmp_path / "missing" / "trace.csv"
    status, report = run_cli(capsys, "egalitarian", "--input", spec_path, "--trace-csv", str(csv))
    assert status == EXIT_PARSE
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["message"].startswith(f"cannot write --trace-csv {csv}")


@pytest.mark.parametrize("argv", [[], ["--rates", "{}"]])
def test_unwritable_output_exits_2_on_stderr(capsys, spec_path, tmp_path, argv):
    # a report and an error record alike have nowhere to go
    out = tmp_path / "missing" / "report.json"
    status = main(["verify", "--input", spec_path, "--output", str(out), *argv])
    captured = capsys.readouterr()
    assert status == EXIT_PARSE
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --output {out}: ")
    assert not out.parent.exists()


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    status, report = run_cli(capsys, "solve", "--input", str(bad))
    assert status == EXIT_PARSE
    assert report["error"]["type"] == "SourceSpecError"


def test_unknown_weight_user_is_parse_error(capsys, spec_path):
    status, report = run_cli(
        capsys, "egalitarian", "--input", spec_path, "--weights", '{"9":1}')
    assert status == EXIT_PARSE
    assert "unknown users" in report["error"]["message"]


def test_nonconvergence_exit_code(capsys, spec_path, monkeypatch):
    import omnifair.cli as cli_module
    from omnifair import ConvergenceError

    def explode(*args, **kwargs):
        raise ConvergenceError("stalled")

    monkeypatch.setattr(cli_module, "egalitarian_continuous", explode)
    status, report = run_cli(
        capsys, "egalitarian", "--input", spec_path, "--mode", "continuous")
    assert status == EXIT_NONCONVERGENCE
    assert report["error"]["type"] == "ConvergenceError"


def test_too_large_instance_exit_code(capsys, tmp_path):
    # 21 users sharing two packets plus one holding a third: the solve stays
    # cheap (the first 21 users merge into one block), exact Shapley refuses
    # that 21-user fundamental block
    spec = {
        "model": "linear",
        "field": 2,
        "packets": ["a", "b", "c"],
        "users": {**{str(u): ["a", "b"] for u in range(1, 22)}, "22": ["c"]},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    status, report = run_cli(capsys, "shapley", "--input", str(path), "--mode", "exact")
    assert status == EXIT_TOO_LARGE
    assert report["error"]["type"] == "GroundSetTooLarge"
    assert report["config"]["command"] == "shapley"


def test_exact_shapley_beyond_the_limit_in_small_blocks(capsys, tmp_path):
    # 24 users in three 8-user blocks, each block sharing two packets and its
    # first user holding a private one: exact Shapley tabulates each block
    packets, users = [], {}
    for b in range(3):
        shared, private = [f"s{b}", f"t{b}"], f"p{b}"
        packets += [*shared, private]
        users |= {str(8 * b + k): shared + [private] * (k == 1) for k in range(1, 9)}
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps({"model": "linear", "field": 2, "packets": packets, "users": users}),
                    encoding="utf-8")
    status, report = run_cli(capsys, "shapley", "--input", str(path), "--mode", "exact")
    assert status == 0
    assert report["solution"]["fundamental_partition"] == [
        list(range(8 * b + 1, 8 * b + 9)) for b in range(3)]
    assert report["fairness"]["vector"] == {
        str(u): "5/4" if u % 8 == 1 else "1/4" for u in range(1, 25)}


@pytest.mark.parametrize(("command", "free_users"), [("verify", 6), ("egalitarian", 5)])
def test_exhaustive_limit_boundary_exit_code(capsys, tmp_path, monkeypatch, command, free_users):
    # users 1-5 share two packets and user 6 holds a third, so the solve's
    # truncation SFMs stay small; verify's submodularity check enumerates
    # all 6 users and each sda dependence SFM has 5 free users
    from omnifair import setfn

    path = tmp_path / "six.json"
    path.write_text(json.dumps(SIX_USERS), encoding="utf-8")
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", free_users)
    status, _ = run_cli(capsys, command, "--input", str(path))
    assert status == 0
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", free_users - 1)
    status, report = run_cli(capsys, command, "--input", str(path))
    assert status == EXIT_TOO_LARGE
    assert report["error"] == {
        "type": "GroundSetTooLarge",
        "message": f"ground set of size {free_users} exceeds the exhaustive limit {free_users - 1}"}
    assert report["config"]["command"] == command


def test_verify_refuses_the_core_check_above_its_table_limit(capsys, tmp_path, monkeypatch):
    # the six users of the boundary test, with the two capped checks skipped:
    # the core check reads a 2^n slack table, refused past n - 1 free users
    import omnifair.cli as cli_module
    from omnifair import setfn

    path = tmp_path / "six.json"
    path.write_text(json.dumps(SIX_USERS), encoding="utf-8")
    monkeypatch.setattr(cli_module, "VERIFY_SUBMODULAR_LIMIT", 5)
    monkeypatch.setattr(cli_module, "VERIFY_DECOMPOSITION_LIMIT", 5)
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 5)
    status, report = run_cli(capsys, "verify", "--input", str(path))
    assert status == 0
    assert [v["check"] for v in report["verification"]][2:] == ["solver_vertex_in_core"]
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 4)
    status, report = run_cli(capsys, "verify", "--input", str(path))
    assert status == EXIT_TOO_LARGE
    assert report["error"] == {
        "type": "GroundSetTooLarge",
        "message": "ground set of size 5 exceeds the exhaustive limit 4"}
    assert report["config"]["command"] == "verify"


def test_verify_reads_each_raw_cost_once_for_both_core_checks(demo_source, monkeypatch):
    # the vertex and --rates checks share the game's one slack table
    import omnifair.cli as cli_module

    monkeypatch.setattr(cli_module, "VERIFY_DECOMPOSITION_LIMIT", 0)  # its walk reads costs too
    ctx = min_sum_rate(demo_source)  # a fresh game, whose table is not built yet
    ctx.vertex  # the solution record computes it before verify runs
    expected = every_key(ctx)  # each nonempty mask's key, once
    spy = spy_cost(ctx, monkeypatch)
    rates = {1: 1, 2: F(1, 2), 3: F(1, 2), 4: 4, 5: F(1, 2)}
    verdicts = _run_verify(RunConfig(command="verify", rates=rates), ctx)
    assert [(v["check"], v["pass"]) for v in verdicts][2:] == [
        ("solver_vertex_in_core", True), ("rate_vector_in_core", True)]
    assert spy.reads == expected and sum(expected.values()) == 2 ** len(ctx.users) - 1


def test_verify_of_twenty_two_users_is_refused_at_once(capsys, tmp_path):
    # users 1-21 share two packets and user 22 holds a third: the solve is
    # cheap, and the core check is refused before any cost is read
    spec = {
        "model": "linear",
        "field": 2,
        "packets": ["a", "b", "c"],
        "users": {**{str(u): ["a", "b"] for u in range(1, 22)}, "22": ["c"]},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    started = time.perf_counter()
    status, report = run_cli(capsys, "verify", "--input", str(path))
    assert time.perf_counter() - started < 5
    assert status == EXIT_TOO_LARGE
    assert report["error"]["message"] == "ground set of size 21 exceeds the exhaustive limit 20"


@pytest.mark.parametrize("exc_type", [ArithmeticError])
def test_internal_invariant_exit_code(capsys, spec_path, monkeypatch, exc_type):
    import omnifair.cli as cli_module

    def explode(*args, **kwargs):
        raise exc_type("invariant broken")

    monkeypatch.setattr(cli_module, "min_sum_rate", explode)
    status = main(["solve", "--input", spec_path])
    captured = capsys.readouterr()
    assert status == EXIT_INTERNAL
    assert json.loads(captured.out)["error"] == {
        "type": exc_type.__name__, "message": "invariant broken"}
    assert "Traceback" not in captured.err


def test_split_plan_minimal(capsys):
    status, report = run_cli(
        capsys, "split-plan",
        "--rates", '{"1":"5/4","2":"1/2","3":"1/2","4":"3","5":"5/4"}')
    assert status == 0
    assert report["split_plan"]["chunks_per_packet"] == 4
    assert report["split_plan"]["chunk_rates"] == {"1": 5, "2": 2, "3": 2, "4": 12, "5": 5}


def test_split_plan_infeasible_K(capsys):
    status, report = run_cli(
        capsys, "split-plan", "--K", "2",
        "--rates", '{"1":"5/4","2":"1/2","3":"1/2","4":"3","5":"5/4"}')
    assert status == EXIT_PARSE
    assert report["error"]["minimal_valid_K"] == 4
    assert report["error"]["offending_users"] == [1, 5]


def test_split_plan_refuses_negative_rates(capsys):
    status, report = run_cli(capsys, "split-plan", "--rates", '{"1":"-1/2","2":"3/2"}')
    assert status == EXIT_PARSE
    assert report["error"] == {"type": "ValueError", "message": "rates of users [1] are negative"}


@pytest.mark.parametrize("spec", [
    {"model": "linear", "users": {"1": ["a"], "01": ["b"], "2": ["a", "b"]}},
    {"model": "pmf", "alphabets": {"1": [0, 1], "01": [0], "2": [0, 1]},
     "table": [[[0.5], [0.0]], [[0.0], [0.5]]]},
], ids=["linear", "pmf"])
def test_user_ids_naming_one_user_twice_are_refused(capsys, tmp_path, spec):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    status, report = run_cli(capsys, "solve", "--input", str(path))
    assert status == EXIT_PARSE
    assert report["error"] == {"type": "SourceSpecError", "message": "user id '01' repeats user 1"}


def test_a_key_repeated_in_the_source_json_is_refused(capsys, tmp_path):
    # json.loads alone would keep only ["b"] for user 1
    path = tmp_path / "repeat.json"
    path.write_text('{"model": "linear", "users": {"1": ["a"], "1": ["b"], "2": ["a", "b"]}}',
                    encoding="utf-8")
    status, report = run_cli(capsys, "solve", "--input", str(path))
    assert status == EXIT_PARSE
    assert report["error"] == {"type": "SourceSpecError", "message": "JSON object repeats key '1'"}


@pytest.mark.parametrize(("users", "message"), [
    ('{"1": 1, "1": 2}', "{what}: JSON object repeats key '1'"),
    ('{"1": 1, "01": 2}', "{what}: user id '01' repeats user 1"),
    ('{"1": 1, "one": 2}', "{what}: user id 'one' is not an integer"),
], ids=["verbatim", "one-user", "not-a-user"])
@pytest.mark.parametrize(("command", "flag"), [
    (["egalitarian", "--mode", "continuous"], "--weights"),
    (["verify"], "--rates"),
    (["split-plan"], "--rates"),
], ids=["egalitarian-weights", "verify-rates", "split-plan-rates"])
def test_user_map_keys_are_refused_as_in_source_specs(capsys, spec_path, command, flag, users, message):
    source = [] if command == ["split-plan"] else ["--input", spec_path]
    status, report = run_cli(capsys, *command, *source, flag, users)
    assert status == EXIT_PARSE
    assert report == {"error": {"type": "ConfigError", "message": message.format(what=flag[2:])}}


def test_solve_pmf_source(capsys, tmp_path):
    spec = {
        "model": "pmf",
        "alphabets": {"1": [0, 1], "2": [0, 1]},
        "table": [[0.5, 0.0], [0.0, 0.5]],
    }
    path = tmp_path / "pmf.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    status, report = run_cli(capsys, "solve", "--input", str(path))
    assert status == 0
    # one fully shared bit: no exchange needed, all randomness already common
    assert report["solution"]["R_CO"] == pytest.approx(0.0, abs=1e-9)
    assert report["solution"]["I"] == pytest.approx(1.0, abs=1e-9)
    assert report["solution"]["fundamental_partition"] == [[1], [2]]


@pytest.mark.parametrize("mode", ["sda", "decomposed"])
def test_grid_egalitarian_refuses_pmf_sources(capsys, tmp_path, mode):
    path = tmp_path / "pmf.json"
    path.write_text(json.dumps({
        "model": "pmf",
        "alphabets": {"1": [0, 1], "2": [0, 1], "3": [0, 1]},
        "table": [[[0.25, 0.0], [0.0, 0.25]], [[0.0, 0.25], [0.25, 0.0]]],
    }), encoding="utf-8")
    status, report = run_cli(capsys, "egalitarian", "--input", str(path), "--mode", mode)
    assert status == EXIT_PARSE
    assert report["error"] == {"type": "ConfigError",
                               "message": "sda runs on the exact 1/K grid; pmf sources are refused"}
    assert report["config"]["mode"] == mode


def test_solve_deterministic_pmf_reports_positive_zeros(capsys, tmp_path):
    path = tmp_path / "pmf.json"
    path.write_text(json.dumps({"model": "pmf", "alphabets": {"1": [0], "2": [0]}, "table": [[1.0]]}),
                    encoding="utf-8")
    status = main(["solve", "--input", str(path)])
    text = capsys.readouterr().out
    assert status == 0
    assert '"I": 0.0,' in text and "-0.0" not in text


def test_pmf_past_the_dense_limit_exits_5(capsys, tmp_path, monkeypatch):
    # users 1-4 see two shared bits and user 5 a third: the first four merge
    # into one block, so no truncation step is wide
    from omnifair import setfn

    pmf = pmf_from_packets({**{u: ["a", "b"] for u in range(1, 5)}, 5: ["c"]}, ["a", "b", "c"])
    path = tmp_path / "pmf.json"
    path.write_text(json.dumps({"model": "pmf", "table": pmf._table.tolist(), "alphabets": {
        str(u): list(range(len(pmf.alphabets[u]))) for u in pmf.users}}), encoding="utf-8")
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 4)
    assert run_cli(capsys, "solve", "--input", str(path))[0] == 0
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 3)
    status, report = run_cli(capsys, "solve", "--input", str(path))
    assert status == EXIT_TOO_LARGE
    assert report["error"] == {"type": "GroundSetTooLarge",
                               "message": "ground set of size 4 exceeds the exhaustive limit 3"}


@pytest.mark.parametrize(("users", "packets", "message"), LINEAR_SPECS_MISREAD, ids=LINEAR_SPEC_IDS)
def test_linear_spec_values_it_would_misread_are_parse_errors(capsys, tmp_path, users, packets, message):
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(linear_spec(users, packets)), encoding="utf-8")
    status, report = run_cli(capsys, "solve", "--input", str(path))
    assert status == EXIT_PARSE
    assert report["error"] == {"type": "SourceSpecError", "message": message}


@pytest.mark.parametrize(("alphabets", "table", "message"), PMF_SPECS_READ_SILENTLY, ids=PMF_SPEC_IDS)
def test_pmf_spec_values_numpy_would_read_are_parse_errors(capsys, tmp_path, alphabets, table, message):
    path = tmp_path / "pmf.json"
    path.write_text(json.dumps({"model": "pmf", "alphabets": alphabets, "table": table}), encoding="utf-8")
    status, report = run_cli(capsys, "solve", "--input", str(path))
    assert status == EXIT_PARSE
    assert report["error"] == {"type": "SourceSpecError", "message": message}


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_pmf_entry_is_parse_error(capsys, tmp_path, entry):
    path = tmp_path / "pmf.json"
    path.write_text('{"model": "pmf", "alphabets": {"1": [0, 1], "2": [0, 1]},'
                    f' "table": [[0.5, {entry}], [0.0, 0.5]]}}', encoding="utf-8")
    status, report = run_cli(capsys, "solve", "--input", str(path))
    assert status == EXIT_PARSE
    assert report["error"]["type"] == "SourceSpecError"
    assert "non-finite" in report["error"]["message"]


def test_rates_from_file(capsys, spec_path, tmp_path):
    rates = tmp_path / "rates.json"
    rates.write_text('{"1":"1","2":"1/2","3":"1/2","4":"4","5":"1/2"}', encoding="utf-8")
    status, report = run_cli(
        capsys, "verify", "--input", spec_path, "--rates", f"@{rates}")
    assert status == 0


def test_output_file(spec_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    status = main(["solve", "--input", spec_path, "--output", str(out)])
    assert status == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text(encoding="utf-8"))["solution"]["R_CO"] == "13/2"


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale with Python's UTF-8 mode and locale coercion off: a
    # UTF-8 spec with non-ASCII packet ids still loads, and every file the
    # run reads or writes names its encoding
    spec = {"model": "linear", "field": 2, "packets": ["é", "ü"],
            "users": {"1": ["é"], "2": ["ü"], "3": ["é", "ü"]}}
    (tmp_path / "spec.json").write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    (tmp_path / "rates.json").write_text('{"1": 0, "2": 0, "3": 1}', encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "omnifair.cli", "egalitarian", "--mode", "sda", "--input", "spec.json",
         "--rates", "@rates.json", "--trace-csv", "trace.csv", "--output", "report.json"],
        cwd=tmp_path, env=env, capture_output=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["solution"]["R_CO"] == "1"
    assert report["solution"]["fundamental_partition"] == [[1], [2], [3]]
    assert report["fairness"]["vector"] == {"1": "0", "2": "0", "3": "1"}
    assert (tmp_path / "trace.csv").read_text(encoding="utf-8").startswith("iteration,")


def strip_timings(report):
    report = dict(report)
    report.pop("timings", None)
    return report


def test_reports_deterministic_modulo_timings(capsys, spec_path):
    _, first = run_cli(capsys, "shapley", "--input", spec_path,
                       "--mode", "decomposed", "--seed", "17", "--permutations", "3")
    _, second = run_cli(capsys, "shapley", "--input", spec_path,
                        "--mode", "decomposed", "--seed", "17", "--permutations", "3")
    assert strip_timings(first) == strip_timings(second)


def test_report_rationals_round_trip(capsys, spec_path):
    _, report = run_cli(capsys, "solve", "--input", spec_path)
    vertex = report["solution"]["vertex"]
    assert parse_rational(report["solution"]["R_CO"]) == F(13, 2)
    total = sum(parse_rational(v) for v in vertex.values())
    assert total == F(13, 2)


@settings(max_examples=200, deadline=None)
@given(st.fractions())
def test_rational_serialization_round_trip(q):
    assert parse_rational(emit_value(q)) == q
