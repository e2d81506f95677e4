import gc
import math
import random
import weakref
from fractions import Fraction as F
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

from omnifair import (
    GroundSetTooLarge,
    LinearSource,
    RateVector,
    SplitError,
    decompose,
    dep,
    egalitarian_continuous,
    egalitarian_decomposed,
    is_locally_optimal,
    min_sum_rate,
    objective_g,
    packet_split_plan,
    sda,
    shapley_exact,
)
from omnifair.omniscience import _SlackTable

from conftest import (
    DEMO_HOLDINGS,
    PROPERTY_SEEDS,
    cross_checked_membership,
    dep_matches_oracle,
    every_key,
    frank_wolfe_reference,
    hat_iteration_budget,
    is_weighted_min_norm_base,
    lexicographic_base_table,
    locally_optimal_reference,
    pmf_from_packets,
    random_linear_source,
    random_pmf_source,
    random_pmf_twins,
    random_vector_source,
    rv,
    sda_reference,
    sfm_dep,
    shapley_whole_game,
    spy_cost,
)

R0 = {1: 1, 2: F(1, 2), 3: F(1, 2), 4: F(9, 2), 5: 0}
OPTIMUM = {1: F(3, 2), 2: F(1, 2), 3: F(1, 2), 4: 2, 5: 2}
#: the continuous optimum for the weights {1: 6, 2: 1, 3: 1, 4: 3, 5: 2}
WEIGHTED_OPTIMUM = {1: F(3, 2), 2: F(1, 2), 3: F(1, 2), 4: F(12, 5), 5: F(8, 5)}
PATH = [
    (F(1), F(1, 2), F(1, 2), F(9, 2), F(0)),
    (F(1), F(1, 2), F(1, 2), F(4), F(1, 2)),
    (F(1), F(1, 2), F(1, 2), F(7, 2), F(1)),
    (F(3, 2), F(1, 2), F(1, 2), F(3), F(1)),
    (F(3, 2), F(1, 2), F(1, 2), F(5, 2), F(3, 2)),
    (F(3, 2), F(1, 2), F(1, 2), F(2), F(2)),
]


class TestObjective:
    def test_direct_evaluation(self):
        r = rv({1: F(3, 2), 2: F(1, 2), 3: F(1, 2), 4: 2, 5: 2})
        assert objective_g(r) == F(9, 4) + F(1, 4) + F(1, 4) + 4 + 4 == F(43, 4)

    def test_zero_vector(self):
        assert objective_g(rv({1: 0, 2: 0})) == 0

    def test_weight_scaling(self):
        r = rv({1: 1, 2: 3})
        w = {1: F(2), 2: F(5)}
        scaled = {u: 7 * v for u, v in w.items()}
        assert objective_g(r, scaled) == objective_g(r, w) / 7

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            objective_g(rv({1: 1}), {1: 0})

    def test_unknown_user_weight_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            objective_g(rv({1: 1}), {9: 1})


class TestDependenceFunction:
    def test_all_five_sets_at_initial_vertex(self, demo_ctx):
        r0 = rv(R0)
        expected = {1: {1, 4}, 2: {2}, 3: {3}, 4: {4}, 5: {4, 5}}
        for i, want in expected.items():
            assert dep(demo_ctx, r0, i) == frozenset(want)

    def test_contains_owner(self, demo_ctx):
        for i in demo_ctx.users:
            assert i in dep(demo_ctx, demo_ctx.vertex, i)

    def test_unknown_user(self, demo_ctx):
        with pytest.raises(ValueError, match="not in this game"):
            dep(demo_ctx, demo_ctx.vertex, 42)


class TestDependenceTable:
    """The dense slack table against the per-lattice-point SFM oracle; the
    50-seed battery checks every sda iterate of the linear corpus."""

    def test_pmf_source_matches_oracle(self):
        holdings = {1: ["a", "b", "d"], 2: ["a"], 3: ["e"], 4: ["c", "e"]}
        ctx = min_sum_rate(pmf_from_packets(holdings, ["a", "b", "c", "d", "e"]))
        assert not ctx.source.is_exact
        # the whole-game float sum lands off the per-block value (rates
        # 0.49999999999999994, not 0.5) and gives a within-tol tie
        points = [ctx.vertex, shapley_exact(ctx), shapley_whole_game(ctx)]
        points += [ctx.greedy_vertex(p) for p in permutations(ctx.users)]
        assert dep_matches_oracle(ctx, points)
        # some minimizers tie only within tol, so the float comparison is exercised
        untolerant = SimpleNamespace(ground=ctx.ground, source=ctx.source,
                                     min_sum_rate=ctx.min_sum_rate, tol=0)
        assert any(sfm_dep(untolerant, r, i) != dep(ctx, r, i)
                   for r in points for i in ctx.users)

    def test_finer_grid_matches_oracle(self, demo_ctx):
        start = rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: 4, 5: F(1, 2)})
        _, trace = sda(demo_ctx, r0=start, K=4)
        assert demo_ctx.grid_denominator == 2
        assert any(it[u].denominator == 4 for it in trace.iterates for u in it.users)
        assert dep_matches_oracle(demo_ctx, trace.iterates)

    @pytest.mark.parametrize("bits", [58, 70])
    def test_wide_denominators_stay_exact(self, demo_ctx, bits):
        # scaled by 2^58 the costs fit int64 but masses of rates 64 away from
        # the core do not; by 2^70 neither does: both fall back to Python ints
        tiny = F(1, 2 ** bits)
        points = [demo_ctx.vertex.exchange(i, j, step)
                  for step in (tiny, 64 + tiny)
                  for i in demo_ctx.users for j in demo_ctx.users if i != j]
        for r in points:
            assert [dep(demo_ctx, r, i) for i in demo_ctx.users] == [
                sfm_dep(demo_ctx, r, i) for i in demo_ctx.users]

    def test_sda_tabulates_f_once_and_runs_no_sfm(self, monkeypatch):
        from omnifair import egalitarian, omniscience, setfn, shapley

        ctx = min_sum_rate(random_linear_source(1, min_users=8, max_users=8, max_packets=12))
        ctx.vertex  # the starting vertex, a walk of truncation steps
        expected = every_key(ctx)  # each nonempty mask's key, once
        sfm_calls = []
        for module in (setfn, omniscience, egalitarian, shapley):
            if hasattr(module, "sfm_min"):
                def counted(*args, _sfm=module.sfm_min, **kwargs):
                    sfm_calls.append(args)
                    return _sfm(*args, **kwargs)
                monkeypatch.setattr(module, "sfm_min", counted)
        f_calls = spy_cost(ctx, monkeypatch).reads  # raw cost evaluations
        dep_calls = []
        monkeypatch.setattr(egalitarian, "dep",
                            lambda *args, _dep=egalitarian.dep: dep_calls.append(args) or _dep(*args))
        _, trace = sda(ctx)
        n = len(ctx.users)
        # one SFM per user per iteration would evaluate f n 2^(n-1) times each
        assert n == 8 and trace.iterations == 12
        assert sfm_calls == []
        assert sum(f_calls.values()) <= 2 ** n
        # every user's set still goes through the public dep, off one table
        assert len(dep_calls) == n * (trace.iterations + 1)
        assert f_calls == expected

    def test_off_fundamental_k_reads_each_cost_once(self, monkeypatch):
        # with K off the fundamental value sda ends with is_locally_optimal,
        # which checks its exchanges on sda's own table
        ctx = min_sum_rate(random_linear_source(1, min_users=8, max_users=8, max_packets=12))
        ctx.vertex  # the starting vertex, a walk of truncation steps
        expected = every_key(ctx)  # each nonempty mask's key, once
        spy = spy_cost(ctx, monkeypatch)
        _, trace = sda(ctx, K=2 * ctx.grid_denominator)
        assert trace.locally_optimal is not None
        assert spy.reads == expected and sum(expected.values()) == 2 ** len(ctx.users) - 1

    def test_refusal_boundary(self, demo_source, monkeypatch):
        # each dependence SFM has n - 1 free users; the refusal comes before
        # f is tabulated
        from omnifair import setfn

        ctx = min_sum_rate(demo_source)
        n = len(ctx.users)
        monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", n - 1)
        assert dep(ctx, ctx.vertex, 1) == frozenset({1})
        assert sda(ctx)[0] == rv(OPTIMUM)
        ctx = min_sum_rate(demo_source)  # a fresh game: a built table is not refused again
        ctx.vertex  # its truncation walk, before the limit drops
        monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", n - 2)
        spy = spy_cost(ctx, monkeypatch)
        with pytest.raises(GroundSetTooLarge, match=f"size {n - 1} exceeds"):
            dep(ctx, ctx.vertex, 1)
        with pytest.raises(GroundSetTooLarge, match=f"size {n - 1} exceeds"):
            sda(ctx)
        assert spy.reads == {}


def per_user_dependence(ctx, r) -> list[frozenset]:
    """Every user's dependence set at ``r``, one user at a time off a fresh
    table: the least slack over the masks holding the user, the AND of
    those within tol of it."""
    slack = _SlackTable(ctx).slack(r)
    out = []
    for k in range(len(ctx.users)):
        half = slack.reshape(-1, 2, 1 << k)[:, 1, :]  # (bits above k, bits below k)
        high, low = np.nonzero(half <= half.min() + ctx.tol)
        minimal = int(np.bitwise_and.reduce(high << (k + 1) | low)) | 1 << k
        out.append(frozenset(u for b, u in enumerate(ctx.users) if minimal >> b & 1))
    return out


def kept_slack_matches_fresh(ctx, table, r) -> bool:
    """The table keeps the exact slack of ``r`` itself, equal to a fresh
    read up to the two scales."""
    kept, slack, scale = table._at[:3]
    fresh = _SlackTable(ctx)
    want = fresh.slack(r)
    return kept is r and bool((slack * fresh._at[2] == want * scale).all())


class TestKeptSlack:
    """sda's table keeps one slack from iterate to iterate, each exchange
    updating it in place, and reads every user's dependence set off it in
    batches of users."""

    @pytest.mark.parametrize("multiple", [1, 2, 3])
    def test_every_step_reads_the_exchanged_slack(self, monkeypatch, multiple):
        # off the fundamental K a step of 1/K is off the kept scale at first,
        # so the table rescales once
        from omnifair import egalitarian

        def checked(ctx, r, i, _dep=egalitarian.dep):
            assert kept_slack_matches_fresh(ctx, ctx._slack_table, r)
            got = _dep(ctx, r, i)
            assert got == sfm_dep(ctx, r, i)
            steps.append(r)
            return got

        monkeypatch.setattr(egalitarian, "dep", checked)
        for seed in PROPERTY_SEEDS:
            ctx = min_sum_rate(random_linear_source(seed))
            steps = []
            _, trace = sda(ctx, K=multiple * ctx.grid_denominator)
            assert steps[::len(ctx.users)] == trace.iterates

    @pytest.mark.parametrize("bits", [58, 70])
    def test_wide_denominators_stay_exact_through_exchange(self, demo_ctx, bits):
        # as test_wide_denominators_stay_exact, each point reached by one
        # exchange on a table that keeps the vertex's slack
        tiny = F(1, 2 ** bits)
        wide = []
        for step in (tiny, 64 + tiny):
            for i, j in permutations(demo_ctx.users, 2):
                table = demo_ctx._slack_table
                table.slack(demo_ctx.vertex)
                r = table.exchange(demo_ctx.vertex, i, j, step)
                assert r == demo_ctx.vertex.exchange(i, j, step)
                assert kept_slack_matches_fresh(demo_ctx, table, r)
                assert table._at[1].dtype == _SlackTable(demo_ctx).slack(r).dtype
                wide.append(table._at[1].dtype == object)
                assert [dep(demo_ctx, r, u) for u in demo_ctx.users] == [
                    sfm_dep(demo_ctx, r, u) for u in demo_ctx.users]
        assert any(wide)

    def test_float_slack_is_left_to_the_next_read(self, demo_ctx):
        r = RateVector({u: float(v) for u, v in zip(demo_ctx.users, demo_ctx.vertex.as_tuple())})
        table = demo_ctx._slack_table
        before = table.slack(r).copy()
        moved = table.exchange(r, 1, 4, F(1, 2))
        assert table._at[0] is r and (table._at[1] == before).all()
        assert dep(demo_ctx, moved, 1) == sfm_dep(demo_ctx, moved, 1)

    def test_chunked_batch_matches_per_user_form(self):
        ctx = min_sum_rate(random_linear_source(2, min_users=14, max_users=14, max_packets=20))
        table = ctx._slack_table
        n = len(ctx.users)
        assert n == 14 and 1 < table._per_batch < n
        rng = random.Random(14)
        points = [ctx.greedy_vertex(rng.sample(ctx.users, n)) for _ in range(4)]
        points += [p.exchange(i, j, F(1, 2)) for p in points[:2]
                   for i, j in [rng.sample(ctx.users, 2) for _ in range(3)]]
        points += sda(ctx)[1].iterates
        assert any(len(s) > 1 for s in per_user_dependence(ctx, points[0]))
        for r in points:
            want = per_user_dependence(ctx, r)
            assert table.dependence(r) == want
            assert [dep(ctx, r, i) for i in ctx.users] == want

    def test_dependence_pass_memory_is_bounded(self):
        import tracemalloc

        ctx = min_sum_rate(random_linear_source(3, min_users=16, max_users=16, max_packets=20))
        table = _SlackTable(ctx)
        slack = table.slack(ctx.vertex)
        assert len(ctx.users) == 16 and table._per_batch == 1
        tracemalloc.start()
        try:
            table.dependence(ctx.vertex)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * slack.nbytes


class TestSda:
    def test_golden_path(self, demo_ctx):
        out, trace = sda(demo_ctx, r0=rv(R0), K=2)
        assert out == rv(OPTIMUM)
        assert trace.iterations == 5
        assert [it.as_tuple() for it in trace.iterates] == PATH
        assert trace.warnings == []
        assert trace.locally_optimal is None and trace.left_core is None

    def test_error_decays_by_one_per_iteration(self, demo_ctx):
        out, trace = sda(demo_ctx, r0=rv(R0), K=2)
        errors = [it.l1_distance(out) for it in trace.iterates]
        assert errors == [5, 4, 3, 2, 1, 0]

    def test_objective_strictly_decreases(self, demo_ctx):
        _, trace = sda(demo_ctx, r0=rv(R0))
        assert all(a > b for a, b in zip(trace.objectives, trace.objectives[1:]))

    def test_defaults_to_solver_vertex_and_fundamental_K(self, demo_ctx):
        out, trace = sda(demo_ctx)
        assert trace.K == 2
        assert trace.iterates[0] == demo_ctx.vertex
        assert out == rv(OPTIMUM)

    def test_already_optimal_stops_immediately(self, demo_ctx):
        out, trace = sda(demo_ctx, r0=rv(OPTIMUM))
        assert trace.iterations == 0
        assert out == rv(OPTIMUM)

    def test_subgame_path(self, demo_subgames):
        block = demo_subgames[0]
        out, trace = sda(block, r0=rv({1: 1, 4: F(9, 2), 5: 0}))
        assert out == rv({1: F(3, 2), 4: 2, 5: 2})
        assert trace.iterations == 5

    def test_initial_point_outside_core_rejected(self, demo_ctx):
        with pytest.raises(ValueError, match="outside the core"):
            sda(demo_ctx, r0=rv({u: 0 for u in demo_ctx.users}))

    def test_off_grid_initial_point_rejected(self, demo_ctx):
        with pytest.raises(ValueError, match="off the 1/3 grid"):
            sda(demo_ctx, r0=rv(R0), K=3)

    def test_bad_K_rejected(self, demo_ctx):
        with pytest.raises(ValueError, match="positive integer"):
            sda(demo_ctx, K=0)

    def test_mismatched_K_is_flagged(self, demo_ctx):
        start = rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: 4, 5: F(1, 2)})
        out, trace = sda(demo_ctx, r0=start, K=4)
        assert trace.warnings and "may be suboptimal" in trace.warnings[0]
        assert trace.left_core is not None
        assert trace.locally_optimal is not None
        assert cross_checked_membership(demo_ctx, out) or trace.left_core

    def test_endpoint_locally_optimal(self, demo_ctx):
        out, _ = sda(demo_ctx, r0=rv(R0))
        assert is_locally_optimal(demo_ctx, out)
        assert not is_locally_optimal(demo_ctx, rv(R0))


SDA_SOURCES = {
    "packet": lambda seed: random_linear_source(seed, min_users=5, max_users=8, max_packets=14),
    "gf3": lambda seed: random_vector_source(seed, min_users=5, max_users=8),
}

#: weights drawn per user; the float ones have long exact binary fractions
SDA_WEIGHTS = {
    "uniform": (),
    "rational": (1, 2, F(6, 5), F(3, 7)),
    "float": (0.3, 0.7, 1.0, 1.1, 2.5),
}


def sda_weights(kind: str, users, seed: int) -> dict | None:
    rng = random.Random(f"sda-weights:{kind}:{seed}")
    pool = SDA_WEIGHTS[kind]
    return {u: rng.choice(pool) for u in users} if pool else None


class TestSdaMatchesReference:
    """sda ranks each exchange by its integer delta; the reference re-sums
    the objective of every candidate.  The traces are equal field by field:
    iterates, pairs, objectives, warnings and both diagnostics.  The
    local-optimality check reads the same deltas; it is matched against its
    own reference at every iterate."""

    @pytest.mark.parametrize("doubled", [False, True], ids=["fundamental-K", "doubled-K"])
    @pytest.mark.parametrize("weights", sorted(SDA_WEIGHTS))
    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("kind", sorted(SDA_SOURCES))
    def test_same_trace(self, kind, seed, weights, doubled):
        ctx = min_sum_rate(SDA_SOURCES[kind](seed))
        w = sda_weights(weights, ctx.users, seed)
        K = ctx.grid_denominator * (2 if doubled else 1)
        out, trace = sda(ctx, K=K, weights=w)
        want_out, want = sda_reference(ctx, K=K, weights=w)
        assert out == want_out
        assert trace == want
        assert all(type(v) is F for v in trace.objectives)
        assert (trace.locally_optimal is None) is not doubled
        # every iterate but the last has an improving exchange
        verdicts = [is_locally_optimal(ctx, it, K, w) for it in trace.iterates]
        assert verdicts == [False] * trace.iterations + [True]
        assert verdicts == [locally_optimal_reference(ctx, it, K, w) for it in trace.iterates]

    def test_demo_paths(self, demo_ctx):
        w = {1: 6, 2: 1, 3: 1, 4: 3, 5: 2}
        start = rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: 4, 5: F(1, 2)})
        for r0, K, weights in [(rv(R0), 2, None), (rv(R0), 2, w), (start, 4, w), (start, 4, None)]:
            assert sda(demo_ctx, r0=r0, K=K, weights=weights) == sda_reference(
                demo_ctx, r0=r0, K=K, weights=weights)

    def test_loop_reads_no_objective(self, demo_ctx, monkeypatch):
        from omnifair import egalitarian

        calls = []
        objective = egalitarian._objective
        monkeypatch.setattr(egalitarian, "_objective",
                            lambda *args: calls.append(args) or objective(*args))
        w = {1: 6, 2: 1, 3: 1, 4: 3, 5: 2}
        start = rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: 4, 5: F(1, 2)})
        out, trace = sda(demo_ctx, r0=start, K=4, weights=w)
        assert trace.iterations > 0 and trace.locally_optimal is not None
        assert calls == []
        # the counter is live: objective_g goes through it
        assert objective_g(out, w) == trace.objectives[-1]
        assert len(calls) == 1


class TestIterationBudget:
    """sda's budget reads f({u}) and f(V∖u) off its slack table.  As hat <= f
    with equality on singletons, it is at least the bound the hat values
    give, and so at least the iterations any run takes."""

    @pytest.mark.parametrize("doubled", [False, True], ids=["fundamental-K", "doubled-K"])
    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("kind", sorted(SDA_SOURCES))
    def test_covers_the_hat_bound_and_the_run(self, kind, seed, doubled):
        from omnifair.egalitarian import _iteration_budget

        ctx = min_sum_rate(SDA_SOURCES[kind](seed))
        for game in [ctx, *decompose(ctx)]:
            K = game.grid_denominator * (2 if doubled else 1)
            budget = _iteration_budget(game, K)
            assert budget >= hat_iteration_budget(game, K)
            assert budget >= sda(game, K=K)[1].iterations


class TestGridProximity:
    """At the fundamental K every sda endpoint r lies in the unit box of the
    exact continuous optimum x*: floor(K x*) <= K r <= ceil(K x*)."""

    @pytest.mark.parametrize("weights", ["uniform", "rational"])
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("kind", sorted(SDA_SOURCES))
    def test_endpoint_in_unit_box(self, kind, seed, weights):
        ctx = min_sum_rate(SDA_SOURCES[kind](seed))
        w = sda_weights(weights, ctx.users, seed)
        K = ctx.grid_denominator
        out, _ = sda(ctx, weights=w)
        x = egalitarian_continuous(ctx, w)
        assert all(math.floor(K * x[u]) <= K * out[u] <= math.ceil(K * x[u]) for u in ctx.users)


class TestPmfRefused:
    """The grid modes run on the exact 1/K grid: sda refuses a pmf source
    before any cost is read, and so does each block of the decomposed mode.
    Its dependence sets still work (TestDependenceTable)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sda_and_decomposed(self, seed, monkeypatch):
        for source in (random_pmf_twins(seed)[1], random_pmf_source(seed)):
            ctx = min_sum_rate(source)
            with pytest.raises(ValueError, match="pmf sources are refused"):
                egalitarian_decomposed(ctx)
            spy = spy_cost(ctx, monkeypatch)
            with pytest.raises(ValueError, match="pmf sources are refused"):
                sda(ctx)
            assert spy.reads == {}


class TestContinuous:
    def test_uniform_weights(self, demo_ctx):
        assert egalitarian_continuous(demo_ctx) == rv(OPTIMUM)

    def test_weighted(self, demo_ctx):
        out = egalitarian_continuous(demo_ctx, {1: 6, 2: 1, 3: 1, 4: 3, 5: 2})
        assert out == rv(WEIGHTED_OPTIMUM)

    def test_agrees_with_grid_descent_for_uniform_weights(self, demo_ctx):
        assert egalitarian_continuous(demo_ctx) == sda(demo_ctx)[0]

    def test_singleton_block_ignores_weights(self, demo_subgames):
        single = demo_subgames[1]
        for w in (None, {2: 17}):
            assert egalitarian_continuous(single, w) == rv({2: F(1, 2)})

    def test_three_levels_in_one_block(self, demo_ctx):
        # r/w is 3/4, 5/4 and 3/2 on block {1, 4, 5}: the block splits twice,
        # the second time on the minor that contracts user 1
        w = {1: 2, 4: 1, 5: 2}
        out = egalitarian_continuous(demo_ctx, w)
        assert out == rv({1: F(3, 2), 2: F(1, 2), 3: F(1, 2), 4: F(3, 2), 5: F(5, 2)})
        assert is_weighted_min_norm_base(demo_ctx, out, w)

    def test_float_weights_give_floats(self, demo_ctx):
        w = {1: 6.0, 2: 1, 3: 1, 4: 3, 5: 2}
        out = egalitarian_continuous(demo_ctx, w)
        assert all(type(out[u]) is float for u in demo_ctx.users)
        assert all(abs(out[u] - WEIGHTED_OPTIMUM[u]) <= 1e-12 for u in demo_ctx.users)

    @pytest.mark.parametrize("bits", [58, 70])
    def test_wide_weight_denominators_stay_exact(self, demo_ctx, bits):
        # scaled by 2^58 the weights fit int64 but their masses do not; by
        # 2^70 neither does: both fall back to Python ints
        w = {1: 6, 2: 1, 3: 1, 4: 3 + F(1, 2 ** bits), 5: 2}
        out = egalitarian_continuous(demo_ctx, w)
        assert all(type(out[u]) is F for u in demo_ctx.users)
        assert is_weighted_min_norm_base(demo_ctx, out, w)
        assert out != rv(WEIGHTED_OPTIMUM)
        assert all(abs(out[u] - WEIGHTED_OPTIMUM[u]) < F(1, 2 ** (bits - 4)) for u in out.users)

    def test_block_above_the_limit_solves_and_a_wide_step_is_refused(self, demo_source, monkeypatch):
        # block {1, 4, 5} has more users than a limit of 2, and solves: no
        # truncation step holds more than two blocks, so a limit of 1 refuses
        from omnifair import egalitarian, omniscience, setfn

        ctx = min_sum_rate(demo_source)
        w = {1: 2, 4: 1, 5: 2}  # splits the block twice
        expected = lexicographic_base_table(ctx, w)
        held = []
        extend = omniscience._extend
        for module in (omniscience, egalitarian):
            monkeypatch.setattr(module, "_extend", lambda *args: held.append(len(args[1][1])) or extend(*args))
        monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 2)
        assert egalitarian_continuous(ctx, w) == expected
        assert max(held) == 2
        monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 1)
        with pytest.raises(GroundSetTooLarge, match="^ground set of size 2 exceeds the exhaustive limit 1$"):
            egalitarian_continuous(ctx, w)

    @pytest.mark.parametrize("split", [0, "whole"])
    def test_an_improper_split_is_an_internal_error(self, demo_ctx, monkeypatch, split):
        # a truncation that reports a gain but keeps none of E, or all of it,
        # raises instead of looping on the same minor or dividing by w(∅)
        from omnifair import egalitarian

        def extend(cost, state, bit, tol, scale, weights, level):
            total, blocks = state
            kept = bit if split == 0 else bit | sum(b for b, _, _ in blocks)
            return total - 1, [(kept, 0, 0 if split == 0 else -1)]

        monkeypatch.setattr(egalitarian, "_extend", extend)
        with pytest.raises(ArithmeticError, match=r"^minor \[1, 4, 5\] split empty or whole$"):
            egalitarian_continuous(demo_ctx, {1: 2, 4: 1, 5: 2})

    def test_context_freed_without_the_cyclic_collector(self):
        # a fresh demo source, so no fixture holds it; the weights split
        # block {1, 4, 5} twice, so minors are pushed
        ctx = min_sum_rate(LinearSource.from_packets(DEMO_HOLDINGS))
        refs = weakref.ref(ctx), weakref.ref(ctx.source)
        gc.disable()
        try:
            out = egalitarian_continuous(ctx, {1: 2, 4: 1, 5: 2})
            del ctx
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
        assert out == rv({1: F(3, 2), 2: F(1, 2), 3: F(1, 2), 4: F(3, 2), 5: F(5, 2)})


FW_SOURCES = {
    "packet": lambda seed: random_linear_source(seed, min_users=5, max_users=8, max_packets=14),
    "gf3": lambda seed: random_vector_source(seed, min_users=5, max_users=8),
    "pmf": lambda seed: random_pmf_twins(seed)[1],
}


def uneven_weights(users, seed) -> dict:
    rng = random.Random(f"weights:{seed}")
    return {u: rng.choice((1, 2, 3, F(1, 2), F(5, 3))) for u in users}


class TestContinuousBitIdentity:
    """egalitarian_continuous is the weighted minimum-norm base itself: the
    exact optimality oracle accepts it, so on linear sources its Fractions
    are the unique optimum bit for bit, and on pmf sources it holds within
    1e-9. Its objective is matched against Frank-Wolfe's reference, whose
    duality gap of 1e-9 bounds that reference's excess."""

    @pytest.mark.parametrize("uneven", [False, True], ids=["uniform", "uneven"])
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", sorted(FW_SOURCES))
    def test_matches_reference(self, kind, seed, uneven):
        ctx = min_sum_rate(FW_SOURCES[kind](seed))
        w = uneven_weights(ctx.users, seed) if uneven else None
        got = egalitarian_continuous(ctx, w)
        assert all(type(got[u]) is (float if kind == "pmf" else F) for u in ctx.users)
        assert is_weighted_min_norm_base(ctx, got, w)
        excess = float(objective_g(frank_wolfe_reference(ctx, w), w)) - float(objective_g(got, w))
        assert -1e-12 <= excess <= 1e-9


#: The fuzz corpus of the split rule, whole games and their subgames.
TABLE_SOURCES = {
    "packet": lambda seed: random_linear_source(seed, min_users=3, max_users=8, max_packets=14),
    "gf3": lambda seed: random_vector_source(seed, min_users=3, max_users=7),
    "pmf": random_pmf_source,
}
TABLE_SEEDS = range(60)
#: Wider members, run under uneven weights: 11-14 users in blocks of up to
#: 13, whose splits extend steps of up to 12 blocks.
WIDE_TABLE_SOURCES = {
    "packet": lambda seed: random_linear_source(seed, min_users=11, max_users=14, max_packets=14),
    "gf3": lambda seed: random_vector_source(seed, min_users=11, max_users=14),
}
WIDE_TABLE_SEEDS = range(8)


def corpus_weights(users, seed, kind):
    if kind == "uniform":
        return None
    w = uneven_weights(users, seed)
    return w if kind == "rational" else {u: float(v) for u, v in w.items()}


def exact_bits(r: RateVector) -> dict:
    """Each rate with its type, floats by their hex digits."""
    return {u: r[u].hex() if isinstance(r[u], float) else (type(r[u]), r[u]) for u in r.users}


class TestContinuousMatchesTable:
    """One truncation per split gives the dense-table solver's output bit for
    bit: equal Fractions, and equal floats, as the same formula on the same
    final minors.  Every cell of the corpus splits some block, and the cells
    with wide members take a split step of at least 6 blocks."""

    @pytest.mark.parametrize("weights", ["uniform", "rational", "float"])
    @pytest.mark.parametrize("kind", sorted(TABLE_SOURCES))
    def test_bit_identical(self, kind, weights, monkeypatch):
        from omnifair import egalitarian, omniscience

        held = []
        extend = omniscience._extend
        monkeypatch.setattr(egalitarian, "_extend", lambda *args: held.append(len(args[1][1])) or extend(*args))
        members = [TABLE_SOURCES[kind](seed) for seed in TABLE_SEEDS]
        wide = weights != "uniform" and kind in WIDE_TABLE_SOURCES
        if wide:
            members += [WIDE_TABLE_SOURCES[kind](seed) for seed in WIDE_TABLE_SEEDS]
        split = 0
        for seed, source in enumerate(members):
            ctx = min_sum_rate(source)
            for game in [ctx, *decompose(ctx)]:
                w = corpus_weights(game.users, seed, weights)
                got = egalitarian_continuous(game, w)
                assert exact_bits(got) == exact_bits(lexicographic_base_table(game, w)), (seed, game.users)
                levels = {F(got[u]) / F((w or {}).get(u, 1)) for u in game.users}
                split += game is not ctx and len(levels) > 1
        assert split > 0
        assert max(held) >= (6 if wide else 1)


class TestWeightsRefused:
    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf"), -float("inf")])
    def test_everywhere(self, demo_ctx, bad):
        w = {1: bad}
        message = f"weight for user 1 must be positive and finite, got {bad}"
        with pytest.raises(ValueError, match=message):
            egalitarian_continuous(demo_ctx, w)
        with pytest.raises(ValueError, match=message):
            sda(demo_ctx, weights=w)
        with pytest.raises(ValueError, match=message):
            objective_g(demo_ctx.vertex, w)

    def test_checked_once_per_run(self, demo_ctx, monkeypatch):
        # sda and is_locally_optimal sum the objective over the weights they
        # checked on entry, not over weights re-checked per candidate
        from omnifair import egalitarian

        checks = []
        check = egalitarian._check_weights
        monkeypatch.setattr(egalitarian, "_check_weights",
                            lambda *args: checks.append(args) or check(*args))
        w = {1: 6, 2: 1, 3: 1, 4: 3, 5: 2}
        out, trace = sda(demo_ctx, r0=rv(R0), K=4, weights=w)
        assert trace.iterations > 0 and trace.locally_optimal is not None
        assert len(checks) == 2  # sda's and is_locally_optimal's
        checks.clear()
        assert is_locally_optimal(demo_ctx, out, 4, w) is trace.locally_optimal
        assert len(checks) == 1


class TestDecomposed:
    def test_grid_mode_matches_whole_game(self, demo_ctx):
        fused = egalitarian_decomposed(demo_ctx, r0=rv(R0))
        assert fused == rv(OPTIMUM)

    def test_grid_mode_from_default_vertices(self, demo_ctx):
        assert egalitarian_decomposed(demo_ctx) == rv(OPTIMUM)

    def test_continuous_mode_matches_whole_game(self, demo_ctx, demo_subgames):
        weights = {1: 6, 2: 1, 3: 1, 4: 3, 5: 2}
        fused = RateVector.direct_sum(
            egalitarian_continuous(sub, {u: weights[u] for u in sub.users}) for sub in demo_subgames)
        assert fused == egalitarian_continuous(demo_ctx, weights) == rv(WEIGHTED_OPTIMUM)

    def test_all_singleton_partition_returns_unique_point(self):
        src = LinearSource.from_packets({1: ["a"], 2: ["a"]})
        ctx = min_sum_rate(src)
        assert egalitarian_decomposed(ctx) == rv({1: 0, 2: 0})


class TestPacketSplitPlan:
    def test_two_chunk_plan(self):
        plan = packet_split_plan(rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: 4, 5: F(1, 2)}), K=2)
        assert plan.chunks_per_packet == 2
        assert plan.chunk_rates == {1: 2, 2: 1, 3: 1, 4: 8, 5: 1}

    def test_shapley_value_needs_four_chunks(self, demo_ctx):
        from omnifair import shapley_exact

        value = shapley_exact(demo_ctx)
        with pytest.raises(SplitError) as err:
            packet_split_plan(value, K=2)
        assert err.value.minimal_chunks == 4
        assert err.value.offenders == [1, 5]
        assert packet_split_plan(value).chunks_per_packet == 4

    def test_weighted_optimum_needs_ten_chunks(self, demo_ctx):
        r = egalitarian_continuous(demo_ctx, {1: 6, 2: 1, 3: 1, 4: 3, 5: 2})
        assert r == rv(WEIGHTED_OPTIMUM)
        plan = packet_split_plan(r)
        assert plan.chunks_per_packet == 10
        assert plan.chunk_rates == {1: 15, 2: 5, 3: 5, 4: 24, 5: 16}

    def test_float_rates_rejected(self):
        with pytest.raises(ValueError, match="exact rational"):
            packet_split_plan(RateVector({1: 0.5, 2: 0.5}))

    def test_bad_chunk_count_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            packet_split_plan(rv({1: 1, 2: 1}), K=0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError, match=r"^rates of users \[1\] are negative$"):
            packet_split_plan(rv({1: F(-1, 2), 2: F(3, 2)}))
