from fractions import Fraction as F
from itertools import permutations
from types import SimpleNamespace

import pytest

from omnifair import (
    ConvergenceError,
    GroundSetTooLarge,
    LinearSource,
    SplitError,
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

from conftest import (
    cross_checked_membership,
    dep_matches_oracle,
    pmf_from_packets,
    random_linear_source,
    rv,
    sfm_dep,
)

R0 = {1: 1, 2: F(1, 2), 3: F(1, 2), 4: F(9, 2), 5: 0}
OPTIMUM = {1: F(3, 2), 2: F(1, 2), 3: F(1, 2), 4: 2, 5: 2}
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
        points = [ctx.vertex, shapley_exact(ctx)]
        points += [ctx.greedy_vertex(p) for p in permutations(ctx.users)]
        assert dep_matches_oracle(ctx, points)
        # some minimizers tie only within tol, so the float comparison is exercised
        untolerant = SimpleNamespace(ground=ctx.ground, users=ctx.users, f=ctx.f, tol=0)
        assert any(sfm_dep(untolerant, r, i) != dep(ctx, r, i)
                   for r in points for i in ctx.users)

    def test_finer_grid_matches_oracle(self, demo_ctx):
        start = rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: 4, 5: F(1, 2)})
        _, trace = sda(demo_ctx, r0=start, K=4)
        assert demo_ctx.grid_denominator == 2
        assert any(it[u].denominator == 4 for it in trace.iterates for u in it.users)
        assert dep_matches_oracle(demo_ctx, trace.iterates, K=4)

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
        sda(ctx)  # fills the truncation cache that the iteration budget reads
        sfm_calls, f_calls = [], []
        for module in (setfn, omniscience, egalitarian, shapley):
            if hasattr(module, "sfm_min"):
                def counted(*args, _sfm=module.sfm_min, **kwargs):
                    sfm_calls.append(args)
                    return _sfm(*args, **kwargs)
                monkeypatch.setattr(module, "sfm_min", counted)
        cost = ctx.f
        monkeypatch.setattr(ctx, "f", lambda X: f_calls.append(X) or cost(X))
        dep_calls = []
        monkeypatch.setattr(egalitarian, "dep",
                            lambda *args, _dep=egalitarian.dep: dep_calls.append(args) or _dep(*args))
        _, trace = sda(ctx)
        n = len(ctx.users)
        # one SFM per user per iteration would evaluate f n 2^(n-1) times each
        assert n == 8 and trace.iterations == 12
        assert sfm_calls == []
        assert len(f_calls) <= 2 ** n
        # every user's set still goes through the public dep, off one table
        assert len(dep_calls) == n * (trace.iterations + 1)
        assert len({id(args[3]) for args in dep_calls}) == 1

    def test_refusal_boundary(self, demo_source, monkeypatch):
        # each dependence SFM has n - 1 free users; the refusal comes before
        # f is tabulated
        from omnifair import setfn

        ctx = min_sum_rate(demo_source)
        n = len(ctx.users)
        monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", n - 1)
        assert dep(ctx, ctx.vertex, 1) == frozenset({1})
        assert sda(ctx)[0] == rv(OPTIMUM)
        monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", n - 2)
        f_calls = []
        cost = ctx.f
        monkeypatch.setattr(ctx, "f", lambda X: f_calls.append(X) or cost(X))
        with pytest.raises(GroundSetTooLarge, match=f"size {n - 1} exceeds"):
            dep(ctx, ctx.vertex, 1)
        with pytest.raises(GroundSetTooLarge, match=f"size {n - 1} exceeds"):
            sda(ctx)
        assert f_calls == []


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


class TestContinuous:
    def test_uniform_weights(self, demo_ctx):
        out = egalitarian_continuous(demo_ctx)
        want = {1: 1.5, 2: 0.5, 3: 0.5, 4: 2.0, 5: 2.0}
        for u in demo_ctx.users:
            assert out[u] == pytest.approx(want[u], abs=1e-6)

    def test_weighted(self, demo_ctx):
        out = egalitarian_continuous(demo_ctx, {1: 6, 2: 1, 3: 1, 4: 3, 5: 2})
        want = {1: 1.5, 2: 0.5, 3: 0.5, 4: 2.4, 5: 1.6}
        for u in demo_ctx.users:
            assert out[u] == pytest.approx(want[u], abs=1e-6)

    def test_agrees_with_grid_descent_for_uniform_weights(self, demo_ctx):
        cont = egalitarian_continuous(demo_ctx)
        grid, _ = sda(demo_ctx)
        for u in demo_ctx.users:
            assert cont[u] == pytest.approx(float(grid[u]), abs=1e-6)

    def test_singleton_block_ignores_weights(self, demo_subgames):
        single = demo_subgames[1]
        for w in (None, {2: 17}):
            out = egalitarian_continuous(single, w)
            assert out[2] == pytest.approx(0.5, abs=1e-12)

    def test_iteration_budget_enforced(self, demo_ctx):
        with pytest.raises(ConvergenceError):
            egalitarian_continuous(demo_ctx, max_iter=0)

    def test_bad_tol_rejected(self, demo_ctx):
        with pytest.raises(ValueError, match="tol"):
            egalitarian_continuous(demo_ctx, tol=0)


class TestDecomposed:
    def test_grid_mode_matches_whole_game(self, demo_ctx):
        fused = egalitarian_decomposed(demo_ctx, mode="sda", r0=rv(R0))
        assert fused == rv(OPTIMUM)

    def test_grid_mode_from_default_vertices(self, demo_ctx):
        assert egalitarian_decomposed(demo_ctx, mode="sda") == rv(OPTIMUM)

    def test_continuous_mode_matches_whole_game(self, demo_ctx):
        weights = {1: 6, 2: 1, 3: 1, 4: 3, 5: 2}
        tol = 1e-10
        fused = egalitarian_decomposed(demo_ctx, mode="continuous", weights=weights, tol=tol)
        whole = egalitarian_continuous(demo_ctx, weights, tol=tol)
        for u in demo_ctx.users:
            assert fused[u] == pytest.approx(whole[u], abs=2 * tol)

    def test_all_singleton_partition_returns_unique_point(self):
        src = LinearSource.from_packets({1: ["a"], 2: ["a"]})
        ctx = min_sum_rate(src)
        assert egalitarian_decomposed(ctx, mode="sda") == rv({1: 0, 2: 0})

    def test_unknown_mode(self, demo_ctx):
        with pytest.raises(ValueError, match="mode"):
            egalitarian_decomposed(demo_ctx, mode="newton")


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

    def test_weighted_optimum_needs_ten_chunks(self):
        r = rv({1: F(3, 2), 2: F(1, 2), 3: F(1, 2), 4: F(12, 5), 5: F(8, 5)})
        assert packet_split_plan(r).chunks_per_packet == 10

    def test_float_rates_rejected(self):
        from omnifair import RateVector

        with pytest.raises(ValueError, match="exact rational"):
            packet_split_plan(RateVector({1: 0.5, 2: 0.5}))

    def test_bad_chunk_count_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            packet_split_plan(rv({1: 1, 2: 1}), K=0)
