from fractions import Fraction as F

import pytest

from omnifair import (
    ConvergenceError,
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
)

from conftest import cross_checked_membership, rv

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
