from fractions import Fraction as F
from itertools import permutations
from math import factorial

import pytest

from omnifair import (
    GameContext,
    GroundSetTooLarge,
    LinearSource,
    Partition,
    RateVector,
    enumerate_extreme_points,
    min_sum_rate,
    sample_permutations,
    shapley_approx,
    shapley_decomposed,
    shapley_exact,
)

from omnifair.sources import FLOAT_TOL

from conftest import (
    chain_greedy_vertex,
    corpus_source,
    cross_checked_membership,
    mean_vector,
    random_linear_source,
    random_pmf_twins,
    rv,
    shapley_mean_of_vertices,
    shapley_whole_game,
    spy_cost,
)

DEMO_VERTICES = {
    (F(3, 2), F(1, 2), F(1, 2), F(4), F(0)),
    (F(3, 2), F(1, 2), F(1, 2), F(3, 2), F(5, 2)),
    (F(1), F(1, 2), F(1, 2), F(9, 2), F(0)),
    (F(1), F(1, 2), F(1, 2), F(2), F(5, 2)),
}
BLOCK_VERTICES = {
    (F(3, 2), F(4), F(0)),
    (F(3, 2), F(3, 2), F(5, 2)),
    (F(1), F(9, 2), F(0)),
    (F(1), F(2), F(5, 2)),
}


@pytest.fixture()
def block_ctx(demo_subgames):
    return demo_subgames[0]


class TestGreedyVertex:
    def test_marginal_order_451(self, block_ctx):
        assert block_ctx.greedy_vertex((4, 5, 1)) == rv({1: 1, 4: F(9, 2), 5: 0})

    def test_marginal_order_145(self, block_ctx):
        assert block_ctx.greedy_vertex((1, 4, 5)) == rv({1: F(3, 2), 4: 4, 5: 0})

    def test_marginal_order_154(self, block_ctx):
        assert block_ctx.greedy_vertex((1, 5, 4)) == rv({1: F(3, 2), 4: F(3, 2), 5: F(5, 2)})

    def test_chain_method_agrees(self, demo_ctx, block_ctx):
        for ctx in (demo_ctx, block_ctx):
            for perm in ((ctx.users), tuple(reversed(ctx.users))):
                assert chain_greedy_vertex(ctx, perm) == ctx.greedy_vertex(perm)

    def test_every_vertex_in_core(self, demo_ctx):
        import itertools

        for perm in itertools.permutations(demo_ctx.users):
            assert cross_checked_membership(demo_ctx, demo_ctx.greedy_vertex(perm))

    def test_not_a_permutation(self, demo_ctx):
        with pytest.raises(ValueError, match="permutation"):
            demo_ctx.greedy_vertex((1, 2, 3))

    def test_one_message_for_a_non_permutation(self, demo_ctx):
        message = "(1, 2, 3) is not a permutation of (1, 2, 3, 4, 5)"
        with pytest.raises(ValueError) as caught:
            demo_ctx.greedy_vertex((1, 2, 3))
        assert str(caught.value) == message


class TestEnumerateExtremePoints:
    def test_whole_game(self, demo_ctx):
        got = {v.as_tuple() for v in enumerate_extreme_points(demo_ctx)}
        assert got == DEMO_VERTICES

    def test_block(self, block_ctx):
        got = {v.as_tuple() for v in enumerate_extreme_points(block_ctx)}
        assert got == BLOCK_VERTICES

    def test_singleton(self, demo_subgames):
        assert [v.as_tuple() for v in enumerate_extreme_points(demo_subgames[1])] == [(F(1, 2),)]

    def test_too_many_users(self):
        src = LinearSource.from_packets({u: [f"p{u}"] for u in range(1, 10)})
        ctx = min_sum_rate(src)
        with pytest.raises(GroundSetTooLarge):
            enumerate_extreme_points(ctx)


class TestShapleyExact:
    def test_whole_game(self, demo_ctx):
        assert shapley_exact(demo_ctx) == rv({1: F(5, 4), 2: F(1, 2), 3: F(1, 2), 4: 3, 5: F(5, 4)})

    def test_block(self, block_ctx):
        assert shapley_exact(block_ctx) == rv({1: F(5, 4), 4: 3, 5: F(5, 4)})

    def test_single_user(self, demo_subgames):
        assert shapley_exact(demo_subgames[2]) == rv({3: F(1, 2)})

    def test_in_core(self, demo_ctx):
        assert cross_checked_membership(demo_ctx, shapley_exact(demo_ctx))

    @pytest.mark.parametrize("seed", range(6))
    def test_pmf_is_the_mean_vertex_over_all_permutations(self, seed):
        ctx = min_sum_rate(random_pmf_twins(seed)[1])
        vertices = [ctx.greedy_vertex(p) for p in permutations(ctx.users)]
        exact = shapley_exact(ctx)
        for u in ctx.users:
            assert abs(exact[u] - sum(v[u] for v in vertices) / len(vertices)) <= FLOAT_TOL

    def test_size_limit(self):
        src = LinearSource.from_packets({u: [f"p{u}"] for u in range(1, 22)})
        ctx = GameContext(src, src.ground, F(0), Partition([src.ground]))
        with pytest.raises(GroundSetTooLarge, match="^ground set of size 21 exceeds the exhaustive limit 20$"):
            shapley_exact(ctx)

    def test_refused_before_any_cost_is_read(self, demo_source, monkeypatch):
        # one table per fundamental block, the largest being [1, 4, 5]: every
        # block is checked at the exhaustive limit before any cost is read
        from omnifair import setfn

        ctx = min_sum_rate(demo_source)
        cost_calls = spy_cost(ctx, monkeypatch).reads
        monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 3)
        assert shapley_exact(ctx) == rv({1: F(5, 4), 2: F(1, 2), 3: F(1, 2), 4: 3, 5: F(5, 4)})
        assert cost_calls
        cost_calls.clear()
        monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 2)
        with pytest.raises(GroundSetTooLarge, match="^ground set of size 3 exceeds the exhaustive limit 2$"):
            shapley_exact(ctx)
        assert cost_calls == {}


class TestPerBlockEqualsWholeGame:
    """The per-block exact value against the whole-game defining sum, on the
    benchmark corpus's seeded families; equal rationals for linear sources."""

    @pytest.mark.parametrize("member", range(2))
    @pytest.mark.parametrize("n", range(5, 11))
    @pytest.mark.parametrize("family", ["mixed", "clustered", "dense", "sparse", "gf3"])
    def test_linear_corpus(self, family, n, member):
        ctx = min_sum_rate(corpus_source(f"{family}-{n}", member))
        assert ctx.source.is_exact
        assert len(ctx.fundamental_partition) > 1  # every one of these games splits
        assert shapley_exact(ctx) == shapley_whole_game(ctx)

    @pytest.mark.parametrize("game", [*(f"pmf-{n}:{m}" for n in (4, 5, 6) for m in range(2)),
                                      *(f"twins:{seed}" for seed in range(6))])
    def test_pmf_within_1e_12(self, game):
        family, k = game.split(":")
        ctx = min_sum_rate(random_pmf_twins(int(k))[1] if family == "twins" else corpus_source(family, int(k)))
        exact, whole = shapley_exact(ctx), shapley_whole_game(ctx)
        assert all(abs(exact[u] - whole[u]) <= 1e-12 for u in ctx.users)


class TestMeanOfVertices:
    def test_equals_exact_on_demo(self, demo_ctx):
        assert shapley_mean_of_vertices(demo_ctx) == shapley_exact(demo_ctx)

    def test_block(self, block_ctx):
        assert shapley_mean_of_vertices(block_ctx) == rv({1: F(5, 4), 4: 3, 5: F(5, 4)})

    def test_one_vertex_core(self, demo_subgames):
        single = demo_subgames[1]
        assert shapley_mean_of_vertices(single) == single.vertex

    def test_centroid_is_not_shapley_on_seed_0(self):
        # vertices of this core arise from unequally many permutations, so
        # the centroid of the distinct vertices misses the Shapley value
        ctx = min_sum_rate(random_linear_source(0))
        assert shapley_exact(ctx) == rv(
            {1: 0, 2: F(5, 4), 3: F(3, 2), 4: F(1, 4), 5: F(19, 6), 6: F(11, 6)})
        assert shapley_mean_of_vertices(ctx) == rv(
            {1: 0, 2: F(3, 2), 3: F(17, 10), 4: F(1, 2), 5: F(11, 5), 6: F(21, 10)})


class TestShapleyApprox:
    def test_explicit_three_permutations(self, block_ctx):
        # mean of the three generated vertices (3/2,4,0), (3/2,3/2,5/2), (1,9/2,0)
        approx = shapley_approx(block_ctx, [(1, 4, 5), (1, 5, 4), (4, 1, 5)])
        assert approx == rv({1: F(4, 3), 4: F(10, 3), 5: F(5, 6)})

    def test_single_permutation_is_its_vertex(self, block_ctx):
        assert shapley_approx(block_ctx, [(4, 5, 1)]) == rv({1: 1, 4: F(9, 2), 5: 0})

    def test_all_permutations_recover_exact(self, block_ctx):
        approx = shapley_approx(block_ctx, count=factorial(3), seed=11)
        assert approx == shapley_exact(block_ctx)

    def test_deterministic_given_seed(self, demo_ctx):
        a = shapley_approx(demo_ctx, count=4, seed=5)
        b = shapley_approx(demo_ctx, count=4, seed=5)
        assert a == b

    def test_always_in_core(self, demo_ctx):
        for seed in range(6):
            approx = shapley_approx(demo_ctx, count=3, seed=seed)
            assert cross_checked_membership(demo_ctx, approx)
            assert approx.total() == demo_ctx.min_sum_rate

    def test_empty_list_rejected(self, demo_ctx):
        with pytest.raises(ValueError, match="empty"):
            shapley_approx(demo_ctx, [])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("pmf", [False, True], ids=["linear", "pmf"])
    def test_is_the_mean_greedy_vertex(self, seed, pmf):
        ctx = min_sum_rate(random_pmf_twins(seed)[pmf])
        perms = sample_permutations(ctx.users, 5, seed)
        perms += perms[:3]  # repeated permutations count again
        want = mean_vector([ctx.greedy_vertex(p) for p in perms])
        # a fresh context, so nothing the vertices computed is reused
        got = shapley_approx(min_sum_rate(random_pmf_twins(seed)[pmf]), perms)
        assert got == want
        assert all(type(got[u]) is type(want[u]) for u in ctx.users)

    @pytest.mark.parametrize("order", [
        (1, 2, 3, 4, 4), (1, 2, 3, 4), (1, 2, 3, 4, 9)], ids=["duplicated", "missing", "foreign"])
    def test_not_a_permutation(self, demo_ctx, order):
        message = f"{order} is not a permutation of (1, 2, 3, 4, 5)"
        for refuse in (demo_ctx.greedy_vertex, lambda p: shapley_approx(demo_ctx, [demo_ctx.users, p])):
            with pytest.raises(ValueError) as caught:
                refuse(order)
            assert str(caught.value) == message

    def test_seed_required_for_sampling(self, demo_ctx):
        with pytest.raises(ValueError, match="seed"):
            shapley_approx(demo_ctx, count=3)

    @pytest.mark.parametrize("count", [0, -2])
    def test_no_permutations_refused(self, demo_ctx, count):
        # 0 is a count, not a request for the default of one per user
        with pytest.raises(ValueError, match="^need at least one permutation$"):
            shapley_approx(demo_ctx, count=count, seed=7)
        with pytest.raises(ValueError, match="^need at least one permutation$"):
            shapley_decomposed(demo_ctx, mode="approx", count=count, seed=7)

    def test_no_permutations_refused_on_singleton_blocks(self):
        # every block is one user, so no block samples; the count is refused anyway
        ctx = min_sum_rate(LinearSource.from_packets({1: ["a"], 2: ["a"]}))
        assert len(ctx.fundamental_partition) == 2
        assert shapley_decomposed(ctx, mode="approx", count=1, seed=7) == rv({1: 0, 2: 0})
        with pytest.raises(ValueError, match="^need at least one permutation$"):
            shapley_decomposed(ctx, mode="approx", count=0, seed=7)


class TestSamplePermutations:
    def test_without_replacement_until_space_exhausted(self):
        perms = sample_permutations((1, 2, 3), 6, seed=0)
        assert len(perms) == 6
        assert len(set(perms)) == 6

    def test_with_replacement_beyond_space(self):
        perms = sample_permutations((1, 2), 5, seed=0)
        assert len(perms) == 5
        assert set(perms) <= {(1, 2), (2, 1)}

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_permutations((1, 2), 0, seed=0)


class TestShapleyDecomposed:
    def test_exact_fusion(self, demo_ctx):
        assert shapley_decomposed(demo_ctx, mode="exact") == shapley_exact(demo_ctx)

    def test_all_singleton_partition(self):
        src = LinearSource.from_packets({1: ["a"], 2: ["a"]})
        ctx = min_sum_rate(src)
        fused = shapley_decomposed(ctx, mode="exact")
        assert fused == RateVector({u: ctx.hat(frozenset({u})) for u in ctx.users})

    def test_approx_with_explicit_block_permutations(self, demo_ctx):
        fused = shapley_decomposed(
            demo_ctx, mode="approx",
            permutations={frozenset({1, 4, 5}): [(1, 4, 5), (1, 5, 4), (4, 1, 5)]})
        assert fused == rv({1: F(4, 3), 2: F(1, 2), 3: F(1, 2), 4: F(10, 3), 5: F(5, 6)})

    def test_approx_seeded_deterministic(self, demo_ctx):
        a = shapley_decomposed(demo_ctx, mode="approx", seed=3)
        b = shapley_decomposed(demo_ctx, mode="approx", seed=3)
        assert a == b
        assert a.total() == demo_ctx.min_sum_rate
