from fractions import Fraction as F

import pytest

from omnifair import (
    GameContext,
    LinearSource,
    Partition,
    RateVector,
    conditional_mi_given_U,
    core_membership,
    decompose,
    dilworth_truncation,
    f_alpha,
    l1_size,
    min_sum_rate,
)
from omnifair.omniscience import DecompositionError, check_decomposition
from omnifair.setfn import subsets

from conftest import (
    DEMO_HOLDINGS,
    bruteforce_min_sum_rate,
    cross_checked_membership,
    dilworth_enumerate,
    hat_membership,
    iter_partitions,
    pmf_from_packets,
    rv,
)


class TestRateVector:
    def test_mass_and_total(self):
        r = rv({1: 1, 2: F(1, 2), 3: F(3, 2)})
        assert r.mass({1, 3}) == F(5, 2)
        assert r.mass(frozenset()) == 0
        assert r.total() == 3

    def test_exchange(self):
        r = rv({1: 1, 2: 2})
        moved = r.exchange(1, 2, F(1, 2))
        assert moved == rv({1: F(3, 2), 2: F(3, 2)})
        assert r == rv({1: 1, 2: 2})  # original untouched

    def test_direct_sum_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlapping"):
            RateVector.direct_sum([rv({1: 1}), rv({1: 2})])

    def test_l1_distance(self):
        a = rv({1: 1, 2: 0})
        b = rv({1: 0, 2: F(5, 2)})
        assert a.l1_distance(b) == F(7, 2)
        with pytest.raises(ValueError, match="different users"):
            a.l1_distance(rv({1: 0, 3: 0}))


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            Partition([{1, 2}, {2, 3}])
        with pytest.raises(ValueError, match="nonempty"):
            Partition([{1}, set()])
        with pytest.raises(ValueError, match="cover"):
            Partition([{1}], ground={1, 2})

    def test_refines(self):
        fine = Partition([{1}, {2}, {3}])
        coarse = Partition([{1, 2}, {3}])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_block_of(self):
        p = Partition([{1, 4, 5}, {2}, {3}])
        assert p.block_of(4) == frozenset({1, 4, 5})
        with pytest.raises(KeyError):
            p.block_of(9)

    def test_iter_partitions_counts_are_bell_numbers(self):
        assert sum(1 for _ in iter_partitions(range(4))) == 15
        assert sum(1 for _ in iter_partitions(range(5))) == 52


class TestParameterizedCost:
    def test_user_4(self, demo_source):
        assert f_alpha(demo_source, F(13, 2), {4}) == F(8) + F(13, 2) - F(10) == F(9, 2)

    def test_user_1(self, demo_source):
        assert f_alpha(demo_source, F(13, 2), {1}) == F(3, 2)

    def test_empty_set(self, demo_source):
        assert f_alpha(demo_source, F(1000), frozenset()) == 0


class TestDilworthTruncation:
    def test_pair_splits(self, demo_source):
        value, part = dilworth_truncation(demo_source, F(13, 2), {1, 2})
        assert value == F(2)
        assert part == Partition([{1}, {2}])

    def test_block_145_by_hand_enumeration(self, demo_source):
        # independent oracle: the five partitions of {1,4,5} scored from the
        # packet counts directly
        h = {X: F(len(set().union(*(DEMO_HOLDINGS[u] for u in X))))
             for X in ((1,), (4,), (5,), (1, 4), (1, 5), (4, 5), (1, 4, 5))}
        cost = {X: v + F(13, 2) - 10 for X, v in h.items()}
        by_hand = min(
            cost[(1,)] + cost[(4,)] + cost[(5,)],
            cost[(1,)] + cost[(4, 5)],
            cost[(4,)] + cost[(1, 5)],
            cost[(5,)] + cost[(1, 4)],
            cost[(1, 4, 5)],
        )
        assert by_hand == F(11, 2)
        for truncate in (dilworth_enumerate, dilworth_truncation):
            value, _ = truncate(demo_source, F(13, 2), {1, 4, 5})
            assert value == by_hand

    def test_singleton(self, demo_source):
        value, part = dilworth_truncation(demo_source, F(13, 2), {3})
        assert value == f_alpha(demo_source, F(13, 2), {3}) == F(1, 2)
        assert part == Partition([{3}])

    def test_empty_rejected(self, demo_source):
        with pytest.raises(ValueError, match="nonempty"):
            dilworth_truncation(demo_source, F(13, 2), frozenset())


class TestMinSumRate:
    def test_demo_instance(self, demo_ctx):
        assert demo_ctx.min_sum_rate == F(13, 2)
        assert demo_ctx.fundamental_partition == Partition([{1, 4, 5}, {2}, {3}])
        assert demo_ctx.shared_randomness == F(7, 2)
        assert demo_ctx.grid_denominator == 2

    def test_methods_agree(self, demo_source, demo_ctx):
        oracle_rate = bruteforce_min_sum_rate(demo_source)
        assert oracle_rate == demo_ctx.min_sum_rate
        _, oracle_partition = dilworth_enumerate(demo_source, oracle_rate, demo_source.users)
        assert oracle_partition == demo_ctx.fundamental_partition

    def test_vertex_is_identity_greedy_and_in_core(self, demo_ctx):
        assert demo_ctx.vertex == demo_ctx.greedy_vertex(demo_ctx.users)
        assert cross_checked_membership(demo_ctx, demo_ctx.vertex)

    def test_vertex_is_read_only(self, demo_ctx):
        with pytest.raises(AttributeError):
            demo_ctx.vertex = demo_ctx.greedy_vertex((5, 4, 3, 2, 1))
        assert demo_ctx.vertex == demo_ctx.greedy_vertex(demo_ctx.users)

    def test_shared_single_packet_needs_no_exchange(self):
        src = LinearSource.from_packets({1: ["a"], 2: ["a"]})
        ctx = min_sum_rate(src)
        assert ctx.min_sum_rate == 0
        assert ctx.shared_randomness == 1
        assert ctx.fundamental_partition == Partition([{1}, {2}])
        assert ctx.vertex == rv({1: 0, 2: 0})

    def test_threshold_is_tight(self, demo_source, demo_ctx):
        # at the solution the whole-set cost meets its truncation; a quarter
        # below it strictly exceeds it
        rco = demo_ctx.min_sum_rate
        assert f_alpha(demo_source, rco, demo_source.ground) == demo_ctx.hat(demo_source.ground)
        below = rco - F(1, 4)
        value, _ = dilworth_truncation(demo_source, below, demo_source.users)
        assert f_alpha(demo_source, below, demo_source.ground) > value


class TestCoreMembership:
    def test_solver_style_vertex(self, demo_ctx):
        assert cross_checked_membership(demo_ctx, rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: F(9, 2), 5: 0}))

    def test_fairer_point(self, demo_ctx):
        assert cross_checked_membership(demo_ctx, rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: 4, 5: F(1, 2)}))

    def test_all_zeros_fails_on_sum(self, demo_ctx):
        zeros = rv({u: 0 for u in demo_ctx.users})
        ok, witness = core_membership(demo_ctx, zeros)
        assert not ok and not hat_membership(demo_ctx, zeros)
        assert "sum rate" in witness

    def test_lower_bound_witness(self, demo_ctx):
        # take the fairer point and push user 4 below its conditional entropy
        r = rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: 0, 5: F(9, 2)})
        ok, witness = core_membership(demo_ctx, r)
        assert not ok and not hat_membership(demo_ctx, r)
        assert "H(X | V∖X)" in witness

    def test_wrong_users_rejected(self, demo_ctx):
        with pytest.raises(ValueError, match="users"):
            core_membership(demo_ctx, rv({1: 1, 2: 1}))


class TestConditionalMi:
    def test_between_blocks(self, demo_ctx):
        assert conditional_mi_given_U(demo_ctx, {1, 4, 5}, {2}) == 0

    def test_within_block(self, demo_ctx):
        assert conditional_mi_given_U(demo_ctx, {1, 4}, {5}) == F(5, 2)

    def test_symmetry(self, demo_ctx):
        assert (conditional_mi_given_U(demo_ctx, {1, 4}, {5})
                == conditional_mi_given_U(demo_ctx, {5}, {1, 4}))

    def test_overlap_rejected(self, demo_ctx):
        with pytest.raises(ValueError, match="overlap"):
            conditional_mi_given_U(demo_ctx, {1, 4}, {4})

    def test_empty_rejected(self, demo_ctx):
        with pytest.raises(ValueError, match="nonempty"):
            conditional_mi_given_U(demo_ctx, frozenset(), {4})


def decomposition_failure(ctx, blocks) -> str:
    """check_decomposition's message for ``ctx`` with a wrong partition."""
    wrong = GameContext(ctx.source, ctx.ground, ctx.min_sum_rate, ctx.sum_cost,
                        Partition(blocks), ctx.shared_randomness, ctx.grid_denominator)
    with pytest.raises(DecompositionError) as failure:
        check_decomposition(wrong)
    return str(failure.value)


class TestDecomposition:
    def test_subgame_grounds_and_costs(self, demo_subgames):
        assert [sub.users for sub in demo_subgames] == [(1, 4, 5), (2,), (3,)]
        assert [sub.sum_cost for sub in demo_subgames] == [F(11, 2), F(1, 2), F(1, 2)]
        assert sum(sub.sum_cost for sub in demo_subgames) == F(13, 2)

    def test_identity_on_every_subset(self, demo_ctx):
        blocks = demo_ctx.fundamental_partition.blocks
        for X in subsets(demo_ctx.users):
            assert demo_ctx.hat(X) == sum(demo_ctx.hat(X & C) for C in blocks)

    @pytest.mark.parametrize("blocks, witness", [
        ([[1], [2], [3], [4], [5]], "hat([1, 4]) = 11/2 but the blockwise sum is 6"),
        ([[1, 4], [2], [3], [5]], "hat([4, 5]) = 9/2 but the blockwise sum is 7"),
    ])
    def test_wrong_partition_names_the_first_violation(self, demo_ctx, blocks, witness):
        assert decomposition_failure(demo_ctx, blocks) == witness

    def test_wrong_partition_of_a_pmf_source(self):
        ctx = min_sum_rate(pmf_from_packets(
            {1: ["a", "b"], 2: ["b", "c"], 3: ["a", "c"], 4: ["c"]}, ["a", "b", "c"]))
        assert ctx.fundamental_partition == Partition([{1, 2, 3}, {4}])
        assert (decomposition_failure(ctx, [[1], [2], [3], [4]])
                == "hat([1, 2, 3]) = 2.0 but the blockwise sum is 3.0")

    def test_singleton_core_is_one_point(self, demo_subgames):
        single = demo_subgames[1]
        assert single.users == (2,)
        assert cross_checked_membership(single, rv({2: F(1, 2)}))
        assert not cross_checked_membership(single, rv({2: F(1, 4)}))

    def test_all_singleton_partition(self):
        src = LinearSource.from_packets({1: ["a"], 2: ["a"]})
        subs = decompose(min_sum_rate(src))
        assert [sub.users for sub in subs] == [(1,), (2,)]
        assert all(len(sub.users) == 1 for sub in subs)

    def test_subgame_cannot_be_decomposed_again(self, demo_subgames):
        with pytest.raises(ValueError, match="whole-game"):
            decompose(demo_subgames[0])


class TestL1Size:
    def test_whole_game(self, demo_ctx):
        assert l1_size(demo_ctx) == 6

    def test_three_user_subgame(self, demo_subgames):
        assert l1_size(demo_subgames[0]) == 6

    def test_singleton_subgame(self, demo_subgames):
        assert l1_size(demo_subgames[1]) == 0
