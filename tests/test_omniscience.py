import random
from fractions import Fraction as F
from pathlib import Path

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
    load_source,
    min_sum_rate,
    objective_g,
    shapley_exact,
)
from omnifair.egalitarian import dep
from omnifair.omniscience import DecompositionError, check_decomposition
from omnifair.setfn import GroundSetTooLarge
from omnifair.setfn import subsets
from omnifair.sources import FLOAT_TOL

from conftest import (
    DEMO_HOLDINGS,
    bruteforce_min_sum_rate,
    cross_checked_membership,
    dilworth_enumerate,
    every_key,
    hat_membership,
    iter_partitions,
    left_sum,
    loop_core_membership,
    pmf_from_packets,
    random_core_direction,
    random_linear_source,
    random_pmf_source,
    random_pmf_twins,
    random_vector_source,
    rv,
    sfm_dep,
    spy_cost,
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


RAW_TABLE_SOURCES = {
    "packet": random_linear_source,
    "gf3": random_vector_source,
    "pmf": lambda seed: random_pmf_twins(seed)[1],
}


class TestRawTable:
    """raw_table builds each mask's state from its parent's by a bit above
    the parent's bits, so every total is the fold of the mask's bits, equal
    floats included, and each nonempty mask costs one truncation step."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", sorted(RAW_TABLE_SOURCES))
    def test_every_total_is_the_fold(self, kind, seed, monkeypatch):
        from omnifair import omniscience

        ctx = min_sum_rate(RAW_TABLE_SOURCES[kind](seed))
        steps = []
        extend = omniscience._extend
        monkeypatch.setattr(omniscience, "_extend", lambda *args: steps.append(args) or extend(*args))
        for game in [ctx, *decompose(ctx)]:
            steps.clear()
            table = game.raw_table()
            n = len(game.users)
            assert len(table) == 2 ** n and len(steps) == 2 ** n - 1
            masks = [sum(game.source.mask((u,)) for k, u in enumerate(game.users) if m >> k & 1)
                     for m in range(2 ** n)]
            assert table == [omniscience._fold(game._cost, m, game.tol)[0] for m in masks]


class TestRawMarginals:
    """Each user's raw marginal is taken over the earlier users of its own
    block; on a linear source that is the whole-prefix truncation
    difference, exactly, on every permutation."""

    @pytest.mark.parametrize("kind", ["packet", "gf3"])
    def test_whole_prefix_differences(self, kind):
        from functools import cache
        from itertools import permutations

        from omnifair.omniscience import _fold

        split = 0
        for seed in range(8):
            ctx = min_sum_rate(RAW_TABLE_SOURCES[kind](seed))
            split += len(ctx.fundamental_partition) > 1
            total = cache(lambda mask: _fold(ctx._cost, mask, ctx.tol)[0])
            orders = list(permutations(ctx.users))
            for order, marginals in zip(orders, ctx.raw_marginals(orders)):
                prefixes = [ctx.source.mask(order[:k]) for k in range(len(order) + 1)]
                assert marginals == {u: total(prefixes[k + 1]) - total(prefixes[k])
                                     for k, u in enumerate(order)}
        assert split > 0


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

    def test_vertex_is_read_only(self, demo_source):
        ctx = min_sum_rate(demo_source)  # a fresh game, its vertex not yet read
        with pytest.raises(AttributeError, match="^GameContext.vertex is read-only$"):
            ctx.vertex = ctx.greedy_vertex((5, 4, 3, 2, 1))
        assert ctx.vertex == ctx.greedy_vertex(ctx.users)
        with pytest.raises(AttributeError, match="^GameContext.vertex is read-only$"):
            ctx.vertex = ctx.greedy_vertex((5, 4, 3, 2, 1))

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


#: Every public attribute a solved context sets in its constructor.
CONTEXT_ATTRIBUTES = ["source", "ground", "users", "min_sum_rate", "sum_cost", "fundamental_partition",
                      "shared_randomness", "grid_denominator", "tol", "blocks", "value_of"]


class TestContextReadOnly:
    """A solved context's truncation cost is built from its sum-rate and
    source once, so neither can be reassigned, nor any other public
    attribute; private ones stay assignable."""

    @pytest.mark.parametrize("name", CONTEXT_ATTRIBUTES)
    def test_assignment_refused(self, name):
        ctx = min_sum_rate(LinearSource.from_packets({1: "ab", 2: "bc", 3: "c"}))
        before = getattr(ctx, name)
        with pytest.raises(AttributeError, match=f"^GameContext.{name} is read-only$"):
            setattr(ctx, name, F(7))
        assert getattr(ctx, name) is before
        assert ctx.min_sum_rate == ctx.sum_cost == ctx.hat(ctx.ground) == 2
        assert shapley_exact(ctx).total() == 2

    def test_private_attributes_stay_assignable(self, demo_ctx, monkeypatch):
        monkeypatch.setattr(demo_ctx, "_cost", demo_ctx._cost)
        assert demo_ctx.vertex == demo_ctx.greedy_vertex(demo_ctx.users)


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
    wrong = GameContext(ctx.source, ctx.ground, ctx.min_sum_rate, Partition(blocks))
    with pytest.raises(DecompositionError) as failure:
        check_decomposition(wrong)
    return str(failure.value)


#: Every field a context derives from (source, ground, R_CO, P*).
DERIVED_FIELDS = ["sum_cost", "shared_randomness", "grid_denominator", "blocks", "vertex"]


class TestDerivedContexts:
    """A game is fixed by its source, ground set, sum-rate and fundamental
    partition: rebuilding a solved game or one of its subgames from those
    four gives every derived field."""

    @pytest.mark.parametrize("make", [random_linear_source, random_vector_source, random_pmf_source])
    @pytest.mark.parametrize("seed", range(4))
    def test_rebuilt_from_four_arguments(self, make, seed):
        src = make(seed)
        ctx = min_sum_rate(src)
        rco, part = ctx.min_sum_rate, ctx.fundamental_partition
        subgames = decompose(ctx)
        assert [sub.ground for sub in subgames] == list(part.blocks)
        pairs = [(ctx, GameContext(src, src.ground, rco, part))]
        pairs += [(sub, GameContext(src, sub.ground, rco, part)) for sub in subgames]
        for game, rebuilt in pairs:
            for name in DERIVED_FIELDS:
                assert getattr(rebuilt, name) == getattr(game, name), name
        assert [sub.sum_cost for sub in subgames] == [ctx.hat(C) for C in part.blocks]

    @pytest.mark.parametrize("source, excess", [
        (LinearSource.from_packets({1: ["a"], 2: ["a", "b"]}), F(1)),
        (pmf_from_packets({1: ["a"], 2: ["a", "b"]}, ["a", "b"]), 2 * FLOAT_TOL),
    ])
    def test_sum_rate_above_the_joint_entropy_is_refused(self, source, excess):
        hv = source.entropy(source.ground)
        with pytest.raises(ArithmeticError, match="^shared randomness came out negative: -"):
            GameContext(source, source.ground, hv + excess, Partition([source.ground]))

    def test_ground_must_be_the_whole_game_or_a_block(self, demo_source, demo_ctx):
        with pytest.raises(ValueError, match="neither the whole game nor a block"):
            GameContext(demo_source, {1, 4}, demo_ctx.min_sum_rate, demo_ctx.fundamental_partition)


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


def membership_points(ctx, rng: random.Random) -> list[RateVector]:
    """Greedy vertices, convex combinations of two of them (in the core),
    vertices moved along random zero-sum directions and arbitrary vectors
    (mostly outside it), and for exact games each vertex moved one step of
    1/K and of 1/(7K) from a user to the one after it in its order, across
    the tight prefix constraint between them."""
    users = ctx.users
    orders = [tuple(rng.sample(users, len(users))) for _ in range(6)]
    vertices = [ctx.greedy_vertex(order) for order in orders]
    points = list(vertices)
    for a, b in zip(vertices, vertices[1:]):
        t = F(rng.randint(1, 4), 5) if ctx.source.is_exact else rng.random()
        points.append(RateVector({u: t * a[u] + (1 - t) * b[u] for u in users}))
    for v in vertices:
        direction = random_core_direction(rng, users)
        points.append(RateVector({u: v[u] + direction[u] for u in users}))
    points += [RateVector({u: F(rng.randint(-4, 24), rng.choice((1, 2, 4))) for u in users})
               for _ in range(4)]
    if ctx.source.is_exact:
        K = ctx.grid_denominator
        for order, v in zip(orders, vertices):
            for step in (F(1, K), F(1, 7 * K)):
                points += [v.exchange(i, j, step) for i, j in zip(order, order[1:])]
                points += [v.exchange(j, i, step) for i, j in zip(order, order[1:])]
    return points


MEMBERSHIP_SOURCES = {
    **{f"packets-{seed}": (lambda seed=seed: random_linear_source(seed, max_users=7))
       for seed in range(8)},
    **{f"gf3-{seed}": (lambda seed=seed: random_vector_source(seed)) for seed in range(6)},
    **{f"pmf-{seed}": (lambda seed=seed: random_pmf_twins(seed)[1]) for seed in range(4)},
    "pmf-4-golden": lambda: load_source(Path(__file__).parent / "golden" / "sources" / "pmf-4.json"),
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SOURCES))
def test_core_membership_matches_the_subset_loop(name):
    """Same (verdict, witness) strings as the one-subset-at-a-time oracle,
    on the whole game and on every fundamental-partition subgame."""
    ctx = min_sum_rate(MEMBERSHIP_SOURCES[name]())
    rng = random.Random(f"membership:{name}")
    verdicts = set()
    for game in [ctx, *decompose(ctx)]:
        for r in membership_points(game, rng):
            want = loop_core_membership(game, r)
            assert core_membership(game, r) == want, (game.users, r)
            verdicts.add(want[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SOURCES))
def test_one_table_serves_vectors_of_every_denominator(name, monkeypatch):
    """A game's slack table, built once, answers core membership and every
    dependence set for vectors whose denominators it never saw (1/K,
    1/(7K), 1/11) and for float vectors, with no raw cost read again."""
    ctx = min_sum_rate(MEMBERSHIP_SOURCES[name]())
    rng = random.Random(f"one-table:{name}")
    verdicts = set()
    for game in [ctx, *decompose(ctx)]:
        K, order = game.grid_denominator, tuple(rng.sample(game.users, len(game.users)))
        v = game.greedy_vertex(order)
        moved = [v.exchange(a, b, step) for step in (F(1, K), F(1, 7 * K), F(1, 11))
                 for i, j in zip(order, order[1:]) for a, b in ((i, j), (j, i))]
        points = [v, *moved, *(RateVector({u: float(r[u]) for u in r.users}) for r in [v, *moved[::3]])]
        game._slack_table  # built before the spy
        reads = spy_cost(game, monkeypatch).reads
        for r in points:
            want = loop_core_membership(game, r)
            assert core_membership(game, r) == want, (game.users, r)
            assert [dep(game, r, i) for i in game.users] == [sfm_dep(game, r, i) for i in game.users]
            verdicts.add(want[0])
        assert reads == {}, "a raw cost was read again"
    assert verdicts == {True, False}


def test_repeated_public_reads_build_one_table(demo_source, monkeypatch):
    # every public core question about one game reads its one slack table
    ctx = min_sum_rate(demo_source)
    vertex = ctx.vertex
    expected = every_key(ctx)  # each nonempty mask's key, once
    want = [sfm_dep(ctx, vertex, i) for i in ctx.users]
    reads = spy_cost(ctx, monkeypatch).reads
    assert [dep(ctx, vertex, i) for i in ctx.users] == want
    assert core_membership(ctx, vertex) == (True, None)
    assert reads == expected and sum(expected.values()) == 2 ** len(ctx.users) - 1 == 31


def test_core_membership_of_float_rates_in_an_exact_game(demo_ctx, demo_subgames):
    # the demo's rates are halves, which float64 holds exactly
    rng = random.Random("membership:float-rates")
    verdicts = set()
    for game in [demo_ctx, *demo_subgames]:
        for r in membership_points(game, rng):
            r = RateVector({u: float(r[u]) for u in r.users})
            want = loop_core_membership(game, r)
            assert core_membership(game, r) == want, (game.users, r)
            verdicts.add(want[0])
            # the float64 table of dep against the per-subset SFM oracle
            assert [dep(game, r, i) for i in game.users] == [sfm_dep(game, r, i) for i in game.users]
    assert verdicts == {True, False}


def test_core_membership_refused_before_any_cost_is_read(demo_source, monkeypatch):
    # the slack table has 2^n entries; like a dependence SFM it is refused
    # past n - 1 free users, before the first raw cost
    from omnifair import setfn

    ctx = min_sum_rate(demo_source)
    n = len(ctx.users)
    vertex = ctx.vertex
    cost_calls = spy_cost(ctx, monkeypatch).reads
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", n - 1)
    assert core_membership(ctx, vertex) == (True, None)
    assert sum(cost_calls.values()) == 2 ** n - 1
    ctx = min_sum_rate(demo_source)  # a fresh game: a built table is not refused again
    vertex = ctx.vertex  # its truncation walk, before the limit drops
    cost_calls = spy_cost(ctx, monkeypatch).reads
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", n - 2)
    for r in (vertex, rv({u: 0 for u in ctx.users})):
        with pytest.raises(GroundSetTooLarge, match=f"size {n - 1} exceeds the exhaustive limit {n - 2}"):
            core_membership(ctx, r)
    assert cost_calls == {}


def test_decomposition_check_refused_before_any_cost_is_read(demo_source, monkeypatch):
    # the check reads one raw_table of 2^n entries, refused past n users
    from omnifair import setfn

    ctx = min_sum_rate(demo_source)
    n = len(ctx.users)
    cost_calls = spy_cost(ctx, monkeypatch).reads
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", n)
    check_decomposition(ctx)
    assert cost_calls
    cost_calls.clear()
    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", n - 1)
    with pytest.raises(GroundSetTooLarge, match=f"^ground set of size {n} exceeds the exhaustive limit {n - 1}$"):
        check_decomposition(ctx)
    assert cost_calls == {}


class TestOrderedSums:
    """Float sums run left to right from 0, as Python 3.11's sum() adds;
    a compensated sum would give 1.0 and 1e16 + 2 here."""

    def test_mass_and_total(self):
        r = RateVector({1: 1e16, 2: 1.0, 3: -1e16})
        assert r.total() == left_sum([1e16, 1.0, -1e16]) == 0.0
        assert r.mass([1, 2, 3]) == r.total()
        assert r.mass([1, 2]) == 1e16

    def test_objective(self):
        r = RateVector({1: 1e8, 2: 1.0, 3: 1.0})
        assert objective_g(r) == left_sum([1e16, 1.0, 1.0]) == 1e16

    def test_l1_distance(self):
        r = RateVector({1: 1e16, 2: 1.0, 3: 1.0})
        assert r.l1_distance(RateVector({1: 0.0, 2: 0.0, 3: 0.0})) == 1e16
