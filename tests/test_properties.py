"""Randomized invariant suite over a 50-instance corpus of linear sources
(3 to 6 users, at most 12 packets).  The per-instance checks live in
conftest.run_instance_battery; each test here asserts one property across
every instance so failures point at the broken property and seed."""

import random
from fractions import Fraction as F

import pytest

from omnifair import LinearSource, decompose, dilworth_truncation, min_sum_rate, shapley_exact
from omnifair.egalitarian import dep
from omnifair.setfn import subsets

from conftest import (
    PROPERTY_SEEDS,
    bruteforce_min_sum_rate,
    check_membership_equivalence,
    cross_checked_membership,
    dilworth_enumerate,
    frozenset_truncation,
    game_f,
    minnorm_sfm,
    pmf_from_packets,
    random_linear_source,
    random_pmf_twins,
    random_vector_source,
)


def failing_seeds(battery, key):
    return [r["seed"] for r in battery if r[key] is False]


@pytest.mark.parametrize("key", [
    "entropy_submodular",
    "methods_agree",
    "threshold_strict",
    "dilworth_backends_agree",
    "decomposition_identity",
    "subgame_costs_sum",
    "vertices_in_core",
    "vertex_denominators",
    "affine_rank",
    "vertex_sets_decompose",
    "shapley_exact_equals_decomposed",
    "shapley_multiset_mean",
    "shapley_mean_of_vertices",
    "shapley_efficiency",
    "approx_in_core",
    "chain_matches_cache",
    "dep_within_block",
    "dep_matches_oracle",
    "membership_equivalence",
    "sda_path_feasible",
    "sda_monotone",
    "sda_iteration_identity",
    "sda_l1_decay",
    "sda_iteration_bound",
    "sda_locally_optimal",
    "sda_matches_grid",
])
def test_property_across_corpus(property_battery, key):
    assert len(property_battery) == len(PROPERTY_SEEDS) >= 50
    assert failing_seeds(property_battery, key) == []


def test_grid_oracle_ran_on_enough_instances(property_battery):
    ran = [r for r in property_battery if r["sda_matches_grid"] is not None]
    assert len(ran) >= 10


def test_mean_of_vertices_identity_exercised_both_ways(property_battery):
    # the distinct-vertex mean equals the exact value precisely when every
    # vertex arises from equally many permutations; the corpus must contain
    # instances on both sides of that condition
    uniform = [r for r in property_battery if r["vertex_multiplicity_uniform"]]
    degenerate = [r for r in property_battery if not r["vertex_multiplicity_uniform"]]
    assert uniform and degenerate
    assert all(r["shapley_mean_of_vertices"] for r in uniform)


def test_membership_equivalence_on_demo(demo_ctx):
    assert check_membership_equivalence(demo_ctx, 1000, seed=123)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_dep_within_block_at_random_core_points(seed):
    src = random_linear_source(seed)
    ctx = min_sum_rate(src)
    blocks = ctx.fundamental_partition
    points = [ctx.vertex, shapley_exact(ctx)]
    for sub in decompose(ctx):
        assert cross_checked_membership(sub, sub.vertex)
    for r in points:
        for i in ctx.users:
            assert dep(ctx, r, i) <= blocks.block_of(i)


@pytest.mark.parametrize("seed", range(6))
def test_minnorm_sfm_through_the_full_solve_stack(seed):
    """The truncation kernel must match the frozenset incremental pass over
    the min-norm-point SFM oracle on every subset: the characteristic costs
    of the solved context and the finest partitions of dilworth_truncation."""
    src = random_linear_source(seed, min_users=3, max_users=5)
    ctx = min_sum_rate(src)
    for X in subsets(src.users):
        if X:
            value, partition, _ = frozenset_truncation(game_f(ctx), sorted(X), minnorm_sfm)
            assert ctx.hat(X) == value
            assert dilworth_truncation(src, ctx.min_sum_rate, X) == (value, partition)
    assert ctx.fundamental_partition == partition


def truncations_match_enumeration(source, alpha) -> bool:
    """dilworth_truncation agrees with partition enumeration on every
    nonempty subset: values within the source's tolerance, same finest
    partition."""
    for X in subsets(source.users):
        if X:
            value, partition = dilworth_truncation(source, alpha, X)
            want, want_partition = dilworth_enumerate(source, alpha, X)
            if abs(value - want) > source.tol or partition != want_partition:
                return False
    return True


@pytest.mark.parametrize("seed", range(10))
def test_vector_sources_over_gf3_match_the_oracles(seed):
    src = random_vector_source(seed)
    assert src.field == 3 and len(src.users) <= 6
    ctx = min_sum_rate(src)
    assert ctx.min_sum_rate == bruteforce_min_sum_rate(src)
    for alpha in (ctx.min_sum_rate, ctx.min_sum_rate - F(1, 3)):
        assert truncations_match_enumeration(src, alpha)


@pytest.mark.parametrize("seed", range(10))
def test_pmf_twins_match_the_oracles_within_tol(seed):
    linear, pmf = random_pmf_twins(seed)
    ctx = min_sum_rate(pmf)
    assert abs(ctx.min_sum_rate - bruteforce_min_sum_rate(pmf)) <= pmf.tol
    assert abs(ctx.min_sum_rate - float(min_sum_rate(linear).min_sum_rate)) <= pmf.tol
    assert ctx.fundamental_partition == dilworth_enumerate(pmf, ctx.min_sum_rate, pmf.users)[1]
    for alpha in (ctx.min_sum_rate, ctx.min_sum_rate - 0.25):
        assert truncations_match_enumeration(pmf, alpha)


def queried_in(order: str, seed: int, ctx) -> list[frozenset]:
    """Every nonempty subset of the game's users, largest bitmask first or
    shuffled."""
    found = [X for X in subsets(ctx.users) if X]
    if order == "descending":
        return sorted(found, key=ctx.source.mask, reverse=True)
    random.Random(f"memo-order:{seed}").shuffle(found)
    return found


@pytest.mark.parametrize("order", ["descending", "random"])
@pytest.mark.parametrize("seed", range(6))
def test_hat_memo_is_independent_of_query_order(seed, order):
    """A context keeps no truncation state between reads, so whatever order
    the subsets are read in, every value equals the one-pass truncation
    exactly (bit for bit on pmf floats), on the whole game and on its
    subgames."""
    for src in (random_linear_source(seed), random_vector_source(seed), random_pmf_twins(seed)[1]):
        ctx = min_sum_rate(src)
        for X in queried_in(order, seed, ctx):
            assert ctx.hat(X) == dilworth_truncation(src, ctx.min_sum_rate, X)[0]
        for sub in decompose(min_sum_rate(src)):
            for X in queried_in(order, seed, sub):
                assert sub.hat(X) == dilworth_truncation(src, sub.min_sum_rate, X)[0]


def test_pmf_instance_solves_like_its_packet_twin():
    holdings = {1: ["a", "b"], 2: ["b", "c"], 3: ["c"]}
    universe = ["a", "b", "c"]
    linear = min_sum_rate(LinearSource.from_packets(holdings, universe=universe))
    pmf = min_sum_rate(pmf_from_packets(holdings, universe))
    assert pmf.min_sum_rate == pytest.approx(float(linear.min_sum_rate), abs=1e-9)
    assert pmf.fundamental_partition == linear.fundamental_partition
    assert pmf.shared_randomness == pytest.approx(float(linear.shared_randomness), abs=1e-9)
    for u in linear.users:
        assert pmf.vertex[u] == pytest.approx(float(linear.vertex[u]), abs=1e-9)
