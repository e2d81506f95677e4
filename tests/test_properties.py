"""Randomized invariant suite over a 50-instance corpus of linear sources
(3 to 6 users, at most 12 packets).  The per-instance checks live in
conftest.run_instance_battery; each test here asserts one property across
every instance so failures point at the broken property and seed."""

import pytest

from omnifair import LinearSource, decompose, min_sum_rate, shapley_exact
from omnifair.egalitarian import dep

from conftest import (
    PROPERTY_SEEDS,
    check_membership_equivalence,
    cross_checked_membership,
    random_linear_source,
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
    """The scalable stack (candidate-raising solve + incremental truncation
    over min-norm SFM) must match the exhaustive stack on everything."""
    from omnifair.setfn import subsets

    src = random_linear_source(seed, min_users=3, max_users=5)
    exhaustive = min_sum_rate(src, sfm_backend="exhaustive")
    minnorm = min_sum_rate(src, sfm_backend="minnorm")
    assert minnorm.min_sum_rate == exhaustive.min_sum_rate
    assert minnorm.fundamental_partition == exhaustive.fundamental_partition
    assert minnorm.vertex == exhaustive.vertex
    for X in subsets(src.users):
        if X:
            assert minnorm.hat(X) == exhaustive.hat(X)


def test_pmf_instance_solves_like_its_packet_twin():
    from conftest import pmf_from_packets

    holdings = {1: ["a", "b"], 2: ["b", "c"], 3: ["c"]}
    universe = ["a", "b", "c"]
    linear = min_sum_rate(LinearSource.from_packets(holdings, universe=universe))
    pmf = min_sum_rate(pmf_from_packets(holdings, universe))
    assert pmf.min_sum_rate == pytest.approx(float(linear.min_sum_rate), abs=1e-9)
    assert pmf.fundamental_partition == linear.fundamental_partition
    assert pmf.shared_randomness == pytest.approx(float(linear.shared_randomness), abs=1e-9)
    for u in linear.users:
        assert pmf.vertex[u] == pytest.approx(float(linear.vertex[u]), abs=1e-9)
