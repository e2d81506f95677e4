"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
All rational assertions are exact; float tolerances are stated inline."""

import random
from fractions import Fraction as F

import pytest

from omnifair import (
    Partition,
    SetFunction,
    dilworth_truncation,
    egalitarian_continuous,
    egalitarian_decomposed,
    enumerate_extreme_points,
    l1_size,
    packet_split_plan,
    sda,
    sfm_min,
    shapley_approx,
    shapley_decomposed,
    shapley_exact,
    SplitError,
)
from omnifair.egalitarian import dep
from omnifair.setfn import subsets

from conftest import (
    battery_failures,
    dilworth_enumerate,
    minnorm_sfm,
    random_linear_source,
    rv,
    shapley_mean_of_vertices,
)


def report(name: str) -> None:
    print(f"\nacceptance {name}: PASS", flush=True)


def test_criterion_1_worked_example_golden_values(demo_ctx, demo_subgames):
    assert demo_ctx.min_sum_rate == F(13, 2)
    assert demo_ctx.fundamental_partition == Partition([{1, 4, 5}, {2}, {3}])
    assert demo_ctx.shared_randomness == F(7, 2)
    assert demo_ctx.hat({1, 2}) == F(2)
    whole = {v.as_tuple() for v in enumerate_extreme_points(demo_ctx)}
    assert whole == {
        (F(3, 2), F(1, 2), F(1, 2), F(4), F(0)),
        (F(3, 2), F(1, 2), F(1, 2), F(3, 2), F(5, 2)),
        (F(1), F(1, 2), F(1, 2), F(9, 2), F(0)),
        (F(1), F(1, 2), F(1, 2), F(2), F(5, 2)),
    }
    block = {v.as_tuple() for v in enumerate_extreme_points(demo_subgames[0])}
    assert block == {
        (F(3, 2), F(4), F(0)),
        (F(3, 2), F(3, 2), F(5, 2)),
        (F(1), F(9, 2), F(0)),
        (F(1), F(2), F(5, 2)),
    }
    report("criterion 1 (worked-example golden values)")


def test_criterion_2_shapley(demo_ctx, demo_subgames):
    exact = shapley_exact(demo_ctx)
    assert exact == rv({1: F(5, 4), 2: F(1, 2), 3: F(1, 2), 4: 3, 5: F(5, 4)})
    assert shapley_mean_of_vertices(demo_ctx) == exact
    assert shapley_decomposed(demo_ctx, mode="exact") == exact
    approx = shapley_approx(demo_subgames[0], [(1, 4, 5), (1, 5, 4), (4, 1, 5)])
    assert approx == rv({1: F(4, 3), 4: F(10, 3), 5: F(5, 6)})
    plotted = {1: 1.33, 4: 3.33, 5: 0.833}
    for u, coordinate in plotted.items():
        assert abs(float(approx[u]) - coordinate) <= 0.01
    report("criterion 2 (Shapley exact, mean-of-vertices, fusion, approximation)")


def test_criterion_3_egalitarian(demo_ctx):
    r0 = rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: F(9, 2), 5: 0})
    optimum = rv({1: F(3, 2), 2: F(1, 2), 3: F(1, 2), 4: 2, 5: 2})
    endpoint, trace = sda(demo_ctx, r0=r0, K=2)
    assert endpoint == optimum
    assert trace.iterations == 5
    errors = [it.l1_distance(endpoint) for it in trace.iterates]
    assert errors == [5, 4, 3, 2, 1, 0]
    assert egalitarian_decomposed(demo_ctx, K=2, r0=r0) == optimum
    continuous = egalitarian_continuous(demo_ctx, {1: 6, 2: 1, 3: 1, 4: 3, 5: 2})
    want = {1: 1.5, 2: 0.5, 3: 0.5, 4: 2.4, 5: 1.6}
    for u, coordinate in want.items():
        assert abs(continuous[u] - coordinate) <= 1e-6
    report("criterion 3 (grid steepest descent, fusion, continuous solver)")


def test_criterion_4_dependence_oracle(demo_ctx):
    r0 = rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: F(9, 2), 5: 0})
    assert dep(demo_ctx, r0, 1) == frozenset({1, 4})
    assert dep(demo_ctx, r0, 2) == frozenset({2})
    assert dep(demo_ctx, r0, 3) == frozenset({3})
    assert dep(demo_ctx, r0, 4) == frozenset({4})
    assert dep(demo_ctx, r0, 5) == frozenset({4, 5})
    report("criterion 4 (dependence sets at the initial vertex)")


def test_criterion_5_l1_sizes(demo_ctx, demo_subgames):
    assert l1_size(demo_ctx) == 6
    assert l1_size(demo_subgames[0]) == 6
    report("criterion 5 (l1 sizes of the core and its largest subgame)")


def test_criterion_6_randomized_property_suites(property_battery):
    assert len(property_battery) >= 50
    bad = {r["seed"]: battery_failures(r) for r in property_battery if battery_failures(r)}
    assert bad == {}
    grid_checked = sum(1 for r in property_battery if r["sda_matches_grid"] is not None)
    assert grid_checked >= 10
    report(f"criterion 6 (property suites on {len(property_battery)} randomized sources)")


def test_criterion_7_backend_equivalence(demo_source, demo_ctx, property_battery):
    # truncation backends on every subset of the worked example
    for X in subsets(demo_source.users):
        if not X:
            continue
        assert (dilworth_enumerate(demo_source, demo_ctx.min_sum_rate, X)
                == dilworth_truncation(demo_source, demo_ctx.min_sum_rate, X))
    # and across the randomized corpus (checked per instance in the battery)
    assert all(r["dilworth_backends_agree"] for r in property_battery)
    # exhaustive SFM against the min-norm-point oracle on random submodular
    # instances, up to eight users
    for seed, size in [(1, 4), (2, 5), (3, 6), (4, 6), (5, 8)]:
        src = random_linear_source(seed, min_users=size, max_users=size, max_packets=10)
        rng = random.Random(seed)
        shift = {u: F(rng.randint(0, 5), rng.choice((1, 2, 3))) for u in src.users}
        f = SetFunction(src.ground, lambda X, s=shift: src.entropy(X) - sum(s[u] for u in X))
        forced_in = frozenset(rng.sample(src.users, rng.randint(0, 1)))
        rest = sorted(set(src.users) - forced_in)
        forced_out = frozenset(rng.sample(rest, rng.randint(0, 1)))
        assert sfm_min(f, forced_in, forced_out) == minnorm_sfm(f, forced_in, forced_out)
    report("criterion 7 (truncation and SFM backends agree)")


def test_criterion_8_packet_split_planner(demo_ctx):
    shapley = shapley_exact(demo_ctx)
    with pytest.raises(SplitError) as err:
        packet_split_plan(shapley, K=2)
    assert err.value.minimal_chunks == 4
    assert packet_split_plan(shapley).chunks_per_packet == 4
    weighted = rv({1: F(3, 2), 2: F(1, 2), 3: F(1, 2), 4: F(12, 5), 5: F(8, 5)})
    assert packet_split_plan(weighted).chunks_per_packet == 10
    report("criterion 8 (packet-split planner minimal chunk counts)")
