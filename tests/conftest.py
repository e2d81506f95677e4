"""Shared fixtures: the five-user demo instance, a seeded random-instance
corpus, brute-force oracles for the solver (and the cross-checks the solver
does not run on itself), and the property battery both the property suite and
the acceptance gate assert against (computed once per session)."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from omnifair import (
    LinearSource,
    Partition,
    PmfSource,
    RateVector,
    core_membership,
    decompose,
    dilworth_truncation,
    edmonds_greedy_vertex,
    enumerate_extreme_points,
    f_alpha,
    is_locally_optimal,
    l1_size,
    min_sum_rate,
    objective_g,
    sda,
    shapley_approx,
    shapley_decomposed,
    shapley_exact,
    shapley_mean_of_vertices,
)
from omnifair.egalitarian import _SlackTable, dep
from omnifair.omniscience import GameContext, _dilworth_incremental, check_decomposition
from omnifair.setfn import SetFunction, is_submodular, sfm_min, subsets
from omnifair.sources import Source

DEMO_HOLDINGS = {
    1: ("b", "c", "d", "h", "i"),
    2: ("e", "f", "h", "i"),
    3: ("b", "c", "e", "j"),
    4: ("a", "b", "c", "d", "f", "g", "i", "j"),
    5: ("a", "b", "c", "f", "i", "j"),
}
DEMO_PACKETS = tuple("abcdefghij")

PROPERTY_SEEDS = tuple(range(50))
MEMBERSHIP_SAMPLES = 1000
GRID_ENUM_LIMIT = 300_000

#: battery keys that carry context rather than pass/fail verdicts
INFO_KEYS = {"seed", "users", "vertex_multiplicity_uniform"}


def battery_failures(report: dict) -> dict:
    return {k: v for k, v in report.items() if v is False and k not in INFO_KEYS}


def rv(mapping) -> RateVector:
    return RateVector({u: F(v) for u, v in mapping.items()})


@pytest.fixture(scope="session")
def demo_source() -> LinearSource:
    return LinearSource.from_packets(
        {u: set(p) for u, p in DEMO_HOLDINGS.items()}, universe=DEMO_PACKETS)


@pytest.fixture(scope="session")
def demo_ctx(demo_source) -> GameContext:
    return min_sum_rate(demo_source)


@pytest.fixture(scope="session")
def demo_subgames(demo_ctx):
    return decompose(demo_ctx)


# --- brute-force oracles -----------------------------------------------------


def iter_partitions(items):
    """Yield every partition of ``items`` as a tuple of frozensets."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in iter_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + (sub[k] | {first},) + sub[k + 1:]
        yield sub + (frozenset({first}),)


def dilworth_enumerate(source: Source, alpha, X):
    """Oracle truncation: minimize the parameterized cost over every partition
    of X, return ``(value, finest_minimizer)`` (selected by maximal block
    count, verified by refinement)."""
    X = source.subset(X)
    assert 0 < len(X) <= 10, "partition enumeration is limited to 10 elements"
    scored = [(sum(f_alpha(source, alpha, B) for B in P), P) for P in iter_partitions(sorted(X))]
    best = min(v for v, _ in scored)
    minimizers = [P for v, P in scored if v <= best + source.tol]
    most_blocks = max(len(P) for P in minimizers)
    finest = [Partition(P) for P in minimizers if len(P) == most_blocks]
    assert len(finest) == 1 and all(finest[0].refines(Partition(P)) for P in minimizers), (
        "minimizing partitions do not form a lattice")
    return best, finest[0]


def bruteforce_min_sum_rate(source: Source):
    """Oracle sum-rate: maximize sum(H(V) - H(C)) / (|P| - 1) over partitions
    with >= 2 blocks."""
    hv = source.entropy(source.ground)
    return max(
        sum(hv - source.entropy(C) for C in P) / (len(P) - 1)
        for P in iter_partitions(source.users) if len(P) >= 2)


def random_linear_source(seed: int, min_users=3, max_users=6, max_packets=12) -> LinearSource:
    rng = random.Random(seed)
    n = rng.randint(min_users, max_users)
    m = rng.randint(2, max_packets)
    packets = [f"p{k}" for k in range(m)]
    holdings = {u: rng.sample(packets, rng.randint(0, m)) for u in range(1, n + 1)}
    return LinearSource.from_packets(holdings, universe=packets)


def pmf_from_packets(holdings: dict, universe: list) -> PmfSource:
    """Joint pmf of independent uniform bit packets dealt per ``holdings``."""
    import numpy as np

    users = sorted(holdings)
    width = len(universe)
    index = {p: k for k, p in enumerate(universe)}

    def outcome(bits, u):
        return tuple(bits[index[p]] for p in sorted(holdings[u]))

    alphabets = {
        u: sorted({outcome(bits, u) for bits in itertools.product((0, 1), repeat=width)})
        for u in users
    }
    table = np.zeros(tuple(len(alphabets[u]) for u in users))
    weight = 1.0 / 2 ** width
    for bits in itertools.product((0, 1), repeat=width):
        table[tuple(alphabets[u].index(outcome(bits, u)) for u in users)] += weight
    return PmfSource(alphabets, table)


def fraction_matrix_rank(rows: list[tuple[F, ...]]) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    work = [list(map(F, row)) for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        work[rank] = [v / lead for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def enumerate_grid_core_points(ctx: GameContext, K: int):
    """Oracle: all points of the core on the 1/K grid, straight from the
    polytope constraints.  Returns None when the search box is too large."""
    import math

    users = ctx.users
    lows, highs = [], []
    for u in users:
        lo = ctx.sum_cost - ctx.hat(ctx.ground - {u})
        hi = ctx.hat(frozenset({u}))
        lows.append(math.ceil(lo * K))
        highs.append(math.floor(hi * K))
    size = 1
    for lo, hi in zip(lows, highs):
        size *= max(hi - lo + 1, 0)
        if size > GRID_ENUM_LIMIT:
            return None
    target = ctx.sum_cost * K
    if F(target).denominator != 1:
        return []
    target = int(target)
    points = []

    def walk(idx, remaining, partial):
        if idx == len(users):
            if remaining == 0:
                points.append(partial)
            return
        tail_max = sum(highs[idx:])
        tail_min = sum(lows[idx:])
        if remaining > tail_max or remaining < tail_min:
            return
        for value in range(lows[idx], highs[idx] + 1):
            walk(idx + 1, remaining - value, partial + (value,))

    walk(0, target, ())
    inside = []
    for point in points:
        r = RateVector({u: F(v, K) for u, v in zip(users, point)})
        if all(r.mass(X) <= ctx.hat(X) for X in subsets(users) if X):
            inside.append(r)
    return inside


def random_core_direction(rng: random.Random, users) -> dict:
    """A random zero-sum rational direction over the users."""
    deltas = {u: F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4))) for u in users}
    shift = sum(deltas.values()) / len(users)
    return {u: d - shift for u, d in deltas.items()}


def hat_membership(ctx: GameContext, r: RateVector) -> bool:
    """Oracle membership from the characteristic-cost bounds: ``r`` is
    efficient and r(X) <= hat(X) on every nonempty subset."""
    return abs(r.total() - ctx.sum_cost) <= ctx.tol and all(
        r.mass(X) <= ctx.hat(X) + ctx.tol for X in subsets(ctx.users) if X)


def cross_checked_membership(ctx: GameContext, r: RateVector) -> bool:
    """Verdict of core_membership, which checks the defining rate
    constraints, after asserting that hat_membership agrees."""
    ok, _ = core_membership(ctx, r)
    if ok != hat_membership(ctx, r):
        raise ArithmeticError(
            "membership cross-check disagreement between the defining "
            "constraints and the characteristic-cost bounds")
    return ok


def chain_greedy_vertex(ctx: GameContext, permutation) -> RateVector:
    """Oracle vertex: one incremental truncation pass along ``permutation``,
    one constrained SFM per step, read off the per-step increments."""
    order = tuple(permutation)
    _, _, increments = _dilworth_incremental(ctx.f, order, ctx._sfm_backend, ctx.tol)
    return RateVector(dict(zip(order, increments)))


def sfm_dep(ctx: GameContext, r: RateVector, i: int) -> frozenset:
    """Oracle dependence set: the minimal minimizer of the slack
    f(X) - r(X) over the subsets containing ``i``, by one exhaustive
    constrained SFM that evaluates each lattice point as a set."""
    slack = SetFunction(ctx.ground, lambda X: ctx.f(X) - r.mass(X))
    return sfm_min(slack, forced_in={i}, tol=ctx.tol).minimal


def pairwise_first_violation(f: SetFunction, tol=0, intersecting: bool = False):
    """Oracle submodularity check: every pair of a subset table in
    subsets() order; ``(True, None)`` or the first violating pair."""
    table = {X: f(X) for X in subsets(f.ground)}
    for X in table:
        for Y in table:
            if intersecting and not X & Y:
                continue
            if table[X] + table[Y] < table[X & Y] + table[X | Y] - tol:
                return False, (X, Y)
    return True, None


def dep_matches_oracle(ctx: GameContext, points, K: int | None = None) -> bool:
    """Dependence sets of every user at every point of ``points`` agree
    three ways: the table sda builds (once, at the first point, on the 1/K
    grid), the public ``dep``, and the :func:`sfm_dep` oracle."""
    points = list(points)
    table = _SlackTable(ctx, points[0], ctx.grid_denominator if K is None else K)
    for r in points:
        want = [sfm_dep(ctx, r, i) for i in ctx.users]
        if [dep(ctx, r, i, table) for i in ctx.users] != want:
            return False
        if [dep(ctx, r, i) for i in ctx.users] != want:
            return False
    return True


def check_membership_equivalence(ctx: GameContext, samples: int, seed: int) -> bool:
    """Drive core_membership and hat_membership with mixed in/out random
    vectors; cross_checked_membership raises on any disagreement."""
    rng = random.Random(seed)
    users = ctx.users
    for k in range(samples):
        if k % 2 == 0:
            base = ctx.vertex
            direction = random_core_direction(rng, users)
            r = RateVector({u: base[u] + direction[u] for u in users})
        else:
            r = RateVector({u: F(rng.randint(-4, 24), rng.choice((1, 2, 4))) for u in users})
        cross_checked_membership(ctx, r)
    return True


def run_instance_battery(seed: int) -> dict:
    """Every randomized-suite property for one generated instance."""
    src = random_linear_source(seed)
    ctx = min_sum_rate(src)
    users = src.users
    n = len(users)
    K = ctx.grid_denominator
    out: dict = {"seed": seed, "users": n}

    entropy = SetFunction(src.ground, src.entropy)
    out["entropy_submodular"] = is_submodular(entropy)[0]

    oracle_rate = bruteforce_min_sum_rate(src)
    out["methods_agree"] = (
        oracle_rate == ctx.min_sum_rate
        and dilworth_enumerate(src, oracle_rate, users)[1] == ctx.fundamental_partition)

    quarter_less = ctx.min_sum_rate - F(1, 4)
    out["threshold_strict"] = (
        f_alpha(src, ctx.min_sum_rate, src.ground) == ctx.hat(src.ground)
        and f_alpha(src, quarter_less, src.ground)
        > dilworth_enumerate(src, quarter_less, users)[0])

    out["dilworth_backends_agree"] = all(
        dilworth_enumerate(src, ctx.min_sum_rate, X)
        == dilworth_truncation(src, ctx.min_sum_rate, X)
        for X in subsets(users) if X)

    check_decomposition(ctx)  # raises DecompositionError on identity failure
    out["decomposition_identity"] = True
    subgames = decompose(ctx)
    out["subgame_costs_sum"] = sum(sub.sum_cost for sub in subgames) == ctx.min_sum_rate

    vertices = enumerate_extreme_points(ctx)
    out["vertices_in_core"] = all(cross_checked_membership(ctx, v) for v in vertices)
    out["vertex_denominators"] = all(
        K % F(v[u]).denominator == 0 for v in vertices for u in users)
    base = vertices[0]
    diffs = [tuple(v[u] - base[u] for u in users) for v in vertices[1:]]
    out["affine_rank"] = fraction_matrix_rank(diffs) == n - len(ctx.fundamental_partition)
    fused_sets = [
        RateVector.direct_sum(combo).as_tuple(users)
        for combo in itertools.product(*(enumerate_extreme_points(s) for s in subgames))
    ]
    out["vertex_sets_decompose"] = sorted(fused_sets) == sorted(v.as_tuple(users) for v in vertices)

    exact = shapley_exact(ctx)
    out["shapley_exact_equals_decomposed"] = exact == shapley_decomposed(ctx, mode="exact")
    # the permutation-multiset average is the exact value on every instance;
    # the mean over *distinct* vertices matches only when each vertex arises
    # from equally many permutations (degenerate instances break uniformity)
    multiplicity = {}
    totals = {u: F(0) for u in users}
    for perm in itertools.permutations(users):
        v = ctx.greedy_vertex(perm)
        key = v.as_tuple(users)
        multiplicity[key] = multiplicity.get(key, 0) + 1
        for u in users:
            totals[u] += v[u]
    n_perms = len(multiplicity) and sum(multiplicity.values())
    out["shapley_multiset_mean"] = exact == RateVector(
        {u: totals[u] / n_perms for u in users})
    uniform = len(set(multiplicity.values())) == 1
    out["vertex_multiplicity_uniform"] = uniform
    if uniform:
        out["shapley_mean_of_vertices"] = exact == shapley_mean_of_vertices(ctx)
    else:
        out["shapley_mean_of_vertices"] = None
    mean_vertices = shapley_mean_of_vertices(ctx)
    approx = shapley_approx(ctx, count=n, seed=seed)
    approx_dec = shapley_decomposed(ctx, mode="approx", seed=seed)
    out["shapley_efficiency"] = all(
        vec.total() == ctx.min_sum_rate
        for vec in (exact, mean_vertices, approx, approx_dec))
    out["approx_in_core"] = (
        cross_checked_membership(ctx, approx) and cross_checked_membership(ctx, approx_dec))

    some_perms = [tuple(random.Random(seed * 1009 + k).sample(users, n)) for k in range(3)]
    out["chain_matches_cache"] = all(
        chain_greedy_vertex(ctx, p) == edmonds_greedy_vertex(ctx, p)
        for p in some_perms)

    out["dep_within_block"] = all(
        dep(ctx, point, i) <= ctx.fundamental_partition.block_of(i)
        for point in (ctx.vertex, exact)
        for i in users)

    out["membership_equivalence"] = check_membership_equivalence(
        ctx, MEMBERSHIP_SAMPLES, seed)

    endpoint, trace = sda(ctx)
    out["dep_matches_oracle"] = dep_matches_oracle(ctx, trace.iterates, K)
    out["sda_path_feasible"] = all(
        cross_checked_membership(ctx, it)
        and all((it[u] * K).denominator == 1 for u in users)
        for it in trace.iterates)
    out["sda_monotone"] = all(
        a > b for a, b in zip(trace.objectives, trace.objectives[1:]))
    out["sda_iteration_identity"] = (
        trace.iterations == K * trace.iterates[0].l1_distance(endpoint) / 2)
    out["sda_l1_decay"] = all(
        prev.l1_distance(endpoint) - cur.l1_distance(endpoint) == F(2, K)
        for prev, cur in zip(trace.iterates, trace.iterates[1:]))
    out["sda_iteration_bound"] = trace.iterations <= K * l1_size(ctx) / 2
    out["sda_locally_optimal"] = is_locally_optimal(ctx, endpoint)
    grid = enumerate_grid_core_points(ctx, K) if n <= 5 else None
    if grid is None:
        out["sda_matches_grid"] = None
    else:
        best = min(objective_g(p) for p in grid)
        out["sda_matches_grid"] = objective_g(endpoint) == best
    return out


@pytest.fixture(scope="session")
def property_battery() -> list[dict]:
    return [run_instance_battery(seed) for seed in PROPERTY_SEEDS]
