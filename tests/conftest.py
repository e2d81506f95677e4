"""Shared fixtures: the five-user demo instance, a seeded random-instance
corpus, brute-force oracles for the solver (and the cross-checks the solver
does not run on itself), and the property battery both the property suite and
the acceptance gate assert against (computed once per session)."""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from operator import or_
from pathlib import Path

import numpy as np
import pytest

from omnifair import (
    ConvergenceError,
    LinearSource,
    Partition,
    PmfSource,
    RateVector,
    core_membership,
    decompose,
    dilworth_truncation,
    enumerate_extreme_points,
    f_alpha,
    is_locally_optimal,
    l1_size,
    load_source,
    min_sum_rate,
    objective_g,
    sda,
    shapley_approx,
    shapley_decomposed,
    shapley_exact,
)
from omnifair.egalitarian import SdaTrace, _check_weights, dep
from omnifair.omniscience import GameContext, _ordered_sum, check_decomposition
from omnifair.setfn import (
    InfeasibleLattice,
    SetFunction,
    SfmResult,
    _check_size,
    int_array,
    is_submodular,
    sfm_min,
    subsets,
)
from omnifair.sources import FLOAT_TOL, Source

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


def subset_masks_reference(n: int) -> list[int]:
    """The subset scan order as first written: each k-subset's mask summed
    from its bits, over ``itertools.combinations`` by size."""
    return [sum(1 << k for k in c) for c in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1))]


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


# --- Edmonds' greedy rule, and the oracles built on it ------------------------


def greedy_vertex(g, order) -> dict:
    """Edmonds' greedy rule: each element of ``order`` mapped to its
    marginal value g(P + e) - g(P) over the prefix P before it, the first
    over g(∅)."""
    coords = {}
    prefix: frozenset = frozenset()
    prev = g(prefix)
    for e in order:
        prefix = prefix | {e}
        value = g(prefix)
        coords[e] = value - prev
        prev = value
    return coords


def ranked_greedy_vertex(g, weights) -> dict:
    """:func:`greedy_vertex` along the elements of ``weights`` sorted by
    (weight, element): for submodular ``g``, the vertex of its base
    polytope that minimizes the weights' linear function."""
    return greedy_vertex(g, sorted(weights, key=lambda e: (weights[e], e)))


# --- Fujishige-Wolfe minimum-norm-point SFM (exact rationals) ----------------


def _exact(value) -> F:
    # floats are dyadic rationals, so this conversion is lossless
    return value if isinstance(value, F) else F(value)


def _affine_min_norm(points: list[tuple[F, ...]]):
    """Minimum-norm point of the affine hull of ``points``.

    Solves the KKT system for min ||Σ μ_i p_i||² with Σ μ_i = 1 by rational
    Gaussian elimination; returns (coefficients, point).
    """
    k = len(points)
    grams = [[sum(a * b for a, b in zip(p, q)) for q in points] for p in points]
    size = k + 1
    m = [[F(0)] * size + [F(0)] for _ in range(size)]
    for j in range(k):
        m[0][j + 1] = F(1)
        m[j + 1][0] = F(1)
    for i in range(k):
        for j in range(k):
            m[i + 1][j + 1] = grams[i][j]
    m[0][size] = F(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("affinely dependent corral in min-norm solve")
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    mu = [m[i + 1][size] for i in range(k)]
    point = tuple(sum(mu[i] * points[i][d] for i in range(k)) for d in range(len(points[0])))
    return mu, point


def _min_norm_base_point(g, elems: list) -> tuple[F, ...]:
    """Wolfe's algorithm for the minimum-norm point in the base polytope of g."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def coordinates(vertex: dict) -> tuple[F, ...]:
        return tuple(vertex[e] for e in elems)

    x = coordinates(greedy_vertex(g, elems))
    corral = [x]
    lams = [F(1)]
    for _ in range(100_000):
        q = coordinates(ranked_greedy_vertex(g, dict(zip(elems, x))))
        if dot(x, q) >= dot(x, x):
            return x
        corral.append(q)
        lams.append(F(0))
        while True:
            mu, y = _affine_min_norm(corral)
            if min(mu) > 0:
                lams, x = mu, y
                break
            theta = min(
                lam / (lam - m) for lam, m in zip(lams, mu) if m <= 0 and lam > m
            )
            lams = [theta * m + (1 - theta) * lam for lam, m in zip(lams, mu)]
            keep = [i for i, lam in enumerate(lams) if lam > 0]
            corral = [corral[i] for i in keep]
            lams = [lams[i] for i in keep]
            x = tuple(
                sum(lams[i] * corral[i][d] for i in range(len(corral)))
                for d in range(len(x))
            )
    raise ArithmeticError("min-norm point iteration failed to terminate")


def _sfm_minnorm(f, forced_in, free) -> SfmResult:
    """Minimum of f over {X : forced_in ⊆ X ⊆ forced_in ∪ free} from one
    min-norm solve.  With x the min-norm base point of the shifted function,
    {x < 0} is the minimal minimizer and {x <= 0} the maximal one
    (Fujishige 1980)."""
    base = _exact(f(forced_in))
    if not free:
        return SfmResult(base, forced_in, forced_in)
    elems = sorted(free)

    def g(prefix: frozenset) -> F:
        return _exact(f(forced_in | prefix)) - base

    x = _min_norm_base_point(g, elems)
    return SfmResult(
        base + sum(v for v in x if v < 0),
        forced_in | {e for e, v in zip(elems, x) if v < 0},
        forced_in | {e for e, v in zip(elems, x) if v <= 0})


def minnorm_sfm(f: SetFunction, forced_in=(), forced_out=(), *, tol=0) -> SfmResult:
    """Oracle SFM with sfm_min's contract, by Wolfe's minimum-norm-point
    algorithm in exact rationals instead of enumeration (``tol`` is accepted
    for the shared signature; the solve is exact)."""
    forced_in, forced_out = frozenset(forced_in), frozenset(forced_out)
    if not forced_in <= f.ground or not forced_out <= f.ground or forced_in & forced_out:
        raise InfeasibleLattice("forced sets overlap or leave the ground set")
    return _sfm_minnorm(f, forced_in, f.ground - forced_in - forced_out)


def frozenset_truncation(fa, order, sfm=sfm_min, tol=0):
    """Oracle truncation: the incremental pass on frozensets, one SFM by
    ``sfm`` over the current blocks per element of ``order``.  Returns
    ``(value, finest_partition, per_element_increments)``; the increments
    follow ``order`` and telescope to the value."""
    blocks: list[tuple[frozenset, F | float]] = []
    increments = []
    for u in order:
        snapshot = tuple(blocks)

        def gain(S: frozenset, u=u, snapshot=snapshot):
            merged = {u}
            absorbed = 0
            for idx in sorted(S):
                merged |= snapshot[idx][0]
                absorbed += snapshot[idx][1]
            return fa(frozenset(merged)) - absorbed

        result = sfm(SetFunction(range(len(snapshot)), gain), tol=tol)
        merged = frozenset({u}).union(*(snapshot[i][0] for i in result.minimal))
        increments.append(result.value)
        blocks = [b for i, b in enumerate(blocks) if i not in result.minimal]
        blocks.append((merged, fa(merged)))
    return sum(increments[1:], increments[0]), Partition(b for b, _ in blocks), increments


def left_sum(values):
    """``values`` added strictly left to right from 0, the order of Python
    3.11's ``sum()`` (3.12 compensates float sums)."""
    total = 0
    for v in values:
        total = total + v
    return total


def mean_vector(vectors) -> RateVector:
    """Coordinatewise mean of rate vectors, each sum left to right."""
    return RateVector({u: left_sum(v[u] for v in vectors) / len(vectors) for u in vectors[0].users})


def shapley_mean_of_vertices(ctx: GameContext) -> RateVector:
    """Centroid of the distinct core vertices.  This is the Shapley value
    only when every vertex arises from equally many permutations."""
    return mean_vector(enumerate_extreme_points(ctx))


def shapley_whole_game(ctx: GameContext) -> RateVector:
    """Oracle Shapley value: the defining sum of weighted marginal costs
    over all 2^n subsets of the whole game, read off one whole-game
    :meth:`GameContext.raw_table`, blind to the fundamental partition;
    linear sources sum in integers and divide once per user."""
    n = len(ctx.users)
    total = math.factorial(n)
    weights = [math.factorial(k) * math.factorial(n - k - 1) for k in range(n)]
    if not ctx.source.is_exact:
        weights = [w / total for w in weights]
    raw, order = ctx.raw_table(), subset_masks_reference(n)
    rates = {}
    for k, i in enumerate(ctx.users):
        bit, acc = 1 << k, 0
        for X in order:
            if not X & bit:
                acc += weights[X.bit_count()] * (raw[X | bit] - raw[X])
        rates[i] = ctx.value_of(F(acc, total) if ctx.source.is_exact else acc)
    return RateVector(rates)


def frank_wolfe_reference(ctx: GameContext, weights=None) -> RateVector:
    """Oracle Frank-Wolfe with away steps and exact line search on the float
    costs, stopped at a duality gap of 1e-9, which bounds its objective's
    excess over the optimum: each linear step is the greedy vertex ranked by
    the gradient, the active set a dict of vertex tuples in insertion order,
    every sum an explicit left-to-right loop."""
    users = ctx.users
    w = {u: float((weights or {}).get(u, 1)) for u in users}
    tol, max_iter = 1e-9, 100_000

    def dot(a, b):
        return left_sum(p * q for p, q in zip(a, b))

    x = tuple(float(v) for v in ctx.vertex.as_tuple(users))
    active = {x: 1.0}
    for _ in range(max_iter):
        grad = tuple(2.0 * x[k] / w[u] for k, u in enumerate(users))
        vertex = ranked_greedy_vertex(lambda X: float(ctx.hat(X)), dict(zip(users, grad)))
        s = tuple(vertex[u] for u in users)
        toward = dot(grad, [a - b for a, b in zip(x, s)])
        if toward <= tol:
            return RateVector(dict(zip(users, x)))
        away, away_weight = max(active.items(), key=lambda item: (dot(grad, item[0]), item[0]))
        backward = dot(grad, [a - b for a, b in zip(away, x)])
        forward = toward >= backward or len(active) == 1 or away_weight >= 1.0
        if forward:
            direction = tuple(b - a for a, b in zip(x, s))
            gamma_max = 1.0
        else:
            direction = tuple(a - b for a, b in zip(x, away))
            gamma_max = away_weight / (1.0 - away_weight)
        denom = left_sum(d * d / w[u] for d, u in zip(direction, users))
        if denom <= 0.0:
            return RateVector(dict(zip(users, x)))
        gamma = -left_sum(a * d / w[u] for a, d, u in zip(x, direction, users)) / denom
        gamma = min(max(gamma, 0.0), gamma_max)
        if forward:
            active = {v: lam * (1.0 - gamma) for v, lam in active.items()}
            active[s] = active.get(s, 0.0) + gamma
        else:
            active = {v: lam * (1.0 + gamma) for v, lam in active.items()}
            active[away] = active.get(away, 0.0) - gamma
        active = {v: lam for v, lam in active.items() if lam > 1e-15}
        x = tuple(left_sum(lam * v[k] for v, lam in active.items()) for k in range(len(users)))
    raise ConvergenceError(f"duality gap did not reach {tol} in {max_iter} iterations")


def random_linear_source(seed: int, min_users=3, max_users=6, max_packets=12) -> LinearSource:
    rng = random.Random(seed)
    n = rng.randint(min_users, max_users)
    m = rng.randint(2, max_packets)
    packets = [f"p{k}" for k in range(m)]
    holdings = {u: rng.sample(packets, rng.randint(0, m)) for u in range(1, n + 1)}
    return LinearSource.from_packets(holdings, universe=packets)


def random_vector_source(seed: int, min_users=3, max_users=6, field=3) -> LinearSource:
    """Seeded vector-form source over GF(field): each user holds 1-2 random
    coefficient vectors of width 3-6, so ranks see linear dependence."""
    rng = random.Random(f"vectors:{seed}")
    n = rng.randint(min_users, max_users)
    width = rng.randint(3, 6)
    holdings = {
        u: [[rng.randrange(field) for _ in range(width)] for _ in range(rng.randint(1, 2))]
        for u in range(1, n + 1)
    }
    return LinearSource.from_vectors(holdings, field=field)


def pmf_from_packets(holdings: dict, universe: list) -> PmfSource:
    """Joint pmf of independent uniform bit packets dealt per ``holdings``."""
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


def random_pmf_twins(seed: int):
    """A small packet source (3-5 users, 2-4 packets) and its joint-pmf twin."""
    rng = random.Random(f"pmf-twins:{seed}")
    universe = [f"p{k}" for k in range(rng.randint(2, 4))]
    holdings = {u: rng.sample(universe, rng.randint(0, len(universe)))
                for u in range(1, rng.randint(3, 5) + 1)}
    return LinearSource.from_packets(holdings, universe=universe), pmf_from_packets(holdings, universe)


PMF_FUZZ_SEEDS = tuple(range(300))

#: pmf specs (alphabets, table) that numpy would read as numbers or letters,
#: each with the message that refuses it
PMF_SPECS_READ_SILENTLY = [
    ({"1": [0, 1], "2": [0, 1]}, [[0, True], [False, 0]], "pmf table entries must be numbers, got True"),
    ({"1": [0, 1], "2": [0, 1]}, [["0.5", 0], [0, "5e-1"]], "pmf table entries must be numbers, got '0.5'"),
    ({"1": [0, 0, 1], "2": [0, 1]}, [[0.5, 0], [0, 0.5], [0, 0]],
     "alphabet of user 1 must be a list of distinct letters, got [0, 0, 1]"),
    ({"1": "01", "2": [0, 1]}, [[0.5, 0], [0, 0.5]],
     "alphabet of user 1 must be a list of distinct letters, got '01'"),
]
PMF_SPEC_IDS = ["boolean-entries", "string-entries", "repeated-letter", "string-alphabet"]

#: Linear specs that plain parsing would misread: a string holding or
#: ``packets`` as one-letter packets, an object holding as a bare KeyError,
#: a null, boolean or float packet id as a packet.  Each is (users, packets,
#: message).
LINEAR_SPECS_MISREAD = [
    ({"1": "ab", "2": ["a"]}, None, "holding of user 1 must be a JSON list, got 'ab'"),
    ({"1": ["a"], "2": ["b"]}, "abc", "'packets' must be a JSON list, got 'abc'"),
    ({"1": {"a": 1}, "2": ["a"]}, None, "holding of user 1 must be a JSON list, got {'a': 1}"),
    ({"1": [None], "2": ["a"]}, None, "packet ids must be JSON strings or integers, got None"),
    ({"1": ["a", True], "2": ["a"]}, None, "packet ids must be JSON strings or integers, got True"),
    ({"1": ["a"], "2": ["a"]}, ["a", 1.5], "packet ids must be JSON strings or integers, got 1.5"),
]
LINEAR_SPEC_IDS = ["string-holding", "string-packets", "object-holding", "null-packet",
                   "boolean-packet", "float-in-packets"]


def linear_spec(users: dict, packets) -> dict:
    """A linear source spec, with ``packets`` only if it is not None."""
    return {"model": "linear", "users": users, **({} if packets is None else {"packets": packets})}


def random_pmf_source(seed: int) -> PmfSource:
    """A seeded joint pmf: 2-9 users, alphabets of 1-4 letters, about 30% of
    the entries zero (at least one entry is positive)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    shape = tuple(int(k) for k in rng.integers(1, 5, size=n))
    table = rng.random(shape) * (rng.random(shape) >= 0.3)
    if not table.any():
        table.flat[int(rng.integers(table.size))] = 1.0
    alphabets = {u: tuple(range(k)) for u, k in enumerate(shape, start=1)}
    return PmfSource(alphabets, table / table.sum())


CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"


@functools.cache
def _corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def corpus_source(family: str, member: int) -> Source:
    """Pool member ``member`` of the benchmark corpus family ``family``
    (e.g. ``"dense-9"``), built from its seeded spec."""
    return load_source(_corpus().build_spec(family, member))


def pmf_entropy_reference(source: PmfSource, mask: int) -> float:
    """H of the users in ``mask`` from the whole joint table summed over every
    other user's axis at once, one table sum per subset."""
    drop = tuple(axis for axis in range(len(source.users)) if not mask >> axis & 1)
    marginal = source._table.sum(axis=drop) if drop else source._table
    p = marginal.ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def pmf_fill_reference(source: PmfSource) -> np.ndarray:
    """H on every mask by the depth-first fill with every marginal kept at
    all n axes (``keepdims``) and every marginal filtered for p > 0, one
    numpy sum per subset; the batched :meth:`PmfSource._fill` sums in
    another order and must match it within 1e-13."""
    H = np.empty(1 << len(source.users))
    _keepdims_fill(H, source._table, len(H) - 1, 0)
    return H


def _keepdims_fill(H: np.ndarray, marginal: np.ndarray, mask: int, first: int) -> None:
    p = marginal[marginal > 0]
    H[mask] = -(p * np.log2(p)).sum()
    for axis in range(first, marginal.ndim):
        child = marginal if marginal.shape[axis] == 1 else marginal.sum(axis=axis, keepdims=True)
        _keepdims_fill(H, child, mask & ~(1 << axis), axis + 1)


def packet_entropy_reference(source: LinearSource, mask: int) -> int:
    """H of a packet-form source by the members loop: the OR of the packet
    bitsets of the users in ``mask``, counted."""
    index = {p: k for k, p in enumerate(source.universe)}
    held = 0
    for k, u in enumerate(source.users):
        if mask >> k & 1:
            for p in source._packets[u]:
                held |= 1 << index[p]
    return held.bit_count()


def random_wide_packet_source(seed: int, n: int) -> LinearSource:
    """Seeded packet source on ``n`` users over 65-130 packets (wider than a
    machine word); user 1 holds no packet, every other user 0-40 of them."""
    rng = random.Random(f"wide-packets:{seed}:{n}")
    universe = [f"p{k}" for k in range(rng.randint(65, 130))]
    holdings = {u: rng.sample(universe, rng.randint(0, 40)) for u in range(2, n + 1)}
    holdings[1] = []
    return LinearSource.from_packets(holdings, universe=universe)


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


def game_f(ctx: GameContext):
    """The parameterized cost f_alpha at the game's solved sum-rate, as a
    function of subsets of its ground set."""
    def f(X):
        X = frozenset(X)
        if not X <= ctx.ground:
            raise ValueError(f"{sorted(X - ctx.ground)} outside this game's ground set")
        return f_alpha(ctx.source, ctx.min_sum_rate, X)
    return f


def loop_core_membership(ctx: GameContext, r: RateVector) -> tuple[bool, str | None]:
    """Oracle core check, one subset at a time in :func:`subsets` order:
    Slepian-Wolf lower bounds for the whole game, cost upper bounds for
    subgames.  Returns the verdict plus the first violated constraint."""
    if r.users != ctx.users:
        raise ValueError(f"rate vector users {r.users} != game users {ctx.users}")
    tol = ctx.tol
    if not abs(r.total() - ctx.sum_cost) <= tol:
        return False, f"sum rate {r.total()} != {ctx.sum_cost}"
    f = game_f(ctx)
    for X in subsets(ctx.users):
        if not X or X == ctx.ground:
            continue
        if ctx.is_whole_game:
            bound = ctx.source.conditional_entropy(X, ctx.ground - X)
            if not bound <= r.mass(X) + tol:
                return False, f"r({sorted(X)}) = {r.mass(X)} < H(X | V∖X) = {bound}"
        elif not r.mass(X) <= f(X) + tol:
            return False, f"r({sorted(X)}) = {r.mass(X)} > f({sorted(X)}) = {f(X)}"
    return True, None


def is_weighted_min_norm_base(ctx: GameContext, x: RateVector, weights=None) -> bool:
    """Oracle optimality check: ``x`` minimizes sum(x_u^2 / w_u) over the
    core iff :func:`loop_core_membership` accepts it and every lower level
    set {u : x_u / w_u <= c} is tight, x(L) = hat(L) (Fujishige 1980).
    Exact for linear sources; for pmf sources ratios and masses are
    compared within ``ctx.tol`` (1e-9)."""
    if not loop_core_membership(ctx, x)[0]:
        return False
    tol = ctx.tol
    ratio = {u: x[u] / (weights or {}).get(u, 1) for u in ctx.users}
    levels = (frozenset(u for u in ctx.users if ratio[u] <= c + tol) for c in ratio.values())
    return all(abs(x.mass(L) - ctx.hat(L)) <= tol for L in levels)


def lexicographic_base_table(ctx: GameContext, weights=None) -> RateVector:
    """Oracle continuous egalitarian point: the decomposition algorithm on
    a dense table of every block subset's raw characteristic cost and weight
    mass.  Each minor (A, E) reads the excess w(E)·(R(A ∪ X) - R(A)) -
    (R(A ∪ E) - R(A))·w(X) for every X ⊆ E and splits at the union of its
    minimizers if the least excess is negative (below -1e-9·w(E) for float
    runs); else r = λ·w on E.  Same number types and float formulas as
    :func:`egalitarian_continuous`."""
    w = _check_weights(weights, ctx.users)
    exact = ctx.source.is_exact and not any(isinstance(v, float) for v in w.values())
    games = [ctx] if ctx.fundamental_partition is None else decompose(ctx)
    rates = {}
    for game in games:
        block, raw = game.users, game.raw_table()
        if exact:
            scale = math.lcm(*(F(w[u]).denominator for u in block))
            weight, margin = [int(w[u] * scale) for u in block], 0
        else:
            weight, margin = [float(w[u]) for u in block], FLOAT_TOL
            raw = [float(ctx.value_of(v)) for v in raw]
        mass = [0]
        for v in weight:
            mass += [m + v for m in mass]
        if exact:  # Python ints: no product below can overflow
            cost, mass = np.array(raw, dtype=object), np.array(mass, dtype=object)
        else:
            cost, mass = np.array(raw), np.array(mass)
        every = np.arange(len(raw))
        minors = [(0, len(raw) - 1)]
        while minors:
            A, E = minors.pop()
            subs = every[(every & ~E) == 0]
            d, wE = cost[A | E] - cost[A], mass[E]
            excess = wE * (cost[A | subs] - cost[A]) - d * mass[subs]
            low = excess.min()
            if low < -margin * wE:
                X = int(np.bitwise_or.reduce(subs[excess == low]))
                minors += [(A | X, E & ~X), (A, X)]
                continue
            for k, u in enumerate(block):
                if E >> k & 1:
                    rates[u] = (ctx.value_of(F(int(d) * weight[k], int(wE))) if exact
                                else float(d) * (weight[k] / float(wE)))
    return RateVector(rates)


def key_of(cost, mask: int) -> int:
    """The key of a nonempty user bitmask under a truncation cost object:
    the OR of its users' keys."""
    return reduce(or_, (key for bit, key in cost.bit_keys.items() if bit & mask))


def mask_extend(cost, state: tuple, bit: int, tol, scale=1, weights={}, level=0) -> tuple:
    """Oracle truncation step on user bitmasks: the step as it was before
    the keyed doubling pass.  Blocks are (mask, g) pairs; the doubling pass
    builds every union of ``bit`` with a subset S of the blocks, Σ_S g and
    its weight mass, and reads each union's cost by ``cost(mask)``, one
    call per union."""
    total, blocks = state
    _check_size(len(blocks))
    unions, gains, masses = [bit], [0], [weights.get(bit, 0)]
    for block, value in blocks:
        mass = _ordered_sum(v for b, v in weights.items() if b & block) if weights else 0
        unions += [u | block for u in unions]
        gains += [a + value for a in gains]
        masses += [m + mass for m in masses] if mass else masses
    for index, union in enumerate(unions):
        gains[index] = scale * cost(union) - level * masses[index] - gains[index]
    if bit in weights:
        gains[0] = min(gains[0], 0)
    best = min(gains)
    pick, cut = len(gains) - 1, best + tol
    for index, gain in enumerate(gains):
        if gain <= cut:
            pick &= index
    kept = [b for i, b in enumerate(blocks) if not pick >> i & 1]
    g = gains[0] if pick == 0 else scale * cost(unions[pick]) - level * masses[pick]
    return total + best, kept + [(unions[pick], g)]


def mask_step(cost, state: tuple, bit: int, tol, scale=1, weights={}, level=0) -> tuple:
    """:func:`mask_extend` behind the keyed step's signature: (mask, key, g)
    blocks in and out, each union's cost read alone from ``cost``."""
    total, blocks = mask_extend(lambda mask: cost.values([key_of(cost, mask)])[0],
                                (state[0], [(b, g) for b, _, g in state[1]]), bit, tol, scale, weights, level)
    return total, [(b, key_of(cost, b), g) for b, g in blocks]


class CostSpy:
    """A truncation cost object that passes every read on to ``cost`` and
    counts the keys given to its batch read, ``values``."""

    def __init__(self, cost):
        self.bit_keys, self.value_of, self._cost = cost.bit_keys, cost.value_of, cost
        self.reads = Counter()

    def values(self, keys):
        keys = list(keys)
        self.reads.update(keys)
        return self._cost.values(keys)


def spy_cost(ctx: GameContext, monkeypatch) -> CostSpy:
    """Put a :class:`CostSpy` in place of the context's cost object."""
    spy = CostSpy(ctx._cost)
    monkeypatch.setattr(ctx, "_cost", spy)
    return spy


def every_key(ctx: GameContext) -> Counter:
    """The keys of every nonempty subset of a game's users, counted: what
    one read of each raw cost on the game gives a :class:`CostSpy`."""
    bits = [ctx._bits[u] for u in ctx.users]
    return Counter(key_of(ctx._cost, sum(b for k, b in enumerate(bits) if m >> k & 1))
                   for m in range(1, 1 << len(bits)))


def chain_greedy_vertex(ctx: GameContext, permutation) -> RateVector:
    """Oracle vertex: one incremental truncation pass along ``permutation``,
    one exhaustive SFM per step, read off the per-step increments."""
    order = tuple(permutation)
    _, _, increments = frozenset_truncation(game_f(ctx), order, tol=ctx.tol)
    return RateVector(dict(zip(order, increments)))


def sfm_dep(ctx: GameContext, r: RateVector, i: int) -> frozenset:
    """Oracle dependence set: the minimal minimizer of the slack
    f(X) - r(X) over the subsets containing ``i``, by one exhaustive
    constrained SFM that evaluates each lattice point as a set."""
    f = game_f(ctx)
    slack = SetFunction(ctx.ground, lambda X: f(X) - r.mass(X))
    return sfm_min(slack, forced_in={i}, tol=ctx.tol).minimal


def entropy_table(source: Source) -> np.ndarray:
    """H on every user bitmask of ``source`` from its raw entropies: an
    :func:`int_array` for linear sources, float64 for pmf ones."""
    h = [0] + [source.raw_entropy(m) for m in range(1, 1 << len(source.users))]
    return int_array(h) if source.is_exact else np.array(h)


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


def dep_matches_oracle(ctx: GameContext, points) -> bool:
    """The public ``dep``, read off the game's one table, agrees with the
    :func:`sfm_dep` oracle for every user at every point of ``points``."""
    for r in points:
        if [dep(ctx, r, i) for i in ctx.users] != [sfm_dep(ctx, r, i) for i in ctx.users]:
            return False
    return True


def sda_reference(ctx: GameContext, r0: RateVector | None = None, K: int | None = None,
                  weights=None) -> tuple[RateVector, SdaTrace]:
    """Steepest descent as first written: every candidate exchange built as a
    vector and ranked by (objective_g, gainer, loser), the objective re-summed
    over all users with the weights as Fractions, and the local-optimality
    diagnostic from :func:`locally_optimal_reference`.  Trusts its inputs (a
    linear source, r0 in the core on the 1/K grid)."""
    K = ctx.grid_denominator if K is None else K
    current = ctx.vertex if r0 is None else r0
    w = None if weights is None else {u: F(v) for u, v in weights.items()}
    step = F(1, K)
    mismatch = K != ctx.grid_denominator
    trace = SdaTrace(K=K, iterates=[current], objectives=[objective_g(current, w)])
    if mismatch:
        trace.warnings.append(
            f"K={K} differs from the fundamental value {ctx.grid_denominator}; "
            "iterates may leave the core and the endpoint may be suboptimal")
        trace.left_core = False
    while True:
        best = None
        for i in ctx.users:
            for j in sorted(dep(ctx, current, i)):
                if j != i:
                    candidate = current.exchange(i, j, step)
                    key = (objective_g(candidate, w), i, j)
                    if best is None or key < best[0]:
                        best = (key, candidate)
        if best is None or not best[0][0] < trace.objectives[-1]:
            break
        (objective, i, j), current = best
        trace.iterates.append(current)
        trace.pairs.append((i, j))
        trace.objectives.append(objective)
        if mismatch and not core_membership(ctx, current)[0]:
            trace.left_core = True
    if mismatch:
        trace.locally_optimal = locally_optimal_reference(ctx, current, K, w)
    return current, trace


def hat_iteration_budget(ctx: GameContext, K: int) -> int:
    """Reference iteration bound from 2n characteristic costs: K/2 times
    the sum of the core's coordinate ranges [sum_cost - hat(V∖u), hat({u})],
    plus 2.  sda's budget, read off f, must be at least this."""
    spread = sum(ctx.hat({u}) - (ctx.sum_cost - ctx.hat(ctx.ground - {u})) for u in ctx.users)
    return math.ceil(K * spread / 2) + 2


def locally_optimal_reference(ctx: GameContext, r: RateVector, K: int, weights=None) -> bool:
    """No in-core move of 1/K between an ordered user pair lowers the
    objective, each candidate's objective re-summed by objective_g with the
    weights as Fractions."""
    w = None if weights is None else {u: F(v) for u, v in weights.items()}
    base = objective_g(r, w)
    candidates = (r.exchange(i, j, F(1, K)) for i, j in itertools.permutations(ctx.users, 2))
    return not any(core_membership(ctx, candidate)[0] and objective_g(candidate, w) < base
                   for candidate in candidates)


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

    out["entropy_submodular"] = is_submodular(entropy_table(src))[0]

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
    out["shapley_exact_equals_decomposed"] = exact == shapley_whole_game(ctx) == shapley_decomposed(
        ctx, mode="exact")
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
        chain_greedy_vertex(ctx, p) == ctx.greedy_vertex(p)
        for p in some_perms)

    out["dep_within_block"] = all(
        dep(ctx, point, i) <= ctx.fundamental_partition.block_of(i)
        for point in (ctx.vertex, exact)
        for i in users)

    out["membership_equivalence"] = check_membership_equivalence(
        ctx, MEMBERSHIP_SAMPLES, seed)

    endpoint, trace = sda(ctx)
    out["dep_matches_oracle"] = dep_matches_oracle(ctx, trace.iterates)
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
