"""Extreme points of the optimal rate region and Shapley-value allocation.

The Shapley value charges each user their permutation-averaged marginal
characteristic cost, i.e. the mean greedy vertex over all permutations,
counted with multiplicity.  That yields an approximation scheme: average the
greedy vertices (:meth:`GameContext.greedy_vertex`) of a random sample of
permutations.  The centroid of the distinct vertices is a different point
unless every vertex arises from equally many permutations.  All combine with
the fundamental-partition decomposition for distributed computation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from itertools import permutations as iter_permutations
from typing import Iterable, Mapping, Sequence

from .omniscience import GameContext, RateVector, decompose
from .setfn import GroundSetTooLarge, subset_masks

#: Factorial vertex enumeration refuses ground sets beyond this size.
ENUMERATION_LIMIT = 8


def enumerate_extreme_points(ctx: GameContext) -> tuple[RateVector, ...]:
    """All vertices of the core: greedy vertices over every permutation,
    deduplicated, in a canonical coordinate order."""
    if len(ctx.users) > ENUMERATION_LIMIT:
        raise GroundSetTooLarge(
            f"vertex enumeration needs |V| <= {ENUMERATION_LIMIT}, got {len(ctx.users)}")
    seen: dict[tuple, RateVector] = {}
    for marginals in ctx.raw_marginals(iter_permutations(ctx.users)):
        vertex = RateVector({u: ctx.value_of(v) for u, v in marginals.items()})
        key = vertex.as_tuple()
        if not ctx.source.is_exact:
            key = tuple(round(v, 12) for v in key)
        seen.setdefault(key, vertex)
    return tuple(seen[key] for key in sorted(seen))


def shapley_exact(ctx: GameContext) -> RateVector:
    """Shapley value from its defining sum of weighted marginal costs, read
    off one :meth:`GameContext.raw_table` in :func:`subset_masks` order; linear
    sources sum in integers and divide once per user."""
    n = len(ctx.users)
    total = factorial(n)
    weights = [factorial(k) * factorial(n - k - 1) for k in range(n)]
    if not ctx.source.is_exact:
        weights = [w / total for w in weights]  # float(Fraction(w, n!))
    raw, order = ctx.raw_table(), subset_masks(n)
    rates = {}
    for k, i in enumerate(ctx.users):
        bit, acc = 1 << k, 0
        for X in order:
            if not X & bit:
                acc += weights[X.bit_count()] * (raw[X | bit] - raw[X])
        rates[i] = ctx.value_of(Fraction(acc, total) if ctx.source.is_exact else acc)
    return RateVector(rates)


def sample_permutations(users: Sequence[int], count: int, seed) -> list[tuple[int, ...]]:
    """Deterministically sample ``count`` permutations of ``users``: uniform
    without replacement while count <= |users|!, with replacement beyond."""
    if count < 1:
        raise ValueError("need at least one permutation")
    rng = random.Random(seed)
    users = sorted(users)
    space = factorial(len(users))
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(out) < count:
        draw = list(users)
        rng.shuffle(draw)
        draw = tuple(draw)
        if count <= space and draw in seen:
            continue
        seen.add(draw)
        out.append(draw)
    return out


def shapley_approx(
    ctx: GameContext,
    permutations: Iterable[Sequence[int]] | None = None,
    *,
    count: int | None = None,
    seed=None,
) -> RateVector:
    """Mean greedy vertex over a permutation multiset (never deduplicated),
    so the result is a convex combination of vertices and stays in the core.

    Each user's raw marginal costs (:meth:`GameContext.raw_marginals`) are
    summed in permutation order (ints for linear sources, floats for pmf
    ones) and divided once by their count.

    Pass ``permutations`` explicitly, or a ``count`` and ``seed`` to sample;
    ``count`` defaults to the number of users.
    """
    if permutations is None:
        if seed is None:
            raise ValueError("sampling permutations needs a seed for reproducibility")
        count = len(ctx.users) if count is None else count
        permutations = sample_permutations(ctx.users, count, seed)
    perms = list(permutations)
    if not perms:
        raise ValueError("empty permutation list")
    acc = dict.fromkeys(ctx.users, 0)
    for marginals in ctx.raw_marginals(perms):
        for u, marginal in marginals.items():
            acc[u] += marginal
    exact, count = ctx.source.is_exact, len(perms)
    return RateVector({u: ctx.value_of(Fraction(a, count) if exact else a / count) for u, a in acc.items()})


def shapley_decomposed(
    ctx: GameContext,
    mode: str = "exact",
    *,
    count: int | None = None,
    seed=None,
    permutations: Mapping[frozenset, Iterable[Sequence[int]]] | None = None,
) -> RateVector:
    """Fuse per-subgame Shapley values across the fundamental partition.

    ``mode="exact"`` equals the whole-game Shapley value.  ``mode="approx"``
    samples ``count`` permutations per subgame (default: the block size) from
    a per-subgame seed split off ``seed``; explicit ``permutations`` may be
    supplied per block instead.
    """
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "approx" and count is not None and count < 1:  # singleton blocks draw none
        raise ValueError("need at least one permutation")
    subgames = decompose(ctx)
    rng = random.Random(seed)
    child_seeds = {sub.ground: rng.randrange(2**63) for sub in subgames}

    def solve_block(sub: GameContext) -> RateVector:
        if mode == "exact":
            return shapley_exact(sub)
        explicit = permutations.get(sub.ground) if permutations else None
        if explicit is not None:
            return shapley_approx(sub, explicit)
        if len(sub.users) == 1:
            return sub.greedy_vertex(sub.users)
        if seed is None:
            raise ValueError("approx mode needs a seed or explicit permutations")
        return shapley_approx(sub, count=count, seed=child_seeds[sub.ground])

    return RateVector.direct_sum([solve_block(sub) for sub in subgames])
