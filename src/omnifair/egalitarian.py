"""Egalitarian rate allocation in the optimal rate region.

The weighted quadratic objective sum(r_i^2 / w_i) is minimized two ways:

* :func:`sda` -- steepest descent over the 1/K grid inside the core, the
  steepest direction found through the dependence sets of all users.  The
  cost f is read once per game, into its slack table, from the
  truncation's raw costs over every user bitmask; the slack f(X) - r(X) is
  built once per run and each exchange updates it in place, and :func:`dep`
  reads every user's dependence set off it, all users in one batched pass
  per iterate.  The same table answers the initial core check and bounds
  the iterations.  Each exchange is ranked by its integer change of the
  objective; pmf sources are refused.  With K one less than the size of
  the fundamental partition the output is the exact grid optimum.
* :func:`egalitarian_continuous` -- the exact minimum over the core, the
  lexicographically optimal base of the characteristic cost (Fujishige
  1980), by the decomposition algorithm on each fundamental-partition block:
  each split is one truncation, its steps given the scale w(E), E's
  weights and the level d, in integers for linear sources.

:func:`egalitarian_decomposed` runs :func:`sda` on each
fundamental-partition subgame, and :func:`packet_split_plan` turns a
fractional rate vector into integer chunk rates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import ceil, isfinite, lcm
from types import SimpleNamespace
from typing import Mapping, NamedTuple

from .omniscience import (
    GameContext,
    RateVector,
    _extend,
    _fold,
    _ordered_sum,
    core_membership,
    decompose,
)


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of its iteration budget."""


class SplitError(ValueError):
    """A rate vector does not fit the requested chunk grid."""

    def __init__(self, offenders: list[int], minimal_chunks: int, chunks: int):
        self.offenders = offenders
        self.minimal_chunks = minimal_chunks
        super().__init__(
            f"rates of users {offenders} are not multiples of 1/{chunks}; "
            f"the minimal valid chunk count is {minimal_chunks}")


def _check_weights(weights, users: tuple[int, ...]) -> dict[int, Fraction]:
    """The weights as exact Fractions (1 where none is given, a float at its
    exact value), each checked positive and finite, none for an unknown user."""
    if weights is None:
        return {u: Fraction(1) for u in users}
    unknown = set(weights) - set(users)
    if unknown:
        raise ValueError(f"weights given for unknown users {sorted(unknown)}")
    out = {}
    for u in users:
        w = weights.get(u, 1)
        if not w > 0 or isinstance(w, float) and not isfinite(w):
            raise ValueError(f"weight for user {u} must be positive and finite, got {w}")
        out[u] = Fraction(w)
    return out


def _objective(r: RateVector, w: Mapping[int, Fraction]):
    return _ordered_sum(r[u] * r[u] / w[u] for u in r.users)


def objective_g(r: RateVector, weights: Mapping[int, Fraction | float] | None = None):
    """Weighted sum of squared rates, exact for rational rates and any weights."""
    return _objective(r, _check_weights(weights, r.users))


def dep(ctx: GameContext, r: RateVector, i: int) -> frozenset:
    """Dependence set of user ``i`` at ``r``: the minimal minimizer of
    f(X) - r(X) over subsets containing ``i``.  These are the users ``i``
    can take rate from while staying in the core; always contains ``i``.

    It is read off the game's slack table, which answers every user at
    ``r`` in one batched pass over the slack of ``r``
    (:meth:`_SlackTable.dependence`): the AND of the masks containing ``i``
    whose slack is within ``tol`` of the least such slack is the minimal
    minimizer."""
    if i not in ctx.ground:
        raise ValueError(f"user {i} is not in this game")
    return ctx._slack_table.dependence(r)[ctx.users.index(i)]


class SdaTrace(SimpleNamespace):
    """Record of a steepest-descent run over the 1/K grid, filled in by
    :func:`sda` as it runs; two traces are equal when every field is.

    ``iterates`` holds the estimates from the initial point to the output,
    ``pairs`` the accepted exchange per step as (gainer, loser), and
    ``objectives`` the objective value at each iterate.  The diagnostic
    fields are populated when K differs from the fundamental value, where
    the theory's guarantees lapse.
    """

    def __init__(self, K: int, iterates: list[RateVector], objectives: list):
        super().__init__(K=K, iterates=iterates, pairs=[], objectives=objectives,
                         warnings=[], locally_optimal=None, left_core=None)

    @property
    def iterations(self) -> int:
        return len(self.pairs)


def _grid(r: RateVector, K: int, w) -> tuple[dict, dict, int]:
    """a_u = K·r_u, c_u = L/w_u (L the lcm of the exact weights' numerators)
    and K²L, so that sum(r_u² / w_u) = sum(a_u² c_u) / (K²L)."""
    L = lcm(*(v.numerator for v in w.values()))
    return ({u: K * Fraction(r[u]) for u in r.users},
            {u: L * v.denominator // v.numerator for u, v in w.items()}, K * K * L)


def _delta(a, c, i: int, j: int):
    """K²L times the change of the objective when 1/K moves from j to i."""
    return (2 * a[i] + 1) * c[i] + (1 - 2 * a[j]) * c[j]


def is_locally_optimal(ctx: GameContext, r: RateVector, K: int | None = None,
                       weights=None) -> bool:
    """Check single-exchange optimality: no in-core move of 1/K between any
    ordered user pair lowers the objective, each move priced by :func:`_delta`
    before its core check.  For the fundamental K this is equivalent to
    global optimality on the grid."""
    K = ctx.grid_denominator if K is None else K
    w = _check_weights(weights, ctx.users)
    a, c, scale = _grid(r, K, w)
    for i, j in permutations(ctx.users, 2):
        if _delta(a, c, i, j) < -ctx.tol * scale and core_membership(
                ctx, r.exchange(i, j, Fraction(1, K)))[0]:
            return False
    return True


def _iteration_budget(ctx: GameContext, K: int) -> int:
    # K * (l1 diameter) / 2 bounds the improving steps; the core's coordinate
    # ranges, inside [sum_cost - f(V∖u), f({u})] as hat <= f with equality on
    # singletons, bound the diameter without enumerating vertices.
    raw = ctx._slack_table.raw
    n, full = len(ctx.users), len(raw) - 1
    ends = raw[[1 << k for k in range(n)] + [full ^ 1 << k for k in range(n)]].tolist()
    spread = ctx.value_of(sum(ends)) - n * ctx.sum_cost
    return int(ceil(K * spread / 2)) + 2


def sda(
    ctx: GameContext,
    r0: RateVector | None = None,
    K: int | None = None,
    weights=None,
) -> tuple[RateVector, SdaTrace]:
    """Steepest descent to the grid-restricted egalitarian solution.

    Starting from a core vertex on the 1/K grid, each iteration moves 1/K
    along the exchange pair that lowers the objective the most, the eligible
    pairs coming from the dependence sets and ranked by their integer
    :func:`_delta` on the iterate K·r; ties break on the smallest (gainer,
    loser) pair.  Stops when no exchange improves.  For K equal to the
    fundamental value the endpoint is the exact grid minimizer; other K are
    accepted but flagged, with core-feasibility and local-optimality
    diagnostics attached to the trace.  The objectives are exact Fractions,
    float weights taken at their exact rational value; a pmf source is
    refused with a ``ValueError``.
    """
    if not ctx.source.is_exact:
        raise ValueError("sda runs on the exact 1/K grid; pmf sources are refused")
    K = ctx.grid_denominator if K is None else K
    if not isinstance(K, int) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    r0 = ctx.vertex if r0 is None else r0
    w = _check_weights(weights, ctx.users)

    inside, witness = core_membership(ctx, r0)
    if not inside:
        raise ValueError(f"initial point is outside the core: {witness}")
    a, c, scale = _grid(r0, K, w)
    off_grid = [u for u in r0.users if a[u].denominator != 1]
    if off_grid:
        raise ValueError(f"initial rates of users {off_grid} are off the 1/{K} grid")
    a = {u: int(v) for u, v in a.items()}

    step = Fraction(1, K)
    current = r0
    current_obj = Fraction(sum(a[u] * a[u] * c[u] for u in ctx.users), scale)
    trace = SdaTrace(K=K, iterates=[current], objectives=[current_obj])
    mismatch = K != ctx.grid_denominator
    if mismatch:
        trace.warnings.append(
            f"K={K} differs from the fundamental value {ctx.grid_denominator}; "
            "iterates may leave the core and the endpoint may be suboptimal")
        trace.left_core = False

    budget = _iteration_budget(ctx, K)
    for _ in range(budget):
        # every candidate shares current_obj, so the deltas rank them
        delta, i_star, j_star = min(((_delta(a, c, i, j), i, j) for i in ctx.users
                                     for j in dep(ctx, current, i) if j != i),
                                    default=(0, None, None))
        if delta >= 0:
            break
        a[i_star], a[j_star] = a[i_star] + 1, a[j_star] - 1
        current = ctx._slack_table.exchange(current, i_star, j_star, step)
        current_obj += Fraction(delta, scale)
        trace.iterates.append(current)
        trace.pairs.append((i_star, j_star))
        trace.objectives.append(current_obj)
        if mismatch:
            ok, _ = core_membership(ctx, current)
            if not ok:
                trace.left_core = True
    else:
        raise ConvergenceError("steepest descent exceeded its iteration budget")

    if mismatch:
        trace.locally_optimal = is_locally_optimal(ctx, current, K, w)
    return current, trace


def egalitarian_continuous(ctx: GameContext, weights=None) -> RateVector:
    """The point of the core that minimizes sum(r_i^2 / w_i): the
    lexicographically optimal base of the characteristic cost with respect
    to the weights (Fujishige 1980), by the decomposition algorithm.

    The cost separates across the fundamental partition, so each block (a
    subgame is one block) is solved on its own.  Linear sources run on
    integers, the weights (float ones at their exact rational value) scaled
    by the lcm of their denominators, and return Fractions; pmf sources run
    in float64 within the source's tolerance (1e-9) and return floats."""
    w = _check_weights(weights, ctx.users)
    return RateVector.direct_sum(_lexicographic_base(ctx, C, w) for C in ctx.blocks)


def _lexicographic_base(ctx: GameContext, block: tuple[int, ...], w) -> RateVector:
    """:func:`egalitarian_continuous` on one block by minors (A, E) from (∅,
    block), R being the raw truncation total and d = R(A ∪ E) - R(A).  The
    least w(E)·R(Y) - d·w(Y ∖ A) over A ⊆ Y ⊆ A ∪ E is one truncation of
    w(E)·f - d·w(· ∩ E): A's state scaled by w(E), extended by E's bits
    through :func:`_extend` with scale w(E), E's weights and level d, a
    singleton of E costing at most 0 (left out of Y).  If it is below
    w(E)·R(A), X = E ∩ Y is tight, and the minors (A, X) and (A ∪ X, E ∖ X)
    are solved in turn; else r = d·w / w(E) on E.  Linear sources run on
    raw ints and integer weights; a pmf run keeps a margin of ctx.tol·w(E)
    in each step and at the split test, lest rounding below zero on both
    halves of a tie keep all of E."""
    exact, scale = ctx.source.is_exact, lcm(*(w[u].denominator for u in block))
    weight = {ctx._bits[u]: int(w[u] * scale) if exact else float(w[u]) for u in block}
    rates, minors = {}, [(0, sum(weight))]  # a stack: (A, X) before (A ∪ X, E ∖ X)
    while minors:
        A, E = minors.pop()
        (base, blocks), top = _fold(ctx._cost, A), _fold(ctx._cost, A | E)[0]
        weights = {bit: v for bit, v in weight.items() if bit & E}
        d, wE = top - base, _ordered_sum(weights.values())
        state = (wE * base, [(b, k, wE * c) for b, k, c in blocks])
        for bit in weights:
            state = _extend(ctx._cost, state, bit, wE, weights, d)
        if state[0] < wE * base - ctx.tol * wE:
            X = E & sum(b for b, _, g in state[1] if b & (b - 1) or b & ~E or g < 0)
            if X in (0, E):
                raise ArithmeticError(f"minor {sorted(ctx.source.members(E))} split empty or whole")
            minors += [(A | X, E & ~X), (A, X)]
        else:
            rates.update((u, ctx.value_of(Fraction(d * weight[bit], wE)) if exact
                          else d * (weight[bit] / wE)) for u, bit in ctx._bits.items() if bit & E)
    return RateVector(rates)


def egalitarian_decomposed(ctx: GameContext, *, weights=None, K: int | None = None,
                           r0: RateVector | None = None) -> RateVector:
    """:func:`sda` on each fundamental-partition subgame, the results
    fused.  Each block starts from ``r0`` restricted to it (default: the
    block's greedy vertex)."""
    w = _check_weights(weights, ctx.users)
    subgames, parts = decompose(ctx)[::-1], []
    while subgames:  # each subgame, and its slack table, released after its run
        sub = subgames.pop()
        parts.append(sda(sub, r0=None if r0 is None else r0.restrict(sub.ground), K=K,
                         weights={u: w[u] for u in sub.users})[0])
    return RateVector.direct_sum(parts)


class SplitPlan(NamedTuple):
    """Integer chunk rates realizing a fractional rate vector: each packet is
    cut into ``chunks_per_packet`` chunks and user ``i`` sends
    ``chunk_rates[i]`` chunk combinations.  Coding coefficients are out of
    scope here."""

    chunks_per_packet: int
    chunk_rates: dict[int, int]


def packet_split_plan(r: RateVector, K: int | None = None) -> SplitPlan:
    """Scale ``r`` onto the integer chunk grid.

    ``K`` defaults to the least common multiple of the rate denominators
    (the minimal chunk count).  If an explicit ``K`` leaves some K*r_i
    non-integral, a :class:`SplitError` reports the offending users and the
    minimal valid chunk count.
    """
    rationals = {}
    for u in r.users:
        v = r[u]
        if isinstance(v, float):
            raise ValueError("packet splitting needs exact rational rates")
        rationals[u] = Fraction(v)
    negative = sorted(u for u, v in rationals.items() if v < 0)
    if negative:
        raise ValueError(f"rates of users {negative} are negative")
    minimal = lcm(*(v.denominator for v in rationals.values()))
    if K is None:
        K = minimal
    if not isinstance(K, int) or K < 1:
        raise ValueError(f"chunk count must be a positive integer, got {K!r}")
    offenders = sorted(u for u, v in rationals.items() if (K * v).denominator != 1)
    if offenders:
        raise SplitError(offenders, minimal, K)
    return SplitPlan(K, {u: int(K * v) for u, v in rationals.items()})
