"""Egalitarian rate allocation in the optimal rate region.

The weighted quadratic objective sum(r_i^2 / w_i) is minimized two ways:

* :func:`sda` -- steepest descent over the 1/K grid inside the core, the
  steepest direction found through the dependence sets of all users.  The
  cost f is read once per run from the truncation's raw costs over every
  user bitmask; each iteration forms the slack f(X) - r(X) from it with one
  doubling pass, and :func:`dep` reads every user's dependence set off that
  one slack table, which also answers the initial core check.  The weights
  are checked once per run.  With K one less than the size of the
  fundamental partition the output is the exact grid optimum.
* :func:`egalitarian_continuous` -- Frank-Wolfe with away steps over the
  core, each linear subproblem solved by the greedy rule ranked by the
  gradient (:func:`~omnifair.setfn.ranked_greedy_vertex`); its active set
  is one float matrix of vertex rows, and every sum runs strictly left to
  right, so its floats are the same on every interpreter.

Both combine with the fundamental-partition decomposition, and
:func:`packet_split_plan` turns a fractional rate vector into integer
chunk rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import ceil, isfinite, lcm
from typing import Mapping

import numpy as np

from .omniscience import (
    GameContext,
    RateVector,
    _ordered_sum,
    _SlackTable,
    core_membership,
    decompose,
)
from .setfn import ranked_greedy_vertex


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


def _check_weights(weights, users: tuple[int, ...]) -> dict[int, Fraction | float]:
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
        out[u] = w
    return out


def _objective(r: RateVector, w: Mapping[int, Fraction | float]):
    return _ordered_sum(r[u] * r[u] / w[u] for u in r.users)


def objective_g(r: RateVector, weights: Mapping[int, Fraction | float] | None = None):
    """Weighted sum of squared rates, exact for rational inputs."""
    return _objective(r, _check_weights(weights, r.users))


def dep(ctx: GameContext, r: RateVector, i: int, table: _SlackTable | None = None) -> frozenset:
    """Dependence set of user ``i`` at ``r``: the minimal minimizer of
    f(X) - r(X) over subsets containing ``i``.  These are the users ``i``
    can take rate from while staying in the core; always contains ``i``.

    The minimization runs over a dense slack table of f on every user
    bitmask: ``table``, which :func:`sda` builds once per run, or else one
    built for this call.  The AND of the masks containing ``i`` whose slack
    is within ``tol`` of the least such slack is the minimal minimizer."""
    if i not in ctx.ground:
        raise ValueError(f"user {i} is not in this game")
    if table is None:
        table = _SlackTable(ctx, r)
    k = ctx.users.index(i)
    # masks with bit k set, as (bits above k, bits below k)
    half = table.slack(r).reshape(-1, 2, 1 << k)[:, 1, :]
    high, low = np.nonzero(half <= half.min() + ctx.tol)
    minimal = int(np.bitwise_and.reduce(high << (k + 1) | low)) | 1 << k
    return frozenset(u for b, u in enumerate(ctx.users) if minimal >> b & 1)


@dataclass
class SdaTrace:
    """Record of a steepest-descent run over the 1/K grid.

    ``iterates`` holds the estimates from the initial point to the output,
    ``pairs`` the accepted exchange per step as (gainer, loser), and
    ``objectives`` the objective value at each iterate.  The diagnostic
    fields are populated when K differs from the fundamental value, where
    the theory's guarantees lapse.
    """

    K: int
    iterates: list[RateVector] = field(default_factory=list)
    pairs: list[tuple[int, int]] = field(default_factory=list)
    objectives: list = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    locally_optimal: bool | None = None
    left_core: bool | None = None

    @property
    def iterations(self) -> int:
        return len(self.pairs)


def is_locally_optimal(ctx: GameContext, r: RateVector, K: int | None = None,
                       weights=None) -> bool:
    """Check single-exchange optimality: no in-core move of 1/K between any
    ordered user pair lowers the objective.  For the fundamental K this is
    equivalent to global optimality on the grid."""
    K = ctx.grid_denominator if K is None else K
    w = _check_weights(weights, ctx.users)
    step = Fraction(1, K)
    table = _SlackTable(ctx, r, K)
    base = _objective(r, w)
    for i, j in permutations(ctx.users, 2):
        candidate = r.exchange(i, j, step)
        inside, _ = core_membership(ctx, candidate, table)
        if inside and _objective(candidate, w) < base - ctx.tol:
            return False
    return True


def _iteration_budget(ctx: GameContext, K: int) -> int:
    # K * (l1 diameter) / 2 bounds the improving steps; the coordinate
    # ranges of the core bound the diameter without enumerating vertices.
    spread = 0
    for u in ctx.users:
        upper = ctx.hat(frozenset({u}))
        lower = ctx.sum_cost - ctx.hat(ctx.ground - {u})
        spread += upper - lower
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
    pairs coming from the dependence sets; ties break on the smallest
    (gainer, loser) pair.  Stops when no exchange improves.  For K equal to
    the fundamental value the endpoint is the exact grid minimizer; other K
    are accepted but flagged, with core-feasibility and local-optimality
    diagnostics attached to the trace.
    """
    K = ctx.grid_denominator if K is None else K
    if not isinstance(K, int) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    r0 = ctx.vertex if r0 is None else r0
    w = _check_weights(weights, ctx.users)

    table = _SlackTable(ctx, r0, K)
    inside, witness = core_membership(ctx, r0, table)
    if not inside:
        raise ValueError(f"initial point is outside the core: {witness}")
    off_grid = [u for u in r0.users if abs(r0[u] * K - round(r0[u] * K)) > ctx.tol]
    if off_grid:
        raise ValueError(f"initial rates of users {off_grid} are off the 1/{K} grid")

    mismatch = K != ctx.grid_denominator
    trace = SdaTrace(K=K)
    if mismatch:
        trace.warnings.append(
            f"K={K} differs from the fundamental value {ctx.grid_denominator}; "
            "iterates may leave the core and the endpoint may be suboptimal")
        trace.left_core = False

    step = Fraction(1, K)
    current = r0
    current_obj = _objective(current, w)
    trace.iterates.append(current)
    trace.objectives.append(current_obj)
    decrease_floor = 0 if ctx.source.is_exact else 1e-12

    budget = _iteration_budget(ctx, K)
    for _ in range(budget):
        dep_sets = [dep(ctx, current, i, table) for i in ctx.users]
        best = None
        for i, dset in zip(ctx.users, dep_sets):
            for j in sorted(dset):
                if j == i:
                    continue
                candidate = current.exchange(i, j, step)
                key = (_objective(candidate, w), i, j)
                if best is None or key < best[0]:
                    best = (key, candidate)
        if best is None or not best[0][0] < current_obj - decrease_floor:
            break
        (current_obj, i_star, j_star), current = best
        trace.iterates.append(current)
        trace.pairs.append((i_star, j_star))
        trace.objectives.append(current_obj)
        if mismatch:
            ok, _ = core_membership(ctx, current, table)
            if not ok:
                trace.left_core = True
    else:
        raise ConvergenceError("steepest descent exceeded its iteration budget")

    if mismatch:
        trace.locally_optimal = is_locally_optimal(ctx, current, K, w)
    return current, trace


def _left_sum(values: np.ndarray):
    """Sums along the last axis strictly left to right from +0.0, as Python
    3.11's ``sum()`` does (3.12's compensates, ``np.sum`` and ``@`` pair)."""
    return np.add.accumulate(values, axis=-1)[..., -1] + 0.0


def egalitarian_continuous(
    ctx: GameContext,
    weights=None,
    *,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> RateVector:
    """Weighted quadratic minimum over the core, by Frank-Wolfe with away
    steps and exact line search; the linear subproblems are greedy vertices
    ordered by the gradient, on a run-local memo of the float costs.  Stops
    when the duality gap falls below ``tol``.

    The active set is a float matrix of vertex rows, in the order they
    entered, beside their weights; the iterate and the away step's dot
    products are one array pass each.  Every sum runs left to right
    (:func:`_left_sum`), so the result does not depend on the interpreter.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    users = ctx.users
    w = np.array([float(v) for v in _check_weights(weights, users).values()])
    # rounding each cost before subtracting keeps float arithmetic throughout
    cost = cache(lambda X: float(ctx.hat(X)))

    def linear_step(grad: np.ndarray) -> tuple[float, ...]:
        s = ranked_greedy_vertex(cost, dict(zip(users, grad.tolist())))
        return tuple(s[u] for u in users)

    start = tuple(float(v) for v in ctx.vertex.as_tuple(users))
    keys, index = [start], {start: 0}  # the rows as tuples, for the tie-break
    vertices, lam = np.array([start]), np.ones(1)
    x = vertices[0]
    for _ in range(max_iter):
        grad = 2.0 * x / w
        s = linear_step(grad)
        toward = float(_left_sum(grad * (x - s)))
        if toward <= tol:
            return RateVector(dict(zip(users, x.tolist())))

        dots = _left_sum(vertices * grad)
        a = max(np.flatnonzero(dots == dots.max()), key=keys.__getitem__)
        away, away_weight = vertices[a], float(lam[a])
        backward = float(_left_sum(grad * (away - x)))
        forward_step = toward >= backward or len(keys) == 1 or away_weight >= 1.0
        if forward_step:
            direction = s - x
            gamma_max = 1.0
        else:
            direction = x - away
            gamma_max = away_weight / (1.0 - away_weight)

        denom = float(_left_sum(direction * direction / w))
        if denom <= 0.0:
            # a zero direction with a certified gap above tol cannot improve
            return RateVector(dict(zip(users, x.tolist())))
        gamma = -float(_left_sum(x * direction / w)) / denom
        gamma = min(max(gamma, 0.0), gamma_max)

        if not forward_step:
            lam = lam * (1.0 + gamma)
            lam[a] -= gamma
        elif s in index:
            lam = lam * (1.0 - gamma)
            lam[index[s]] += gamma
        else:
            index[s] = len(keys)
            keys.append(s)
            vertices = np.vstack([vertices, s])
            lam = np.append(lam * (1.0 - gamma), 0.0 + gamma)
        kept = lam > 1e-15
        if not kept.all():
            vertices, lam = vertices[kept], lam[kept]
            keys = [k for k, keep in zip(keys, kept) if keep]
            index = {k: i for i, k in enumerate(keys)}
        x = _left_sum((lam[:, None] * vertices).T)
    raise ConvergenceError(f"duality gap did not reach {tol} in {max_iter} iterations")


def egalitarian_decomposed(
    ctx: GameContext,
    *,
    mode: str = "sda",
    weights=None,
    K: int | None = None,
    tol: float = 1e-9,
    r0: RateVector | None = None,
) -> RateVector:
    """Solve each fundamental-partition subgame separately and fuse the
    results.  In ``sda`` mode each block starts from ``r0`` restricted to
    it (default: the block's greedy vertex); ``tol`` is the duality-gap
    tolerance of ``continuous`` mode."""
    if mode not in ("sda", "continuous"):
        raise ValueError(f"unknown mode {mode!r}")
    w = _check_weights(weights, ctx.users)
    subgames = decompose(ctx)

    def solve_block(sub: GameContext) -> RateVector:
        w_sub = {u: w[u] for u in sub.users}
        if mode == "sda":
            start = r0.restrict(sub.ground) if r0 is not None else None
            out, _ = sda(sub, r0=start, K=K, weights=w_sub)
            return out
        return egalitarian_continuous(sub, w_sub, tol=tol)

    return RateVector.direct_sum([solve_block(sub) for sub in subgames])


@dataclass(frozen=True)
class SplitPlan:
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
    minimal = lcm(*(v.denominator for v in rationals.values()))
    if K is None:
        K = minimal
    if not isinstance(K, int) or K < 1:
        raise ValueError(f"chunk count must be a positive integer, got {K!r}")
    offenders = sorted(u for u, v in rationals.items() if (K * v).denominator != 1)
    if offenders:
        raise SplitError(offenders, minimal, K)
    return SplitPlan(K, {u: int(K * v) for u, v in rationals.items()})
