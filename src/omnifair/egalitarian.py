"""Egalitarian rate allocation in the optimal rate region.

The weighted quadratic objective sum(r_i^2 / w_i) is minimized two ways:

* :func:`sda` -- steepest descent over the 1/K grid inside the core, the
  steepest direction found through the dependence sets of all users.  The
  cost f is tabulated once per run over every user bitmask; each iteration
  forms the slack f(X) - r(X) from it with one doubling pass, and :func:`dep`
  reads every user's dependence set off that one slack table.  With K one less than the size
  of the fundamental partition the output is the exact grid optimum.
* :func:`egalitarian_continuous` -- Frank-Wolfe with away steps over the
  core, the linear subproblems solved by the greedy vertex rule.

Both combine with the fundamental-partition decomposition, and
:func:`packet_split_plan` turns a fractional rate vector into integer
chunk rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm
from typing import Mapping

import numpy as np

from .omniscience import GameContext, RateVector, core_membership, decompose
from .setfn import tabulate, widen


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
        if w <= 0:
            raise ValueError(f"weight for user {u} must be positive, got {w}")
        out[u] = w
    return out


def objective_g(r: RateVector, weights: Mapping[int, Fraction | float] | None = None):
    """Weighted sum of squared rates, exact for rational inputs."""
    w = _check_weights(weights, r.users)
    return sum(r[u] * r[u] / w[u] for u in r.users)


class _SlackTable:
    """The cost ``ctx.f`` over every subset of the users, indexed by bitmask
    (bit k is ``ctx.users[k]``, see :func:`~omnifair.setfn.tabulate`), from
    which the slack f(X) - r(X) of a rate vector is formed and minimized.

    Exact games scale f and the rates by D = lcm(K, denominators of f and of
    ``r``) to integers, so rates on the 1/K grid around ``r`` stay exact;
    float games use float64 and compare within ``ctx.tol``.  Each dependence
    SFM forces its user in and leaves n - 1 free, and the table is refused,
    before it is built, where that exceeds the exhaustive limit.
    """

    def __init__(self, ctx: GameContext, r: RateVector, K: int = 1):
        self.users = ctx.users
        self.bit = {u: k for k, u in enumerate(ctx.users)}
        self.tol = ctx.tol
        self.f, self.scale = tabulate(ctx.f, ctx.users, Fraction(1, K),
                                      *(r[u] for u in ctx.users), forced=1)
        self._at = None

    def slack(self, r: RateVector) -> np.ndarray:
        """f(X) - r(X) over every mask; r(X) by the doubling pass
        mass[2^k:2^(k+1)] = mass[:2^k] + r_k."""
        f = self.f
        if self.scale is not None:
            scaled = [r[u] * self.scale for u in self.users]
            if any(v.denominator != 1 for v in scaled):
                raise ArithmeticError(f"rates {r} are off the 1/{self.scale} grid of the slack table")
            rates = [int(v) for v in scaled]
            f = widen(f, sum(map(abs, rates)))
        else:
            rates = [float(r[u]) for u in self.users]
        mass = np.zeros_like(f)
        for k, rate in enumerate(rates):
            mass[1 << k:2 << k] = mass[:1 << k] + rate
        return f - mass

    def dependence_set(self, r: RateVector, i: int) -> frozenset:
        """dep(r, i): the AND of the masks containing ``i`` whose slack is
        within ``tol`` of the least such slack.  The slack of the last ``r``
        asked about is kept, so the n users of one iterate share it."""
        if self._at is None or self._at[0] is not r:
            self._at = (r, self.slack(r))
        k = self.bit[i]
        # masks with bit k set, as (bits above k, bits below k)
        half = self._at[1].reshape(-1, 2, 1 << k)[:, 1, :]
        high, low = np.nonzero(half <= half.min() + self.tol)
        minimal = int(np.bitwise_and.reduce(high << (k + 1) | low)) | 1 << k
        return frozenset(u for b, u in enumerate(self.users) if minimal >> b & 1)


def dep(ctx: GameContext, r: RateVector, i: int, table: _SlackTable | None = None) -> frozenset:
    """Dependence set of user ``i`` at ``r``: the minimal minimizer of
    f(X) - r(X) over subsets containing ``i``.  These are the users ``i``
    can take rate from while staying in the core; always contains ``i``.

    The minimization runs over a dense table of f on every user bitmask:
    ``table``, which :func:`sda` builds once per run, or else one built for
    this call."""
    if i not in ctx.ground:
        raise ValueError(f"user {i} is not in this game")
    if table is None:
        table = _SlackTable(ctx, r)
    return table.dependence_set(r, i)


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
    base = objective_g(r, w)
    for i in ctx.users:
        for j in ctx.users:
            if i == j:
                continue
            candidate = r.exchange(i, j, step)
            inside, _ = core_membership(ctx, candidate)
            if inside and objective_g(candidate, w) < base - ctx.tol:
                return False
    return True


def _grid_offenders(r: RateVector, K: int, exact: bool) -> list[int]:
    out = []
    for u in r.users:
        v = r[u] * K
        if exact:
            if Fraction(v).denominator != 1:
                out.append(u)
        elif abs(v - round(v)) > 1e-9:
            out.append(u)
    return out


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

    inside, witness = core_membership(ctx, r0)
    if not inside:
        raise ValueError(f"initial point is outside the core: {witness}")
    off_grid = _grid_offenders(r0, K, ctx.source.is_exact)
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
    current_obj = objective_g(current, w)
    trace.iterates.append(current)
    trace.objectives.append(current_obj)
    decrease_floor = 0 if ctx.source.is_exact else 1e-12

    budget = _iteration_budget(ctx, K)
    table = _SlackTable(ctx, r0, K)
    for _ in range(budget):
        dep_sets = [dep(ctx, current, i, table) for i in ctx.users]
        best = None
        for i, dset in zip(ctx.users, dep_sets):
            for j in sorted(dset):
                if j == i:
                    continue
                candidate = current.exchange(i, j, step)
                key = (objective_g(candidate, w), i, j)
                if best is None or key < best[0]:
                    best = (key, candidate)
        if best is None or not best[0][0] < current_obj - decrease_floor:
            break
        (current_obj, i_star, j_star), current = best
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


def egalitarian_continuous(
    ctx: GameContext,
    weights=None,
    *,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> RateVector:
    """Weighted quadratic minimum over the core, by Frank-Wolfe with away
    steps and exact line search; the linear subproblems are greedy vertices
    ordered by the gradient.  Stops when the duality gap falls below ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    users = ctx.users
    w = {u: float(v) for u, v in _check_weights(weights, users).items()}

    def greedy_vertex(grad: tuple[float, ...]) -> tuple[float, ...]:
        by_user = dict(zip(users, grad))
        order = sorted(users, key=lambda u: (by_user[u], u))
        coords = {}
        prefix: frozenset = frozenset()
        prev = 0.0
        for u in order:
            prefix = prefix | {u}
            value = float(ctx.hat(prefix))
            coords[u] = value - prev
            prev = value
        return tuple(coords[u] for u in users)

    x = tuple(float(v) for v in ctx.vertex.as_tuple(users))
    active: dict[tuple[float, ...], float] = {x: 1.0}

    def combination() -> tuple[float, ...]:
        return tuple(
            sum(lam * v[k] for v, lam in active.items()) for k in range(len(users)))

    for _ in range(max_iter):
        grad = tuple(2.0 * x[k] / w[u] for k, u in enumerate(users))
        s = greedy_vertex(grad)
        gap = sum(g * (a - b) for g, a, b in zip(grad, x, s))
        if gap <= tol:
            return RateVector(dict(zip(users, x)))

        away, away_weight = max(
            active.items(),
            key=lambda item: (sum(g * v for g, v in zip(grad, item[0])), item[0]))
        toward = sum(g * (a - b) for g, a, b in zip(grad, x, s))
        backward = sum(g * (a - b) for g, a, b in zip(grad, away, x))
        forward_step = toward >= backward or len(active) == 1 or away_weight >= 1.0
        if forward_step:
            direction = tuple(b - a for a, b in zip(x, s))
            gamma_max = 1.0
        else:
            direction = tuple(a - b for a, b in zip(x, away))
            gamma_max = away_weight / (1.0 - away_weight)

        denom = sum(d * d / w[u] for d, u in zip(direction, users))
        if denom <= 0.0:
            # a zero direction with a certified gap above tol cannot improve
            return RateVector(dict(zip(users, x)))
        gamma = -sum(a * d / w[u] for a, d, u in zip(x, direction, users)) / denom
        gamma = min(max(gamma, 0.0), gamma_max)

        if forward_step:
            active = {v: lam * (1.0 - gamma) for v, lam in active.items()}
            active[s] = active.get(s, 0.0) + gamma
        else:
            active = {v: lam * (1.0 + gamma) for v, lam in active.items()}
            active[away] = active.get(away, 0.0) - gamma
        active = {v: lam for v, lam in active.items() if lam > 1e-15}
        x = combination()
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
    results."""
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
