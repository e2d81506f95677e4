"""Minimum sum-rate solver and the induced coalitional cost structure.

Given a multi-user source, this module computes the minimum total coding
rate at which every user can recover the whole source, the fundamental
partition that certifies it, and the optimal rate region (the core of the
associated cost-sharing game).  The characteristic cost of a user subset is
the Dilworth truncation of the sum-rate-parameterized cost function,
computed incrementally on user bitmasks, one step per element in ascending
bit order; one depth-first walk fills every subset's total, and no state
outlives its call.  For linear sources the pass runs on
integers (the cost scaled by the sum-rate's denominator), so no ``Fraction``
appears until a value leaves it.  Core vertices are Edmonds' greedy rule on
that cost, one walk of raw marginal costs along a permutation.  The raw
costs on every subset of a game's users also form the one slack table f - r
that answers every core question: membership, the dependence sets of
steepest descent and its initial check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add
from typing import Callable, Iterable, Iterator, Mapping

from .setfn import _check_size, int_array, subset_masks, widen
from .sources import Source


class DecompositionError(RuntimeError):
    """The characteristic cost failed to split across the fundamental partition."""


def _eq(a, b, tol) -> bool:
    return abs(a - b) <= tol


def _ordered_sum(values: Iterable):
    """``values`` added left to right from 0, as Python 3.11's ``sum()``
    does for every type (3.12's compensates float sums)."""
    return reduce(add, values, 0)


class RateVector:
    """Per-user source coding rates (exact rationals for linear sources)."""

    __slots__ = ("_rates",)

    def __init__(self, rates: Mapping[int, Fraction | float]):
        if not rates:
            raise ValueError("a rate vector needs at least one user")
        self._rates = dict(rates)

    @property
    def users(self) -> tuple[int, ...]:
        return tuple(sorted(self._rates))

    def __getitem__(self, user: int):
        return self._rates[user]

    def __contains__(self, user: int) -> bool:
        return user in self._rates

    def __len__(self) -> int:
        return len(self._rates)

    def mass(self, X: Iterable[int]):
        """Sum of rates over ``X``; zero for the empty set."""
        return _ordered_sum(self._rates[u] for u in X)

    def total(self):
        return _ordered_sum(self._rates.values())

    def as_tuple(self, order: Iterable[int] | None = None) -> tuple:
        order = self.users if order is None else tuple(order)
        return tuple(self._rates[u] for u in order)

    def restrict(self, X: Iterable[int]) -> "RateVector":
        return RateVector({u: self._rates[u] for u in X})

    def exchange(self, gainer: int, loser: int, step) -> "RateVector":
        """New vector with ``step`` moved from ``loser`` to ``gainer``."""
        rates = dict(self._rates)
        rates[gainer] = rates[gainer] + step
        rates[loser] = rates[loser] - step
        return RateVector(rates)

    def l1_distance(self, other: "RateVector"):
        if self.users != other.users:
            raise ValueError("rate vectors are indexed by different users")
        return _ordered_sum(abs(self._rates[u] - other._rates[u]) for u in self._rates)

    @staticmethod
    def direct_sum(parts: Iterable["RateVector"]) -> "RateVector":
        merged: dict[int, Fraction | float] = {}
        for part in parts:
            overlap = merged.keys() & part._rates.keys()
            if overlap:
                raise ValueError(f"direct sum of overlapping user sets: {sorted(overlap)}")
            merged.update(part._rates)
        return RateVector(merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RateVector):
            return NotImplemented
        return self._rates == other._rates

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._rates.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{u}: {self._rates[u]}" for u in self.users)
        return f"RateVector({{{inner}}})"


class Partition:
    """Disjoint nonempty blocks covering a ground set."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]], ground: Iterable[int] | None = None):
        blocks = tuple(frozenset(b) for b in blocks)
        if any(not b for b in blocks):
            raise ValueError("partition blocks must be nonempty")
        union: frozenset = frozenset().union(*blocks) if blocks else frozenset()
        if sum(len(b) for b in blocks) != len(union):
            raise ValueError("partition blocks must be pairwise disjoint")
        if ground is not None and union != frozenset(ground):
            raise ValueError("partition blocks must cover the ground set")
        self.blocks = tuple(sorted(blocks, key=min))

    @property
    def ground(self) -> frozenset:
        return frozenset().union(*self.blocks)

    def block_of(self, user: int) -> frozenset:
        for block in self.blocks:
            if user in block:
                return block
        raise KeyError(user)

    def refines(self, other: "Partition") -> bool:
        """True if every block of ``self`` sits inside a block of ``other``."""
        return all(any(b <= c for c in other.blocks) for b in self.blocks)

    def to_lists(self) -> list[list[int]]:
        return [sorted(b) for b in self.blocks]

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return frozenset(self.blocks) == frozenset(other.blocks)

    def __hash__(self) -> int:
        return hash(frozenset(self.blocks))

    def __repr__(self) -> str:
        return f"Partition({self.to_lists()})"


def f_alpha(source: Source, alpha, X: Iterable[int]):
    """Sum-rate-parameterized cost: zero on the empty set, else
    ``alpha - H(V) + H(X)`` (equivalently ``alpha - H(V∖X | X)``)."""
    X = source.subset(X)
    if not X:
        return source.zero
    return alpha - source.entropy(source.ground) + source.entropy(X)


# --- Dilworth truncation ---------------------------------------------------


def _mask_cost(source: Source, alpha):
    """:func:`f_alpha` on nonempty user bitmasks, plus the map from its
    values back to f_alpha's.  For a linear source with alpha = p/q the cost
    is q·H(X) - q·H(V) + p, an integer, and the map divides by q; for a pmf
    source it is (alpha - H(V)) + H(X) in floats, and the map is the
    identity."""
    h = source.raw_entropy
    whole = h(source.mask(source.users))
    if not source.is_exact:
        shift = alpha - whole
        return (lambda m: shift + h(m)), (lambda v: v)
    alpha = Fraction(alpha)
    q = alpha.denominator
    shift = alpha.numerator - q * whole
    return (lambda m: q * h(m) + shift), (lambda v: Fraction(v, q))


def _extend(cost: Callable[[int], int | float], state: tuple, bit: int, tol) -> tuple:
    """One truncation step: the state (total, blocks) of a mask, extended
    by a ``bit`` above its bits, as a new state.

    Blocks are (mask, cost) pairs.  The step enumerates the subsets S of the
    blocks by one doubling pass and adds the minimum of cost(bit ∪ S) - Σ_S
    cost to the total; the merge keeps the minimal minimizer, the AND of
    every block-subset index within ``tol`` of the minimum.
    """
    total, blocks = state
    _check_size(len(blocks))
    unions, absorbed = [bit], [0]
    for block, value in blocks:
        unions += [u | block for u in unions]
        absorbed += [a + value for a in absorbed]
    gains = [cost(u) - a for u, a in zip(unions, absorbed)]
    best = min(gains)
    pick = len(gains) - 1
    for index, gain in enumerate(gains):
        if gain <= best + tol:
            pick &= index
    kept = [b for i, b in enumerate(blocks) if not pick >> i & 1]
    return total + best, kept + [(unions[pick], cost(unions[pick]))]


def _fold(cost: Callable[[int], int | float], mask: int, tol) -> tuple:
    """The state of ``mask``: :func:`_extend` folded over its bits in
    ascending order from the empty state, a zero total and no blocks."""
    bits = (1 << k for k in range(mask.bit_length()) if mask >> k & 1)
    return reduce(lambda state, bit: _extend(cost, state, bit, tol), bits, (0, ()))


def dilworth_truncation(source: Source, alpha, X: Iterable[int]):
    """Partition-wise minimum of the parameterized cost over ``X``.

    Returns ``(value, finest_minimizing_partition)`` from the
    :func:`_fold` of ``X``'s bitmask.
    """
    X = source.subset(X)
    if not X:
        raise ValueError("the truncation is evaluated on nonempty subsets")
    cost, value_of = _mask_cost(source, alpha)
    value, blocks = _fold(cost, source.mask(X), source.tol)
    return value_of(value), Partition(source.members(b) for b, _ in blocks)


# --- solving the minimum sum-rate problem ----------------------------------


def _newton_min_sum_rate(source: Source):
    """Raise a candidate sum-rate along finest truncation minimizers until the
    whole-set cost matches its truncation; converges in at most |V| rounds."""
    users = source.users
    hv = source.entropy(source.ground)
    tol = source.tol
    alpha = _ordered_sum(hv - source.entropy(frozenset({u})) for u in users) / (len(users) - 1)
    for _ in range(len(users) + 2):
        value, part = dilworth_truncation(source, alpha, users)
        if _eq(value, alpha, tol):
            return alpha, part
        if len(part) < 2:
            raise ArithmeticError("truncation minimizer collapsed below the threshold")
        alpha = _ordered_sum(hv - source.entropy(C) for C in part) / (len(part) - 1)
    raise ArithmeticError("sum-rate search failed to converge")


class GameContext:
    """A solved instance: the minimum sum-rate, the fundamental partition
    and one core vertex (computed on first read).

    A truncation state is a mask's raw total and blocks; ``value_of`` maps
    raw totals to :meth:`hat`'s numbers.  No state outlives the call that
    built it.  Subgames (from :func:`decompose`) are contexts on one block
    each; their ``sum_cost`` is the block's characteristic cost.
    """

    def __init__(
        self,
        source: Source,
        ground: Iterable[int],
        min_sum_rate,
        sum_cost,
        fundamental_partition: Partition | None,
        shared_randomness,
        grid_denominator: int,
    ):
        self.source = source
        self.ground = frozenset(ground)
        self.users = tuple(sorted(self.ground))
        self.min_sum_rate = min_sum_rate
        self.sum_cost = sum_cost
        self.fundamental_partition = fundamental_partition
        self.shared_randomness = shared_randomness
        self.grid_denominator = grid_denominator
        self.tol = source.tol
        self._vertex: RateVector | None = None
        self._bits = {u: source.mask((u,)) for u in self.users}
        self._cost, self.value_of = _mask_cost(source, min_sum_rate)

    @property
    def vertex(self) -> RateVector:
        """The greedy core vertex on the identity permutation."""
        if self._vertex is None:
            self._vertex = self.greedy_vertex(self.users)
        return self._vertex

    @property
    def is_whole_game(self) -> bool:
        return self.ground == self.source.ground

    def hat(self, X: Iterable[int]):
        """Characteristic cost: Dilworth truncation of :func:`f_alpha` at
        the solved sum-rate over ``X``."""
        X = frozenset(X)
        if not X <= self.ground:
            raise ValueError(f"{sorted(X - self.ground)} outside this game's ground set")
        if not X:
            return self.source.zero
        return self.value_of(_fold(self._cost, self.source.mask(X), self.tol)[0])

    def raw_table(self) -> list[int | float]:
        """Raw :meth:`hat` totals (ints for linear sources) on every bitmask
        of the game's users, bit k being ``users[k]``, refused past the
        exhaustive limit before any cost is read.  One depth-first walk: each
        child extends its parent's state by a bit above the parent's bits, so
        it is the :func:`_fold` state; at most |users| + 1 states are alive."""
        _check_size(len(self.users))
        bits = [self._bits[u] for u in self.users]
        table, stack = [0] * (1 << len(bits)), [((0, ()), 0, 0)]
        while stack:  # (state, its local mask, the next bit to add)
            state, local, k = stack.pop()
            if k < len(bits):
                child = _extend(self._cost, state, bits[k], self.tol)
                table[local | 1 << k] = child[0]
                stack += [(state, local, k + 1), (child, local | 1 << k, k + 1)]
        return table

    def raw_marginals(self, orders: Iterable[Iterable[int]]) -> Iterator[dict[int, int | float]]:
        """For each of ``orders``, which must be permutations of the users,
        each user mapped to its raw marginal cost over the users before it.

        The prefix states of one call are kept while it runs: a missing one
        walks down "mask minus top bit" to the nearest kept one and extends
        upward one step per missing mask."""
        states = {0: (0, ())}
        for order in map(tuple, orders):
            if frozenset(order) != self.ground or len(order) != len(self.ground):
                raise ValueError(f"{order} is not a permutation of {self.users}")
            marginals, prefix, before = {}, 0, 0
            for u in order:
                prefix |= self._bits[u]
                mask, missing = prefix, []
                while mask not in states:
                    missing.append(mask)
                    mask ^= 1 << mask.bit_length() - 1
                state = states[mask]
                for m in reversed(missing):
                    state = states[m] = _extend(self._cost, state, 1 << m.bit_length() - 1, self.tol)
                marginals[u], before = state[0] - before, state[0]
            yield marginals

    def greedy_vertex(self, order: Iterable[int]) -> RateVector:
        """Core vertex from marginal characteristic costs along ``order``
        (Edmonds' greedy rule)."""
        marginals, = self.raw_marginals([order])
        return RateVector({u: self.value_of(v) for u, v in marginals.items()})

    def __repr__(self) -> str:
        return (f"GameContext(users={self.users}, min_sum_rate={self.min_sum_rate}, "
                f"sum_cost={self.sum_cost}, partition={self.fundamental_partition})")


def min_sum_rate(source: Source) -> GameContext:
    """Solve the minimum sum-rate problem by iterated truncation evaluation
    with candidate sum-rate updates (at most |V| truncations).

    The returned context carries the fundamental partition, the shared
    randomness amount, and one core vertex (greedy on the identity
    permutation).
    """
    rco, part = _newton_min_sum_rate(source)
    shared = source.entropy(source.ground) - rco
    if shared < -source.tol:
        raise ArithmeticError(f"shared randomness came out negative: {shared}")
    return GameContext(
        source=source,
        ground=source.ground,
        min_sum_rate=rco,
        sum_cost=rco,
        fundamental_partition=part,
        shared_randomness=shared,
        grid_denominator=max(len(part) - 1, 1),
    )


# --- the slack table, core membership and decomposition --------------------


class _SlackTable:
    """:func:`f_alpha` at the solved sum-rate on every user bitmask of a
    game (bit k is ``ctx.users[k]``), from the truncation's raw costs, and
    the slack f(X) - r(X) of rate vectors.  Exact games scale by D = lcm(q,
    K, denominators of ``r``), q the sum-rate's denominator, to integers, so
    rates on the 1/K grid around ``r`` stay exact; pmf games, and exact games
    given float rates, use float64 within ``ctx.tol``.  The table is refused
    past n - 1 free users, before any cost is read.
    """

    def __init__(self, ctx: GameContext, r: RateVector, K: int = 1):
        import numpy as np
        if r.users != ctx.users:
            raise ValueError(f"rate vector users {r.users} != game users {ctx.users}")
        _check_size(len(ctx.users) - 1)
        self.users = ctx.users
        masks = [0]
        for u in ctx.users:
            masks += [m | ctx._bits[u] for m in masks]
        raw = [0] + [ctx._cost(m) for m in masks[1:]]
        rates = [r[u] for u in ctx.users]
        if ctx.source.is_exact and not any(isinstance(v, float) for v in rates):
            q = Fraction(ctx.min_sum_rate).denominator
            self.scale = lcm(q, K, *(v.denominator for v in rates))
            self.f = int_array([c * (self.scale // q) for c in raw])
        else:
            self.scale = None
            self.f = np.array([ctx.value_of(c) for c in raw], dtype=float)
        self._at = None

    def slack(self, r: RateVector) -> np.ndarray:
        """f(X) - r(X) over every mask; r(X) by the doubling pass
        mass[2^k:2^(k+1)] = mass[:2^k] + r_k.  The slack of the last ``r``
        asked about is kept, so the questions about one iterate share it."""
        import numpy as np
        if self._at is not None and self._at[0] is r:
            return self._at[1]
        f, users = self.f, self.users
        if self.scale is not None:
            scaled = [r[u] * self.scale for u in users]
            if any(v.denominator != 1 for v in scaled):
                raise ArithmeticError(f"rates {r} are off the 1/{self.scale} grid of the slack table")
            rates = [int(v) for v in scaled]
            f = widen(f, sum(map(abs, rates)))
        else:
            rates = [float(r[u]) for u in users]
        mass = np.zeros_like(f)
        for k, rate in enumerate(rates):
            mass[1 << k:2 << k] = mass[:1 << k] + rate
        self._at = (r, f - mass)
        return self._at[1]


def core_membership(ctx: GameContext, r: RateVector,
                    table: _SlackTable | None = None) -> tuple[bool, str | None]:
    """Check whether ``r`` lies in the optimal rate region of ``ctx``.

    Only the defining rate constraints are checked: Slepian-Wolf lower bounds
    r(X) >= H(X | V∖X) for the whole game, cost upper bounds r(X) <= f(X)
    for subgames.  Once r(V) = R_CO the former read r(V∖X) <= f(V∖X), so
    both come off one slack table: ``table`` (built for this game and a grid
    ``r`` lies on), or else one built for ``r``.  Returns the verdict plus the first
    violated constraint in :func:`subset_masks` order, put in words only on
    failure.
    """
    if table is None:
        table = _SlackTable(ctx, r)
    if not _eq(r.total(), ctx.sum_cost, ctx.tol):
        return False, f"sum rate {r.total()} != {ctx.sum_cost}"
    bad = table.slack(r) < -ctx.tol
    bad[0] = bad[-1] = False  # the empty and the whole set
    if ctx.is_whole_game:
        bad = bad[::-1]  # X's lower bound is its complement's upper bound
    if not bad.any():
        return True, None
    masks = subset_masks(len(ctx.users))
    first = masks[int(bad[masks].argmax())]
    X = sorted(u for k, u in enumerate(ctx.users) if first >> k & 1)
    if ctx.is_whole_game:
        bound = ctx.source.conditional_entropy(X, ctx.ground - set(X))
        return False, f"r({X}) = {r.mass(X)} < H(X | V∖X) = {bound}"
    return False, f"r({X}) = {r.mass(X)} > f({X}) = {f_alpha(ctx.source, ctx.min_sum_rate, X)}"


def conditional_mi_given_U(ctx: GameContext, X: Iterable[int], Y: Iterable[int]):
    """Mutual information between disjoint subsets given the shared part:
    hat(X) + hat(Y) - hat(X ⊔ Y)."""
    X, Y = frozenset(X), frozenset(Y)
    if not X or not Y:
        raise ValueError("both arguments must be nonempty")
    if X & Y:
        raise ValueError(f"arguments overlap on {sorted(X & Y)}")
    return ctx.hat(X) + ctx.hat(Y) - ctx.hat(X | Y)


def check_decomposition(ctx: GameContext) -> None:
    """Verify that the characteristic cost of a solved whole-game context
    splits across its fundamental partition on every subset: one
    :meth:`GameContext.raw_table` against its blockwise sums, added left to
    right from 0 as :func:`_ordered_sum` does.  The first violation in
    :func:`subset_masks` order, an upstream bug, raises :class:`DecompositionError`.
    """
    import numpy as np
    table = np.array(ctx.raw_table(), dtype=object if ctx.source.is_exact else float)
    masks = np.array(subset_masks(len(ctx.users)))  # a whole game: its local masks are the source's
    sums = _ordered_sum(table[masks & ctx.source.mask(C)] for C in ctx.fundamental_partition.blocks)
    bad = abs(table[masks] - sums) > ctx.tol
    if bad.any():
        x = int(bad.argmax())
        X = sorted(ctx.source.members(int(masks[x])))
        raise DecompositionError(
            f"hat({X}) = {ctx.hat(X)} but the blockwise sum is {ctx.value_of(sums.item(x))}")


def decompose(ctx: GameContext) -> list[GameContext]:
    """Split a solved whole-game context into one subgame per block of the
    fundamental partition.  The characteristic cost is separable across the
    blocks, so each subgame evaluates truncations only inside its block;
    :func:`check_decomposition` verifies the separability.
    """
    if ctx.fundamental_partition is None or not ctx.is_whole_game:
        raise ValueError("decompose needs a solved whole-game context")
    subgames = []
    for C in ctx.fundamental_partition.blocks:
        sub = GameContext(
            source=ctx.source,
            ground=C,
            min_sum_rate=ctx.min_sum_rate,
            sum_cost=ctx.hat(C),
            fundamental_partition=None,
            shared_randomness=None,
            grid_denominator=ctx.grid_denominator,
        )
        subgames.append(sub)
    return subgames


def l1_size(ctx: GameContext):
    """Largest l1 distance between extreme points of the core (and hence
    between any two of its points, by convexity)."""
    from .shapley import enumerate_extreme_points

    vertices = enumerate_extreme_points(ctx)
    if len(vertices) < 2:
        return ctx.source.zero
    return max(
        a.l1_distance(b)
        for i, a in enumerate(vertices)
        for b in vertices[i + 1:])
