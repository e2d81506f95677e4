"""Minimum sum-rate solver and the induced coalitional cost structure.

Given a multi-user source, this module computes the minimum total coding
rate at which every user can recover the whole source, the fundamental
partition that certifies it, and the optimal rate region (the core of the
associated cost-sharing game).  The characteristic cost of a user subset is
the Dilworth truncation of the sum-rate-parameterized cost function,
computed incrementally on user bitmasks, one step per element in ascending
bit order, its costs read by keys (held-packet bitsets for packet sources);
one depth-first walk fills every subset's total, and no state outlives its
call.  Linear sources run on integers (the cost scaled by the sum-rate's
denominator), so no ``Fraction`` appears until a value leaves the pass.
Core vertices are Edmonds' greedy rule on that cost, one walk of raw
marginal costs along a permutation, each taken inside its user's
fundamental-partition block, across which the cost splits.  The raw costs on
every subset of a game's users also form its one slack table f - r, kept
on the game from the first read, that answers every core question:
membership, the dependence sets of steepest descent and its initial check.
A game is fixed by its source, ground set, sum-rate R_CO and fundamental
partition P*; :class:`GameContext` derives its sum cost, shared randomness
and grid denominator from those four, for the whole game that
:func:`min_sum_rate` returns and the per-block subgames of :func:`decompose`.
Vertex enumeration and the core's l1 size sit beside the Shapley values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, Mapping

from .setfn import _check_size, int_array, subset_keys, subset_masks, widen
from .sources import Source


class DecompositionError(RuntimeError):
    """The characteristic cost failed to split across the fundamental partition."""


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


class _MaskCost:
    """:func:`f_alpha` on nonempty user bitmasks by keys (:meth:`Source.keyed`):
    ``bit_keys`` maps each user's bit to its key, ``values`` reads the raw
    costs of a list of keys and ``value_of`` maps one to f_alpha's.  A linear
    source's raw cost at alpha = p/q is q·H(X) - q·H(V) + p, an integer, which
    ``value_of`` divides by q; a pmf source's is (alpha - H(V)) + H(X) in floats."""

    def __init__(self, source: Source, alpha):
        user_keys, h = source.keyed()
        self.bit_keys = {1 << k: key for k, key in enumerate(user_keys)}
        whole = source.raw_entropy(source.mask(source.users))
        if not source.is_exact:
            shift = alpha - whole
            self.values, self.value_of = (lambda keys: [shift + h(k) for k in keys]), (lambda v: v)
            return
        q = Fraction(alpha).denominator
        shift = Fraction(alpha).numerator - q * whole
        self.values, self.value_of = (lambda keys: [q * h(k) + shift for k in keys]), (lambda v: Fraction(v, q))


def _extend(cost: _MaskCost, state: tuple, bit: int, tol,
            scale=1, weights: Mapping[int, int | float] = {}, level=0) -> tuple:
    """One truncation step of g = scale·cost - level·w(· ∩ E), E the bits
    of ``weights`` (w), a lone bit of E costing at most 0; the defaults give
    ``cost`` itself.  The state (total, blocks) of a mask, extended by a
    ``bit`` (above its bits, but in a split), as a new state.

    Blocks are (mask, key, g) triples.  One doubling pass ORs, for each
    subset S of the blocks, the keys of ``bit`` and S, sums Σ_S g (and, if
    weighted, the weight mass) and writes g(bit ∪ S) - Σ_S g over the sum,
    from one batch read of the keys' costs.  The least gain is added to the
    total; the merge keeps the minimal minimizer, the AND of every
    block-subset index within ``tol`` of the minimum."""
    total, blocks = state
    _check_size(len(blocks))
    keys, gains, masses = [cost.bit_keys[bit]], [0], [weights.get(bit, 0)]
    for block, key, g in blocks:
        keys += [k | key for k in keys]
        gains += [a + g for a in gains]
        if weights:
            mass = _ordered_sum(v for b, v in weights.items() if b & block)
            masses += [m + mass for m in masses] if mass else masses  # a cheap repeat
    values = cost.values(keys)
    if weights:
        gains = [scale * v - level * m - a for v, m, a in zip(values, masses, gains)]
        if bit in weights:
            gains[0] = min(gains[0], 0)
    else:
        for index, value in enumerate(values):
            gains[index] = value - gains[index]
    best = min(gains)
    pick, cut = len(gains) - 1, best + tol
    for index, gain in enumerate(gains):
        if gain <= cut:
            pick &= index
    kept, mask, value = [], bit, values[pick]
    for index, block in enumerate(blocks):
        if pick >> index & 1:
            mask |= block[0]
        else:
            kept.append(block)
    if weights:  # the picked union's g, as its gain above
        value = scale * value - level * masses[pick]
        value = min(value, 0) if pick == 0 and bit in weights else value
    return total + best, kept + [(mask, keys[pick], value)]


def _fold(cost: _MaskCost, mask: int, tol) -> tuple:
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
    cost = _MaskCost(source, alpha)
    value, blocks = _fold(cost, source.mask(X), source.tol)
    return cost.value_of(value), Partition(source.members(b) for b, _, _ in blocks)


# --- solving the minimum sum-rate problem ----------------------------------


class GameContext:
    """A game of ``source``'s users ``ground`` at the minimum sum-rate R_CO
    with fundamental partition P*, and one core vertex (computed on first
    read).

    The four arguments fix every other field.  A whole game (``ground`` the
    source's ground set) keeps P*, costs ``sum_cost`` = R_CO in all and has
    ``shared_randomness`` H(V) - R_CO, refused with an ``ArithmeticError``
    if negative past the tolerance.  A subgame (from :func:`decompose`,
    ``ground`` a block C of P*) keeps neither P* nor the shared randomness,
    and its ``sum_cost`` is the block's characteristic cost hat(C).  Both
    step the egalitarian grid by 1/K, K = ``grid_denominator`` =
    max(|P*| - 1, 1).  ``blocks`` holds P*'s blocks as sorted user tuples
    (a subgame's one block is its ground set): hat(X) = Σ_C hat(X ∩ C).

    A truncation state is a mask's raw total and blocks; ``value_of`` maps
    raw totals to :meth:`hat`'s numbers.  The game keeps two things past a
    call: its vertex and its slack table (``_slack_table``), which answers
    every core question about it.
    """

    def __init__(self, source: Source, ground: Iterable[int], min_sum_rate,
                 fundamental_partition: Partition):
        self.source = source
        self.ground = frozenset(ground)
        self.users = tuple(sorted(self.ground))
        self.min_sum_rate = min_sum_rate
        self.grid_denominator = max(len(fundamental_partition) - 1, 1)
        self.tol = source.tol
        if not self.is_whole_game and self.ground not in fundamental_partition.blocks:
            raise ValueError(f"{self.users} is neither the whole game nor a block of {fundamental_partition}")
        self._bits = {u: source.mask((u,)) for u in self.users}
        blocks = fundamental_partition.blocks if self.is_whole_game else (self.ground,)
        self.blocks = tuple(tuple(sorted(C)) for C in blocks)
        self._block_mask = {u: source.mask(C) for C in blocks for u in C}
        self._cost = _MaskCost(source, min_sum_rate)
        self.value_of = self._cost.value_of
        if self.is_whole_game:
            shared = source.entropy(source.ground) - min_sum_rate
            if shared < -self.tol:
                raise ArithmeticError(f"shared randomness came out negative: {shared}")
            self.fundamental_partition, self.sum_cost = fundamental_partition, min_sum_rate
            self.shared_randomness = shared
        else:
            self.fundamental_partition = self.shared_randomness = None
            self.sum_cost = self.hat(self.ground)

    def __setattr__(self, name: str, value) -> None:
        # a cached property is assignable until its first read
        if not name.startswith("_") and (name in vars(self) or hasattr(type(self), name)):
            raise AttributeError(f"GameContext.{name} is read-only")
        super().__setattr__(name, value)

    @cached_property
    def vertex(self) -> RateVector:
        """The greedy core vertex on the identity permutation."""
        return self.greedy_vertex(self.users)

    @cached_property
    def _slack_table(self) -> "_SlackTable":
        """The game's :class:`_SlackTable`, built on first read (refused
        past the exhaustive limit at that read) and kept."""
        return _SlackTable(self)

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

    def raw_table(self, users: Iterable[int] | None = None) -> list[int | float]:
        """Raw :meth:`hat` totals (ints for linear sources) on every bitmask
        of ``users`` (default: the game's), bit k being ``users[k]``, refused
        past the exhaustive limit before any cost is read.  One depth-first
        walk: each child extends its parent's state by a bit above the
        parent's bits, so it is the :func:`_fold` state; at most |users| + 1
        states are alive."""
        bits = [self._bits[u] for u in (self.users if users is None else users)]
        _check_size(len(bits))
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
        each user mapped to its raw marginal cost over the users before it in
        its own block (the cost separates across the blocks).

        The prefix states of one call, keyed by masks inside one block, are
        kept while it runs: a missing one walks down "mask minus top bit" to
        the nearest kept one and extends upward one step per missing mask."""
        states = {0: (0, ())}
        for order in map(tuple, orders):
            if frozenset(order) != self.ground or len(order) != len(self.ground):
                raise ValueError(f"{order} is not a permutation of {self.users}")
            marginals, prefix = {}, {}  # block mask -> the prefix's mask inside it
            for u in order:
                block = self._block_mask[u]
                before = prefix.get(block, 0)
                mask = prefix[block] = before | self._bits[u]
                missing = []
                while mask not in states:
                    missing.append(mask)
                    mask ^= 1 << mask.bit_length() - 1
                state = states[mask]
                for m in reversed(missing):
                    state = states[m] = _extend(self._cost, state, 1 << m.bit_length() - 1, self.tol)
                marginals[u] = state[0] - states[before][0]
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
    """Solve the minimum sum-rate problem: raise a candidate sum-rate along
    finest truncation minimizers until the whole-set cost matches its
    truncation; converges in at most |V| rounds.

    The returned whole game carries the fundamental partition, the shared
    randomness amount, and one core vertex (greedy on the identity
    permutation).
    """
    users = source.users
    hv = source.entropy(source.ground)
    alpha = _ordered_sum(hv - source.entropy(frozenset({u})) for u in users) / (len(users) - 1)
    for _ in range(len(users) + 2):
        value, part = dilworth_truncation(source, alpha, users)
        if abs(value - alpha) <= source.tol:
            return GameContext(source, source.ground, alpha, part)
        if len(part) < 2:
            raise ArithmeticError("truncation minimizer collapsed below the threshold")
        alpha = _ordered_sum(hv - source.entropy(C) for C in part) / (len(part) - 1)
    raise ArithmeticError("sum-rate search failed to converge")


# --- the slack table, core membership and decomposition --------------------


class _SlackTable:
    """:func:`f_alpha` at the solved sum-rate on every user bitmask of a
    game (bit k is ``ctx.users[k]``) as the truncation's raw costs: ints
    (f·q, q the sum-rate's denominator) for linear sources, float64 for pmf
    sources.  Refused past n - 1 free users, before any cost is read.  A
    game builds one, as :attr:`GameContext._slack_table`.

    The slack f - r of one rate vector is kept, found by identity, so the
    questions about one iterate share it: :meth:`slack` builds it from
    scratch, :meth:`exchange` updates it in place, and :meth:`dependence`
    reads every user's dependence set off it in one batched pass, kept
    beside it.  A batch covers max(1, 2^16 >> n) users, so it holds at most
    max(2^15, 2^(n-1)) masks: all users up to n = 12, one from n = 16."""

    def __init__(self, ctx: GameContext):
        import numpy as np
        _check_size(len(ctx.users) - 1)
        self.users, self.tol = ctx.users, ctx.tol
        raw = [0] + ctx._cost.values(subset_keys([ctx._cost.bit_keys[ctx._bits[u]] for u in ctx.users]))
        self.q = Fraction(ctx.min_sum_rate).denominator if ctx.source.is_exact else None
        self.raw = int_array(raw) if self.q else np.array(raw, dtype=float)
        self._peak = max(map(abs, raw))
        self._per_batch = max(1, (1 << 16) >> len(self.users))
        self._held = None  # (the first user of a batch, its rows of masks)
        self._at = None  # (r, its slack, the scale D and scaled rates of an exact slack)
        self._deps = None  # every user's dependence set at the kept r

    def slack(self, r: RateVector) -> np.ndarray:
        """f(X) - r(X) over every mask for any ``r`` on the game's users,
        r(X) by the doubling pass mass[2^k:2^(k+1)] = mass[:2^k] + r_k.
        Rational rates on an exact game scale both by D = lcm(q, their
        denominators) to integers; other reads are float64.  The slack of
        the last ``r`` is kept."""
        import numpy as np
        if self._at is not None and self._at[0] is r:
            return self._at[1]
        if r.users != self.users:
            raise ValueError(f"rate vector users {r.users} != game users {self.users}")
        f, rates, D = self.raw, [r[u] for u in self.users], None
        if self.q is None or any(isinstance(v, float) for v in rates):
            f = f if self.q is None else np.array([c / self.q for c in f.tolist()])
            rates = [float(v) for v in rates]
        else:
            D = lcm(self.q, *(v.denominator for v in rates))
            rates, up = [v.numerator * (D // v.denominator) for v in rates], D // self.q
            f = widen(f, up * self._peak + sum(map(abs, rates)))
            f = f if up == 1 else f * up
        mass = np.zeros_like(f)
        for k, rate in enumerate(rates):
            mass[1 << k:2 << k] = mass[:1 << k] + rate
        self._at, self._deps = (r, f - mass, D, rates), None
        return self._at[1]

    def exchange(self, r: RateVector, gainer: int, loser: int, step) -> RateVector:
        """``r.exchange(gainer, loser, step)``.  If the table keeps the
        exact slack of ``r``, that array is updated in place and kept for
        the new vector: d = step·D comes off the masks holding the gainer
        and goes onto those holding the loser, one strided-view add each.
        A step off the scale D first rescales to lcm(D, its denominator),
        and the slack widens to Python ints as :meth:`slack`'s would.  A
        float slack or another vector's is left for the next read to redo."""
        new = r.exchange(gainer, loser, step)
        kept = self._at
        if kept is None or kept[0] is not r or kept[2] is None or isinstance(step, float):
            return new
        _, slack, D, rates = kept
        step = Fraction(step)
        up = step.denominator // gcd(D, step.denominator)
        D, d = D * up, step.numerator * (D * up // step.denominator)
        g, l = self.users.index(gainer), self.users.index(loser)
        rates = [v * up for v in rates]
        rates[g] += d
        rates[l] -= d
        slack = widen(slack, D // self.q * self._peak + sum(map(abs, rates)))
        slack = slack if up == 1 else slack * up
        slack.reshape(-1, 2, 1 << g)[:, 1, :] -= d
        slack.reshape(-1, 2, 1 << l)[:, 1, :] += d
        self._at, self._deps = (new, slack, D, rates), None
        return new

    def dependence(self, r: RateVector) -> list[frozenset]:
        """Every user's dependence set at ``r`` in user order (see
        :func:`~omnifair.egalitarian.dep`), kept beside the slack of ``r``,
        from one pass over the batches of users (:meth:`_batch`)."""
        slack = self.slack(r)
        if self._deps is None:
            minimal = [m for start in range(0, len(self.users), self._per_batch)
                       for m in self._batch(slack, start)]
            self._deps = [frozenset(u for k, u in enumerate(self.users) if m >> k & 1)
                          for m in minimal]
        return self._deps

    def _batch(self, slack: np.ndarray, start: int) -> list[int]:
        """The minimal minimizer's mask for each user of the batch from
        ``start``: row c of the batch lists the masks holding user start + c
        (each index below 2^(n-1) with that bit put in, the last batch's rows
        kept), and the AND of those whose slack is within ``tol`` of the
        row's least, ties included, is the user's mask."""
        import numpy as np
        if self._held is None or self._held[0] != start:
            self._held = None  # one batch's rows alive at a time
            n = len(self.users)
            ks = np.arange(start, min(start + self._per_batch, n))[:, None]
            # index H·2^k + L (L < 2^k) becomes H·2^(k+1) + 2^k + L
            held = np.arange(1 << n - 1) >> ks << ks
            held += np.arange(1 << n - 1)
            held |= 1 << ks
            self._held = (start, held)
        held = self._held[1]
        half = slack[held]
        near = half <= half.min(axis=1)[:, None] + self.tol
        return np.bitwise_and.reduce(np.where(near, held, -1), axis=1).tolist()


def core_membership(ctx: GameContext, r: RateVector) -> tuple[bool, str | None]:
    """Check whether ``r`` lies in the optimal rate region of ``ctx``.

    Only the defining rate constraints are checked: Slepian-Wolf lower bounds
    r(X) >= H(X | V∖X) for the whole game, cost upper bounds r(X) <= f(X)
    for subgames.  Once r(V) = R_CO the former read r(V∖X) <= f(V∖X), so
    both come off the game's slack table.  A vector on other users is
    refused before the sum check.
    Returns the verdict plus the first violated constraint in
    :func:`subset_masks` order, put in words only on failure.
    """
    slack = ctx._slack_table.slack(r)
    if abs(r.total() - ctx.sum_cost) > ctx.tol:
        return False, f"sum rate {r.total()} != {ctx.sum_cost}"
    bad = slack < -ctx.tol
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
    """Verify that the characteristic cost of a solved whole game splits
    across its fundamental partition on every subset: each entry of one
    :meth:`GameContext.raw_table` against the sum of its blocks' entries,
    added left to right from 0 as :func:`_ordered_sum` does.  The first
    violation in :func:`subset_masks` order, an upstream bug, raises
    :class:`DecompositionError`.
    """
    raw = ctx.raw_table()  # a whole game: its local masks are the source's
    block_masks = [ctx.source.mask(C) for C in ctx.fundamental_partition.blocks]
    for m in subset_masks(len(ctx.users)):
        total = _ordered_sum(raw[m & b] for b in block_masks)
        if abs(raw[m] - total) > ctx.tol:
            X = sorted(ctx.source.members(m))
            raise DecompositionError(
                f"hat({X}) = {ctx.hat(X)} but the blockwise sum is {ctx.value_of(total)}")


def decompose(ctx: GameContext) -> list[GameContext]:
    """Split a solved whole game into one subgame per block C of its
    fundamental partition, each ``GameContext(source, C, R_CO, P*)``.  The
    characteristic cost is separable across the blocks, so each subgame
    evaluates truncations only inside its block;
    :func:`check_decomposition` verifies the separability.
    """
    if not ctx.is_whole_game:
        raise ValueError("decompose needs a solved whole-game context")
    return [GameContext(ctx.source, C, ctx.min_sum_rate, ctx.fundamental_partition)
            for C in ctx.fundamental_partition.blocks]

