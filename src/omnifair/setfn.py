"""Set-function toolkit: set-function oracles, submodularity checks, and
submodular function minimization (SFM) on sublattices of the subset lattice.

Two SFM backends sit behind one contract: ``exhaustive`` enumerates the
lattice and is the correctness baseline; ``minnorm`` is a Fujishige-Wolfe
minimum-norm-point solver in exact rational arithmetic for a growth path
beyond desk scale.  Each routine evaluates the oracle at most once per
subset it needs; callers that want a cache put it behind the oracle.

The submodularity checks tabulate the function once into a dense array
indexed by subset bitmask and test one set against all others per array
operation.  Exact values are scaled to integers by the least common
multiple of their denominators (:func:`tabulate`, the one dense-table
format, which :mod:`omnifair.egalitarian` shares), so no comparison rounds;
float values stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import floor, lcm
from typing import Callable, Iterable, Sequence

import numpy as np

#: The exhaustive paths refuse ground sets beyond this size (2^20 evaluations).
EXHAUSTIVE_LIMIT = 20

#: Exact tables hold int64 while every entry stays below this magnitude, so
#: sums of a few entries cannot overflow; beyond it they hold Python ints.
INT64_SAFE = 2 ** 61


class GroundSetTooLarge(ValueError):
    """An exhaustive routine was asked to enumerate too large a lattice."""


class InfeasibleLattice(ValueError):
    """The forced-in and forced-out sets overlap or leave the ground set."""


class SetFunction:
    """A function on subsets of a finite ground set.

    Every call evaluates the oracle; it must be deterministic, returning the
    identical value for repeated evaluations of one subset.
    """

    __slots__ = ("ground", "_fn")

    def __init__(self, ground: Iterable, fn: Callable[[frozenset], Fraction | float]):
        self.ground = frozenset(ground)
        self._fn = fn

    def __call__(self, X: Iterable) -> Fraction | float:
        X = frozenset(X)
        if not X <= self.ground:
            raise ValueError(f"{sorted(X - self.ground)} not in the ground set")
        return self._fn(X)


def subsets(items: Iterable) -> Iterable[frozenset]:
    """All subsets of ``items``, ordered by size then by element order."""
    items = sorted(items)
    return (frozenset(c) for c in chain.from_iterable(
        combinations(items, k) for k in range(len(items) + 1)))


def _check_size(n: int) -> None:
    if n > EXHAUSTIVE_LIMIT:
        raise GroundSetTooLarge(f"ground set of size {n} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}")


def tabulate(f: Callable[[frozenset], Fraction | float], ground: Sequence, *numbers,
             forced: int = 0) -> tuple[np.ndarray, int | None]:
    """``f`` on every subset of ``ground``, indexed by bitmask: bit k of the
    index is ``ground[k]``.

    Exact values are scaled by D, the least common multiple of their
    denominators and of those of ``numbers`` (rationals that must stay
    exact on the table's scale), into int64 while every entry stays below
    :data:`INT64_SAFE` in magnitude, else into Python ints, which are exact
    at any size; returns the table and D.  If any value or number is a
    float, the table is float64 and D is None.  The table is refused, before
    ``f`` is evaluated, where the ``len(ground) - forced`` members its
    queries leave free exceed the exhaustive limit.
    """
    _check_size(len(ground) - forced)
    values = [f(frozenset(u for k, u in enumerate(ground) if m >> k & 1))
              for m in range(1 << len(ground))]
    if any(isinstance(v, float) for v in chain(values, numbers)):
        return np.array(values, dtype=float), None
    scale = lcm(*(v.denominator for v in chain(values, numbers)))
    ints = [int(v * scale) for v in values]
    wide = any(abs(v) >= INT64_SAFE for v in ints)
    return np.array(ints, dtype=object if wide else np.int64), scale


def widen(table: np.ndarray, magnitude: int) -> np.ndarray:
    """``table`` as Python ints if it holds int64 and a term of
    ``magnitude`` could overflow sums of its entries, else unchanged."""
    if table.dtype == np.int64 and magnitude >= INT64_SAFE:
        return table.astype(object)
    return table


def _first_violation(f: SetFunction, tol, intersecting: bool):
    ground = sorted(f.ground)
    table, scale = tabulate(f, ground)
    if scale is None:
        margin = float(tol)
    else:
        # integer sums: a < b - tol*D  <=>  a < b - floor(tol*D)
        margin = floor(Fraction(tol) * scale)
        table = widen(table, margin)
    bit = {u: 1 << k for k, u in enumerate(ground)}
    order = list(subsets(ground))
    masks = np.array([sum(bit[u] for u in X) for X in order], dtype=np.int64)
    vals = table[masks]
    for x, mx in enumerate(masks):
        meet = masks & mx
        bad = vals[x] + vals < table[meet] + table[masks | mx] - margin
        if intersecting:
            bad &= meet != 0
        y = int(bad.argmax())
        if bad[y]:
            return False, (order[x], order[y])
    return True, None


def is_submodular(f: SetFunction, tol=0):
    """Exhaustively check f(X) + f(Y) >= f(X ∩ Y) + f(X ∪ Y) - tol on all
    pairs, evaluating ``f`` once per subset.

    Returns ``(True, None)`` or ``(False, (X, Y))`` with the first violating
    pair, both sets ranging over :func:`subsets` order.
    """
    return _first_violation(f, tol, intersecting=False)


def is_intersecting_submodular(f: SetFunction, tol=0):
    """Like :func:`is_submodular`, restricted to pairs with X ∩ Y nonempty."""
    return _first_violation(f, tol, intersecting=True)


@dataclass(frozen=True)
class SfmResult:
    """Minimum value plus the minimal and maximal minimizing subsets."""

    value: Fraction | float
    minimal: frozenset
    maximal: frozenset


def sfm_min(
    f: SetFunction,
    forced_in: Iterable = (),
    forced_out: Iterable = (),
    *,
    backend: str = "exhaustive",
    tol=0,
) -> SfmResult:
    """Minimize ``f`` over the lattice {X : forced_in ⊆ X ⊆ V ∖ forced_out}.

    ``f`` must be submodular on that lattice.  The minimizers of a submodular
    function form a lattice, so the minimal minimizer (intersection of all
    minimizers) and the maximal one (their union) are well defined; both are
    returned alongside the minimum value.
    """
    forced_in = frozenset(forced_in)
    forced_out = frozenset(forced_out)
    if not forced_in <= f.ground or not forced_out <= f.ground:
        raise InfeasibleLattice("forced sets must lie inside the ground set")
    if forced_in & forced_out:
        raise InfeasibleLattice(f"forced-in and forced-out overlap on {sorted(forced_in & forced_out)}")
    free = f.ground - forced_in - forced_out
    if backend == "exhaustive":
        return _sfm_exhaustive(f, forced_in, free, tol)
    if backend == "minnorm":
        return _sfm_minnorm(f, forced_in, free)
    raise ValueError(f"unknown SFM backend {backend!r}")


def _sfm_exhaustive(f, forced_in, free, tol) -> SfmResult:
    _check_size(len(free))
    values = [f(forced_in | Y) for Y in subsets(free)]
    best = min(values)
    minimal = forced_in | free
    maximal = frozenset(forced_in)
    for value, Y in zip(values, subsets(free)):
        if value <= best + tol:
            minimal &= forced_in | Y
            maximal |= Y
    assert minimal <= maximal, "minimizer collection is empty or inconsistent"
    return SfmResult(best, minimal, maximal)


# --- Fujishige-Wolfe minimum-norm-point backend (exact rationals) ---------


def _exact(value) -> Fraction:
    # floats are dyadic rationals, so this conversion is lossless
    return value if isinstance(value, Fraction) else Fraction(value)


def _greedy_base_vertex(g, order: list) -> tuple[Fraction, ...]:
    """Vertex of the base polytope of ``g`` along ``order`` (marginal gains)."""
    coords = {}
    prefix: frozenset = frozenset()
    prev = g(prefix)
    for e in order:
        prefix = prefix | {e}
        value = g(prefix)
        coords[e] = value - prev
        prev = value
    return tuple(coords[e] for e in sorted(coords))


def _affine_min_norm(points: list[tuple[Fraction, ...]]):
    """Minimum-norm point of the affine hull of ``points``.

    Solves the KKT system for min ||Σ μ_i p_i||² with Σ μ_i = 1 by rational
    Gaussian elimination; returns (coefficients, point).
    """
    k = len(points)
    grams = [[sum(a * b for a, b in zip(p, q)) for q in points] for p in points]
    size = k + 1
    m = [[Fraction(0)] * size + [Fraction(0)] for _ in range(size)]
    m[0][0] = Fraction(0)
    for j in range(k):
        m[0][j + 1] = Fraction(1)
        m[j + 1][0] = Fraction(1)
    for i in range(k):
        for j in range(k):
            m[i + 1][j + 1] = grams[i][j]
    m[0][size] = Fraction(1)
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


def _min_norm_base_point(g, elems: list) -> tuple[Fraction, ...]:
    """Wolfe's algorithm for the minimum-norm point in the base polytope of g."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def vertex_for(weights: tuple[Fraction, ...]):
        by_elem = dict(zip(elems, weights))
        ranked = sorted(elems, key=lambda e: (by_elem[e], e))
        return _greedy_base_vertex(g, ranked)

    x = _greedy_base_vertex(g, list(elems))
    corral = [x]
    lams = [Fraction(1)]
    for _ in range(100_000):
        q = vertex_for(x)
        if dot(x, q) >= dot(x, x):
            return x
        corral.append(q)
        lams.append(Fraction(0))
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

    def g(prefix: frozenset) -> Fraction:
        return _exact(f(forced_in | prefix)) - base

    x = _min_norm_base_point(g, elems)
    return SfmResult(
        base + sum(v for v in x if v < 0),
        forced_in | {e for e, v in zip(elems, x) if v < 0},
        forced_in | {e for e, v in zip(elems, x) if v <= 0})
