"""Set-function toolkit: set-function oracles, submodularity checks, and
submodular function minimization (SFM) on sublattices of the subset
lattice.

:func:`sfm_min` enumerates the lattice, evaluating the oracle once per
subset; callers that want a cache put it behind the oracle.  The solver's
own truncation does not go through it: it enumerates block subsets on
bitmasks (:mod:`omnifair.omniscience`).

The submodularity checks tabulate the function once into a dense array
indexed by subset bitmask and test one set against all others per array
operation.  Exact values are scaled to integers by the least common
multiple of their denominators (:func:`tabulate`), so no comparison rounds;
float values stay float64.  Integer tables hold int64 or Python ints by one
rule (:func:`int_array`), shared with :mod:`omnifair.omniscience`'s slack table.
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


def int_array(ints: Sequence[int]) -> np.ndarray:
    """``ints`` as int64 while every entry stays below :data:`INT64_SAFE` in
    magnitude, else as Python ints, which are exact at any size."""
    wide = any(abs(v) >= INT64_SAFE for v in ints)
    return np.array(ints, dtype=object if wide else np.int64)


def tabulate(f: Callable[[frozenset], Fraction | float],
             ground: Sequence) -> tuple[np.ndarray, int | None]:
    """``f`` on every subset of ``ground``, indexed by bitmask: bit k of the
    index is ``ground[k]``.

    Exact values are scaled by D, the least common multiple of their
    denominators, into an :func:`int_array`; returns the table and D.  If
    any value is a float, the table is float64 and D is None.  The table is
    refused, before ``f`` is evaluated, beyond the exhaustive limit.
    """
    _check_size(len(ground))
    values = [f(frozenset(u for k, u in enumerate(ground) if m >> k & 1))
              for m in range(1 << len(ground))]
    if any(isinstance(v, float) for v in values):
        return np.array(values, dtype=float), None
    scale = lcm(*(v.denominator for v in values))
    return int_array([int(v * scale) for v in values]), scale


def widen(table: np.ndarray, magnitude: int) -> np.ndarray:
    """``table`` as Python ints if it holds int64 and a term of
    ``magnitude`` could overflow sums of its entries, else unchanged."""
    if table.dtype == np.int64 and magnitude >= INT64_SAFE:
        return table.astype(object)
    return table


def is_submodular(f: SetFunction, tol=0):
    """Exhaustively check f(X) + f(Y) >= f(X ∩ Y) + f(X ∪ Y) - tol on all
    pairs, evaluating ``f`` once per subset.

    Returns ``(True, None)`` or ``(False, (X, Y))`` with the first violating
    pair, both sets ranging over :func:`subsets` order.
    """
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
        bad = vals[x] + vals < table[masks & mx] + table[masks | mx] - margin
        y = int(bad.argmax())
        if bad[y]:
            return False, (order[x], order[y])
    return True, None


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
    tol=0,
) -> SfmResult:
    """Minimize ``f`` over the lattice {X : forced_in ⊆ X ⊆ V ∖ forced_out}.

    ``f`` must be submodular on that lattice.  The minimizers of a submodular
    function form a lattice, so the minimal minimizer (intersection of all
    minimizers) and the maximal one (their union) are well defined; both are
    returned alongside the minimum value.  The lattice is enumerated, each
    point evaluated once; values within ``tol`` of the minimum count as
    minimizers.
    """
    forced_in = frozenset(forced_in)
    forced_out = frozenset(forced_out)
    if not forced_in <= f.ground or not forced_out <= f.ground:
        raise InfeasibleLattice("forced sets must lie inside the ground set")
    if forced_in & forced_out:
        raise InfeasibleLattice(f"forced-in and forced-out overlap on {sorted(forced_in & forced_out)}")
    return _sfm_exhaustive(f, forced_in, f.ground - forced_in - forced_out, tol)


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
