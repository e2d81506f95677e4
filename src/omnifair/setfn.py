"""Set functions as tables indexed by subset bitmask, which is how the
product reads them: the one subset scan order of the exhaustive checks
(:func:`subset_masks`, a list of Python ints), the submodularity check, and
the int64-or-Python-int rule of integer tables (:func:`int_array`).
:class:`SetFunction` and the exhaustive SFM :func:`sfm_min` stay only for the
tests and for the benchmark tracer, which binds them by name.

numpy is imported only by the functions that build or read arrays
(:func:`int_array`, :func:`widen`, :func:`is_submodular`), so the scan order
and the exhaustive SFM run without it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import floor
from typing import Callable, Iterable, NamedTuple, Sequence

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


def subset_masks(n: int) -> list[int]:
    """Every bitmask of n bits, by popcount, then by the positions of the set
    bits: the order in which the exhaustive checks scan subsets.

    Built one bit at a time from the top down: ``by_size[k]`` lists the
    k-subsets of the bits added so far in that order, and a new lowest bit
    goes first, so the k-subsets holding it precede those that do not."""
    by_size = [[0]] + [[] for _ in range(n)]
    for added, bit in enumerate(1 << k for k in reversed(range(n))):
        for k in range(added + 1, 0, -1):
            by_size[k] = [bit | m for m in by_size[k - 1]] + by_size[k]
    return list(chain.from_iterable(by_size))


def subset_keys(keys: Sequence[int]) -> list[int]:
    """The OR of ``keys[k]`` over the bits k of each nonempty mask m of
    ``len(keys)`` bits, in order of m, by doubling (m | 2^k from m < 2^k)."""
    table = [0]
    for key in keys:
        table += [k | key for k in table]
    return table[1:]


def subsets(items: Iterable) -> Iterable[frozenset]:
    """All subsets of ``items``, in :func:`subset_masks` order over the sorted items."""
    items = sorted(items)
    return (frozenset(u for k, u in enumerate(items) if m >> k & 1)
            for m in subset_masks(len(items)))


def _check_size(n: int) -> None:
    if n > EXHAUSTIVE_LIMIT:
        raise GroundSetTooLarge(f"ground set of size {n} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}")


def int_array(ints: Sequence[int]) -> np.ndarray:
    """``ints`` as int64 while every entry stays below :data:`INT64_SAFE` in
    magnitude, else as Python ints, which are exact at any size."""
    import numpy as np
    wide = any(abs(v) >= INT64_SAFE for v in ints)
    return np.array(ints, dtype=object if wide else np.int64)


def widen(table: np.ndarray, magnitude: int) -> np.ndarray:
    """``table`` as Python ints if it holds int64 and a term of
    ``magnitude`` could overflow sums of its entries, else unchanged."""
    import numpy as np
    if table.dtype == np.int64 and magnitude >= INT64_SAFE:
        return table.astype(object)
    return table


def is_submodular(table: np.ndarray, tol=0):
    """Exhaustively check f(X) + f(Y) >= f(X ∩ Y) + f(X ∪ Y) - tol on all
    pairs of a table of f indexed by bitmask: int64, float64, or an object
    array of ints or ``Fraction``s, which compare exactly.  The table is
    refused beyond the exhaustive limit.

    Returns ``(True, None)`` or ``(False, (X, Y))`` with the first violating
    pair of masks, both ranging over :func:`subset_masks` order.
    """
    import numpy as np
    n = len(table).bit_length() - 1
    _check_size(n)
    if table.dtype == np.int64:  # integer sums: a < b - tol  <=>  a < b - floor(tol)
        table, tol = widen(table, floor(tol)), floor(tol)
    masks = np.array(subset_masks(n), dtype=np.int64)
    vals = table[masks]
    for x, mx in enumerate(masks):
        bad = vals[x] + vals < table[masks & mx] + table[masks | mx] - tol
        y = int(bad.argmax())
        if bad[y]:
            return False, (int(mx), int(masks[y]))
    return True, None


class SfmResult(NamedTuple):
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
