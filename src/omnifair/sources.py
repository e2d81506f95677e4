"""Joint entropy oracles for multi-user sources.

Two source families are supported:

* :class:`LinearSource` -- the finite linear model used in coded cooperative
  data exchange.  Users hold packets (or coefficient vectors over a prime
  field) and entropies are exact :class:`~fractions.Fraction` values counted
  in field symbols (bits when the field size is 2); byte tables count packets.
* :class:`PmfSource` -- a discrete joint probability mass function.
  Entropies are floats in bits and downstream comparisons use a tolerance.
  The first query fills H of every subset in batches: a marginal's lowest
  axes get one extra letter each, the sum over the axis, so that one array
  holds the marginals over every subset of them.
  Only this family loads numpy, when a pmf source is built.

Each source memoizes H by user bitmask (bit k is ``users[k]``) in its raw
number type, an int for linear sources and a float for pmf sources.  The
solver's truncation reads H by keys (:meth:`Source.keyed`): bitmasks read from
that memo for vector sources and off the filled table for pmf sources,
held-packet bitsets counted for packets.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .setfn import GroundSetTooLarge, _check_size

#: Joint pmf tables must sum to one within this tolerance.
PMF_NORMALIZATION_TOL = 1e-12

#: Comparison tolerance for float-valued (pmf) entropies and derived values.
FLOAT_TOL = 1e-9

#: Entries of a pmf batch's extended marginal, and of its -p·log2 p: 256 KB.
PMF_BATCH_ENTRIES = 1 << 15


class SourceSpecError(ValueError):
    """A source description is malformed."""


def _check_users(users: Iterable[int]) -> tuple[int, ...]:
    users = tuple(users)
    if len(users) != len(set(users)):
        raise SourceSpecError("user identifiers must be unique")
    if len(users) < 2:
        raise SourceSpecError("a source needs at least two users")
    if not all(isinstance(u, int) and not isinstance(u, bool) for u in users):
        raise SourceSpecError("user identifiers must be integers")
    return tuple(sorted(users))


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def gf_rank(rows: Sequence[Sequence[int]], q: int) -> int:
    """Rank of a matrix over GF(q), q prime, by Gaussian elimination."""
    work = [[int(v) % q for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, q)
        work[rank] = [(v * inv) % q for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [(a - factor * b) % q for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


class Source:
    """Base class: an entropy oracle over subsets of users, memoized by
    bitmask (bit k is ``users[k]``)."""

    is_exact: bool = True

    def __init__(self, users: Iterable[int]):
        self.users = _check_users(users)
        self._ground = frozenset(self.users)
        self._bit = {u: 1 << k for k, u in enumerate(self.users)}
        self._cache: dict[int, int | float] = {}

    @property
    def ground(self) -> frozenset:
        return self._ground

    @property
    def tol(self):
        """Comparison tolerance for values derived from this source.

        Exactly integer zero for exact sources: adding a float 0.0 to a
        Fraction would silently degrade downstream comparisons to floats.
        """
        return 0 if self.is_exact else FLOAT_TOL

    @property
    def zero(self) -> Fraction | float:
        """Zero in this source's number type: ``Fraction`` or ``float``."""
        return Fraction(0) if self.is_exact else 0.0

    def subset(self, X: Iterable[int]) -> frozenset:
        X = frozenset(X)
        unknown = X - self._ground
        if unknown:
            raise ValueError(f"unknown user ids: {sorted(unknown)}")
        return X

    def mask(self, X: Iterable[int]) -> int:
        """Bitmask of the users in ``X`` (known users; a repeat changes nothing)."""
        mask = 0
        for u in X:
            mask |= self._bit[u]
        return mask

    def members(self, mask: int) -> frozenset:
        """The users whose bits are set in ``mask``."""
        return frozenset(u for k, u in enumerate(self.users) if mask >> k & 1)

    def raw_entropy(self, mask: int) -> int | float:
        """H of the users in ``mask``, memoized, in the source's raw number
        type: an int (field symbols) for linear sources, a float (bits) for
        pmf sources."""
        value = self._cache.get(mask)
        if value is None:
            value = self._cache[mask] = self._entropy(mask)
        return value

    def keyed(self) -> tuple[list[int], Callable[[int], int | float]]:
        """Each user's key, a set's key being the OR of its users', and H of
        a key: here each user's bit and :meth:`raw_entropy`."""
        return [1 << k for k in range(len(self.users))], self.raw_entropy

    def entropy(self, X: Iterable[int]) -> Fraction | float:
        """Joint entropy H(X); H of the empty set is zero."""
        X = self.subset(X)
        if not X:
            return self.zero
        value = self.raw_entropy(self.mask(X))
        return Fraction(value) if self.is_exact else value

    def conditional_entropy(self, X: Iterable[int], Y: Iterable[int]) -> Fraction | float:
        """H(X | Y) = H(X ∪ Y) - H(Y) for disjoint X and Y."""
        X, Y = self.subset(X), self.subset(Y)
        if X & Y:
            raise ValueError(f"conditional entropy needs disjoint sets, got overlap {sorted(X & Y)}")
        return self.entropy(X | Y) - self.entropy(Y)

    def _entropy(self, mask: int) -> int | float:
        raise NotImplementedError


class LinearSource(Source):
    """Finite linear source over a prime field.

    In packet form each user holds a subset of independent packets and
    H(X) is the number of distinct packets held by X: the popcount of the
    OR of its users' held-packet bitsets.  In vector form each user holds
    coefficient vectors over GF(q) and H(X) is the rank of the stacked
    vectors.  Either way the unit is one field symbol.
    """

    is_exact = True

    def __init__(self, users, field: int, universe: tuple, packets, vectors):
        super().__init__(users)
        if not _is_prime(field):
            raise SourceSpecError(f"field size must be prime, got {field}")
        self.field = field
        self.universe = universe
        self._packets = packets
        self._vectors = vectors
        if packets is not None:
            index = {p: k for k, p in enumerate(universe)}
            self._packet_bits = [sum(1 << index[p] for p in packets[u]) for u in self.users]

    @classmethod
    def from_packets(
        cls,
        holdings: Mapping[int, Iterable],
        field: int = 2,
        universe: Iterable | None = None,
    ) -> "LinearSource":
        """Build a packet-form source from per-user packet id collections."""
        users = _check_users(holdings.keys())
        packets = {u: frozenset(holdings[u]) for u in users}
        held = frozenset().union(*packets.values()) if packets else frozenset()
        if universe is None:
            universe_set = held
        else:
            universe_set = frozenset(universe)
            stray = held - universe_set
            if stray:
                raise SourceSpecError(f"packets outside the declared universe: {sorted(map(str, stray))}")
        return cls(users, field, tuple(sorted(universe_set, key=str)), packets, None)

    @classmethod
    def from_vectors(
        cls,
        holdings: Mapping[int, Sequence[Sequence[int]]],
        field: int,
    ) -> "LinearSource":
        """Build a vector-form source from per-user lists of coefficient vectors."""
        users = _check_users(holdings.keys())
        lengths = {len(v) for rows in holdings.values() for v in rows}
        if len(lengths) > 1:
            raise SourceSpecError(f"coefficient vectors have mixed lengths {sorted(lengths)}")
        width = lengths.pop() if lengths else 0
        stray = [c for rows in holdings.values() for v in rows for c in v
                 if not isinstance(c, int) or isinstance(c, bool)]
        if stray:
            raise SourceSpecError(f"coefficients must be integers, got {stray[0]!r}")
        vectors = {u: tuple(tuple(v) for v in holdings[u]) for u in users}
        return cls(users, field, tuple(range(width)), packets=None, vectors=vectors)

    def keyed(self) -> tuple[list[int], Callable[[int], int | float]]:
        return (self._packet_bits, int.bit_count) if self._packets is not None else super().keyed()

    def _entropy(self, mask: int) -> int:
        if self._packets is not None:
            held = 0
            while mask:  # the users of the set bits, lowest first
                low = mask & -mask
                held |= self._packet_bits[low.bit_length() - 1]
                mask ^= low
            return held.bit_count()
        rows = [v for k, u in enumerate(self.users) if mask >> k & 1 for v in self._vectors[u]]
        return gf_rank(rows, self.field)


class PmfSource(Source):
    """Discrete source given by a joint pmf over per-user finite alphabets.

    The table axes follow the sorted user order; entropies are floats in bits.
    The first :meth:`_entropy` call fills ``H[mask]`` for all 2^n masks in
    batches.  A batch (:meth:`_batch`) gives each of a marginal's l lowest
    axes an extra letter, the sum over the axis, so that one array holds the
    marginals over every subset of those axes; l is the most axes that keep
    this array within :data:`PMF_BATCH_ENTRIES` entries (none if the marginal
    alone is larger).  Each other axis of the marginal that may still be
    dropped gives a child, the marginal summed over it (a one-letter axis
    squeezed as a view), depth-first in decreasing bit order (:meth:`_fill`):
    each mask is written once, and at most n + 1 marginals are alive,
    together under twice the table's size.  A batch holds its extended array
    and one of -p·log2 p.  More than 21 users (n - 1 past the exhaustive
    limit, as for the slack table) are refused before any entropy is filled.
    """

    is_exact = False

    def __init__(self, alphabets: Mapping[int, Sequence], table):
        import numpy as np
        super().__init__(alphabets.keys())
        _check_size(len(self.users) - 1)  # before the 2^n fill, at the slack table's limit
        self.alphabets = {u: tuple(alphabets[u]) for u in self.users}
        arr = np.asarray(table, dtype=float)
        shape = tuple(len(self.alphabets[u]) for u in self.users)
        if arr.shape != shape:
            raise SourceSpecError(f"pmf table has shape {arr.shape}, alphabets imply {shape}")
        if not np.isfinite(arr).all():
            raise SourceSpecError("pmf table has non-finite entries (NaN or infinity)")
        if (arr < 0).any():
            raise SourceSpecError("pmf table has negative entries")
        total = float(arr.sum())
        if abs(total - 1.0) > PMF_NORMALIZATION_TOL:
            raise SourceSpecError(f"pmf table sums to {total!r}, expected 1")
        self._table = arr
        self._zero_free = bool(arr.all())
        self._H: list[float] | None = None

    def _entropy(self, mask: int) -> float:
        if self._H is None:
            import numpy as np
            self._H = np.empty(1 << len(self.users))
            self._fill(self._table, len(self._H) - 1, len(self.users))
            self._H = self._H.tolist()  # a list reads out a float faster
        return self._H[mask]

    def keyed(self) -> tuple[list[int], Callable[[int], int | float]]:
        """Each user's bit, and H read straight off the filled table, past
        the :meth:`raw_entropy` memo."""
        if self._H is None:
            self._entropy(0)  # fills the table
        return super().keyed()[0], self._H.__getitem__

    def _fill(self, marginal: np.ndarray, mask: int, last: int) -> None:
        """H of mask less each subset of the axes below ``last``, all in mask
        and the first axes of ``marginal``: one batch over the lowest that
        fit, then one child for each of the others."""
        shape, l, entries = marginal.shape, 0, marginal.size
        while l < last and entries // shape[l] * (shape[l] + 1) <= PMF_BATCH_ENTRIES:
            entries, l = entries // shape[l] * (shape[l] + 1), l + 1
        self._H[mask + 1 - (1 << l):mask + 1] = self._batch(marginal, l)
        for axis in range(l, last):
            child = marginal.sum(axis=axis) if shape[axis] > 1 else marginal.squeeze(axis)
            self._fill(child, mask & ~(1 << axis), axis)

    def _batch(self, marginal: np.ndarray, l: int) -> np.ndarray:
        """H of the marginal's users less each subset of its first l axes, by
        the mask of those kept."""
        import numpy as np
        letters = tuple(slice(a) for a in marginal.shape[:l])
        ext = np.empty(tuple(a + 1 for a in marginal.shape[:l]) + marginal.shape[l:])
        ext[letters] = marginal
        for u in reversed(range(l)):  # last axis first: each step reads filled cells
            a = marginal.shape[u]
            view = ext.reshape(ext.shape[:u] + (a + 1, -1))[letters[:u]]
            np.add.reduce(view[..., :a, :], axis=u, out=view[..., a, :])
        phi = np.empty_like(ext)  # 0·log2 0 is 0, the smallest float's log2 times 0
        np.log2(ext if self._zero_free else np.maximum(ext, 5e-324, out=phi), out=phi)
        phi *= ext
        h = phi.reshape(ext.shape[:l] + (-1,)).sum(axis=-1)
        ends = tuple(slice(0, a + 1, a) for a in marginal.shape[:l])  # letter 0 and the extra one
        for u, a in enumerate(marginal.shape[:l]):  # letter 0 of axis u: the sum of its letters
            view = h.reshape(h.shape[:u] + (a + 1, -1))[ends[:u]]
            np.add.reduce(view[..., :a, :], axis=u, out=view[..., 0, :])
        # F order counts the axes at the extra letter; 0 - h, unlike -h, keeps H = 0 positive
        return 0.0 - h[ends].ravel(order="F")[::-1]


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object's (key, value) pairs as a dict, for ``json.loads``'s
    ``object_pairs_hook``: a repeated key is refused, not overwritten."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise SourceSpecError(f"JSON object repeats key {key!r}")
        out[key] = value
    return out


def _parse_user_keys(raw: Mapping) -> dict:
    """``raw`` keyed by integer user id; two keys naming one user ("1" and
    "01") are refused rather than merged."""
    out = {}
    for key, value in raw.items():
        try:
            user = int(key)
        except (TypeError, ValueError):
            raise SourceSpecError(f"user id {key!r} is not an integer") from None
        if user in out:
            raise SourceSpecError(f"user id {key!r} repeats user {user}")
        out[user] = value
    return out


def load_source(spec: Mapping | str | Path) -> Source:
    """Parse a JSON source spec (a mapping, a JSON string starting with "{",
    or a file path, whose read errors are :class:`SourceSpecError`s).  A key
    repeated in one JSON object is refused.

    Linear form::

        {"model": "linear", "field": 2, "packets": ["a", ..., "j"],
         "users": {"1": ["b", "c", "d", "h", "i"], ...}}

    where each user entry is either a list of packet ids (JSON strings or
    integers) or a list of coefficient vectors over GF(field).  Pmf form::

        {"model": "pmf", "alphabets": {"1": [0, 1], ...}, "table": [...]}

    with the nested table axes ordered by sorted user id.
    """
    if isinstance(spec, (str, Path)):
        text = spec
        if not (isinstance(spec, str) and spec.lstrip().startswith("{")):
            try:
                text = Path(spec).read_text(encoding="utf-8")
            except FileNotFoundError:
                raise SourceSpecError(f"no such source file: {spec}") from None
            except (OSError, UnicodeDecodeError) as exc:
                raise SourceSpecError(f"cannot read source file {spec}: {getattr(exc, 'strerror', exc)}") from exc
        try:
            spec = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise SourceSpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(spec, Mapping):
        raise SourceSpecError("source spec must be a JSON object")

    model = spec.get("model")
    if model == "linear":
        users_raw = spec.get("users")
        if not isinstance(users_raw, Mapping) or not users_raw:
            raise SourceSpecError("linear spec needs a nonempty 'users' mapping")
        field = spec.get("field", 2)
        if not isinstance(field, int):
            raise SourceSpecError(f"field size must be an integer, got {field!r}")
        holdings = _parse_user_keys(users_raw)
        universe = spec.get("packets")
        lists = {f"holding of user {u}": rows for u, rows in holdings.items()}
        if universe is not None:
            lists["'packets'"] = universe
        for what, items in lists.items():
            if not isinstance(items, list):
                raise SourceSpecError(f"{what} must be a JSON list, got {items!r}")
        vector_form = any(rows and isinstance(rows[0], list) for rows in holdings.values())
        stray = [] if vector_form else [p for items in lists.values() for p in items
                                        if type(p) not in (str, int)]
        if stray:
            raise SourceSpecError(f"packet ids must be JSON strings or integers, got {stray[0]!r}")
        try:
            if vector_form:
                return LinearSource.from_vectors(holdings, field=field)
            return LinearSource.from_packets(holdings, field=field, universe=universe)
        except SourceSpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SourceSpecError(str(exc)) from exc
    if model == "pmf":
        alphabets_raw = spec.get("alphabets")
        table = spec.get("table")
        if not isinstance(alphabets_raw, Mapping) or table is None:
            raise SourceSpecError("pmf spec needs 'alphabets' and 'table'")
        alphabets = _parse_user_keys(alphabets_raw)
        for user, letters in alphabets.items():
            if not isinstance(letters, list) or len(set(map(repr, letters))) < len(letters):
                raise SourceSpecError(f"alphabet of user {user} must be a list of distinct letters, got {letters!r}")
        entries = [table]  # numpy would read true, false and numeric strings as numbers
        while set(map(type, entries)) == {list}:
            entries = [x for row in entries for x in row]
        stray = [x for x in entries if type(x) not in (int, float)]
        if stray:
            raise SourceSpecError(f"pmf table entries must be numbers, got {stray[0]!r}")
        try:
            return PmfSource(alphabets, table)
        except (SourceSpecError, GroundSetTooLarge):
            raise
        except (TypeError, ValueError) as exc:
            raise SourceSpecError(str(exc)) from exc
    raise SourceSpecError(f"unknown source model: {model!r}")
