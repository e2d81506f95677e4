"""Joint entropy oracles for multi-user sources.

Two source families are supported:

* :class:`LinearSource` -- the finite linear model used in coded cooperative
  data exchange.  Users hold packets (or coefficient vectors over a prime
  field) and entropies are exact :class:`~fractions.Fraction` values counted
  in field symbols (bits when the field size is 2); byte tables count packets.
* :class:`PmfSource` -- a discrete joint probability mass function.
  Entropies are floats in bits and downstream comparisons use a tolerance.
  One depth-first marginalization pass fills the memo on the first call.
  Only this family loads numpy, when a pmf source is built.

Each source memoizes H by user bitmask (bit k is ``users[k]``) in its raw
number type, an int for linear sources and a float for pmf sources; the
solver's truncation reads that memo directly (:meth:`Source.raw_entropy`).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

#: Joint pmf tables must sum to one within this tolerance.
PMF_NORMALIZATION_TOL = 1e-12

#: Comparison tolerance for float-valued (pmf) entropies and derived values.
FLOAT_TOL = 1e-9


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
    OR of one entry per byte of X's mask, each from a 256-entry table of the
    packets held by every subset of users 8c ... 8c + 7, built once.  In
    vector form each user holds coefficient vectors over GF(q) and H(X) is
    the rank of the stacked vectors.  Either way the unit is one field symbol.
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
            bits = [sum(1 << index[p] for p in packets[u]) for u in self.users]
            # entry m of table c: the OR of the bits of users 8c + k, k in m
            self._byte_tables = [[0] for _ in range(0, len(bits), 8)]
            for k, b in enumerate(bits):
                table = self._byte_tables[k >> 3]
                table += [t | b for t in table]

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

    def _entropy(self, mask: int) -> int:
        if self._packets is not None:
            held = 0
            for table in self._byte_tables:
                held |= table[mask & 255]
                mask >>= 8
            return held.bit_count()
        rows = [v for k, u in enumerate(self.users) if mask >> k & 1 for v in self._vectors[u]]
        return gf_rank(rows, self.field)


class PmfSource(Source):
    """Discrete source given by a joint pmf over per-user finite alphabets.

    The table axes follow the sorted user order; entropies are floats in bits.
    The first :meth:`_entropy` call fills ``H[mask]`` for all 2^n masks in one
    depth-first pass that drops axes in increasing bit order, so each marginal
    is its parent summed over one more axis and each mask is reached once; at
    most n + 1 marginals are alive, together under twice the table's size.
    Each marginal keeps only its users' axes of 2+ letters, and a zero-free
    table (so are its marginals) skips the p > 0 filter: no sum changes.
    """

    is_exact = False

    def __init__(self, alphabets: Mapping[int, Sequence], table):
        import numpy as np
        super().__init__(alphabets.keys())
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
        self._wide = sum(1 << k for k, size in enumerate(shape) if size > 1)
        self._H: np.ndarray | None = None
        self._log2 = np.log2  # so that _fill, run once per mask, imports nothing

    def _entropy(self, mask: int) -> float:
        if self._H is None:
            import numpy as np
            self._H = np.empty(1 << len(self.users))
            self._fill(self._table.squeeze(), len(self._H) - 1, 0)
        return float(self._H[mask])

    def _fill(self, marginal: np.ndarray, mask: int, first: int) -> None:
        p = marginal.ravel() if self._zero_free else marginal[marginal > 0]
        self._H[mask] = -(p * self._log2(p)).sum()
        # the axes of mask's users with 2+ letters are left; axis is at pos
        pos = (mask & self._wide & ((1 << first) - 1)).bit_count()
        for axis in range(first, len(self.users)):
            child = marginal
            if self._wide >> axis & 1:
                child, pos = marginal.sum(axis=pos), pos + 1
            self._fill(child, mask & ~(1 << axis), axis + 1)


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

    where each user entry is either a list of packet ids or a list of
    coefficient vectors over GF(field).  Pmf form::

        {"model": "pmf", "alphabets": {"1": [0, 1], ...}, "table": [...]}

    with the nested table axes ordered by sorted user id.
    """
    if isinstance(spec, (str, Path)):
        text = spec
        if not (isinstance(spec, str) and spec.lstrip().startswith("{")):
            try:
                text = Path(spec).read_text()
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
        vector_form = any(
            rows and isinstance(rows[0], (list, tuple)) for rows in holdings.values()
        )
        try:
            if vector_form:
                return LinearSource.from_vectors(holdings, field=field)
            universe = spec.get("packets")
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
        try:
            return PmfSource(alphabets, table)
        except SourceSpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SourceSpecError(str(exc)) from exc
    raise SourceSpecError(f"unknown source model: {model!r}")
