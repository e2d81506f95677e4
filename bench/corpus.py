"""Seeded corpus of source specs and CLI operations for the benchmark.

Every instance belongs to a fixed pool: member ``i`` of family ``f`` is built
from ``random.Random(f"{f}:{i}")`` alone, so its spec bytes never change and
its reference answer can be stored next to the benchmark (``reference.json``).
A workload seed only chooses which pool members a run uses and in which order
the operations run.  Each slot of a workload draws the same number of members
from its family, one per cost stratum, so every seed gives the same mix of
commands, sizes and difficulty.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Seed used while the benchmark was written; later claims are checked on
#: HELD_OUT_SEED as well, which no tuning ever looked at.
PRIMARY_SEED = 1
HELD_OUT_SEED = 2

#: Permutations sampled by every ``shapley --mode approx`` operation.
APPROX_PERMUTATIONS = 200


# --- instance families ------------------------------------------------------


def _packet_spec(holdings: dict[int, list[str]], packets: list[str]) -> dict:
    return {"model": "linear", "field": 2, "packets": packets,
            "users": {str(u): sorted(held) for u, held in holdings.items()}}


def packets_mixed(rng: random.Random, n: int) -> dict:
    """n users, 2n packets; each user holds a random share (10%-70%) of them."""
    packets = [f"p{k}" for k in range(2 * n)]
    holdings = {}
    for u in range(1, n + 1):
        share = rng.uniform(0.1, 0.7)
        held = [p for p in packets if rng.random() < share]
        holdings[u] = held or [rng.choice(packets)]
    return _packet_spec(holdings, packets)


def packets_clustered(rng: random.Random, n: int) -> dict:
    """Users split into 4 groups that draw from their own packet pools plus
    a few shared packets, so the fundamental partition has several blocks."""
    groups = 4
    packets = [f"p{k}" for k in range(2 * n)]
    shared, private = packets[:2], packets[2:]
    pools = [private[g::groups] for g in range(groups)]
    holdings = {}
    for u in range(1, n + 1):
        pool = pools[(u - 1) % groups]
        share = rng.uniform(0.3, 0.8)
        held = [p for p in pool if rng.random() < share]
        held += [p for p in shared if rng.random() < 0.15]
        holdings[u] = held or [rng.choice(pool)]
    return _packet_spec(holdings, packets)


def packets_dense(rng: random.Random, n: int) -> dict:
    """n users, 2n packets, each held with probability 0.5."""
    packets = [f"p{k}" for k in range(2 * n)]
    holdings = {}
    for u in range(1, n + 1):
        held = [p for p in packets if rng.random() < 0.5]
        holdings[u] = held or [rng.choice(packets)]
    return _packet_spec(holdings, packets)


def packets_sparse(rng: random.Random, n: int) -> dict:
    """n users, 2n packets, 3 packets per user: many-block partitions."""
    packets = [f"p{k}" for k in range(2 * n)]
    holdings = {u: rng.sample(packets, 3) for u in range(1, n + 1)}
    return _packet_spec(holdings, packets)


def vectors_gf3(rng: random.Random, n: int) -> dict:
    """Vector form over GF(3): users in 2-4 groups share a coordinate support
    and hold 1-2 random vectors on it."""
    width = n + 2
    groups = rng.randint(2, 4)
    coords = list(range(width))
    supports = [sorted(rng.sample(coords, rng.randint(2, 4))) for _ in range(groups)]
    users = {}
    for u in range(1, n + 1):
        support = supports[(u - 1) % groups]
        rows = []
        for _ in range(rng.randint(1, 2)):
            row = [0] * width
            for c in support:
                row[c] = rng.randrange(3)
            if not any(row):
                row[support[0]] = 1
            rows.append(row)
        users[str(u)] = rows
    return {"model": "linear", "field": 3, "users": users}


def pmf_table(rng: random.Random, n: int) -> dict:
    """Binary alphabets, a random joint table with skewed entries."""
    weights = [rng.random() ** 3 for _ in range(2 ** n)]
    total = sum(weights)
    flat = [w / total for w in weights]

    def nest(values: list[float], depth: int):
        if depth == 1:
            return values
        half = len(values) // 2
        return [nest(values[:half], depth - 1), nest(values[half:], depth - 1)]

    return {"model": "pmf",
            "alphabets": {str(u): [0, 1] for u in range(1, n + 1)},
            "table": nest(flat, n)}


BUILDERS = {
    "mixed": packets_mixed,
    "clustered": packets_clustered,
    "dense": packets_dense,
    "sparse": packets_sparse,
    "gf3": vectors_gf3,
    "pmf": pmf_table,
}


def build_spec(family: str, member: int) -> dict:
    """Spec of pool member ``member`` of ``family`` (e.g. ``"mixed-10"``)."""
    kind, n = family.rsplit("-", 1)
    return BUILDERS[kind](random.Random(f"{family}:{member}"), int(n))


def spec_bytes(family: str, member: int) -> bytes:
    return (json.dumps(build_spec(family, member), sort_keys=True) + "\n").encode()


# --- operations -------------------------------------------------------------

#: CLI arguments of each operation kind, minus --input/--output.
COMMANDS = {
    "solve": ["solve"],
    "verify": ["verify"],
    "shapley-exact": ["shapley", "--mode", "exact"],
    "shapley-approx": ["shapley", "--mode", "approx",
                       "--permutations", str(APPROX_PERMUTATIONS)],
    "shapley-decomposed": ["shapley", "--mode", "decomposed"],
    "egal-sda": ["egalitarian"],
    "egal-decomposed": ["egalitarian", "--mode", "decomposed"],
    "egal-continuous": ["egalitarian", "--mode", "continuous"],
}


def command_argv(kind: str, family: str, member: int) -> list[str]:
    argv = list(COMMANDS[kind])
    if kind == "shapley-approx":
        # fixed per pool member, so the sampled permutations (and the stored
        # reference) do not depend on the workload seed
        argv += ["--seed", str(random.Random(f"perm:{family}:{member}").randrange(10**6))]
    return argv


@dataclass(frozen=True)
class Slot:
    """``count`` members of ``family``, drawn from its first ``pool`` members,
    each run through every operation kind in ``kinds``."""

    family: str
    kinds: tuple[str, ...]
    count: int
    pool: int


#: Each workload's slots; BENCHMARK.json says why each workload was chosen and
#: workloads.json what its corpus looks like.  The solve and verify
#: operations ride along with the two main workloads rather than making a
#: third, so that each run can last 60 s within the benchmark's time budget:
#: the host's speed drifts over tens of seconds, and only long runs average
#: it out.  A pass takes 4-7 s on a 2-CPU host.  The counts put the median
#: operation inside one family's cluster of similar costs (mixed-7
#: egalitarian and verify, dense-9 exact Shapley), not in a gap between
#: clusters, where op_p50_s would jump from seed to seed.
WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "egal-grid": (
        Slot("mixed-7", ("egal-sda", "egal-decomposed"), 6, 15),
        Slot("mixed-8", ("egal-sda", "egal-decomposed"), 3, 12),
        Slot("clustered-8", ("egal-sda",), 2, 8),
        Slot("pmf-4", ("egal-sda",), 4, 8),
        Slot("mixed-7", ("verify",), 3, 9),
        Slot("pmf-6", ("verify",), 1, 6),
    ),
    "shapley-core": (
        Slot("dense-9", ("shapley-exact", "egal-continuous"), 7, 12),
        Slot("sparse-9", ("shapley-exact",), 2, 8),
        Slot("dense-10", ("shapley-decomposed",), 2, 8),
        Slot("dense-10", ("shapley-approx",), 2, 8),
        Slot("sparse-11", ("egal-continuous",), 2, 8),
        Slot("pmf-8", ("shapley-exact", "egal-continuous", "shapley-approx"), 1, 6),
        Slot("dense-16", ("solve",), 2, 8),
        Slot("sparse-14", ("solve",), 2, 12),
        Slot("gf3-10", ("solve",), 1, 9),
        Slot("pmf-12", ("solve",), 1, 6),
    ),
}


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` plus ``--input <spec> --output <report>``."""

    key: str
    family: str
    member: int
    kind: str
    argv: tuple[str, ...]

    @property
    def spec_name(self) -> str:
        return f"{self.family}.{self.member}.json"


def pool_ops(workload: str):
    """Every operation any seed of ``workload`` can produce."""
    for slot in WORKLOADS[workload]:
        for member in range(slot.pool):
            for kind in slot.kinds:
                yield _op(slot.family, member, kind)


def _op(family: str, member: int, kind: str) -> Op:
    return Op(f"{family}/{member}/{kind}", family, member, kind,
              tuple(command_argv(kind, family, member)))


def cost_strata(costs: dict[int, float], count: int) -> list[list[int]]:
    """Split pool members into ``count`` groups of consecutive cost that
    minimize the summed within-group cost variance.

    Drawing one member per group uniformly, that sum is the variance of the
    slot's total cost across seeds; an outlier ends up alone in its group.
    """
    ranked = sorted(costs, key=lambda m: (costs[m], m))
    values = [costs[m] for m in ranked]

    def spread(i: int, j: int) -> float:
        group = values[i:j]
        mean = sum(group) / len(group)
        return sum((v - mean) ** 2 for v in group) / len(group)

    size = len(values)
    # best[k][j]: least summed variance of the first j members in k groups
    best = [[float("inf")] * (size + 1) for _ in range(count + 1)]
    cut = [[0] * (size + 1) for _ in range(count + 1)]
    best[0][0] = 0.0
    for k in range(1, count + 1):
        for j in range(k, size + 1):
            for i in range(k - 1, j):
                value = best[k - 1][i] + spread(i, j)
                if value < best[k][j]:
                    best[k][j], cut[k][j] = value, i
    groups, j = [], size
    for k in range(count, 0, -1):
        i = cut[k][j]
        groups.append(ranked[i:j])
        j = i
    return groups[::-1]


def workload_ops(workload: str, seed: int, cost: dict[str, float]) -> list[Op]:
    """The operation list of one run: a pure function of (workload, seed)
    and the stored reference costs.

    Each slot's pool is cut into ``count`` cost strata (:func:`cost_strata`,
    on the reference time of the slot's operations) and the seed draws one
    member per stratum.  Every seed thus gets the same mix of easy and hard
    instances, so run-to-run differences measure the program, not how many
    hard instances a seed happened to draw.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for slot in WORKLOADS[workload]:
        costs = {m: sum(cost[_op(slot.family, m, kind).key] for kind in slot.kinds)
                 for m in range(slot.pool)}
        for group in cost_strata(costs, slot.count):
            member = rng.choice(group)
            ops.extend(_op(slot.family, member, kind) for kind in slot.kinds)
    rng.shuffle(ops)
    return ops


def write_specs(ops: list[Op], directory: Path) -> None:
    """Write the spec file of every operation (once per instance)."""
    directory.mkdir(parents=True, exist_ok=True)
    for family, member in sorted({(op.family, op.member) for op in ops}):
        (directory / f"{family}.{member}.json").write_bytes(spec_bytes(family, member))
