"""The truncation step ORs each source kind's keys (held-packet bitsets for
packet sources, bitmasks otherwise) and reads their costs in one batch.  It
must give the mask-based step's answers bit for bit, and packet costs must
never go back through the entropy memo."""

import random
from fractions import Fraction as F

import pytest

from omnifair import LinearSource, RateVector, egalitarian_continuous, min_sum_rate
from omnifair.omniscience import _SlackTable

from conftest import corpus_source, mask_step

PACKET_CELLS = ("mixed", "clustered", "dense", "sparse")
#: Bench corpus members per cell: two packet sources of each family at 5, 8,
#: 11 and 14 users, whose cells each reach a step of at least 6 blocks, and
#: two GF(3) and two pmf members, whose keys are their bitmasks.
KEYED_STEP_CELLS = {
    **{kind: [(f"{kind}-{n}", m) for n in (5, 8, 11, 14) for m in (0, 1)] for kind in PACKET_CELLS},
    "gf3": [("gf3-6", 0), ("gf3-8", 1)],
    "pmf": [("pmf-6", 0), ("pmf-8", 1)],
}

#: Whole-game raw tables are compared up to this many users.
TABLE_USERS = 11


def bit_for_bit(value):
    """``value`` with every number tagged by its type, floats by their hex
    digits, so that == compares bits."""
    if isinstance(value, RateVector):
        value = {u: value[u] for u in value.users}
    if isinstance(value, dict):
        return {k: bit_for_bit(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bit_for_bit(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return type(value).__name__, value


def answers(family: str, member: int) -> dict:
    """Everything that reads the truncation, on one corpus member: R_CO, the
    fundamental partition, the raw table (up to :data:`TABLE_USERS` users),
    raw marginals over seeded permutations and the continuous egalitarian
    point under rational and float weights."""
    ctx = min_sum_rate(corpus_source(family, member))
    rng = random.Random(f"keyed-step:{family}:{member}")
    orders = [tuple(rng.sample(ctx.users, len(ctx.users))) for _ in range(12)]
    w = {u: F(rng.randint(1, 9), rng.randint(1, 4)) for u in ctx.users}
    out = {
        "R_CO": ctx.min_sum_rate,
        "partition": ctx.fundamental_partition.to_lists(),
        "marginals": list(ctx.raw_marginals(orders)),
        "rational": egalitarian_continuous(ctx, w),
        "float": egalitarian_continuous(ctx, {u: float(v) for u, v in w.items()}),
    }
    if len(ctx.users) <= TABLE_USERS:
        out["table"] = ctx.raw_table()
    return bit_for_bit(out)


class TestKeyedStepMatchesMaskStep:
    @pytest.mark.parametrize("cell", sorted(KEYED_STEP_CELLS))
    def test_bit_identical(self, cell, monkeypatch):
        from omnifair import egalitarian, omniscience

        held = []  # blocks held by each keyed step
        extend = omniscience._extend
        for module in (omniscience, egalitarian):
            monkeypatch.setattr(module, "_extend", lambda *args: held.append(len(args[1][1])) or extend(*args))
        keyed = [answers(*member) for member in KEYED_STEP_CELLS[cell]]
        for module in (omniscience, egalitarian):
            monkeypatch.setattr(module, "_extend", mask_step)
        for member, got in zip(KEYED_STEP_CELLS[cell], keyed):
            assert got == answers(*member), member
        assert max(held) >= (6 if cell in PACKET_CELLS else 1)


#: Packet sources of 12-14 users.
GUARD_MEMBERS = [("sparse-12", 0), ("dense-13", 1), ("mixed-14", 2), ("clustered-14", 0)]


@pytest.mark.parametrize("family, member", GUARD_MEMBERS)
def test_packet_costs_skip_the_entropy_memo(family, member, monkeypatch):
    # the solve reads H of the whole set, the singletons and each partition
    # block; every truncation reader after it counts held-packet bitsets
    reads = []
    entropy = LinearSource._entropy
    monkeypatch.setattr(LinearSource, "_entropy", lambda self, mask: reads.append(mask) or entropy(self, mask))
    ctx = min_sum_rate(corpus_source(family, member))
    n = len(ctx.users)
    assert 12 <= n <= 14 and 0 < len(reads) <= 2 * n
    reads.clear()
    rng = random.Random(f"guard:{family}:{member}")
    ctx.raw_table(max(ctx.blocks, key=len))
    list(ctx.raw_marginals([tuple(rng.sample(ctx.users, n)) for _ in range(4)]))
    _SlackTable(ctx)
    egalitarian_continuous(ctx)
    assert reads == []
