"""Metamorphic relations on 12-14-user packet sources, past the reach of the
tests' oracles: each relation transforms a benchmark corpus member's spec in
a way whose effect on every answer is known exactly, and compares the
library's answers on both sides.

* Copying every packet k times multiplies every entropy by k, so R_CO, the
  shared randomness, the vertex, the Shapley value and the continuous
  egalitarian point scale by k, and P* stays.
* A packet held by every user adds 1 to every nonempty entropy and leaves
  the cost f_alpha at the new R_CO unchanged: only the shared randomness
  moves, by 1.
* Relabelling the users relabels P*, the Shapley value and the continuous
  point; ``sda``'s point follows its label-ordered tie-breaks, but its
  objective stays.
* A packet source and its GF(2) twin, each packet a unit vector, have equal
  entropies and so give the same answers.
"""

import random
from fractions import Fraction as F

import pytest

from omnifair import (
    Partition,
    RateVector,
    egalitarian_continuous,
    load_source,
    min_sum_rate,
    objective_g,
    sda,
    shapley_exact,
)

from conftest import corpus_spec

#: Seeded corpus members of 12-14 users, each with a fundamental partition
#: of two or more blocks.
MEMBERS = [("mixed-12", 0), ("clustered-14", 1), ("dense-13", 2), ("sparse-14", 3)]

#: The GF(2) twins read one rank per subset, so they stay at 12 users.
TWIN_MEMBERS = [("dense-12", 0), ("sparse-12", 1)]


def weights_of(users) -> dict:
    return {u: (1, 2, F(1, 2))[u % 3] for u in users}


def answers(spec: dict, weights=None) -> dict:
    """Every answer compared here, of the source ``spec`` describes: the
    continuous point with uniform weights and with ``weights`` (default:
    :func:`weights_of` the users)."""
    ctx = min_sum_rate(load_source(spec))
    weights = weights_of(ctx.users) if weights is None else weights
    return {"R_CO": ctx.min_sum_rate, "P*": ctx.fundamental_partition,
            "I": ctx.shared_randomness, "vertex": ctx.vertex, "shapley": shapley_exact(ctx),
            "continuous": egalitarian_continuous(ctx),
            "weighted": egalitarian_continuous(ctx, weights)}


def scaled(r: RateVector, k) -> RateVector:
    return RateVector({u: k * r[u] for u in r.users})


@pytest.mark.parametrize("family, member", MEMBERS)
def test_copied_packets_scale_every_answer(family, member):
    spec = corpus_spec(family, member)
    base = answers(spec)
    assert len(base["P*"]) > 1
    for k in (2, 3):
        got = answers({**spec, "packets": [f"{p}.{c}" for p in spec["packets"] for c in range(k)],
                       "users": {u: [f"{p}.{c}" for p in held for c in range(k)]
                                 for u, held in spec["users"].items()}})
        assert got["P*"] == base["P*"], k
        assert (got["R_CO"], got["I"]) == (k * base["R_CO"], k * base["I"]), k
        for name in ("vertex", "shapley", "continuous", "weighted"):
            assert got[name] == scaled(base[name], k), (k, name)


@pytest.mark.parametrize("family, member", MEMBERS)
def test_a_packet_held_by_all_adds_only_shared_randomness(family, member):
    spec = corpus_spec(family, member)
    base = answers(spec)
    spec = {**spec, "packets": [*spec["packets"], "common"],
            "users": {u: [*held, "common"] for u, held in spec["users"].items()}}
    got = answers(spec)
    assert got["I"] == base["I"] + 1
    assert {**got, "I": None} == {**base, "I": None}


@pytest.mark.parametrize("family, member", MEMBERS)
def test_relabelled_users_relabel_every_answer(family, member):
    spec = corpus_spec(family, member)
    users = sorted(map(int, spec["users"]))
    shuffled = random.Random(f"relabel:{family}:{member}").sample(users, len(users))
    label = dict(zip(users, shuffled))
    assert label != {u: u for u in users}
    moved = {**spec, "users": {str(label[int(u)]): held for u, held in spec["users"].items()}}
    base = answers(spec)
    got = answers(moved, {label[u]: w for u, w in weights_of(users).items()})
    assert got["P*"] == Partition([{label[u] for u in C} for C in base["P*"]])
    assert (got["R_CO"], got["I"]) == (base["R_CO"], base["I"])
    for name in ("shapley", "continuous", "weighted"):
        assert got[name] == RateVector({label[u]: base[name][u] for u in users}), name
    moved_sda, base_sda = (objective_g(sda(min_sum_rate(load_source(s)))[0]) for s in (moved, spec))
    assert moved_sda == base_sda


@pytest.mark.parametrize("family, member", TWIN_MEMBERS)
def test_a_packet_source_and_its_gf2_twin_agree(family, member):
    spec = corpus_spec(family, member)
    index = {p: k for k, p in enumerate(spec["packets"])}
    twin = {"model": "linear", "field": 2,
            "users": {u: [[int(k == index[p]) for k in range(len(index))] for p in held]
                      for u, held in spec["users"].items()}}
    assert answers(twin) == answers(spec)
