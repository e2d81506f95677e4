import random
from fractions import Fraction as F

import numpy as np
import pytest

from omnifair import (
    GroundSetTooLarge,
    InfeasibleLattice,
    SetFunction,
    SfmResult,
    f_alpha,
    is_submodular,
    sfm_min,
)
from omnifair.setfn import INT64_SAFE, _check_size, int_array, subset_masks, subsets, widen

from conftest import (
    greedy_vertex,
    minnorm_sfm,
    pairwise_first_violation,
    random_linear_source,
    ranked_greedy_vertex,
    rv,
    subset_masks_reference,
)


def members(ground: list, mask: int) -> frozenset:
    return frozenset(u for k, u in enumerate(ground) if mask >> k & 1)


def values_by_mask(f: SetFunction) -> list:
    """``f`` on every bitmask of its sorted ground set."""
    ground = sorted(f.ground)
    return [f(members(ground, m)) for m in range(1 << len(ground))]


def check_submodular(f: SetFunction, tol=0):
    """:func:`is_submodular` on ``f``'s table (an object array, float64 if
    any value is a float), refused before ``f`` is evaluated, with the
    witness masks as sets."""
    _check_size(len(f.ground))
    values = values_by_mask(f)
    table = np.array(values, dtype=float if any(isinstance(v, float) for v in values) else object)
    ok, witness = is_submodular(table, tol)
    return ok, witness and tuple(members(sorted(f.ground), m) for m in witness)


def supermodular_pair():
    """f({1}) = f({2}) = 0, f(empty) = f({1,2}) = 1: strictly supermodular."""
    table = {frozenset(): 1, frozenset({1}): 0, frozenset({2}): 0, frozenset({1, 2}): 1}
    return SetFunction({1, 2}, table.__getitem__)


class TestSubmodularityChecks:
    def test_demo_entropy_submodular(self, demo_source):
        ok, witness = check_submodular(SetFunction(demo_source.ground, demo_source.entropy))
        assert ok and witness is None

    def test_constant_zero_submodular(self):
        ok, _ = check_submodular(SetFunction({1, 2, 3}, lambda X: F(0)))
        assert ok

    def test_supermodular_witness(self):
        ok, witness = check_submodular(supermodular_pair())
        assert not ok
        assert witness == (frozenset({1}), frozenset({2}))

    def test_truncated_cost_is_intersecting_submodular(self, demo_source, demo_ctx):
        f = SetFunction(demo_source.ground,
                        lambda X: f_alpha(demo_source, demo_ctx.min_sum_rate, X))
        ok, _ = pairwise_first_violation(f, intersecting=True)
        assert ok

    def test_submodular_implies_intersecting(self, demo_source):
        f = SetFunction(demo_source.ground, demo_source.entropy)
        assert pairwise_first_violation(f, intersecting=True)[0]

    def test_intersecting_violation_detected(self):
        # lift the supermodular pair by a shared dummy element: the violating
        # pair ({1,3},{2,3}) now intersects
        base = supermodular_pair()
        lifted = SetFunction({1, 2, 3}, lambda X: base(X - {3}))
        ok, witness = pairwise_first_violation(lifted, intersecting=True)
        assert not ok
        X, Y = witness
        assert X & Y

    def test_ground_set_limit(self):
        big = SetFunction(range(21), lambda X: F(len(X)))
        with pytest.raises(GroundSetTooLarge):
            check_submodular(big)


def capped_plus_c(X):
    """min(|X|, 2) + [c in X] + 1: submodular, not modular, g(empty) = 1."""
    return F(min(len(X), 2) + ("c" in X) + 1)


class TestGreedyVertex:
    def test_marginals_along_the_order(self):
        vertex = greedy_vertex(capped_plus_c, ["c", "a", "b"])
        assert list(vertex) == ["c", "a", "b"]
        assert vertex == {"c": 2, "a": 1, "b": 0}
        assert greedy_vertex(capped_plus_c, ["a", "b", "c"]) == {"a": 1, "b": 1, "c": 1}

    def test_marginals_telescope_to_the_whole_set(self):
        for order in (["a", "b", "c"], ["b", "c", "a"], ["c", "b", "a"]):
            vertex = greedy_vertex(capped_plus_c, order)
            assert sum(vertex.values()) == capped_plus_c({"a", "b", "c"}) - capped_plus_c(set())

    def test_ranked_form_sorts_by_weight(self):
        vertex = ranked_greedy_vertex(capped_plus_c, {"a": F(1, 2), "b": -1, "c": 3})
        assert list(vertex) == ["b", "a", "c"]
        assert vertex == {"b": 1, "a": 1, "c": 1}

    def test_ranked_form_breaks_equal_weights_by_element(self):
        for weights in ({"b": 0, "c": 0, "a": 0}, {"c": 0.0, "a": 0.0, "b": 0.0}):
            assert list(ranked_greedy_vertex(capped_plus_c, weights)) == ["a", "b", "c"]
        vertex = ranked_greedy_vertex(capped_plus_c, {"c": 1, "b": 1, "a": 2})
        assert list(vertex) == ["b", "c", "a"]
        assert vertex == greedy_vertex(capped_plus_c, ["b", "c", "a"])


class TestSfmMin:
    def test_cardinality(self):
        f = SetFunction({1, 2, 3}, lambda X: F(len(X)))
        result = sfm_min(f)
        assert result.value == 0
        assert result.minimal == frozenset()
        assert result.maximal == frozenset()

    def test_slack_minimizer_forced_user_1(self, demo_source, demo_ctx):
        r0 = rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: F(9, 2), 5: 0})
        f = SetFunction(demo_source.ground,
                        lambda X: f_alpha(demo_source, demo_ctx.min_sum_rate, X) - r0.mass(X))
        result = sfm_min(f, forced_in={1})
        assert result.minimal == frozenset({1, 4})

    def test_slack_minimizer_forced_user_5(self, demo_source, demo_ctx):
        r0 = rv({1: 1, 2: F(1, 2), 3: F(1, 2), 4: F(9, 2), 5: 0})
        f = SetFunction(demo_source.ground,
                        lambda X: f_alpha(demo_source, demo_ctx.min_sum_rate, X) - r0.mass(X))
        result = sfm_min(f, forced_in={5})
        assert result.minimal == frozenset({4, 5})

    def test_infeasible_lattice(self):
        f = SetFunction({1, 2}, lambda X: F(len(X)))
        with pytest.raises(InfeasibleLattice):
            sfm_min(f, forced_in={1}, forced_out={1})

    def test_forced_sets_must_be_inside_ground(self):
        f = SetFunction({1, 2}, lambda X: F(len(X)))
        with pytest.raises(InfeasibleLattice):
            sfm_min(f, forced_in={7})

    def test_exhaustive_limit(self):
        f = SetFunction(range(21), lambda X: F(len(X)))
        with pytest.raises(GroundSetTooLarge):
            sfm_min(f)


def shifted_entropy_instance(seed):
    """Entropy minus a random modular function: submodular with rich minima."""
    src = random_linear_source(seed, min_users=3, max_users=6, max_packets=8)
    rng = random.Random(seed * 31 + 7)
    shift = {u: F(rng.randint(0, 6), rng.choice((1, 2, 3))) for u in src.users}
    f = SetFunction(src.ground,
                    lambda X: src.entropy(X) - sum(shift[u] for u in X))
    return f, rng


@pytest.mark.parametrize("seed", range(12))
def test_backend_equivalence(seed):
    f, rng = shifted_entropy_instance(seed)
    users = sorted(f.ground)
    forced_in = frozenset(rng.sample(users, rng.randint(0, 1)))
    forced_out = frozenset(rng.sample(sorted(set(users) - forced_in), rng.randint(0, 1)))
    assert sfm_min(f, forced_in, forced_out) == minnorm_sfm(f, forced_in, forced_out)


def test_backend_equivalence_eight_users():
    src = random_linear_source(99, min_users=8, max_users=8, max_packets=10)
    shift = {u: F(u, 2) for u in src.users}
    f = SetFunction(src.ground, lambda X: src.entropy(X) - sum(shift[u] for u in X))
    assert sfm_min(f) == minnorm_sfm(f)


@pytest.mark.parametrize("seed", range(8))
def test_minimizer_lattice(seed):
    f, _ = shifted_entropy_instance(seed)
    best = min(f(X) for X in subsets(f.ground))
    minimizers = [X for X in subsets(f.ground) if f(X) == best]
    for A in minimizers:
        for B in minimizers:
            assert f(A & B) == best
            assert f(A | B) == best


def counting_oracle(ground):
    calls = []

    def oracle(X):
        calls.append(X)
        return F(min(len(X), 2))

    return SetFunction(ground, oracle), calls


def test_sfm_min_evaluates_each_lattice_point_once():
    f, calls = counting_oracle({1, 2, 3, 4})
    assert sfm_min(f, forced_in={1}) == SfmResult(F(1), frozenset({1}), frozenset({1}))
    assert sorted(map(sorted, calls)) == sorted(
        sorted({1} | Y) for Y in subsets({2, 3, 4}))


def test_is_submodular_evaluates_each_subset_once():
    f, calls = counting_oracle({1, 2, 3})
    assert check_submodular(f) == (True, None)
    assert sorted(map(sorted, calls)) == sorted(map(sorted, subsets({1, 2, 3})))


def random_set_function(seed: int, n: int, kind: str, submodular: bool, step=None):
    """A seeded weighted coverage function on n users (submodular), plus a
    random perturbation per subset unless ``submodular``.  ``kind`` picks
    int, Fraction or float values; ``step`` scales the perturbation."""
    rng = random.Random(seed)
    ground = sorted(rng.sample(range(1, 3 * n + 1), n))
    items = range(2 * n)
    covers = {u: rng.sample(items, rng.randint(0, len(items))) for u in ground}
    draw = {
        "int": lambda: rng.randint(0, 4),
        "fraction": lambda: F(rng.randint(0, 4), rng.randint(1, 6)),
        "float": lambda: rng.uniform(0, 4),
    }[kind]
    weights = [draw() for _ in items]
    table = {}
    for X in subsets(ground):
        value = sum(weights[k] for k in set().union(*(covers[u] for u in X)))
        if not submodular:
            value += draw() - draw() if step is None else rng.randint(-2, 2) * step
        table[X] = value
    return SetFunction(ground, table.__getitem__)


TOLERANCES = {"int": 1, "fraction": F(1, 3), "float": 0.5}


@pytest.mark.parametrize("kind", sorted(TOLERANCES))
@pytest.mark.parametrize("positive_tol", [False, True])
def test_witness_matches_pairwise_oracle(kind, positive_tol):
    tol = TOLERANCES[kind] if positive_tol else 0
    outcomes = set()
    for n in range(1, 7):
        for seed in range(4):
            for submodular in (True, False):
                f = random_set_function(seed * 7 + n, n, kind, submodular)
                got = check_submodular(f, tol)
                assert got == pairwise_first_violation(f, tol), (n, seed)
                outcomes.add(got[0])
    assert outcomes == {True, False}


def test_witness_exact_beyond_int64():
    step = F(1, 2 ** 70)
    for seed in range(6):
        f = random_set_function(seed, 4, "int", submodular=False, step=step)
        for tol in (0, step):
            assert check_submodular(f, tol) == pairwise_first_violation(f, tol)
    # a violation by one step, invisible in float64
    table = {frozenset(): 0, frozenset({1}): 1, frozenset({2}): 1, frozenset({1, 2}): 2 + step}
    exact = SetFunction({1, 2}, table.__getitem__)
    assert check_submodular(exact) == (False, (frozenset({1}), frozenset({2})))
    assert check_submodular(exact, step / 2)[0] is False
    assert check_submodular(exact, step) == (True, None)
    assert check_submodular(SetFunction({1, 2}, lambda X: float(table[X]))) == (True, None)


def test_widen_past_the_int64_headroom():
    narrow = np.array([1], dtype=np.int64)
    assert widen(narrow, INT64_SAFE - 1) is narrow
    assert widen(narrow, INT64_SAFE).dtype == object


def test_int_array_holds_int64_below_the_headroom():
    assert int_array([0, INT64_SAFE - 1]).dtype == np.int64
    wide = int_array([0, -INT64_SAFE])
    assert wide.dtype == object and wide.tolist() == [0, -INT64_SAFE]


@pytest.mark.parametrize("n", range(13))
def test_subset_masks_is_the_subsets_order(n):
    want = subset_masks_reference(n)
    assert subset_masks(n) == want
    assert [sum(1 << k for k in X) for X in subsets(range(n))] == want
    assert sorted(want) == list(range(1 << n))


@pytest.mark.parametrize("tol", [0, 1, F(1, 3), F(5, 2), 0.5])
def test_int64_table_matches_the_exact_one(tol):
    outcomes = set()
    for n in range(1, 6):
        for seed in range(4):
            f = random_set_function(seed * 7 + n, n, "int", submodular=False)
            values = values_by_mask(f)
            got = is_submodular(int_array(values), tol)
            assert got == is_submodular(np.array(values, dtype=object), tol), (n, seed)
            outcomes.add(got[0])
    assert outcomes == {True, False}


def test_submodularity_check_refusal_boundary(monkeypatch):
    from omnifair import setfn

    monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 4)
    f, _ = counting_oracle({1, 2, 3, 4})
    assert check_submodular(f)[0]
    f, calls = counting_oracle({1, 2, 3, 4, 5})
    with pytest.raises(GroundSetTooLarge, match="size 5 exceeds the exhaustive limit 4"):
        check_submodular(f)
    assert calls == []
    # the table itself is refused by its size
    assert is_submodular(np.zeros(16, dtype=np.int64)) == (True, None)
    with pytest.raises(GroundSetTooLarge, match="size 5 exceeds the exhaustive limit 4"):
        is_submodular(np.zeros(32, dtype=np.int64))
