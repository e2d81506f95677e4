import random
from fractions import Fraction as F

import pytest

from omnifair import (
    GroundSetTooLarge,
    InfeasibleLattice,
    SetFunction,
    SfmResult,
    f_alpha,
    is_intersecting_submodular,
    is_submodular,
    sfm_min,
)
from omnifair.setfn import subsets

from conftest import random_linear_source, rv


def supermodular_pair():
    """f({1}) = f({2}) = 0, f(empty) = f({1,2}) = 1: strictly supermodular."""
    table = {frozenset(): 1, frozenset({1}): 0, frozenset({2}): 0, frozenset({1, 2}): 1}
    return SetFunction({1, 2}, table.__getitem__)


class TestSubmodularityChecks:
    def test_demo_entropy_submodular(self, demo_source):
        ok, witness = is_submodular(SetFunction(demo_source.ground, demo_source.entropy))
        assert ok and witness is None

    def test_constant_zero_submodular(self):
        ok, _ = is_submodular(SetFunction({1, 2, 3}, lambda X: F(0)))
        assert ok

    def test_supermodular_witness(self):
        ok, witness = is_submodular(supermodular_pair())
        assert not ok
        assert witness == (frozenset({1}), frozenset({2}))

    def test_truncated_cost_is_intersecting_submodular(self, demo_source, demo_ctx):
        f = SetFunction(demo_source.ground,
                        lambda X: f_alpha(demo_source, demo_ctx.min_sum_rate, X))
        ok, _ = is_intersecting_submodular(f)
        assert ok

    def test_submodular_implies_intersecting(self, demo_source):
        f = SetFunction(demo_source.ground, demo_source.entropy)
        assert is_intersecting_submodular(f)[0]

    def test_intersecting_violation_detected(self):
        # lift the supermodular pair by a shared dummy element: the violating
        # pair ({1,3},{2,3}) now intersects
        base = supermodular_pair()
        lifted = SetFunction({1, 2, 3}, lambda X: base(X - {3}))
        ok, witness = is_intersecting_submodular(lifted)
        assert not ok
        X, Y = witness
        assert X & Y

    def test_ground_set_limit(self):
        big = SetFunction(range(21), lambda X: F(len(X)))
        with pytest.raises(GroundSetTooLarge):
            is_submodular(big)


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

    def test_unknown_backend(self):
        f = SetFunction({1}, lambda X: F(0))
        with pytest.raises(ValueError, match="backend"):
            sfm_min(f, backend="simplex")


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
    exhaustive = sfm_min(f, forced_in, forced_out, backend="exhaustive")
    minnorm = sfm_min(f, forced_in, forced_out, backend="minnorm")
    assert exhaustive == minnorm


def test_backend_equivalence_eight_users():
    src = random_linear_source(99, min_users=8, max_users=8, max_packets=10)
    shift = {u: F(u, 2) for u in src.users}
    f = SetFunction(src.ground, lambda X: src.entropy(X) - sum(shift[u] for u in X))
    assert sfm_min(f, backend="exhaustive") == sfm_min(f, backend="minnorm")


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
    assert is_submodular(f) == (True, None)
    assert sorted(map(sorted, calls)) == sorted(map(sorted, subsets({1, 2, 3})))
