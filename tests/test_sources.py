import json
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnifair import LinearSource, PmfSource, SourceSpecError, gf_rank, load_source, sources
from omnifair.setfn import is_submodular, subsets

from conftest import (
    DEMO_HOLDINGS,
    DEMO_PACKETS,
    PMF_FUZZ_SEEDS,
    entropy_table,
    packet_entropy_reference,
    pmf_entropy_reference,
    pmf_fill_reference,
    pmf_from_packets,
    random_pmf_source,
    random_wide_packet_source,
)


class TestLinearEntropy:
    def test_single_user(self, demo_source):
        assert demo_source.entropy({1}) == F(5)

    def test_per_user_packet_counts(self, demo_source):
        assert [demo_source.entropy({u}) for u in demo_source.users] == [5, 4, 4, 8, 6]

    def test_whole_set(self, demo_source):
        assert demo_source.entropy(demo_source.ground) == F(10)

    def test_empty_set(self, demo_source):
        value = demo_source.entropy(frozenset())
        assert value == 0 and isinstance(value, F)

    def test_unknown_user(self, demo_source):
        with pytest.raises(ValueError, match="unknown user"):
            demo_source.entropy({1, 99})

    def test_vector_form_matches_packet_form(self, demo_source):
        width = len(DEMO_PACKETS)
        unit = {p: [int(q == p) for q in DEMO_PACKETS] for p in DEMO_PACKETS}
        vectors = {u: [unit[p] for p in holdings] for u, holdings in DEMO_HOLDINGS.items()}
        vec_source = LinearSource.from_vectors(vectors, field=2)
        assert all(len(v) == width for rows in vectors.values() for v in rows)
        for X in subsets(demo_source.users):
            assert vec_source.entropy(X) == demo_source.entropy(X)

    def test_vector_form_sees_linear_dependence(self):
        src = LinearSource.from_vectors(
            {1: [[1, 0], [0, 1]], 2: [[1, 1]]}, field=2)
        assert src.entropy({1}) == 2
        assert src.entropy({2}) == 1
        assert src.entropy({1, 2}) == 2

    def test_gf_rank_nonbinary(self):
        # over GF(3): second row is twice the first, third is independent
        assert gf_rank([[1, 2, 0], [2, 4, 0], [0, 0, 1]], 3) == 2

    def test_field_must_be_prime(self):
        with pytest.raises(SourceSpecError, match="prime"):
            LinearSource.from_packets({1: ["a"], 2: ["b"]}, field=4)

    def test_single_user_rejected(self):
        with pytest.raises(SourceSpecError, match="two users"):
            LinearSource.from_packets({1: ["a"]})

    def test_stray_packet_rejected(self):
        with pytest.raises(SourceSpecError, match="universe"):
            LinearSource.from_packets({1: ["a"], 2: ["z"]}, universe=["a", "b"])


class TestMask:
    def test_repeated_user_sets_its_bit_once(self, demo_source):
        assert demo_source.mask([1, 1]) == demo_source.mask([1]) == 0b1
        assert demo_source.mask([4, 2, 4, 2]) == 0b1010
        assert demo_source.raw_entropy(demo_source.mask([1, 1])) == 5

    def test_generator_and_empty(self, demo_source):
        assert demo_source.mask(u for u in (5, 3, 3)) == 0b10100
        assert demo_source.mask(()) == 0


class TestPacketTables:
    """Packet entropies from one OR table per byte of the user mask match
    the members loop on every mask (n <= 12) or 2000 seeded masks and the
    edge masks, and the tables are built with the source, not per query."""

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 16, 17, 24])
    def test_matches_members_loop(self, n):
        src = random_wide_packet_source(0, n)
        assert len(src.universe) > 64 and src.raw_entropy(1) == 0
        full = (1 << n) - 1
        if n <= 12:
            masks = range(1, full + 1)
        else:
            rng = random.Random(f"packet-masks:{n}")
            masks = [rng.randint(1, full) for _ in range(2000)]
            masks += [full, full - 1] + [1 << k for k in range(n)]
        tables = src._byte_tables
        snapshot = [list(table) for table in tables]
        assert [len(table) for table in tables] == [1 << min(8, n - c) for c in range(0, n, 8)]
        bad = {mask for mask in masks if src.raw_entropy(mask) != packet_entropy_reference(src, mask)}
        assert bad == set()
        assert src._byte_tables is tables
        assert all(a is b for a, b in zip(src._byte_tables, tables)) and tables == snapshot


class TestConditionalEntropy:
    def test_packet_unique_to_user(self, demo_source):
        # packet g is held by user 4 only
        others = frozenset({1, 2, 3, 5})
        union_others = set().union(*(DEMO_HOLDINGS[u] for u in others))
        unique = set(DEMO_HOLDINGS[4]) - union_others
        assert unique == {"g"}
        assert demo_source.conditional_entropy({4}, others) == F(1)

    def test_conditioning_on_nothing(self, demo_source):
        assert demo_source.conditional_entropy({2}, frozenset()) == F(4)

    def test_empty_given_anything(self, demo_source):
        assert demo_source.conditional_entropy(frozenset(), {1, 3}) == 0

    def test_overlap_rejected(self, demo_source):
        with pytest.raises(ValueError, match="disjoint"):
            demo_source.conditional_entropy({1, 2}, {2, 3})


class TestPmfSource:
    def test_independent_bits_match_packet_model(self):
        holdings = {1: ["a"], 2: ["a", "b"], 3: ["b", "c"]}
        universe = ["a", "b", "c"]
        pmf = pmf_from_packets(holdings, universe)
        linear = LinearSource.from_packets(holdings, universe=universe)
        for X in subsets(pmf.users):
            assert pmf.entropy(X) == pytest.approx(float(linear.entropy(X)), abs=1e-9)

    def test_entropy_is_float(self):
        pmf = pmf_from_packets({1: ["a"], 2: ["a"]}, ["a"])
        assert isinstance(pmf.entropy({1}), float)

    def test_normalization_enforced(self):
        with pytest.raises(SourceSpecError, match="sums to"):
            PmfSource({1: (0, 1), 2: (0, 1)}, [[0.25, 0.25], [0.25, 0.2]])

    def test_negative_entry_rejected(self):
        with pytest.raises(SourceSpecError, match="negative"):
            PmfSource({1: (0, 1), 2: (0, 1)}, [[0.5, 0.5], [0.5, -0.5]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SourceSpecError, match="shape"):
            PmfSource({1: (0, 1), 2: (0, 1, 2)}, [[0.5, 0.5], [0.0, 0.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(SourceSpecError, match="non-finite"):
            PmfSource({1: (0, 1), 2: (0, 1)}, [[0.5, bad], [0.0, 0.5]])


class TestPmfMarginalizationPass:
    def test_fuzz_corpus_matches_per_subset_sums(self):
        worst = {}
        for seed in PMF_FUZZ_SEEDS:
            src = random_pmf_source(seed)
            # np.max and "not <=" let a NaN entropy through neither step
            worst[seed] = np.max([abs(src.raw_entropy(mask) - pmf_entropy_reference(src, mask))
                                  for mask in range(1, 1 << len(src.users))])
        assert {seed: diff for seed, diff in worst.items() if not diff <= 1e-12} == {}

    def test_corpus_spans_the_stated_shapes(self):
        sources = [random_pmf_source(seed) for seed in PMF_FUZZ_SEEDS]
        assert {len(src.users) for src in sources} == set(range(2, 10))
        assert {len(a) for src in sources for a in src.alphabets.values()} == {1, 2, 3, 4}
        zeros = sum((src._table == 0).sum() for src in sources)
        assert 0.25 < zeros / sum(src._table.size for src in sources) < 0.35

    def test_query_order_does_not_change_a_value(self):
        for seed in PMF_FUZZ_SEEDS[:60]:
            masks = list(range(1, 1 << len(random_pmf_source(seed).users)))
            shuffled = random.Random(seed).sample(masks, len(masks))
            answers = []
            for order in (masks, masks[::-1], shuffled):
                src = random_pmf_source(seed)
                answers.append({mask: src.raw_entropy(mask) for mask in order})
            assert answers[0] == answers[1] == answers[2]

    def test_fill_matches_keepdims_fill_on_fuzz_corpus(self):
        differ = []
        for seed in PMF_FUZZ_SEEDS:
            src = random_pmf_source(seed)
            src.raw_entropy(1)
            if not np.array_equal(src._H, pmf_fill_reference(src)):
                differ.append(seed)
        assert differ == []

    def test_fill_matches_keepdims_fill_zero_free_twelve_users(self):
        # binary alphabets, entries rng.random() ** 3 normalized by their sum
        rng = random.Random(7)
        weights = [rng.random() ** 3 for _ in range(2 ** 12)]
        total = sum(weights)
        table = np.array([w / total for w in weights]).reshape((2,) * 12)
        src = PmfSource({u: (0, 1) for u in range(1, 13)}, table)
        src.raw_entropy(1)
        assert src._zero_free
        assert np.array_equal(src._H, pmf_fill_reference(src))

    @pytest.mark.parametrize("zeros", [False, True], ids=["zero-free", "with-zeros"])
    def test_fill_matches_keepdims_fill_ten_letter_axis(self, zeros):
        rng = np.random.default_rng(10)
        shape = (3, 1, 2, 10)
        table = rng.random(shape) * ((rng.random(shape) >= 0.3) if zeros else 1)
        src = PmfSource({u: tuple(range(k)) for u, k in enumerate(shape, start=1)},
                        table / table.sum())
        src.raw_entropy(1)
        assert src._zero_free is not zeros
        assert np.array_equal(src._H, pmf_fill_reference(src))

    @pytest.mark.parametrize("seed", PMF_FUZZ_SEEDS[:20])
    def test_each_mask_once_with_bounded_marginals(self, seed):
        src = random_pmf_source(seed)
        fill, chain, visited, peaks = src._fill, [], [], []

        def spy(marginal, mask, first):
            chain.append(marginal)
            visited.append(mask)
            alive = {id(m): m.size for m in chain}
            peaks.append((len(chain), sum(alive.values())))
            fill(marginal, mask, first)
            chain.pop()

        src._fill = spy
        src.raw_entropy(1)
        n = len(src.users)
        assert sorted(visited) == list(range(1 << n))
        assert max(count for count, _ in peaks) <= n + 1
        assert max(size for _, size in peaks) < 2 * src._table.size


class TestLoadSource:
    def test_linear_spec(self, tmp_path, demo_source):
        spec = {
            "model": "linear",
            "field": 2,
            "packets": list(DEMO_PACKETS),
            "users": {str(u): list(p) for u, p in DEMO_HOLDINGS.items()},
        }
        path = tmp_path / "source.json"
        path.write_text(json.dumps(spec))
        loaded = load_source(path)
        for X in subsets(loaded.users):
            assert loaded.entropy(X) == demo_source.entropy(X)

    def test_vector_spec(self):
        spec = {"model": "linear", "field": 2,
                "users": {"1": [[1, 0], [0, 1]], "2": [[1, 1]]}}
        src = load_source(spec)
        assert src.entropy({1, 2}) == 2

    def test_pmf_spec(self):
        spec = {"model": "pmf",
                "alphabets": {"1": [0, 1], "2": [0, 1]},
                "table": [[0.5, 0.0], [0.0, 0.5]]}
        src = load_source(spec)
        assert src.entropy({1}) == pytest.approx(1.0)
        assert src.entropy({1, 2}) == pytest.approx(1.0)

    def test_unknown_model(self):
        with pytest.raises(SourceSpecError, match="unknown source model"):
            load_source({"model": "gaussian"})

    def test_missing_file(self):
        with pytest.raises(SourceSpecError, match="no such source file"):
            load_source("/nonexistent/source.json")

    def test_invalid_json_text(self):
        with pytest.raises(SourceSpecError, match="invalid JSON"):
            load_source('{"model": "linear",')

    @pytest.mark.parametrize("coefficient", [0.5, 1.9, "1", True])
    def test_non_integer_coefficient_refused(self, coefficient, monkeypatch):
        ranks = []
        monkeypatch.setattr(sources, "gf_rank", lambda *args: ranks.append(args))
        with pytest.raises(SourceSpecError, match=f"coefficients must be integers, got {coefficient!r}"):
            load_source({"model": "linear", "field": 3,
                         "users": {"1": [[1, coefficient]], "2": [[0, 1]]}})
        assert ranks == []

    def test_json_text_longer_than_a_file_name(self):
        # read as JSON text, not probed as a path the OS refuses to stat
        spec = {"model": "linear", "users": {"1": [f"p{k}" for k in range(100)], "2": ["p0"]}}
        assert load_source(json.dumps(spec)).users == (1, 2)

    def test_bad_user_key(self):
        with pytest.raises(SourceSpecError, match="not an integer"):
            load_source({"model": "linear", "users": {"alice": ["a"], "2": ["a"]}})

    def test_single_user_spec_rejected(self):
        with pytest.raises(SourceSpecError, match="two users"):
            load_source({"model": "linear", "users": {"1": ["a"]}})


def assert_polymatroid(source):
    """Normalized, monotone, submodular; exhaustive over all subset pairs."""
    assert source.entropy(frozenset()) == 0
    subs = list(subsets(source.users))
    for X in subs:
        for Y in subs:
            if Y <= X:
                assert source.entropy(Y) <= source.entropy(X)
    assert is_submodular(entropy_table(source))[0]


def test_demo_entropy_is_polymatroid(demo_source):
    assert_polymatroid(demo_source)


@st.composite
def small_linear_sources(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    packets = [f"p{k}" for k in range(m)]
    holdings = {
        u: draw(st.sets(st.sampled_from(packets), max_size=m))
        for u in range(1, n + 1)
    }
    return LinearSource.from_packets(holdings, universe=packets)


@settings(max_examples=60, deadline=None)
@given(small_linear_sources())
def test_linear_entropy_is_polymatroid(source):
    assert_polymatroid(source)


@settings(max_examples=20, deadline=None)
@given(small_linear_sources())
def test_pmf_agrees_with_packet_model(source):
    holdings = {u: sorted(source._packets[u]) for u in source.users}
    pmf = pmf_from_packets(holdings, list(source.universe))
    for X in subsets(source.users):
        assert pmf.entropy(X) == pytest.approx(float(source.entropy(X)), abs=1e-9)
