import functools
import json
import math
import random
import re
import tracemalloc
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
    LINEAR_SPEC_IDS,
    LINEAR_SPECS_MISREAD,
    PMF_FUZZ_SEEDS,
    PMF_SPEC_IDS,
    PMF_SPECS_READ_SILENTLY,
    entropy_table,
    linear_spec,
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
    """Packet entropies, the popcount of the OR of the users' held-packet
    bitsets, match the members loop on every mask (n <= 12) or 2000 seeded
    masks and the edge masks."""

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
        bad = {mask for mask in masks if src.raw_entropy(mask) != packet_entropy_reference(src, mask)}
        assert bad == set()


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

    @pytest.mark.parametrize("batch", [sources.PMF_BATCH_ENTRIES, 4], ids=["one-batch", "batches"])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 3, 2, 1)], ids=["zero-free", "with-zeros"])
    def test_deterministic_entropies_are_positive_zeros(self, monkeypatch, shape, batch):
        # H = -Σ p·log2 p sums zeros; negated, a sum of +0.0 would read -0.0
        monkeypatch.setattr(sources, "PMF_BATCH_ENTRIES", batch)
        table = np.zeros(shape)
        table[tuple(a - 1 for a in shape)] = 1.0
        pmf = PmfSource({u: tuple(range(a)) for u, a in enumerate(shape, start=1)}, table)
        H = [pmf.raw_entropy(m) for m in range(1 << len(shape))]
        assert H == [0.0] * len(H)
        assert [math.copysign(1.0, h) for h in H] == [1.0] * len(H)


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
        differ = {}
        for seed in PMF_FUZZ_SEEDS:
            src = random_pmf_source(seed)
            src.raw_entropy(1)
            diff = np.max(np.abs(np.array(src._H) - pmf_fill_reference(src)))
            if not diff <= 1e-13:
                differ[seed] = diff
        assert differ == {}

    def test_fill_matches_keepdims_fill_zero_free_twelve_users(self):
        # binary alphabets, entries rng.random() ** 3 normalized by their sum
        rng = random.Random(7)
        weights = [rng.random() ** 3 for _ in range(2 ** 12)]
        total = sum(weights)
        table = np.array([w / total for w in weights]).reshape((2,) * 12)
        src = PmfSource({u: (0, 1) for u in range(1, 13)}, table)
        src.raw_entropy(1)
        assert src._zero_free
        assert np.max(np.abs(np.array(src._H) - pmf_fill_reference(src))) <= 1e-13

    @pytest.mark.parametrize("zeros", [False, True], ids=["zero-free", "with-zeros"])
    def test_fill_matches_keepdims_fill_ten_letter_axis(self, zeros):
        rng = np.random.default_rng(10)
        shape = (3, 1, 2, 10)
        table = rng.random(shape) * ((rng.random(shape) >= 0.3) if zeros else 1)
        src = PmfSource({u: tuple(range(k)) for u, k in enumerate(shape, start=1)},
                        table / table.sum())
        src.raw_entropy(1)
        assert src._zero_free is not zeros
        assert np.max(np.abs(np.array(src._H) - pmf_fill_reference(src))) <= 1e-13

    @pytest.mark.parametrize("holdings, several", [
        ({1: ["a"], 2: ["a", "b"], 3: ["b", "c"], 4: []}, False),
        ({1: [], 2: ["a", "b"], 3: ["c"], 4: ["a", "c", "d"], 5: ["d"]}, False),
        ({u: [f"p{u % 10}"] for u in range(1, 12)} | {12: []}, True),
        ({1: [], 2: ["p0", "p1"]} | {u: [f"p{u - 1}"] for u in range(3, 12)}, True),
    ], ids=["one-batch-zeros", "one-batch-wide", "batches-zeros-one-letter-dropped",
            "batches-one-letter-extended"])
    def test_dyadic_tables_are_bit_exact(self, holdings, several):
        # each marginal is uniform over 2^k outcomes, so each -p·log2 p, and
        # each sum of them in any order, is exact: H is the packet count
        universe = sorted({p for packets in holdings.values() for p in packets})
        pmf = pmf_from_packets(holdings, universe)
        linear = LinearSource.from_packets(holdings, universe=universe)
        batch, batches = pmf._batch, []
        pmf._batch = lambda marginal, l: batches.append(l) or batch(marginal, l)
        masks = range(1, 1 << len(pmf.users))
        assert [pmf.raw_entropy(m) for m in masks] == [float(linear.raw_entropy(m)) for m in masks]
        assert (len(batches) > 1) is several
        assert pmf._zero_free is (len(universe) == sum(map(len, holdings.values())))

    def test_a_table_over_the_bound_takes_several_bounded_batches(self):
        rng = np.random.default_rng(12)
        table = rng.random((2,) * 12)
        src = PmfSource({u: (0, 1) for u in range(1, 13)}, table / table.sum())
        assert 2 ** 12 < sources.PMF_BATCH_ENTRIES < 3 ** 12  # extending all 12 axes would not fit
        batch, peaks = src._batch, []

        def spy(marginal, l):  # the memory a batch takes beyond what it is given
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            values = batch(marginal, l)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return values

        src._batch = spy
        tracemalloc.start()
        try:
            src.raw_entropy(1)
        finally:
            tracemalloc.stop()
        assert len(peaks) > 1
        # an extended array and its -p·log2 p, 8 bytes an entry, and small change
        assert max(peaks) <= 2 * 8 * sources.PMF_BATCH_ENTRIES + 8 * 1024

    @pytest.mark.parametrize("seed", PMF_FUZZ_SEEDS[:20])
    def test_each_mask_once_with_bounded_marginals(self, seed):
        src = random_pmf_source(seed)
        fill, batch, chain, masks, written, peaks, extended = src._fill, src._batch, [], [], [], [], []

        def owner(m):  # the array whose memory a view shares
            while isinstance(m.base, np.ndarray):
                m = m.base
            return m

        def fill_spy(marginal, mask, last):
            chain.append(marginal)
            masks.append(mask)
            alive = {id(owner(m)): owner(m).size for m in chain}  # a view allocates nothing
            peaks.append((len(chain), sum(alive.values())))
            fill(marginal, mask, last)
            chain.pop()
            masks.pop()

        def batch_spy(marginal, l):  # H[mask less each subset of the l lowest axes]
            written.extend(range(masks[-1] + 1 - (1 << l), masks[-1] + 1))
            extended.append((math.prod(a + 1 for a in marginal.shape[:l]) * math.prod(marginal.shape[l:]),
                             marginal.size))
            return batch(marginal, l)

        src._fill, src._batch = fill_spy, batch_spy
        src.raw_entropy(1)
        n = len(src.users)
        assert sorted(written) == list(range(1 << n))
        assert max(count for count, _ in peaks) <= n + 1
        assert max(size for _, size in peaks) < 2 * src._table.size
        assert all(size <= max(sources.PMF_BATCH_ENTRIES, given) for size, given in extended)


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

    @pytest.mark.parametrize("text", [
        '{"model": "linear", "users": {"1": ["a"], "1": ["b"], "2": ["a", "b"]}}',
        '{"model": "pmf", "model": "linear", "users": {"1": ["a"], "2": ["a"]}}',
        '{"model": "linear", "users": {"1": [[1, 0]], "2": [[0, 1]]}, "users": {"1": ["a"], "2": ["a"]}}',
    ], ids=["user", "top-level", "last-of-two"])
    def test_a_repeated_json_key_is_refused(self, tmp_path, text):
        # json.loads alone keeps the last value of a repeated key
        path = tmp_path / "repeat.json"
        path.write_text(text)
        for spec in (text, path, str(path)):
            with pytest.raises(SourceSpecError, match=r"^JSON object repeats key '(1|model|users)'$"):
                load_source(spec)

    @pytest.mark.parametrize(("alphabets", "table", "message"), PMF_SPECS_READ_SILENTLY,
                             ids=PMF_SPEC_IDS)
    def test_pmf_spec_values_numpy_would_read_are_refused(self, alphabets, table, message):
        spec = {"model": "pmf", "alphabets": alphabets, "table": table}
        for form in (spec, json.dumps(spec)):
            with pytest.raises(SourceSpecError, match=f"^{re.escape(message)}$"):
                load_source(form)

    @pytest.mark.parametrize(("users", "packets", "message"), LINEAR_SPECS_MISREAD, ids=LINEAR_SPEC_IDS)
    def test_linear_spec_values_it_would_misread_are_refused(self, users, packets, message):
        spec = linear_spec(users, packets)
        for form in (spec, json.dumps(spec)):
            with pytest.raises(SourceSpecError, match=f"^{re.escape(message)}$"):
                load_source(form)

    def test_integer_and_string_packet_ids_load(self):
        source = load_source(linear_spec({"1": [1, "a"], "2": ["a"]}, [1, "a", "b"]))
        assert source.universe == (1, "a", "b")
        assert source.entropy({1}) == 2

    def test_pmf_past_the_dense_limit_is_refused_before_the_fill(self, monkeypatch):
        # H of every subset fills 2^n entries; the limit is the slack table's,
        # n - 1 free users
        from omnifair import setfn

        monkeypatch.setattr(setfn, "EXHAUSTIVE_LIMIT", 3)
        four = load_source({"model": "pmf", "alphabets": {str(u): [0, 1] for u in range(1, 5)},
                            "table": np.full((2,) * 4, 1 / 16).tolist()})
        assert four.entropy(four.users) == pytest.approx(4.0)
        fills = []
        monkeypatch.setattr(PmfSource, "_fill", lambda *args: fills.append(args))
        for n in (5, 6):
            spec = {"model": "pmf", "alphabets": {str(u): [0] for u in range(1, n + 1)},
                    "table": functools.reduce(lambda t, _: [t], range(n), 1.0)}
            with pytest.raises(setfn.GroundSetTooLarge,
                               match=f"^ground set of size {n - 1} exceeds the exhaustive limit 3$"):
                load_source(json.dumps(spec))
        assert fills == []

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
