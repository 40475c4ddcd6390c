"""Session segmentation, co-occurrence mining, and the session samplers."""

import re

import numpy as np
import pytest

from itemcl.data import Interaction, assemble_split
from itemcl.sessions import (
    CooccurrenceTable,
    SessionPositiveSampler,
    build_cooccurrence,
    dump_cooccurrence,
    load_cooccurrence,
    segment_sessions,
)
from itemcl.losses import _batched_negatives
from itemcl.util import ItemclWarning, sorted_unique

WINDOW = 3600


def split_of(events):
    return assemble_split(events, [], behavior_window=5)


def sessions_of(item_lists):
    """One user's clicks, one session per list: clicks 1 s apart, lists
    more than a window apart."""
    events = [
        Interaction("u", item, s * 10 * WINDOW + j)
        for s, items in enumerate(item_lists)
        for j, item in enumerate(items)
    ]
    return segment_sessions(split_of(events), WINDOW)


def as_lists(sessions):
    """(user_id, items) per session, from the columnar form."""
    return [
        (sessions.user_ids[u], sessions.items[lo:hi].tolist())
        for u, lo, hi in zip(sessions.user.tolist(), sessions.offsets[:-1].tolist(), sessions.offsets[1:].tolist())
    ]


def counts_of(table):
    return dict(zip(map(tuple, table.pairs.tolist()), table.counts.tolist()))


def topk_of(table, item):
    neighbors, counts = table.topk(item)
    return list(zip(neighbors.tolist(), counts.tolist()))


# -- reference oracles: the per-click and per-pair loops the columnar code replaced


def reference_sessions(split, window_seconds):
    per_user = {}
    for ev in split.train_interactions:
        per_user.setdefault(ev.user_id, []).append((ev.timestamp, ev.item_index))
    sessions = []
    for user_id in sorted(per_user):
        events = per_user[user_id]
        current = [events[0][1]]
        last_ts = events[0][0]
        for ts, item in events[1:]:
            if ts - last_ts > window_seconds:
                sessions.append((user_id, current))
                current = []
            current.append(item)
            last_ts = ts
        sessions.append((user_id, current))
    return sessions


def reference_counts(item_lists):
    counts = {}
    for items in item_lists:
        distinct = sorted(set(items))
        for i, a in enumerate(distinct):
            for b in distinct[i + 1 :]:
                counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def reference_rows(counts, n_items, k):
    """Per-item top-k (neighbor, count) lists and sorted exclusions."""
    neighbor_lists = {}
    for (a, b), c in counts.items():
        neighbor_lists.setdefault(a, []).append((b, c))
        neighbor_lists.setdefault(b, []).append((a, c))
    topk = [sorted(neighbor_lists.get(i, []), key=lambda p: (-p[1], p[0]))[:k] for i in range(n_items)]
    excluded = [
        np.sort(np.asarray([nb for nb, _ in neighbor_lists.get(i, [])] + [i], dtype=np.int64)) for i in range(n_items)
    ]
    return topk, excluded


def reference_sampler_arrays(topk, n_items):
    width = max((len(row) for row in topk), default=0)
    length = np.zeros(n_items, dtype=np.int64)
    neighbors = np.zeros((n_items, width), dtype=np.int64)
    cumweights = np.full((n_items, width), np.inf)
    for item, row in enumerate(topk):
        if row:
            length[item] = len(row)
            neighbors[item, : len(row)] = [nb for nb, _ in row]
            cumweights[item, : len(row)] = np.cumsum([c for _, c in row])
    return length, neighbors, cumweights


def assert_matches_reference(events, n_items, k, window=WINDOW):
    split = split_of(events)
    sessions = segment_sessions(split, window)
    expected = reference_sessions(split, window)
    assert as_lists(sessions) == expected
    assert sessions.user_ids == sorted({ev.user_id for ev in events})
    table = build_cooccurrence(sessions, n_items, k)
    counts = reference_counts([items for _, items in expected])
    assert counts_of(table) == counts
    assert [tuple(p) for p in table.pairs.tolist()] == sorted(counts)
    topk, excluded = reference_rows(counts, n_items, k)
    for item in range(n_items):
        assert topk_of(table, item) == topk[item]
        got = table.excluded(item)
        assert got.dtype == np.int64 and not got.flags.writeable
        np.testing.assert_array_equal(got, excluded[item])
    sampler = SessionPositiveSampler(table)
    length, neighbors, cumweights = reference_sampler_arrays(topk, n_items)
    np.testing.assert_array_equal(sampler._length, length)
    np.testing.assert_array_equal(sampler._neighbors, neighbors)
    np.testing.assert_array_equal(sampler._cumweights, cumweights)
    assert sampler._cumweights.dtype == cumweights.dtype
    return sessions, table, sampler


def random_log(rng, n_users, n_items, clicks_per_user):
    """Interleaved users whose clocks start at 0 or 1 (so timestamps tie
    across users), with gaps of 0 s, one below, at and above the window."""
    gaps = np.array([0, 1, 60, WINDOW - 1, WINDOW, WINDOW + 1, 5 * WINDOW])
    events = []
    for u in range(n_users):
        size = int(rng.integers(1, clicks_per_user + 1))
        stamps = int(rng.integers(0, 2)) + np.cumsum(rng.choice(gaps, size=size))
        items = rng.integers(0, n_items, size=size)
        events += [Interaction(f"user{u}", int(i), int(t)) for i, t in zip(items, stamps)]
    return [events[i] for i in rng.permutation(len(events))]


class TestMatchesReferenceLoops:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_random_click_logs(self, seed, k):
        rng = np.random.default_rng(seed)
        events = random_log(rng, n_users=int(rng.integers(1, 40)), n_items=25, clicks_per_user=30)
        assert_matches_reference(events, 25, k)

    def test_timestamp_ties_across_interleaved_users(self):
        events = [
            Interaction("b", 1, 0),
            Interaction("a", 0, 0),
            Interaction("b", 2, 5),
            Interaction("a", 2, 5),
            Interaction("b", 0, 5),
            Interaction("a", 1, 9000),
        ]
        sessions, _, _ = assert_matches_reference(events, 3, 10)
        assert as_lists(sessions) == [("a", [0, 2]), ("a", [1]), ("b", [1, 2, 0])]

    def test_gap_equal_to_window(self):
        events = [Interaction("u", 0, 0), Interaction("u", 1, WINDOW), Interaction("u", 2, 2 * WINDOW + 1)]
        sessions, table, _ = assert_matches_reference(events, 3, 10)
        assert as_lists(sessions) == [("u", [0, 1]), ("u", [2])]
        assert counts_of(table) == {(0, 1): 1}

    def test_repeated_items_and_single_click_sessions(self):
        events = [Interaction("u", i, t) for i, t in [(3, 0), (1, 1), (3, 2), (1, 3), (0, 9000), (2, 20000)]]
        sessions, table, _ = assert_matches_reference(events, 4, 10)
        assert as_lists(sessions) == [("u", [3, 1, 3, 1]), ("u", [0]), ("u", [2])]
        assert counts_of(table) == {(1, 3): 1}

    def test_empty_train_split(self):
        sessions, table, sampler = assert_matches_reference([], 5, 10)
        assert len(sessions) == 0 and sessions.offsets.tolist() == [0]
        assert len(table.counts) == 0
        assert sampler._neighbors.shape == (5, 0)
        anchors, positives = sampler.sample_many(np.arange(5), np.random.default_rng(0))
        assert anchors.size == 0 and positives.size == 0

    def test_log_with_no_pairs_gives_width_zero(self):
        events = [Interaction("u", 2, 0), Interaction("u", 2, 1), Interaction("v", 4, 0)]
        _, table, sampler = assert_matches_reference(events, 5, 10)
        assert len(table.counts) == 0
        assert sampler._cumweights.shape == (5, 0)

    def test_k_larger_than_any_row(self):
        rng = np.random.default_rng(8)
        _, table, sampler = assert_matches_reference(random_log(rng, 10, 6, 20), 6, 100)
        assert sampler._neighbors.shape[1] == max(np.diff(table.indptr))

    def test_topk_ties_go_to_the_lower_index(self):
        sessions = sessions_of([[0, 3], [3, 0], [0, 1], [1, 0], [0, 2]])
        table = build_cooccurrence(sessions, 4, k=2)
        assert topk_of(table, 0) == [(1, 2), (3, 2)]
        assert topk_of(table, 2) == [(0, 1)]


class TestSegmentSessions:
    def test_gap_rule(self):
        events = [Interaction("u", 0, 0), Interaction("u", 1, 100), Interaction("u", 2, 5000)]
        sessions = segment_sessions(split_of(events), 3600)
        assert [items for _, items in as_lists(sessions)] == [[0, 1], [2]]

    def test_gap_equal_to_window_stays_inside(self):
        events = [Interaction("u", 0, 0), Interaction("u", 1, 3600)]
        sessions = segment_sessions(split_of(events), 3600)
        assert [items for _, items in as_lists(sessions)] == [[0, 1]]

    def test_users_never_mix(self):
        events = [
            Interaction("a", 0, 0),
            Interaction("b", 1, 1),
            Interaction("a", 2, 2),
            Interaction("b", 3, 3),
        ]
        sessions = segment_sessions(split_of(events), 3600)
        assert sorted((user, tuple(items)) for user, items in as_lists(sessions)) == [
            ("a", (0, 2)),
            ("b", (1, 3)),
        ]

    def test_single_click_sessions_kept(self):
        events = [Interaction("u", 4, 0)]
        sessions = segment_sessions(split_of(events), 3600)
        assert as_lists(sessions) == [("u", [4])]

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError, match="window_seconds"):
            segment_sessions(split_of([]), 0)


class TestCooccurrence:
    def test_all_pairs_of_one_session(self):
        table = build_cooccurrence(sessions_of([[0, 1, 2]]), 3)
        assert counts_of(table) == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_symmetry_accumulates(self):
        table = build_cooccurrence(sessions_of([[0, 1], [1, 0]]), 2)
        assert table.count(0, 1) == 2
        assert table.count(1, 0) == 2

    def test_duplicates_pair_once_and_no_self_pairs(self):
        table = build_cooccurrence(sessions_of([[0, 0, 1, 1]]), 2)
        assert counts_of(table) == {(0, 1): 1}
        assert table.count(0, 0) == 0

    def test_count_outside_the_catalog_is_zero(self):
        table = build_cooccurrence(sessions_of([[0, 1, 2]]), 3)
        assert [table.count(-1, 2), table.count(0, 3), table.count(1, 5), table.count(2, 1)] == [0, 0, 0, 1]

    def test_thousand_random_sessions_match_bruteforce(self):
        rng = np.random.default_rng(11)
        item_lists = [[int(x) for x in rng.integers(0, 40, size=rng.integers(1, 7))] for _ in range(1000)]
        table = build_cooccurrence(sessions_of(item_lists), 40)
        assert counts_of(table) == reference_counts(item_lists)

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        item_lists = [[int(x) for x in rng.integers(0, 10, size=4)] for _ in range(50)]
        shuffled = list(item_lists)
        rng.shuffle(shuffled)
        a = build_cooccurrence(sessions_of(item_lists), 10)
        b = build_cooccurrence(sessions_of(shuffled), 10)
        assert counts_of(a) == counts_of(b)

    def test_pair_sum_identity_on_repeat_free_sessions(self):
        rng = np.random.default_rng(5)
        item_lists = [[int(x) for x in rng.choice(30, size=int(rng.integers(1, 6)), replace=False)] for _ in range(200)]
        table = build_cooccurrence(sessions_of(item_lists), 30)
        expected = sum(len(items) * (len(items) - 1) // 2 for items in item_lists)
        assert table.counts.sum() == expected

    def test_topk_sorted_and_bounded(self):
        table = build_cooccurrence(sessions_of([[0, i] for i in [1, 1, 1, 2, 2, 3]]), 4, k=2)
        assert topk_of(table, 0) == [(1, 3), (2, 2)]
        assert all(c >= 1 for item in range(4) for _, c in topk_of(table, item))

    def test_item_outside_the_catalog_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_cooccurrence(sessions_of([[0, 4]]), 4)

    @pytest.mark.parametrize(
        "pairs, counts",
        [([(1, 0)], [1]), ([(0, 0)], [1]), ([(0, 4)], [1]), ([(0, 1)], [0]), ([(0, 1), (0, 2), (0, 1)], [1, 1, 2])],
        ids=["reversed", "self", "outside", "zero-count", "repeated"],
    )
    def test_constructor_rejects_bad_or_repeated_pairs(self, pairs, counts):
        with pytest.raises(ValueError, match="bad or repeated pair"):
            CooccurrenceTable(pairs, counts, 4)

    def test_constructor_sorts_its_pairs(self):
        table = CooccurrenceTable([(2, 3), (0, 3), (0, 1)], [5, 6, 7], 4)
        assert table.pairs.tolist() == [[0, 1], [0, 3], [2, 3]]
        assert table.counts.tolist() == [7, 6, 5]
        assert table.count(3, 2) == 5

    @pytest.mark.parametrize("n_items, n_pairs, max_count", [(50, 600, 3), (400, 20000, 6), (3000, 40000, 200)])
    def test_neighbor_layout_matches_the_lexsort_reference(self, n_items, n_pairs, max_count):
        # few count levels, so most rows hold many neighbors of equal count
        rng = np.random.default_rng(n_items)
        keys = sorted_unique(rng.integers(0, n_items * n_items, size=n_pairs))
        a, b = np.divmod(keys, n_items)
        pairs = np.stack([a, b], axis=1)[a < b]
        pairs = pairs[rng.permutation(len(pairs))]
        counts = rng.integers(1, max_count + 1, size=len(pairs))
        table = CooccurrenceTable(pairs, counts, n_items)
        rows, cols = np.concatenate([pairs[:, 0], pairs[:, 1]]), np.concatenate([pairs[:, 1], pairs[:, 0]])
        both = np.concatenate([counts, counts])
        layout = np.lexsort((cols, -both, rows))
        np.testing.assert_array_equal(table.neighbors, cols[layout])
        np.testing.assert_array_equal(table.neighbor_counts, both[layout])
        np.testing.assert_array_equal(table.indptr, np.append(0, np.cumsum(np.bincount(rows, minlength=n_items))))

    def test_neighbor_sort_key_overflow_is_refused(self):
        # keys run up to 4096**2 * (count + 1) - 1, and int64 holds up to 2**63 - 1
        with pytest.raises(ValueError, match="4096 items with counts up to 549755813888 overflow"):
            CooccurrenceTable([(0, 1), (1, 2)], [1 << 39, 3], 4096)
        edge = CooccurrenceTable([(0, 1), (1, 4095)], [(1 << 39) - 1, 3], 4096)
        assert topk_of(edge, 1) == [(0, (1 << 39) - 1), (4095, 3)]

    def test_dump_roundtrip_byte_identical(self, tmp_path):
        from itemcl.data import Item, ItemCatalog

        catalog = ItemCatalog([Item(f"item{chr(ord('z') - i)}") for i in range(5)])
        rng = np.random.default_rng(2)
        table = build_cooccurrence(sessions_of([[int(x) for x in rng.integers(0, 5, size=3)] for _ in range(30)]), 5)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        dump_cooccurrence(table, catalog, str(p1))
        reloaded = load_cooccurrence(str(p1), catalog)
        assert counts_of(reloaded) == counts_of(table)
        np.testing.assert_array_equal(reloaded.pairs, table.pairs)
        for item in range(5):
            np.testing.assert_array_equal(reloaded.excluded(item), table.excluded(item))
            assert topk_of(reloaded, item) == topk_of(table, item)
        dump_cooccurrence(reloaded, catalog, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestLoadCooccurrence:
    @pytest.mark.parametrize(
        "row, message",
        [
            ("a\tzz\t2", "unknown item_id 'zz'"),
            ("a\tb\ttwo", "bad count 'two'"),
            ("a\ta\t2", "item 'a' paired with itself"),
            ("a\tb\t0", "nonpositive count 0"),
            ("a\tb", "expected 3 tab-separated fields"),
            ("a\tc\t5", "pair 'a' 'c' repeats line 1"),
            ("c\ta\t5", "pair 'c' 'a' repeats line 1"),
            (" ", "expected 3 tab-separated fields"),
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        from itemcl.data import DataFormatError, Item, ItemCatalog

        catalog = ItemCatalog([Item("a"), Item("b"), Item("c")])
        path = tmp_path / "cooc.tsv"
        path.write_text(f"a\tc\t1\n\n{row}\n")
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}:3: {message}")):
            load_cooccurrence(str(path), catalog)


class TestSessionSampling:
    def table(self):
        return CooccurrenceTable([(0, 1), (0, 2)], [3, 1], 10, k=10)

    def negatives(self, table, item, k, rng, rows=1):
        """Session negatives as training draws them: rows of the one
        batched sampler over the item's exclusion rule."""
        return _batched_negatives(table.n_items, [table.excluded(item)] * rows, k, rng)

    def test_weighted_frequencies(self):
        sampler = SessionPositiveSampler(self.table())
        rng = np.random.default_rng(0)
        anchors, draws = sampler.sample_many(np.zeros(100_000, dtype=np.int64), rng)
        assert anchors.size == 100_000
        assert abs((draws == 1).mean() - 0.75) < 0.01
        assert abs((draws == 2).mean() - 0.25) < 0.01

    def test_single_neighbor_always_returned(self):
        sampler = SessionPositiveSampler(CooccurrenceTable([(0, 1)], [5], 3, k=10))
        rng = np.random.default_rng(0)
        assert sampler.sample_many(np.zeros(50, dtype=np.int64), rng)[1].tolist() == [1] * 50

    def test_isolated_item_signals_no_positive(self):
        sampler = SessionPositiveSampler(self.table())
        anchors, positives = sampler.sample_many(np.array([7, 0, 7, 2]), np.random.default_rng(0))
        assert anchors.tolist() == [0, 2]
        assert positives[0] in (1, 2) and positives[1] == 0

    def test_matches_one_searchsorted_draw_per_anchor(self):
        table = CooccurrenceTable([(0, 1), (0, 2), (1, 2), (3, 4), (2, 5)], [3, 1, 7, 2, 5], 9, k=2)
        anchors = np.random.default_rng(1).integers(0, 9, size=500)
        got_anchors, got = SessionPositiveSampler(table).sample_many(anchors, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        expected_anchors, expected = [], []
        for a in anchors.tolist():
            top = topk_of(table, a)
            if top:
                cum = np.cumsum([c for _, c in top]).astype(np.float64)
                pos = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
                expected_anchors.append(a)
                expected.append(top[min(pos, len(cum) - 1)][0])
        assert got_anchors.tolist() == expected_anchors
        assert got.tolist() == expected

    def test_excluded_is_neighbors_and_self_sorted(self):
        table = CooccurrenceTable([(2, 5), (0, 5), (5, 9)], [1, 2, 1], 10, k=10)
        assert table.excluded(5).tolist() == [0, 2, 5, 9]
        assert table.excluded(5).dtype == np.int64
        assert table.excluded(7).tolist() == [7]

    def test_excluded_matches_the_pair_counts_for_every_item(self):
        rng = np.random.default_rng(12)
        # items 50-59 never co-occur
        item_lists = [[int(x) for x in rng.integers(0, 50, size=rng.integers(1, 6))] for _ in range(400)]
        table = build_cooccurrence(sessions_of(item_lists), 60)
        neighbors = {i: {i} for i in range(60)}
        for a, b in table.pairs.tolist():
            neighbors[a].add(b)
            neighbors[b].add(a)
        for item in range(60):
            got = table.excluded(item)
            np.testing.assert_array_equal(got, np.sort(np.fromiter(neighbors[item], dtype=np.int64)))
            assert not got.flags.writeable
        assert sum(bool(topk_of(table, i)) for i in range(60)) == sum(len(nb) > 1 for nb in neighbors.values())

    def test_negatives_forced_set(self):
        table = CooccurrenceTable([(0, 1)], [1], 4, k=10)
        (negs,) = self.negatives(table, 0, 2, np.random.default_rng(0))
        assert sorted(negs.tolist()) == [2, 3]

    def test_negatives_empty_request(self):
        (negs,) = self.negatives(self.table(), 0, 0, np.random.default_rng(0))
        assert negs.size == 0

    def test_negatives_exclude_neighbors_and_self(self):
        for negs in self.negatives(self.table(), 0, 4, np.random.default_rng(1), rows=200):
            assert len(set(negs.tolist())) == 4
            assert not ({0, 1, 2} & set(negs.tolist()))

    def test_negatives_uniform_over_eligible(self):
        table = self.table()  # eligible for item 0: {3..9}, 7 items
        n_draws = 100_000
        draws = np.concatenate(self.negatives(table, 0, 1, np.random.default_rng(0), rows=n_draws))
        freq = np.bincount(draws, minlength=10) / n_draws
        assert np.all(np.abs(freq[3:] - 1 / 7) < 0.01)
        assert freq[:3].sum() == 0

    def test_negatives_shortfall_returns_whole_eligible_with_warning(self):
        table = CooccurrenceTable([(0, 1), (0, 2)], [1, 1], 4, k=10)
        with pytest.warns(ItemclWarning):
            (negs,) = self.negatives(table, 0, 5, np.random.default_rng(0))
        assert negs.tolist() == [3]


@pytest.mark.parametrize(
    "values",
    [
        np.array([], dtype=np.int64),
        np.array([7]),
        np.array([3, -1, 3, 0, -1, 2**40, 5]),
        np.random.default_rng(0).integers(-1, 50, size=(300, 20)),  # padded histories
        np.random.default_rng(1).integers(0, 10**9, size=5000),
    ],
)
def test_sorted_unique_equals_np_unique(values):
    got = sorted_unique(values)
    expected = np.unique(values)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
