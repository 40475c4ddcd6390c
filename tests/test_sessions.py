"""Session segmentation, co-occurrence mining, and the session samplers."""

import itertools
import re

import numpy as np
import pytest

from itemcl.data import Interaction, assemble_split
from itemcl.sessions import (
    CooccurrenceTable,
    Session,
    SessionPositiveSampler,
    build_cooccurrence,
    count_pairs,
    dump_cooccurrence,
    load_cooccurrence,
    segment_sessions,
)
from itemcl.losses import _batched_negatives
from itemcl.util import ItemclWarning


def split_of(events):
    return assemble_split(events, [], behavior_window=5)


class TestSegmentSessions:
    def test_gap_rule(self):
        events = [Interaction("u", 0, 0), Interaction("u", 1, 100), Interaction("u", 2, 5000)]
        sessions = segment_sessions(split_of(events), 3600)
        assert [s.items for s in sessions] == [[0, 1], [2]]

    def test_gap_equal_to_window_stays_inside(self):
        events = [Interaction("u", 0, 0), Interaction("u", 1, 3600)]
        sessions = segment_sessions(split_of(events), 3600)
        assert [s.items for s in sessions] == [[0, 1]]
        # independent check: brute-force gap scan
        gaps = [3600 - 0]
        assert all(g <= 3600 for g in gaps)

    def test_users_never_mix(self):
        events = [
            Interaction("a", 0, 0),
            Interaction("b", 1, 1),
            Interaction("a", 2, 2),
            Interaction("b", 3, 3),
        ]
        sessions = segment_sessions(split_of(events), 3600)
        assert sorted((s.user_id, tuple(s.items)) for s in sessions) == [
            ("a", (0, 2)),
            ("b", (1, 3)),
        ]

    def test_single_click_sessions_kept(self):
        events = [Interaction("u", 4, 0)]
        sessions = segment_sessions(split_of(events), 3600)
        assert [s.items for s in sessions] == [[4]]


def bruteforce_counts(sessions):
    """Independent double-loop recount over distinct item pairs."""
    counts = {}
    for s in sessions:
        distinct = sorted(set(s.items))
        for i in range(len(distinct)):
            for j in range(i + 1, len(distinct)):
                key = (distinct[i], distinct[j])
                counts[key] = counts.get(key, 0) + 1
    return counts


class TestCooccurrence:
    def test_all_pairs_of_one_session(self):
        table = build_cooccurrence([Session("u", [0, 1, 2])], 3)
        assert table.counts == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_symmetry_accumulates(self):
        table = build_cooccurrence([Session("u", [0, 1]), Session("v", [1, 0])], 2)
        assert table.count(0, 1) == 2
        assert table.count(1, 0) == 2

    def test_duplicates_pair_once_and_no_self_pairs(self):
        table = build_cooccurrence([Session("u", [0, 0, 1, 1])], 2)
        assert table.counts == {(0, 1): 1}
        assert table.count(0, 0) == 0

    def test_thousand_random_sessions_match_bruteforce(self):
        rng = np.random.default_rng(11)
        sessions = [
            Session(f"u{i % 50}", [int(x) for x in rng.integers(0, 40, size=rng.integers(1, 7))])
            for i in range(1000)
        ]
        table = build_cooccurrence(sessions, 40)
        assert table.counts == bruteforce_counts(sessions)

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        sessions = [
            Session("u", [int(x) for x in rng.integers(0, 10, size=4)]) for _ in range(50)
        ]
        shuffled = list(sessions)
        rng.shuffle(shuffled)
        assert build_cooccurrence(sessions, 10).counts == build_cooccurrence(shuffled, 10).counts

    def test_pair_sum_identity_on_repeat_free_sessions(self):
        rng = np.random.default_rng(5)
        sessions = []
        for _ in range(200):
            size = int(rng.integers(1, 6))
            items = rng.choice(30, size=size, replace=False)
            sessions.append(Session("u", [int(x) for x in items]))
        table = build_cooccurrence(sessions, 30)
        expected = sum(len(s.items) * (len(s.items) - 1) // 2 for s in sessions)
        assert sum(table.counts.values()) == expected

    def test_topk_sorted_and_bounded(self):
        sessions = [Session("u", [0, i]) for i in [1, 1, 1, 2, 2, 3]]
        table = build_cooccurrence(sessions, 4, k=2)
        assert table.topk[0] == [(1, 3), (2, 2)]
        assert all(c >= 1 for _, c in itertools.chain.from_iterable(table.topk.values()))

    def test_dump_roundtrip_byte_identical(self, tmp_path):
        from itemcl.data import Item, ItemCatalog

        catalog = ItemCatalog([Item(f"item{chr(ord('z') - i)}") for i in range(5)])
        rng = np.random.default_rng(2)
        sessions = [
            Session("u", [int(x) for x in rng.integers(0, 5, size=3)]) for _ in range(30)
        ]
        table = build_cooccurrence(sessions, 5)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        dump_cooccurrence(table, catalog, str(p1))
        reloaded = load_cooccurrence(str(p1), catalog)
        assert reloaded.counts == table.counts
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
        return CooccurrenceTable({(0, 1): 3, (0, 2): 1}, 10, k=10)

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
        sampler = SessionPositiveSampler(CooccurrenceTable({(0, 1): 5}, 3, k=10))
        rng = np.random.default_rng(0)
        assert sampler.sample_many(np.zeros(50, dtype=np.int64), rng)[1].tolist() == [1] * 50

    def test_isolated_item_signals_no_positive(self):
        sampler = SessionPositiveSampler(self.table())
        anchors, positives = sampler.sample_many(np.array([7, 0, 7, 2]), np.random.default_rng(0))
        assert anchors.tolist() == [0, 2]
        assert positives[0] in (1, 2) and positives[1] == 0

    def test_matches_one_searchsorted_draw_per_anchor(self):
        table = CooccurrenceTable({(0, 1): 3, (0, 2): 1, (1, 2): 7, (3, 4): 2, (2, 5): 5}, 9, k=2)
        anchors = np.random.default_rng(1).integers(0, 9, size=500)
        got_anchors, got = SessionPositiveSampler(table).sample_many(anchors, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        expected_anchors, expected = [], []
        for a in anchors.tolist():
            if a in table.topk:
                cum = np.cumsum([c for _, c in table.topk[a]]).astype(np.float64)
                pos = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
                expected_anchors.append(a)
                expected.append(table.topk[a][min(pos, len(cum) - 1)][0])
        assert got_anchors.tolist() == expected_anchors
        assert got.tolist() == expected

    def test_excluded_is_neighbors_and_self_sorted(self):
        table = CooccurrenceTable({(2, 5): 1, (0, 5): 2, (5, 9): 1}, 10, k=10)
        assert table.excluded(5).tolist() == [0, 2, 5, 9]
        assert table.excluded(5).dtype == np.int64
        assert table.excluded(7).tolist() == [7]

    def test_excluded_matches_the_pair_counts_for_every_item(self):
        rng = np.random.default_rng(12)
        sessions = [  # items 50-59 never co-occur
            Session(f"u{i % 30}", [int(x) for x in rng.integers(0, 50, size=rng.integers(1, 6))])
            for i in range(400)
        ]
        table = build_cooccurrence(sessions, 60)
        neighbors = {i: {i} for i in range(60)}
        for a, b in table.counts:
            neighbors[a].add(b)
            neighbors[b].add(a)
        for item in range(60):
            got = table.excluded(item)
            np.testing.assert_array_equal(got, np.sort(np.fromiter(neighbors[item], dtype=np.int64)))
            assert table.neighbors(item) == neighbors[item] - {item}
            if got.size > 1:
                assert not got.flags.writeable
        assert len(table.topk) == sum(len(nb) > 1 for nb in neighbors.values())

    def test_negatives_forced_set(self):
        table = CooccurrenceTable({(0, 1): 1}, 4, k=10)
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
        table = CooccurrenceTable({(0, 1): 1, (0, 2): 1}, 4, k=10)
        with pytest.warns(ItemclWarning):
            (negs,) = self.negatives(table, 0, 5, np.random.default_rng(0))
        assert negs.tolist() == [3]
