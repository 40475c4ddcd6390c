"""Catalog/interaction ingestion and chronological splitting."""

import codecs
import json
import re

import numpy as np
import pytest

from itemcl.config import parse_config_file
from itemcl.data import (
    ClickLog,
    DataFormatError,
    Interaction,
    assemble_split,
    chronological_split,
    load_catalog,
    load_interactions,
    load_profiles,
    read_lines,
    save_catalog,
)
from itemcl.model import pad_histories
from itemcl.semantics import load_semantic_pool
from itemcl.sessions import load_cooccurrence
from itemcl.util import ItemclWarning


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


CATALOG_3 = (
    '{"item_id": "a", "tags": ["t1"], "provider": "p1", "taxonomy": null, "title_vector": [1.0, 0.0]}\n'
    '{"item_id": "b", "tags": [], "provider": "p2", "taxonomy": "c1", "title_vector": [0.0, 1.0]}\n'
    '{"item_id": "c", "tags": ["t1", "t2"], "provider": "p1", "taxonomy": "c1", "title_vector": null}\n'
)


class TestLoadCatalog:
    def test_three_items_in_file_order(self, tmp_path):
        catalog = load_catalog(write(tmp_path / "cat.jsonl", CATALOG_3))
        assert len(catalog) == 3
        assert catalog.index_of == {"a": 0, "b": 1, "c": 2}
        assert catalog.title_dim == 2

    def test_duplicate_item_id(self, tmp_path):
        body = '{"item_id": "a", "tags": [], "provider": "p"}\n' * 2
        with pytest.raises(DataFormatError, match=r"cat\.jsonl:2: item_id 'a' repeats line 1"):
            load_catalog(write(tmp_path / "cat.jsonl", body))

    @pytest.mark.parametrize("item_id", ["a\tb", "a\nb", "a\rb", "a,b"])
    def test_item_id_that_breaks_a_written_file_names_line(self, tmp_path, item_id):
        # a tab or line break splits a TSV row; a comma splits a semantic pool's positive list
        body = CATALOG_3 + json.dumps({"item_id": item_id, "tags": [], "provider": "p"}) + "\n"
        with pytest.raises(DataFormatError, match=r"cat\.jsonl:4: malformed item row .*tab, line break or comma"):
            load_catalog(write(tmp_path / "cat.jsonl", body))

    def test_malformed_row_names_line(self, tmp_path):
        body = '{"item_id": "a", "tags": [], "provider": "p"}\n{"tags": []}\n'
        with pytest.raises(DataFormatError, match=r":2:"):
            load_catalog(write(tmp_path / "cat.jsonl", body))

    def test_title_dim_mismatch(self, tmp_path):
        body = (
            '{"item_id": "a", "tags": [], "provider": "p", "title_vector": [1.0]}\n'
            '{"item_id": "b", "tags": [], "provider": "p", "title_vector": [1.0, 2.0]}\n'
        )
        with pytest.raises(DataFormatError, match="dimensions"):
            load_catalog(write(tmp_path / "cat.jsonl", body))

    def test_item_without_vector_loads(self, tmp_path):
        catalog = load_catalog(write(tmp_path / "cat.jsonl", CATALOG_3))
        assert catalog[2].title_vector is None
        assert catalog[2].tags == ("t1", "t2")

    def test_roundtrip_preserves_indices(self, tmp_path):
        catalog = load_catalog(write(tmp_path / "cat.jsonl", CATALOG_3))
        save_catalog(catalog, str(tmp_path / "copy.jsonl"))
        again = load_catalog(str(tmp_path / "copy.jsonl"))
        assert again.index_of == catalog.index_of
        assert [i.tags for i in again.items] == [i.tags for i in catalog.items]
        np.testing.assert_array_equal(again[0].title_vector, catalog[0].title_vector)


class TestLoadInteractions:
    def test_basic(self, tmp_path):
        catalog = load_catalog(write(tmp_path / "cat.jsonl", CATALOG_3))
        events = load_interactions(
            write(tmp_path / "ev.tsv", "u1\ta\t100\nu2\tb\t200\n"), catalog
        )
        assert [(e.user_id, e.item_index, e.timestamp) for e in events] == [
            ("u1", 0, 100),
            ("u2", 1, 200),
        ]

    def test_unresolvable_rows_warn_with_count(self, tmp_path):
        catalog = load_catalog(write(tmp_path / "cat.jsonl", CATALOG_3))
        path = write(tmp_path / "ev.tsv", "u1\ta\t1\nu1\tmissing\t2\nu1\tgone\t3\n")
        with pytest.warns(ItemclWarning, match="2"):
            events = load_interactions(path, catalog)
        assert len(events) == 1

    def test_empty_user_id_names_line(self, tmp_path):
        catalog = load_catalog(write(tmp_path / "cat.jsonl", CATALOG_3))
        with pytest.raises(DataFormatError, match=r"ev\.tsv:2: empty user_id"):
            load_interactions(write(tmp_path / "ev.tsv", "u1\ta\t1\n\ta\t100\n"), catalog)

    def test_loads_columns_over_a_sorted_vocabulary(self, tmp_path):
        catalog = load_catalog(write(tmp_path / "cat.jsonl", CATALOG_3))
        log = load_interactions(write(tmp_path / "ev.tsv", "u9\tc\t5\nu10\ta\t1\nu9\tb\t3\n"), catalog)
        assert log.user_ids == ("u10", "u9")
        assert log.user.tolist() == [1, 0, 1]
        assert log.item.tolist() == [2, 0, 1] and log.time.tolist() == [5, 1, 3]

    def test_bad_timestamp_names_line(self, tmp_path):
        catalog = load_catalog(write(tmp_path / "cat.jsonl", CATALOG_3))
        with pytest.raises(DataFormatError, match=r":1:"):
            load_interactions(write(tmp_path / "ev.tsv", "u1\ta\tnotanumber\n"), catalog)


class TestClickLog:
    ROWS = [Interaction("u9", 4, 30), Interaction("u10", 2, 10), Interaction("u9", 1, 20), Interaction("b", 0, 10)]

    def test_vocabulary_is_sorted_when_id_widths_differ(self):
        log = ClickLog.of(self.ROWS)
        assert log.user_ids == ("b", "u10", "u9")
        assert log.user.tolist() == [2, 1, 2, 0]
        again = ClickLog.from_codes(["u9", "u10"], [0, 1, 0], [4, 2, 1], [30, 10, 20])
        assert again.user_ids == ("u10", "u9") and list(again) == self.ROWS[:3]

    def test_int_indices_yield_rows(self):
        log = ClickLog.of(self.ROWS)
        assert log[1] == Interaction("u10", 2, 10)
        assert log[np.int64(2)] == log[np.int32(2)] == log[-2] == Interaction("u9", 1, 20)
        assert type(log[np.int64(0)].item_index) is int and type(log[0].timestamp) is int
        with pytest.raises(IndexError):
            log[4]

    def test_slices_and_index_arrays_share_the_vocabulary(self):
        log = ClickLog.of(self.ROWS)
        tail = log[1:3]
        assert isinstance(tail, ClickLog) and tail.user_ids == log.user_ids
        assert list(tail) == self.ROWS[1:3]
        picked = log[np.array([3, 0])]
        assert list(picked) == [self.ROWS[3], self.ROWS[0]]
        assert picked.users()[0] == ["b", "u9"] and picked.users()[1].tolist() == [0, 1]

    def test_users_match_the_unique_reference(self):
        # two thirds of the vocabulary never click here
        user = np.random.default_rng(0).choice(np.arange(0, 30, 3), size=200)
        names = tuple(f"u{i:02d}" for i in range(30))
        log = ClickLog(user, np.zeros(200, dtype=np.int64), np.arange(200), names)
        codes, expected = np.unique(user, return_inverse=True)
        ids, got = log.users()
        assert ids == [names[c] for c in codes.tolist()] and len(ids) < len(names)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
        assert ClickLog.of([]).users()[0] == [] and ClickLog.of([]).users()[1].size == 0

    def test_iteration_round_trip_and_row_equality(self):
        log = ClickLog.of(self.ROWS)
        assert list(log) == self.ROWS
        assert ClickLog.of(list(log)) == log
        assert ClickLog.of(log) is log
        assert log[:2] == ClickLog.of(self.ROWS[:2])  # vocabularies differ, rows do not
        assert log != ClickLog.of(self.ROWS[::-1])

    def test_empty_log(self):
        log = ClickLog.of([])
        assert len(log) == 0 and list(log) == [] and log.user_ids == ()
        assert len(ClickLog.of(self.ROWS)[2:2]) == 0
        split = assemble_split([], [], behavior_window=3)
        assert len(split.train_interactions) == len(split.test_interactions) == 0
        assert split.behavior_histories == {}
        with pytest.raises(ValueError, match="non-empty"):
            chronological_split(log, split_time=0)


class TestProfiles:
    def test_load(self, tmp_path):
        path = write(
            tmp_path / "p.jsonl",
            '{"user_id": "u1", "fields": {"age": "a30", "geo": "g1"}}\n'
            '{"user_id": "u2", "fields": {"geo": "g2", "age": "a40"}}\n',
        )
        table = load_profiles(path)
        assert table.field_names == ("age", "geo")
        assert table.rows["u2"] == ("a40", "g2")

    def test_schema_mismatch(self, tmp_path):
        path = write(
            tmp_path / "p.jsonl",
            '{"user_id": "u1", "fields": {"age": "a30"}}\n'
            '{"user_id": "u2", "fields": {"geo": "g2"}}\n',
        )
        with pytest.raises(DataFormatError, match=r":2:"):
            load_profiles(path)

    def test_repeated_user_id_names_its_first_line(self, tmp_path):
        path = write(
            tmp_path / "p.jsonl",
            '{"user_id": "u1", "fields": {"age": "a30"}}\n'
            '{"user_id": "u2", "fields": {"age": "a40"}}\n\n'
            '{"user_id": "u1", "fields": {"age": "a50"}}\n',
        )
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}:4: user_id 'u1' repeats line 1")):
            load_profiles(path)


def _catalog_3(tmp_path):
    return load_catalog(write(tmp_path / "fixture_catalog.jsonl", CATALOG_3))


def _read_catalog(path, tmp_path):
    return [
        (it.item_id, it.tags, it.provider, it.taxonomy, None if it.title_vector is None else it.title_vector.tolist())
        for it in load_catalog(path).items
    ]


def _read_interactions(path, tmp_path):
    log = load_interactions(path, _catalog_3(tmp_path))
    return log.user.tolist(), log.item.tolist(), log.time.tolist(), log.user_ids


def _read_profiles(path, tmp_path):
    table = load_profiles(path)
    return table.field_names, table.rows


def _read_cooccurrence(path, tmp_path):
    table = load_cooccurrence(path, _catalog_3(tmp_path))
    return table.pairs.tolist(), table.counts.tolist()


def _read_semantic_pool(path, tmp_path):
    return [p.tolist() for p in load_semantic_pool(path, _catalog_3(tmp_path), "taxonomy").positives]


def _read_config(path, tmp_path):
    return parse_config_file(path)


# reader -> (a valid file of at least two lines, the reader's result as plain values)
TEXT_READERS = {
    "catalog": (CATALOG_3, _read_catalog),
    "interactions": ("u1\ta\t10\nu2\tb\t20\nu1\tc\t30\n", _read_interactions),
    "profiles": (
        '{"user_id": "u1", "fields": {"age": "a30"}}\n{"user_id": "u2", "fields": {"age": "a40"}}\n',
        _read_profiles,
    ),
    "cooccurrence": ("a\tb\t3\na\tc\t1\n", _read_cooccurrence),
    "semantic_pool": ("a\tb,c\nb\t\nc\ta\n", _read_semantic_pool),
    "config": ("train.seed = 3\nloss.tau = 0.5  # comment\ntrain.epochs = 2\n", _read_config),
}

# reader -> (a first line its format rejects, the start of the message naming it)
MALFORMED_FIRST_LINE = {
    "catalog": ("{not json", "malformed item row"),
    "interactions": ("u1\ta", "expected 3 tab-separated fields"),
    "profiles": ('{"user_id": 1, "fields": {}}', "malformed profile row"),
    "cooccurrence": ("a\ta\t1", "item 'a' paired with itself"),
    "semantic_pool": ("a", "expected item_id, a tab and the positives"),
    "config": ("train.seed 3", "expected 'key = value'"),
}

# reader -> the error a line of two tabs raises; the JSONL and config readers skip it
TAB_ONLY_LINE = {
    "interactions": "empty user_id",
    "cooccurrence": "unknown item_id ''",
    "semantic_pool": "unknown item_id ''",
}


class TestTextInput:
    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("reader", sorted(TEXT_READERS))
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, reader, ending):
        text, load = TEXT_READERS[reader]
        lines = text.encode().split(b"\n")
        lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
        path = tmp_path / "bad"
        path.write_bytes(ending.encode().join(lines))
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}:2: not UTF-8 text") + "$"):
            load(str(path), tmp_path)

    @pytest.mark.parametrize("reader", sorted(TEXT_READERS))
    def test_crlf_file_loads_like_lf(self, tmp_path, reader):
        text, load = TEXT_READERS[reader]
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert load(str(crlf), tmp_path) == load(str(lf), tmp_path)

    @pytest.mark.parametrize("reader", sorted(TEXT_READERS))
    def test_byte_order_mark_is_dropped(self, tmp_path, reader):
        text, load = TEXT_READERS[reader]
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        plain.write_bytes(text.encode())
        bom.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert load(str(bom), tmp_path) == load(str(plain), tmp_path)

    @pytest.mark.parametrize("reader", sorted(TEXT_READERS))
    def test_non_utf8_byte_after_byte_order_mark_names_its_line(self, tmp_path, reader):
        text, load = TEXT_READERS[reader]
        lines = text.encode().split(b"\n")
        lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
        path = tmp_path / "bad"
        path.write_bytes(codecs.BOM_UTF8 + b"\n".join(lines))
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}:2: not UTF-8 text") + "$"):
            load(str(path), tmp_path)
        path.write_bytes(codecs.BOM_UTF8 + b"\xff" + text.encode())
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}:1: not UTF-8 text") + "$"):
            load(str(path), tmp_path)

    @pytest.mark.parametrize("reader", sorted(TEXT_READERS))
    def test_malformed_line_ahead_of_a_non_utf8_byte_is_named_first(self, tmp_path, reader):
        text, load = TEXT_READERS[reader]
        bad_line, message = MALFORMED_FIRST_LINE[reader]
        lines = text.encode().split(b"\n")
        path = tmp_path / "bad"
        path.write_bytes(b"\n".join([bad_line.encode(), lines[0], lines[1][:3] + b"\xff" + lines[1][3:]]) + b"\n")
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}:1: {message}")):
            load(str(path), tmp_path)

    @pytest.mark.parametrize("reader", sorted(TEXT_READERS))
    def test_tab_only_line_is_skipped_by_jsonl_and_config_and_rejected_by_tsv(self, tmp_path, reader):
        text, load = TEXT_READERS[reader]
        first, rest = text.split("\n", 1)
        plain, tabs = tmp_path / "plain", tmp_path / "tabs"
        plain.write_text(text, encoding="utf-8")
        tabs.write_text(f"{first}\n\t\t\n{rest}", encoding="utf-8")
        if reader not in TAB_ONLY_LINE:
            assert load(str(tabs), tmp_path) == load(str(plain), tmp_path)
            return
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{tabs}:2: {TAB_ONLY_LINE[reader]}")):
            load(str(tabs), tmp_path)

    def test_line_count_takes_every_ending_and_reaches_past_the_read_ahead(self, tmp_path):
        path = tmp_path / "mixed"
        # 1: "a\r", 2: "b\r\n", 3: "c\n", then 5000 lines ahead of the bad byte
        path.write_bytes(b"a\rb\r\nc\n" + b"0123456789\n" * 5000 + b"ok \xc3( here\n")
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}:5004: not UTF-8 text") + "$"):
            list(read_lines(str(path)))
        path.write_bytes(b"a\rb\r\nc\n\xe2\x82")  # a sequence cut short at the end of the file
        lines = read_lines(str(path))
        assert [next(lines) for _ in range(3)] == [(1, "a"), (2, "b"), (3, "c")]
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}:4: not UTF-8 text") + "$"):
            next(lines)


def ev(user, item, ts):
    return Interaction(user, item, ts)


def rows(clicks):
    return [(e.user_id, e.item_index, e.timestamp) for e in clicks]


def reference_split(events, split_time, window):
    """Brute force: stable sort, two filters, per-user append then trim."""
    ordered = sorted(events, key=lambda e: e.timestamp)
    train = [e for e in ordered if e.timestamp < split_time]
    test = [e for e in ordered if e.timestamp >= split_time]
    histories = {}
    for e in train:
        histories.setdefault(e.user_id, []).append(e.item_index)
    return train, test, {user: items[-window:] for user, items in histories.items()}


def shuffled_clicks_with_ties(seed):
    """Clicks on few distinct timestamps, so ties span users, in shuffled
    order; user "late" clicks only at or after 900."""
    rng = np.random.default_rng(seed)
    events = [ev(f"u{int(rng.integers(12))}", int(rng.integers(50)), int(rng.integers(60)) * 20) for _ in range(600)]
    events += [ev("late", 7, 900), ev("late", 8, 1100)]
    return [events[i] for i in rng.permutation(len(events))]


class TestChronologicalSplit:
    def test_four_events_split_at_three(self):
        events = [ev("u", 0, 1), ev("u", 1, 2), ev("u", 2, 3), ev("u", 3, 4)]
        split = chronological_split(events, split_time=3)
        assert [e.timestamp for e in split.train_interactions] == [1, 2]
        assert [e.timestamp for e in split.test_interactions] == [3, 4]

    def test_history_keeps_last_window_most_recent_last(self):
        events = [ev("u", i, 100 + i) for i in range(25)] + [ev("v", 0, 99_999)]
        split = chronological_split(events, split_time=10_000, behavior_window=20)
        assert split.behavior_histories["u"] == list(range(5, 25))

    def test_all_before_split_warns_empty_test(self):
        events = [ev("u", 0, 1), ev("u", 1, 2)]
        with pytest.warns(ItemclWarning, match="empty test"):
            split = chronological_split(events, split_time=100)
        assert len(split.test_interactions) == 0

    def test_test_only_user_gets_no_history(self):
        events = [ev("u1", 0, 1), ev("u2", 1, 50)]
        split = chronological_split(events, split_time=10)
        assert "u2" not in split.behavior_histories

    def test_tie_timestamps_resolved_by_input_order(self):
        events = [ev("u", 3, 5), ev("u", 1, 5), ev("u", 2, 5), ev("u", 0, 200)]
        split = chronological_split(events, split_time=100)
        assert [e.item_index for e in split.train_interactions] == [3, 1, 2]

    def test_history_matches_bruteforce_per_user_sort(self):
        rng = np.random.default_rng(7)
        users = [f"u{i}" for i in range(40)]
        events = [
            ev(users[int(rng.integers(40))], int(rng.integers(200)), int(rng.integers(10_000)))
            for _ in range(5000)
        ]
        window = 20
        split = chronological_split(events, split_time=8000, behavior_window=window)

        # independent oracle: stable per-user sort of the raw train events
        per_user = {}
        for pos, e in enumerate(events):
            if e.timestamp < 8000:
                per_user.setdefault(e.user_id, []).append((e.timestamp, pos, e.item_index))
        for user, rows in per_user.items():
            rows.sort(key=lambda r: (r[0], r[1]))
            expected = [r[2] for r in rows][-window:]
            assert split.behavior_histories[user] == expected

    @pytest.mark.parametrize("presorted", [False, True])
    def test_shuffled_ties_match_bruteforce_reference(self, presorted):
        events = shuffled_clicks_with_ties(3)
        if presorted:
            events = sorted(events, key=lambda e: e.timestamp)
        window = 6
        split = chronological_split(events, split_time=900, behavior_window=window)
        train, test, histories = reference_split(events, 900, window)
        # rows are yielded, not stored: tied clicks keep their input order as tuples
        assert rows(split.train_interactions) == rows(train)
        assert rows(split.test_interactions) == rows(test)
        assert split.behavior_histories == histories
        assert list(split.behavior_histories) == list(histories)
        assert "late" not in split.behavior_histories and any(e.user_id == "late" for e in test)


class TestAssembleSplit:
    @pytest.mark.parametrize("window", [0, -1])
    def test_nonpositive_window_rejected_by_both_builders(self, window):
        events = [ev("u", 0, 1), ev("u", 1, 2), ev("u", 2, 3)]
        with pytest.raises(ValueError, match="behavior_window must be positive"):
            assemble_split(events[:2], events[2:], behavior_window=window)
        with pytest.raises(ValueError, match="behavior_window must be positive"):
            chronological_split(events, split_time=3, behavior_window=window)

    def test_orders_each_side_and_shares_the_history_rule(self):
        events = shuffled_clicks_with_ties(4)
        train_in = [e for e in events if e.timestamp < 900]
        test_in = [e for e in events if e.timestamp >= 900]
        split = assemble_split(train_in, test_in, behavior_window=6)
        train, test, histories = reference_split(events, 900, 6)
        assert rows(split.train_interactions) == rows(train)
        assert rows(split.test_interactions) == rows(test)
        assert split.behavior_histories == histories
        assert list(split.behavior_histories) == list(histories)


class TestHistories:
    WINDOW = 6

    def split(self):
        """Twelve users with more train clicks than the window, two with
        fewer, and "late", who clicks only on the test side."""
        events = shuffled_clicks_with_ties(5) + [ev("short1", 3, 40), ev("short2", 4, 60), ev("short2", 5, 80)]
        return events, chronological_split(events, split_time=900, behavior_window=self.WINDOW)

    @pytest.mark.parametrize("width", [1, 4, 6, 9])
    def test_padded_equals_pad_histories_of_get(self, width):
        _, split = self.split()
        histories = split.behavior_histories
        rng = np.random.default_rng(width)
        asked = [*histories, "late", "nobody"]
        asked = [asked[i] for i in rng.integers(len(asked), size=60)]  # unsorted, with repeats
        assert {"short1", "short2", "late"} <= set(asked)
        expected = pad_histories([histories.get(u, []) for u in asked], width)
        got = histories.padded(asked, width)
        assert got.dtype == expected.dtype and got.shape == (60, width)
        np.testing.assert_array_equal(got, expected)
        # the split's window caps the history whatever the width
        assert (got >= 0).sum(axis=1).max() == min(width, self.WINDOW)

    def test_empty_train_side(self):
        split = assemble_split([], [ev("u", 1, 5)], behavior_window=3)
        histories = split.behavior_histories
        assert len(histories) == 0 and histories.get("u") is None
        np.testing.assert_array_equal(histories.padded(["u", "v", "u"], 4), np.full((3, 4), -1))
        assert histories.padded([], 4).shape == (0, 4)

    def test_mapping_behavior(self):
        events, split = self.split()
        histories = split.behavior_histories
        _, _, reference = reference_split(events, 900, self.WINDOW)
        assert histories == reference
        assert list(histories) == list(reference)  # users in order of first train click
        assert len(histories) == len(reference) == 14
        assert "short2" in histories and "late" not in histories and 7 not in histories
        assert histories["short2"] == [4, 5]
        assert histories.get("late") is None and histories.get("late", []) == []
        with pytest.raises(KeyError):
            histories["late"]
        histories["short2"].append(9)  # each lookup is a fresh list
        assert histories["short2"] == [4, 5]

    def test_rows_hold_every_train_click_read_only(self):
        events, split = self.split()
        histories = split.behavior_histories
        row = histories.row_of["u3"]
        ordered = sorted(events, key=lambda e: e.timestamp)
        full = [e.item_index for e in ordered if e.user_id == "u3" and e.timestamp < 900]
        assert len(full) > self.WINDOW
        assert histories.column[histories.offsets[row] : histories.offsets[row + 1]].tolist() == full
        assert histories["u3"] == full[-self.WINDOW :]
        for arr in (histories.offsets, histories.column):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
