"""The benchmark's recounts on hand-worked inputs, and the planted errors
each check must catch.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import os
import sys

import numpy as np

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import oracles  # noqa: E402
from itemcl.data import Interaction, Item, ItemCatalog, assemble_split  # noqa: E402
from itemcl.semantics import mine_title_knn  # noqa: E402
from itemcl.sessions import build_cooccurrence, segment_sessions  # noqa: E402
from itemcl.sampling import sample_distinct_rows  # noqa: E402

# user 0: item 0 at t=0, item 1 at t=100, item 2 at t=3700 (gap exactly the
# window, same session), item 0 at t=7301 (gap 3601, new session).
# user 1: item 1 twice, then item 2, all in one session.
USERS = np.array([0, 0, 0, 0, 1, 1, 1])
ITEMS = np.array([0, 1, 2, 0, 1, 1, 2])
STAMPS = np.array([0, 100, 3700, 7301, 0, 10, 20])
WINDOW = 3600


def _program_table(window):
    clicks = [Interaction(f"u{u}", int(i), int(t)) for u, i, t in zip(USERS, ITEMS, STAMPS)]
    split = assemble_split(clicks, [], behavior_window=20)
    return build_cooccurrence(segment_sessions(split, window), n_items=3)


def test_cooccurrence_recount_matches_hand_count():
    sessions = oracles.session_ids(USERS, STAMPS, WINDOW)
    assert list(sessions) == [0, 0, 0, 1, 2, 2, 2]
    counts = oracles.cooccurrence_matrix(sessions, ITEMS, 3).toarray()
    assert counts.tolist() == [[0, 1, 1], [1, 0, 2], [1, 2, 0]]


def test_cooccurrence_check_agrees_with_program_and_catches_planted_errors():
    rng = np.random.default_rng(0)
    table = _program_table(WINDOW)
    assert oracles.check_cooccurrence(table.count, USERS, ITEMS, STAMPS, WINDOW, 3, rng) is None

    def off_by_one(a, b):
        return table.count(a, b) + (1 if {a, b} == {1, 2} else 0)

    assert oracles.check_cooccurrence(off_by_one, USERS, ITEMS, STAMPS, WINDOW, 3, rng) is not None
    # a session rule that splits at a gap equal to the window loses pair (0, 2)
    strict = _program_table(WINDOW - 1)
    assert oracles.check_cooccurrence(strict.count, USERS, ITEMS, STAMPS, WINDOW, 3, rng) is not None


# rows 3 and 5 point the same way as row 0 (an exact tie); row 4 is zero
VECTORS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 0.0], [3.0, 0.0]])


def test_title_knn_recount_matches_hand_lists():
    lists, _ = oracles.title_knn(VECTORS, np.array([0, 2, 4]), k=3)
    assert lists[0].tolist() == [3, 5, 2]  # tie between 3 and 5 goes to the lower index
    assert lists[1].tolist() == [0, 1, 3]  # 0, 1, 3 and 5 all tie at 1/sqrt(2)
    assert lists[2].tolist() == []  # a zero vector takes no part


def test_title_knn_check_agrees_with_program_and_catches_planted_errors():
    catalog = ItemCatalog([Item(f"i{i}", title_vector=v) for i, v in enumerate(VECTORS)])
    pool = mine_title_knn(catalog, k=3)
    queries = np.array([0, 1, 2, 3, 4, 5])
    assert oracles.check_title_knn(pool.positives, VECTORS, 3, queries) is None

    reversed_tie = list(pool.positives)
    reversed_tie[0] = np.array([5, 3, 2])
    assert oracles.check_title_knn(reversed_tie, VECTORS, 3, queries) is not None
    wrong_item = list(pool.positives)
    wrong_item[0] = np.array([3, 5, 1])
    assert oracles.check_title_knn(wrong_item, VECTORS, 3, queries) is not None


def test_same_ranking_forgives_rounding_but_not_tie_order():
    scores = np.array([0.5, 0.9, 0.9 - 1e-15, 0.9, 0.1])
    assert oracles.same_ranking(np.array([1, 2]), np.array([1, 2]), scores)
    assert oracles.same_ranking(np.array([1, 3]), np.array([1, 2]), scores)  # within rounding
    assert not oracles.same_ranking(np.array([1, 3]), np.array([3, 1]), scores)  # exact tie reversed
    assert not oracles.same_ranking(np.array([1, 3]), np.array([1, 0]), scores)  # a worse item


def test_topn_hand_example():
    assert oracles.topn(np.array([0.5, 0.9, 0.9, 0.1]), 3).tolist() == [[1, 2, 0]]


# scores of items 0..3 for user a = (1, 0) are 1, 0, .5, -1; for b = (0, 1)
# they are 0, 1, .5, 0. Top 2: a -> {0, 2}, b -> {1, 2}.
ITEM_MATRIX = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 0.0]])
USER_VECS = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
TEST_PAIRS = [("a", 0), ("a", 1), ("b", 2), ("c", 3)]  # user c has no list


def test_hit_and_coverage_hand_count():
    lists = {"a": np.array([0, 2]), "b": np.array([1, 2])}
    assert oracles.hit_and_coverage(lists, TEST_PAIRS, 2) == (2, 3)
    assert oracles.hit_and_coverage(lists, TEST_PAIRS, 1) == (1, 2)


def test_hit_coverage_check_catches_planted_errors():
    assert oracles.check_hit_coverage(0.5, 0.75, USER_VECS, ITEM_MATRIX, TEST_PAIRS, 2) is None
    assert oracles.check_hit_coverage(0.75, 0.75, USER_VECS, ITEM_MATRIX, TEST_PAIRS, 2) is not None
    assert oracles.check_hit_coverage(0.5, 1.0, USER_VECS, ITEM_MATRIX, TEST_PAIRS, 2) is not None


def test_topn_violation_accepts_the_top_list_and_names_each_planted_error():
    scores = np.array([0.2, 0.9, 0.5, 0.9, 0.1])
    assert oracles.topn_violation(scores, np.array([1, 3, 2]), 3) is None
    assert "ascending" in oracles.topn_violation(scores, np.array([3, 1, 2]), 3)
    assert "above the n-th" in oracles.topn_violation(scores, np.array([1, 3, 0]), 3)
    assert "repeated" in oracles.topn_violation(scores, np.array([1, 1, 2]), 3)
    assert "expected 3" in oracles.topn_violation(scores, np.array([1, 3]), 3)
    assert "non-increasing" in oracles.topn_violation(scores, np.array([1, 2, 3]), 3)
    boundary = np.array([0.9, 0.5, 0.5])
    assert oracles.topn_violation(boundary, np.array([0, 1]), 2) is None
    assert "lower-index" in oracles.topn_violation(boundary, np.array([0, 2]), 2)


def test_negative_sampler_property_holds_for_program_and_catches_planted_errors():
    mask = np.zeros((50, 30), dtype=bool)
    mask[:, :10] = True
    drawn = sample_distinct_rows(30, 5, np.random.default_rng(0), exclude_mask=mask)
    excluded = [np.arange(10)] * 50
    assert oracles.negative_violations(list(drawn), excluded, 5, 30) == 0

    planted = [row.copy() for row in drawn]
    planted[0][0] = 3  # an excluded item
    planted[1][1] = planted[1][0]  # a repeat
    planted[2] = planted[2][:4]  # a short row
    assert oracles.negative_violations(planted, excluded, 5, 30) == 3
    # a row with fewer eligible items than k must hold all of them
    assert oracles.negative_violations([np.array([2, 3])], [np.array([0, 1])], 5, 4) == 0


def test_match_negatives_avoid_the_positive():
    pos = np.array([0, 1, 1, 2])
    negs = oracles.draw_match_negatives(pos, 3, 50, np.random.default_rng(0))
    assert negs.shape == (4, 50)
    assert not (negs == pos[:, None]).any()
