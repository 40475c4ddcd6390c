"""Semantic positive mining (title k-NN and taxonomy) and its sampler."""

import re

import numpy as np
import pytest

from itemcl.data import Item, ItemCatalog
from itemcl.semantics import (
    dump_semantic_pool,
    load_semantic_pool,
    mine_semantic_pool,
    mine_taxonomy,
    mine_title_knn,
)
from itemcl.losses import _batched_negatives
from itemcl.util import ItemclWarning


def catalog_with_vectors(vectors, taxonomies=None):
    items = []
    for i, v in enumerate(vectors):
        taxonomy = taxonomies[i] if taxonomies else None
        vec = None if v is None else np.asarray(v, dtype=float)
        items.append(Item(f"i{i}", (), "p", taxonomy, vec))
    return ItemCatalog(items)


def bruteforce_knn(catalog, k):
    """Independent all-pairs cosine scan."""
    usable = [
        i
        for i in range(len(catalog))
        if catalog[i].title_vector is not None and np.linalg.norm(catalog[i].title_vector) > 0
    ]
    out = {i: [] for i in range(len(catalog))}
    for q in usable:
        vq = catalog[q].title_vector
        scored = []
        for c in usable:
            if c == q:
                continue
            vc = catalog[c].title_vector
            cos = float(vq @ vc / (np.linalg.norm(vq) * np.linalg.norm(vc)))
            scored.append((-cos, c))
        scored.sort()
        out[q] = [c for _, c in scored[:k]]
    return out


class TestTitleKnn:
    def test_three_items_with_tie_broken_to_lower_index(self):
        catalog = catalog_with_vectors([(1, 0), (1, 0), (0, 1)])
        pool = mine_title_knn(catalog, k=1)
        assert pool.positives[0].tolist() == [1]
        assert pool.positives[1].tolist() == [0]
        assert pool.positives[2].tolist() == [0]  # cosine ties at 0 -> lower index

    def test_item_without_vector_is_excluded(self):
        catalog = catalog_with_vectors([(1, 0), (0.9, 0.1), None])
        pool = mine_title_knn(catalog, k=2)
        assert pool.positives[2].size == 0
        assert 2 not in pool.positives[0].tolist()

    def test_zero_vector_excluded_with_warning(self):
        catalog = catalog_with_vectors([(1, 0), (0, 1), (0, 0)])
        with pytest.warns(ItemclWarning, match="zero"):
            pool = mine_title_knn(catalog, k=2)
        assert pool.positives[2].size == 0
        assert all(2 not in p.tolist() for p in pool.positives)

    def test_matches_bruteforce_on_200_random_vectors(self):
        rng = np.random.default_rng(42)
        vectors = rng.normal(size=(200, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        catalog = catalog_with_vectors([tuple(v) for v in vectors])
        pool = mine_title_knn(catalog, k=5)
        oracle = bruteforce_knn(catalog, 5)
        for i in range(200):
            assert pool.positives[i].tolist() == oracle[i]

    def test_matches_bruteforce_on_a_tie_heavy_4k_catalog(self):
        # 4000 items over 1500 title patterns with four entries of +-1, so
        # every cosine is an exact multiple of 1/4: nine levels, with
        # duplicates at 1, and the same bits whatever order BLAS sums in
        rng = np.random.default_rng(11)
        n, k = 4000, 10
        patterns = np.zeros((1500, 16))
        for row in patterns:
            row[rng.choice(16, size=4, replace=False)] = rng.choice([-1.0, 1.0], size=4)
        vectors = patterns[rng.integers(0, 1500, size=n)]
        pool = mine_title_knn(catalog_with_vectors(vectors), k)
        for lo in range(0, n, 500):
            sims = vectors[lo : lo + 500] @ vectors.T
            sims[np.arange(sims.shape[0]), lo + np.arange(sims.shape[0])] = -np.inf
            oracle = np.argsort(-sims, axis=1, kind="stable")[:, :k]
            for i, expected in enumerate(oracle, start=lo):
                assert pool.positives[i].tolist() == expected.tolist(), f"item {i}"

    def test_every_positive_dominates_every_outsider(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(60, 4))
        catalog = catalog_with_vectors([tuple(v) for v in vectors])
        pool = mine_title_knn(catalog, k=4)
        unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        sims = unit @ unit.T
        for i in range(60):
            inside = set(pool.positives[i].tolist())
            outside = set(range(60)) - inside - {i}
            worst_in = min(sims[i, j] for j in inside)
            best_out = max(sims[i, m] for m in outside)
            assert worst_in >= best_out - 1e-9

    def test_no_positive_list_contains_owner(self):
        rng = np.random.default_rng(3)
        catalog = catalog_with_vectors([tuple(v) for v in rng.normal(size=(30, 5))])
        pool = mine_title_knn(catalog, k=6)
        assert all(i not in pool.positives[i].tolist() for i in range(30))


class TestTaxonomy:
    def test_groups(self):
        catalog = catalog_with_vectors([None] * 4, taxonomies=["g1", "g1", "g1", "g2"])
        pool = mine_taxonomy(catalog)
        assert sorted(pool.positives[0].tolist()) == [1, 2]
        assert pool.positives[3].size == 0  # alone in its group

    def test_all_items_one_group(self):
        catalog = catalog_with_vectors([None] * 4, taxonomies=["g"] * 4)
        pool = mine_taxonomy(catalog)
        assert all(p.size == 3 for p in pool.positives)

    def test_missing_taxonomy_gives_empty(self):
        catalog = catalog_with_vectors([None] * 3, taxonomies=["g", None, "g"])
        pool = mine_taxonomy(catalog)
        assert pool.positives[1].size == 0

    def test_cap_without_rng_rejected(self):
        catalog = catalog_with_vectors([None] * 4, taxonomies=["g"] * 4)
        with pytest.raises(ValueError, match="cap needs rng"):
            mine_taxonomy(catalog, cap=2)

    def test_large_group_capped_by_subsample(self):
        catalog = catalog_with_vectors([None] * 1000, taxonomies=["g"] * 1000)
        pool = mine_taxonomy(catalog, cap=50, rng=np.random.default_rng(0))
        members = set(range(1000))
        for i in range(1000):
            chosen = pool.positives[i].tolist()
            assert len(chosen) == 50
            assert len(set(chosen)) == 50
            assert set(chosen) <= members - {i}


def negatives(pool, item, k, rng, rows=1):
    """Semantic negatives as training draws them: rows of the one batched
    sampler over the item's exclusion rule."""
    return _batched_negatives(pool.n_items, [pool.excluded(item)] * rows, k, rng)


def test_unknown_source_rejected():
    # a misspelled source once fell through to the taxonomy miner
    catalog = catalog_with_vectors([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], ["a", "a", "b"])
    with pytest.raises(ValueError, match="'titel_knn'"):
        mine_semantic_pool(catalog, "titel_knn", 3, 0)


class TestSemanticNegatives:
    def test_excluded_is_positives_and_self_sorted(self):
        from itemcl.semantics import SemanticPositivePool

        pool = SemanticPositivePool([np.array([4, 1]), np.array([], dtype=np.int64)] + [np.array([0])] * 3, "taxonomy")
        assert pool.excluded(0).tolist() == [0, 1, 4]
        assert pool.excluded(0).dtype == np.int64
        assert pool.excluded(1).tolist() == [1]
        assert pool.excluded(3).tolist() == [0, 3]
        assert not pool.excluded(0).flags.writeable

    @pytest.mark.parametrize("source", ["title_knn", "taxonomy", "loaded"])
    def test_excluded_is_built_once_and_matches_the_per_anchor_sort(self, source, tmp_path):
        rng = np.random.default_rng(9)
        taxonomies = [f"g{int(g)}" if g < 4 else None for g in rng.integers(0, 5, size=30)]
        catalog = catalog_with_vectors([tuple(v) for v in rng.normal(size=(30, 4))], taxonomies)
        pool = mine_taxonomy(catalog) if source == "taxonomy" else mine_title_knn(catalog, k=4)
        if source == "loaded":
            dump_semantic_pool(pool, catalog, str(tmp_path / "pool.tsv"))
            pool = load_semantic_pool(str(tmp_path / "pool.tsv"), catalog, "title_knn")
        for item in range(30):
            got = pool.excluded(item)
            np.testing.assert_array_equal(got, np.sort(np.append(pool.positives[item], item)))
            assert got.dtype == np.int64 and not got.flags.writeable
            assert np.shares_memory(got, pool.excluded(item))

    def test_forced(self):
        catalog = catalog_with_vectors([None] * 3, taxonomies=["g", "g", None])
        pool = mine_taxonomy(catalog)  # positives[0] = {1}
        (negs,) = negatives(pool, 0, 1, np.random.default_rng(0))
        assert negs.tolist() == [2]

    def test_shortfall_warns(self):
        catalog = catalog_with_vectors([None] * 3, taxonomies=["g", "g", None])
        pool = mine_taxonomy(catalog)
        with pytest.warns(ItemclWarning):
            (negs,) = negatives(pool, 0, 5, np.random.default_rng(0))
        assert negs.tolist() == [2]

    def test_uniformity(self):
        catalog = catalog_with_vectors([None] * 10, taxonomies=["g", "g", "g"] + [None] * 7)
        pool = mine_taxonomy(catalog)  # for item 0: excluded {0,1,2}
        n_draws = 100_000
        draws = np.concatenate(negatives(pool, 0, 1, np.random.default_rng(1), rows=n_draws))
        freq = np.bincount(draws, minlength=10) / n_draws
        assert np.all(np.abs(freq[3:] - 1 / 7) < 0.01)
        assert freq[:3].sum() == 0


class TestDump:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(20, 4))
        catalog = catalog_with_vectors([tuple(v) for v in vectors])
        pool = mine_title_knn(catalog, k=3)
        path = tmp_path / "pool.tsv"
        dump_semantic_pool(pool, catalog, str(path))
        again = load_semantic_pool(str(path), catalog, pool.source)
        for i in range(20):
            assert again.positives[i].tolist() == pool.positives[i].tolist()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("zz\ta", "unknown item_id 'zz'"),
            ("a\tb,zz", "unknown item_id 'zz'"),
            ("a\tb,a", "item 'a' listed as its own positive"),
            ("c\ta", "item 'c' repeats line 1"),
            ("c", "item 'c' repeats line 1"),
            ("b", "expected item_id, a tab and the positives"),
            ("a\tb,c,b", "positive 'b' listed twice"),
            (" ", "unknown item_id ' '"),
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        from itemcl.data import DataFormatError

        catalog = ItemCatalog([Item("a"), Item("b"), Item("c")])
        path = tmp_path / "pool.tsv"
        path.write_text(f"c\tb\n\n{row}\n")
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}:3: {message}")):
            load_semantic_pool(str(path), catalog, "taxonomy")
