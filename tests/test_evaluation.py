"""Exact retrieval, HIT@N / coverage oracles, and embedding export."""

import numpy as np
import pytest

from itemcl.config import TrainConfig
from itemcl.data import Interaction, assemble_split
from itemcl.evaluation import (
    _top_n,
    evaluate,
    export_embeddings,
    item_matrix,
    load_embeddings,
    retrieve_topn,
)
from itemcl.model import EncodedCatalog, EncodedProfiles, build_meta, init_params, pad_histories, user_tower
from itemcl.synthetic import SyntheticSpec, generate


class TestTopN:
    def test_hand_scores(self):
        assert _top_n(np.array([5.0, 1.0, 3.0]), 2).tolist() == [0, 2]

    def test_ties_take_lower_index(self):
        assert _top_n(np.array([1.0, 2.0, 2.0, 0.5]), 3).tolist() == [1, 2, 0]

    @staticmethod
    def stable_argsort(scores, k):
        return np.argsort(-scores, axis=-1, kind="stable")[..., :k]

    def test_planted_ties_at_the_kth_score_match_stable_argsort(self):
        rng = np.random.default_rng(3)
        n, k = 40, 7
        scores = rng.normal(size=(64, n))
        for row in scores:
            # the k-th highest score repeated at random places, some of
            # them above and some below the indices already in the top k
            kth = np.sort(row)[::-1][k - 1]
            row[rng.choice(n, size=int(rng.integers(1, 6)), replace=False)] = kth
        scores[5] = 1.5  # all equal
        scores[6, ::3] = -np.inf
        np.testing.assert_array_equal(_top_n(scores, k), self.stable_argsort(scores, k))
        for row in scores:
            np.testing.assert_array_equal(_top_n(row, k), self.stable_argsort(row, k))

    def test_few_distinct_values_every_k(self):
        rng = np.random.default_rng(4)
        scores = rng.integers(0, 3, size=(32, 12)).astype(float)
        for k in range(1, 13):  # k = n included
            np.testing.assert_array_equal(_top_n(scores, k), self.stable_argsort(scores, k))

    def test_all_equal_row_is_index_order(self):
        assert _top_n(np.zeros(9), 4).tolist() == [0, 1, 2, 3]
        assert _top_n(np.zeros(9), 9).tolist() == list(range(9))


def random_model(n_items=500, n_users=50, seed=0):
    spec = SyntheticSpec(
        n_users=n_users,
        n_items=n_items,
        n_clusters=min(10, n_items),
        n_interactions=n_users * 12,
        title_dim=6,
        seed=seed,
    )
    data = generate(spec)
    config = TrainConfig(
        behavior_window=5, d_field=4, hidden1=8, hidden2=4, d_out=4, ffn_dim=4, d_proj=4
    )
    meta = build_meta(data.catalog, data.profiles, config.model_dims())
    params = init_params(meta, seed)
    # healthy random weights give a spread of scores
    rng = np.random.default_rng(seed + 1)
    for arr in params.arrays.values():
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    enc = EncodedCatalog(data.catalog, meta)
    prof = EncodedProfiles(data.profiles, meta)
    return data, params, enc, prof


class TestRetrieve:
    def test_matches_full_argsort_oracle(self):
        data, params, enc, prof = random_model()
        items = item_matrix(params, enc)
        history = [3, 10, 2]
        row = prof.rows(["u00001"])
        hist = pad_histories([history], params.meta.dims.behavior_window)
        u, _ = user_tower(params, hist, row)
        scores = items @ u[0]
        oracle = np.argsort(-scores, kind="stable")
        for n in (10, 50):
            got = retrieve_topn(params, enc, history, row[0], n, items=items)
            assert got.tolist() == oracle[:n].tolist()

    def test_n_larger_than_catalog_rejected(self):
        data, params, enc, prof = random_model(n_items=20, n_users=5)
        with pytest.raises(ValueError, match="catalog"):
            retrieve_topn(params, enc, [1], prof.rows(["u00000"])[0], 21)

    def test_cosine_option_changes_ranking_scale_free(self):
        data, params, enc, prof = random_model(n_items=50, n_users=5)
        row = prof.rows(["u00000"])[0]
        by_dot = retrieve_topn(params, enc, [1, 2], row, 10, similarity="dot")
        by_cos = retrieve_topn(params, enc, [1, 2], row, 10, similarity="cosine")
        assert len(by_dot) == len(by_cos) == 10

    def test_history_filter_flag(self):
        data, params, enc, prof = random_model(n_items=50, n_users=5)
        row = prof.rows(["u00000"])[0]
        default = retrieve_topn(params, enc, [1, 2], row, 50)
        assert {1, 2} <= set(default.tolist())  # re-exposure is the default
        filtered = retrieve_topn(params, enc, [1, 2], row, 20, exclude_history=True)
        assert not ({1, 2} & set(filtered.tolist()))


def build_eval_split(data, params, enc, prof, ranks_by_user):
    """Fabricate test interactions hitting chosen ranks of each user's
    actual ranking (independent argsort of the score matrix)."""
    items = item_matrix(params, enc)
    test = []
    window = params.meta.dims.behavior_window
    histories = {}
    for user, ranks in ranks_by_user.items():
        hist = [1, 2]
        histories[user] = hist
        u, _ = user_tower(params, pad_histories([hist], window), prof.rows([user]))
        order = np.argsort(-(items @ u[0]), kind="stable")
        for r in ranks:
            test.append(Interaction(user, int(order[r]), 10_000 + r))
    train = [Interaction(u, h, 1 + i) for u, hist in histories.items() for i, h in enumerate(hist)]
    return assemble_split(train, test, behavior_window=window)


class TestEvaluate:
    def test_rank_zero_hits_everywhere(self):
        data, params, enc, prof = random_model(n_items=100, n_users=4)
        split = build_eval_split(data, params, enc, prof, {"u00000": [0]})
        report = evaluate(params, enc, prof, split, ns=(5, 10, 50))
        assert report.hit == {5: 1.0, 10: 1.0, 50: 1.0}

    def test_rank_sixty_hits_at_100_not_50(self):
        data, params, enc, prof = random_model(n_items=200, n_users=4)
        split = build_eval_split(data, params, enc, prof, {"u00000": [59]})
        report = evaluate(params, enc, prof, split, ns=(50, 100))
        assert report.hit[50] == 0.0
        assert report.hit[100] == 1.0

    def test_fifty_user_fixture_matches_membership_recount(self):
        data, params, enc, prof = random_model(n_items=300, n_users=50, seed=3)
        rng = np.random.default_rng(5)
        split = assemble_split(
            data.interactions[: len(data.interactions) * 4 // 5],
            data.interactions[len(data.interactions) * 4 // 5 :],
            behavior_window=5,
        )
        ns = (10, 50, 100)
        report = evaluate(params, enc, prof, split, ns=ns)

        # independent recount: recompute each user's list, then count
        # membership per interaction
        items = item_matrix(params, enc)
        lists = {}
        for user in {ev.user_id for ev in split.test_interactions}:
            hist = split.behavior_histories.get(user, [])
            u, _ = user_tower(
                params, pad_histories([hist], 5), prof.rows([user])
            )
            lists[user] = np.argsort(-(items @ u[0]), kind="stable")[: max(ns)]
        for n in ns:
            hits = sum(
                1
                for ev in split.test_interactions
                if ev.item_index in set(lists[ev.user_id][:n].tolist())
            )
            assert report.hit[n] == hits / len(split.test_interactions)
        for n in ns:
            covered = set()
            for ranking in lists.values():
                covered.update(int(x) for x in ranking[:n])
            assert report.coverage[n] == len(covered) / 300
        assert report.item_coverage == report.coverage[max(ns)]
        assert report.n_test_users == len(lists)
        assert report.n_test_interactions == len(split.test_interactions)

    def test_hit_monotone_and_coverage_lower_bound(self):
        data, params, enc, prof = random_model(n_items=120, n_users=30, seed=7)
        split = assemble_split(
            data.interactions[:300], data.interactions[300:340], behavior_window=5
        )
        ns = (5, 20, 60)
        report = evaluate(params, enc, prof, split, ns=ns)
        values = [report.hit[n] for n in ns]
        assert values == sorted(values)
        assert report.item_coverage >= max(ns) / 120


class TestPermutationInvariance:
    def test_retrieval_maps_through_catalog_relabeling(self):
        from itemcl.data import Item, ItemCatalog
        from itemcl.model import EncodedProfiles as EP
        from itemcl.model import ModelDims

        rng = np.random.default_rng(2)
        items = [Item(f"i{i}", (f"t{i}",), f"p{i % 3}", None, None) for i in range(12)]
        catalog_a = ItemCatalog(items)
        perm = rng.permutation(12)
        inverse = np.argsort(perm)
        catalog_b = ItemCatalog([items[i] for i in perm])

        dims = ModelDims(d_field=4, tower_dims=(6, 4, 4), behavior_window=4, ffn_dim=4, d_proj=4)
        meta_a = build_meta(catalog_a, None, dims)
        meta_b = build_meta(catalog_b, None, dims)
        params_a = init_params(meta_a, 0)
        for name, arr in params_a.arrays.items():
            arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
            if name.endswith((".b0", ".b1")):
                arr += 0.6  # keep the hidden ReLUs alive so scores are tie-free

        params_b = init_params(meta_b, 0)
        for name, arr in params_a.arrays.items():
            if name == "emb.item_id":
                params_b.arrays[name][:-1] = arr[:-1][perm]
                params_b.arrays[name][-1] = arr[-1]
            elif name == "emb.tags":
                rows = [meta_a.tag_vocab.index(t) for t in meta_b.tag_vocab]
                params_b.arrays[name][:-1] = arr[rows]
                params_b.arrays[name][-1] = arr[-1]
            elif name == "emb.provider":
                rows = [meta_a.provider_vocab.index(p) for p in meta_b.provider_vocab]
                params_b.arrays[name][:-1] = arr[rows]
                params_b.arrays[name][-1] = arr[-1]
            else:
                params_b.arrays[name][...] = arr

        enc_a = EncodedCatalog(catalog_a, meta_a)
        enc_b = EncodedCatalog(catalog_b, meta_b)
        prof_a, prof_b = EP(None, meta_a), EP(None, meta_b)
        history_a = [0, 5, 7]
        history_b = [int(inverse[i]) for i in history_a]
        hist = pad_histories([history_a], 4)
        u, _ = user_tower(params_a, hist, prof_a.rows(["u"]))
        scores = item_matrix(params_a, enc_a) @ u[0]
        assert len(np.unique(scores)) == len(scores)  # tie-free by construction
        top_a = retrieve_topn(params_a, enc_a, history_a, prof_a.row("u"), 6)
        top_b = retrieve_topn(params_b, enc_b, history_b, prof_b.row("u"), 6)
        assert [int(inverse[i]) for i in top_a] == top_b.tolist()


class TestExport:
    def test_format_roundtrip_and_recomputation(self, tmp_path):
        data, params, enc, prof = random_model(n_items=3, n_users=3)
        path = tmp_path / "emb.tsv"
        export_embeddings(params, enc, data.catalog, str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 1 + params.meta.dims.d_out for line in lines)
        again = load_embeddings(str(path), data.catalog)
        fresh = item_matrix(params, enc)
        assert np.abs(again - fresh).max() < 1e-6
