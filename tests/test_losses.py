"""Loss values against closed forms and independent scalar recomputation."""

import math
import warnings

import numpy as np
import pytest

import itemcl.losses as losses
from itemcl.losses import (
    _batched_negatives,
    ContrastiveBatch,
    ItemPass,
    JointLossInputs,
    MatchBatch,
    infonce_terms,
    loss_feature_cl,
    loss_joint,
    loss_matching,
    loss_semantic_cl,
    loss_session_cl,
)
from itemcl.model import embed_items, item_tower
from itemcl.rng import substream
from itemcl.sampling import sample_distinct_rows
from itemcl.sessions import CooccurrenceTable, SessionPositiveSampler
from itemcl.util import ItemclWarning


def scalar_infonce(pos, negs, tau, include_positive=True):
    """Independent direct recomputation of one contrastive term."""
    denom = (math.exp(pos / tau) if include_positive else 0.0) + sum(
        math.exp(n / tau) for n in negs
    )
    return -math.log(math.exp(pos / tau) / denom)


class TestInfonceCore:
    def test_uniform_scores_equal_log_k_plus_one(self):
        for k in (10, 20, 50):
            values, _, _ = infonce_terms(
                np.zeros(3), np.zeros((3, k)), np.full(3, k), tau=1.0
            )
            np.testing.assert_allclose(values, math.log(k + 1), rtol=0, atol=1e-9)

    def test_two_way_uniform_is_log_two(self):
        values, _, _ = infonce_terms(np.zeros(1), np.zeros((1, 1)), np.ones(1, dtype=int), 1.0)
        assert abs(values[0] - math.log(2)) < 1e-12

    def test_softplus_closed_form(self):
        values, _, _ = infonce_terms(np.array([1.0]), np.array([[0.0]]), np.ones(1, dtype=int), 1.0)
        assert abs(values[0] - math.log(1 + math.exp(-1))) < 1e-12
        assert abs(values[0] - 0.3132616875) < 1e-9

    def test_dominant_positive_drives_value_to_zero(self):
        values, _, _ = infonce_terms(np.array([200.0]), np.array([[0.0, 1.0]]), np.array([2]), 1.0)
        assert values[0] < 1e-80

    def test_matches_scalar_oracle_across_temperatures(self, rng):
        pos = rng.normal(size=6)
        negs = rng.normal(size=(6, 4))
        counts = np.full(6, 4)
        for tau in (1.0, 0.5, 2.0):
            for include in (True, False):
                values, _, _ = infonce_terms(pos, negs, counts, tau, include)
                expected = [
                    scalar_infonce(pos[i], negs[i], tau, include) for i in range(6)
                ]
                np.testing.assert_allclose(values, expected, atol=1e-10)

    def test_probabilities_sum_to_one(self, rng):
        pos = rng.normal(size=5)
        negs = rng.normal(size=(5, 7))
        counts = np.full(5, 7)
        tau = 0.7
        _, dpos, dneg = infonce_terms(pos, negs, counts, tau)
        p_total = (1.0 + tau * dpos) + tau * dneg.sum(axis=1)
        np.testing.assert_allclose(p_total, 1.0, atol=1e-12)

    def test_monotonicity(self):
        base, _, _ = infonce_terms(np.array([0.5]), np.array([[0.0, 0.2]]), np.array([2]), 1.0)
        higher_pos, _, _ = infonce_terms(np.array([0.6]), np.array([[0.0, 0.2]]), np.array([2]), 1.0)
        higher_neg, _, _ = infonce_terms(np.array([0.5]), np.array([[0.1, 0.2]]), np.array([2]), 1.0)
        assert higher_pos[0] < base[0] < higher_neg[0]

    def test_extreme_scores_stay_finite(self):
        values, dpos, dneg = infonce_terms(
            np.array([1000.0, -1000.0]), np.array([[900.0], [-900.0]]), np.ones(2, dtype=int), 1.0
        )
        assert np.all(np.isfinite(values)) and values.min() >= 0
        assert np.all(np.isfinite(dpos)) and np.all(np.isfinite(dneg))


def pin_negatives(monkeypatch, *rows):
    """Substitute the one negative draw: every call returns ``rows``, one
    per anchor in draw order."""

    def draw(n_items, exclusion_lists, k, rng):
        assert len(exclusion_lists) == len(rows)
        return [np.asarray(row, dtype=np.int64) for row in rows]

    monkeypatch.setattr(losses, "_batched_negatives", draw)


def spy_negatives(monkeypatch):
    """Record the arguments and result of every negative draw."""
    calls = []
    original = losses._batched_negatives

    def spy(n_items, exclusion_lists, k, rng):
        calls.append((exclusion_lists, original(n_items, exclusion_lists, k, rng)))
        return calls[-1][1]

    monkeypatch.setattr(losses, "_batched_negatives", spy)
    return calls


def zero_out(params, prefixes):
    p = params.copy()
    for name in p.arrays:
        if name.startswith(prefixes):
            p.arrays[name][...] = 0.0
    return p


class TestLossMatching:
    def test_two_way_uniform_case(self, tiny):
        params = zero_out(tiny["params"], ("item_tower.", "user_tower."))
        batch = MatchBatch(
            user_rows=np.array([0]),
            histories=tiny["match"].histories[:1],
            profile_idx=tiny["match"].profile_idx[:1],
            pos_items=np.array([1]),
            neg_items=np.array([[3]]),
        )
        value, _ = loss_matching(params, tiny["enc"], batch)
        assert abs(value - math.log(2)) < 1e-12

    def test_requires_a_negative(self, tiny):
        batch = MatchBatch(
            user_rows=np.array([0]),
            histories=tiny["match"].histories[:1],
            profile_idx=tiny["match"].profile_idx[:1],
            pos_items=np.array([1]),
            neg_items=np.empty((1, 0), dtype=np.int64),
        )
        with pytest.raises(ValueError, match="negative"):
            loss_matching(params=tiny["params"], enc=tiny["enc"], batch=batch)

    def test_matches_bruteforce_softmax_recomputation(self, tiny):
        from itemcl.model import user_tower

        params, enc, match = tiny["params"], tiny["enc"], tiny["match"]
        value, _ = loss_matching(params, enc, match)

        users, _ = user_tower(params, match.histories, match.profile_idx)
        raw, _ = embed_items(params, enc, np.arange(6))
        d, _ = item_tower(params, raw)
        expected = 0.0
        for row in range(len(match.pos_items)):
            u = users[match.user_rows[row]]
            s_pos = float(sum(u[t] * d[match.pos_items[row]][t] for t in range(len(u))))
            s_negs = [
                float(sum(u[t] * d[j][t] for t in range(len(u))))
                for j in match.neg_items[row]
            ]
            expected += scalar_infonce(s_pos, s_negs, tau=1.0)
        assert abs(value - expected) < 1e-10

    def test_value_nonnegative(self, tiny):
        value, _ = loss_matching(tiny["params"], tiny["enc"], tiny["match"])
        assert value >= 0.0 and np.isfinite(value)


class TestLossFeature:
    def test_uniform_scores_give_log_k_plus_one(self, tiny, monkeypatch):
        anchors = np.array([0, 1, 4])
        for k in (10, 20, 50):
            params = zero_out(tiny["params"], ("proj_f.",))
            # the 6-item catalog holds 5 candidates, so the k draws repeat
            pin_negatives(monkeypatch, *[np.resize([j for j in range(6) if j != a], k) for a in anchors])
            batch = ContrastiveBatch(anchors=anchors, tau=1.0, num_negatives=k)
            value, _ = loss_feature_cl(
                params, tiny["enc"], batch, tiny["plan"], substream(0, "t", "fea"), substream(0, "t", "drop")
            )
            assert abs(value - 3 * math.log(k + 1)) < 1e-9

    def test_matches_scalar_recomputation(self, tiny, monkeypatch):
        from itemcl.model import embed_items_augmented

        params, enc, plan = tiny["params"], tiny["enc"], tiny["plan"]
        anchors = np.array([0, 2, 5])
        negs = np.array([[1, 3], [4, 5], [0, 1]])
        pin_negatives(monkeypatch, *negs)
        batch = ContrastiveBatch(anchors=anchors, tau=0.5, num_negatives=2)
        value, _ = loss_feature_cl(
            params, enc, batch, plan, substream(1, "f"), substream(1, "d")
        )

        # identical dropout stream -> identical augmented views
        aug_ids = np.unique(np.concatenate([anchors, negs.ravel()]))
        raw_aug, _ = embed_items_augmented(params, enc, aug_ids, plan, substream(1, "d"))
        raw_clean, _ = embed_items(params, enc, anchors)
        w, b = params.arrays["proj_f.W"], params.arrays["proj_f.b"]
        p_clean = raw_clean @ w + b
        p_aug = raw_aug @ w + b
        loc = {int(item): i for i, item in enumerate(aug_ids)}
        expected = 0.0
        for i, a in enumerate(anchors):
            s_pos = float(p_clean[i] @ p_aug[loc[int(a)]])
            s_negs = [float(p_clean[i] @ p_aug[loc[int(j)]]) for j in negs[i]]
            expected += scalar_infonce(s_pos, s_negs, tau=0.5)
        assert abs(value - expected) < 1e-10

    def test_negatives_never_hit_the_anchor(self, tiny, monkeypatch):
        # one draw through the shared sampler, the anchor its row's only
        # exclusion: a vectorized draw while the catalog holds k other
        # items (k=5), the shortfall path, which draws nothing, once not
        anchors = np.arange(6)
        calls = spy_negatives(monkeypatch)
        for k in (5, 8):
            rng = substream(3, "check")
            batch = ContrastiveBatch(anchors=anchors, num_negatives=k)
            for _ in range(20):
                calls.clear()
                before = rng.bit_generator.state
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ItemclWarning)
                    loss_feature_cl(tiny["params"], tiny["enc"], batch, tiny["plan"], rng, substream(3, "drop"))
                ((exclusions, drawn),) = calls
                assert [e.tolist() for e in exclusions] == [[a] for a in anchors]
                assert (rng.bit_generator.state == before) == (k > 5)
                negs = np.vstack(drawn)
                assert negs.shape == (6, min(k, 5))
                for a, row in zip(anchors, negs):
                    assert a not in row.tolist()
                    assert len(set(row.tolist())) == row.size


class TestBatchedNegatives:
    def test_mask_and_draws_match_a_row_by_row_fill(self):
        rng = np.random.default_rng(21)
        exclusions = [np.union1d(rng.choice(30, size=rng.integers(0, 10), replace=False), [a % 30]) for a in range(40)]
        got_rng, expected_rng = np.random.default_rng(22), np.random.default_rng(22)
        got = _batched_negatives(30, exclusions, 5, got_rng)
        mask = np.zeros((40, 30), dtype=bool)
        for row, excluded in enumerate(exclusions):
            mask[row, excluded] = True
        expected = sample_distinct_rows(30, 5, expected_rng, exclude_mask=mask)
        np.testing.assert_array_equal(np.stack(got), expected)
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state

    def test_shortfall_rows_return_eligible_ascending_warn_once_draw_nothing(self):
        rng = np.random.default_rng(23)
        before = rng.bit_generator.state
        with pytest.warns(ItemclWarning) as caught:
            (got,) = _batched_negatives(6, [np.array([0, 2, 3])], 4, rng)
        assert got.tolist() == [1, 4, 5]
        assert len(caught) == 1
        assert rng.bit_generator.state == before

    def test_one_warning_per_call_counts_the_scarce_rows(self):
        exclusions = [np.array([0, 1, 2, 3]), np.array([0]), np.array([1, 2, 3, 4])]
        with pytest.warns(ItemclWarning) as caught:
            got = _batched_negatives(6, exclusions, 3, np.random.default_rng(25))
        assert len(caught) == 1
        assert "2 of 3" in str(caught[0].message)
        assert [row.tolist() for row in got[::2]] == [[4, 5], [0, 5]]

    def test_shortfall_row_leaves_the_other_rows_draws_alone(self):
        rich = [np.array([0]), np.array([1, 2])]
        rng, expected_rng = np.random.default_rng(24), np.random.default_rng(24)
        with pytest.warns(ItemclWarning):
            got = _batched_negatives(6, [rich[0], np.array([0, 1, 2, 3]), rich[1]], 3, rng)
        expected = _batched_negatives(6, rich, 3, expected_rng)
        np.testing.assert_array_equal(got[0], expected[0])
        assert got[1].tolist() == [4, 5]
        np.testing.assert_array_equal(got[2], expected[1])
        assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestLossSemantic:
    def test_anchor_with_two_positives_sums_two_terms(self, tiny, monkeypatch):
        params, enc, pool = tiny["params"], tiny["enc"], tiny["pool"]
        pin_negatives(monkeypatch, [3, 5])
        both = ContrastiveBatch(anchors=np.array([0]), num_negatives=2)
        value_both, _ = loss_semantic_cl(params, enc, both, pool, substream(0, "x"))

        import copy

        single_pools = []
        for keep in (0, 1):
            p2 = copy.deepcopy(pool)
            p2.positives[0] = pool.positives[0][keep : keep + 1]
            v, _ = loss_semantic_cl(params, enc, both, p2, substream(0, "x"))
            single_pools.append(v)
        assert abs(value_both - sum(single_pools)) < 1e-12

    def test_uniform_scores(self, tiny):
        params = zero_out(tiny["params"], ("proj_t.",))
        # anchors 0,1,2 share taxonomy c1 (2 positives each); item 5 has none
        batch = ContrastiveBatch(anchors=np.array([0, 5]), num_negatives=3)
        value, _ = loss_semantic_cl(params, tiny["enc"], batch, tiny["pool"], substream(0, "y"))
        assert abs(value - 2 * math.log(4)) < 1e-9  # item 0 only: 2 terms of ln(3+1)

    def test_empty_pool_anchor_contributes_zero(self, tiny, monkeypatch):
        params, enc, pool = tiny["params"], tiny["enc"], tiny["pool"]
        pin_negatives(monkeypatch, [3, 5], [4, 5])  # anchors 0 and 1; item 5 draws none
        with_empty = ContrastiveBatch(anchors=np.array([0, 1, 5]), num_negatives=2)
        without = ContrastiveBatch(anchors=np.array([0, 1]), num_negatives=2)
        v1, g1 = loss_semantic_cl(params, enc, with_empty, pool, substream(0, "z"))
        v2, g2 = loss_semantic_cl(params, enc, without, pool, substream(0, "z"))
        assert v1 == v2
        assert all(np.array_equal(g1[k], g2[k]) for k in g1)

    def test_matches_scalar_recomputation(self, tiny, monkeypatch):
        params, enc, pool = tiny["params"], tiny["enc"], tiny["pool"]
        fixed = {0: np.array([3, 5]), 2: np.array([4])}  # ragged, as when a row falls short
        pin_negatives(monkeypatch, fixed[0], fixed[2])
        batch = ContrastiveBatch(anchors=np.array([0, 2]), num_negatives=2)
        value, _ = loss_semantic_cl(params, enc, batch, pool, substream(0, "w"))

        raw, _ = embed_items(params, enc, np.arange(6))
        d, _ = item_tower(params, raw)
        p = d @ params.arrays["proj_t.W"] + params.arrays["proj_t.b"]
        expected = 0.0
        for a in (0, 2):
            for k in pool.positives[a]:
                s_pos = float(p[a] @ p[int(k)])
                s_negs = [float(p[a] @ p[int(j)]) for j in fixed[a]]
                expected += scalar_infonce(s_pos, s_negs, tau=1.0)
        assert abs(value - expected) < 1e-10


class TestLossSession:
    def test_isolated_anchor_contributes_exactly_zero(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        batch = ContrastiveBatch(anchors=np.array([5]), num_negatives=2)  # item 5 never co-occurs
        value, grads = loss_session_cl(
            params, enc, batch, tiny["sampler"], tiny["table"], substream(0, "s")
        )
        assert value == 0.0
        assert all(not g.any() for g in grads.values())

    @pytest.mark.parametrize("include_positive", [True, False])
    def test_anchor_whose_partners_cover_the_catalog_drops_out(self, tiny, include_positive):
        # item 0 co-occurs with every other item, so no negative is left for it
        params, enc = tiny["params"], tiny["enc"]
        table = CooccurrenceTable([(0, b) for b in range(1, 6)] + [(3, 4)], [1] * 6, 6)
        sampler = SessionPositiveSampler(table)

        def loss(anchors):
            batch = ContrastiveBatch(anchors=np.array(anchors), num_negatives=2, include_positive=include_positive)
            with pytest.warns(ItemclWarning):
                return loss_session_cl(params, enc, batch, sampler, table, substream(0, "cover"))

        value, grads = loss([0])
        assert value == 0.0
        assert all(not g.any() for g in grads.values())
        value, grads = loss([0, 3])  # item 3 draws from {1, 2, 5}
        assert value > 0.0 and np.isfinite(value)
        assert grads["proj_s.W"].any()

    def test_uniform_scores(self, tiny):
        params = zero_out(tiny["params"], ("proj_s.",))
        batch = ContrastiveBatch(anchors=np.array([0, 3]), num_negatives=2)
        value, _ = loss_session_cl(
            params, tiny["enc"], batch, tiny["sampler"], tiny["table"], substream(0, "s")
        )
        assert abs(value - 2 * math.log(3)) < 1e-9

    def test_matches_scalar_recomputation(self, tiny, monkeypatch):
        class PinnedPositives:
            def sample_many(self, anchors, rng):
                return anchors, np.array([{0: 1, 3: 4}[int(a)] for a in anchors])

        params, enc = tiny["params"], tiny["enc"]
        pin_negatives(monkeypatch, [3, 5], [1, 5])
        batch = ContrastiveBatch(anchors=np.array([0, 3]), num_negatives=2)
        value, _ = loss_session_cl(params, enc, batch, PinnedPositives(), tiny["table"], substream(0, "q"))
        raw, _ = embed_items(params, enc, np.arange(6))
        d, _ = item_tower(params, raw)
        p = d @ params.arrays["proj_s.W"] + params.arrays["proj_s.b"]
        expected = scalar_infonce(float(p[0] @ p[1]), [float(p[0] @ p[3]), float(p[0] @ p[5])], 1.0)
        expected += scalar_infonce(float(p[3] @ p[4]), [float(p[3] @ p[1]), float(p[3] @ p[5])], 1.0)
        assert abs(value - expected) < 1e-10


class TestLossJoint:
    def rngs(self, seed=5):
        return {
            "feature": substream(seed, "jf"),
            "dropout": substream(seed, "jd"),
            "semantic": substream(seed, "js"),
            "session": substream(seed, "jq"),
        }

    def inputs(self, tiny):
        return JointLossInputs(
            tiny["match"], tiny["contrastive"], tiny["plan"], tiny["pool"], tiny["sampler"], tiny["table"]
        )

    def test_zero_weights_reduce_to_matching(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        value, components, grads = loss_joint(params, enc, self.inputs(tiny), (0, 0, 0), self.rngs())
        match_value, match_grads = loss_matching(params, enc, tiny["match"])
        assert value == match_value
        assert components["feature"] == components["semantic"] == components["session"] == 0.0
        assert all(np.array_equal(grads[k], match_grads[k]) for k in grads)

    def test_video_default_weights_weighted_sum(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        lambdas = (1.0, 0.3, 0.1)
        value, components, _ = loss_joint(params, enc, self.inputs(tiny), lambdas, self.rngs())
        expected = (
            components["matching"]
            + 1.0 * components["feature"]
            + 0.3 * components["semantic"]
            + 0.1 * components["session"]
        )
        assert abs(value - expected) < 1e-12

    def test_gradient_linearity(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        lambdas = (1.0, 0.3, 0.1)
        _, _, joint_grads = loss_joint(params, enc, self.inputs(tiny), lambdas, self.rngs())

        _, g_match = loss_matching(params, enc, tiny["match"])
        rngs = self.rngs()
        _, g_fea = loss_feature_cl(params, enc, tiny["contrastive"], tiny["plan"], rngs["feature"], rngs["dropout"])
        _, g_sem = loss_semantic_cl(params, enc, tiny["contrastive"], tiny["pool"], rngs["semantic"])
        _, g_sess = loss_session_cl(params, enc, tiny["contrastive"], tiny["sampler"], tiny["table"], rngs["session"])
        for name in joint_grads:
            expected = g_match[name] + 1.0 * g_fea[name] + 0.3 * g_sem[name] + 0.1 * g_sess[name]
            np.testing.assert_allclose(joint_grads[name], expected, atol=1e-12)

    @pytest.mark.parametrize("task", ["matching", "feature", "semantic", "session"])
    def test_weight_scales_the_task_gradient_on_a_shared_pass(self, tiny, task):
        params, enc, batch = tiny["params"], tiny["enc"], tiny["contrastive"]
        rngs = self.rngs()
        calls = {
            "matching": lambda *shared: loss_matching(params, enc, tiny["match"], *shared),
            "feature": lambda *shared: loss_feature_cl(
                params, enc, batch, tiny["plan"], rngs["feature"], rngs["dropout"], *shared
            ),
            "semantic": lambda *shared: loss_semantic_cl(params, enc, batch, tiny["pool"], rngs["semantic"], *shared),
            "session": lambda *shared: loss_session_cl(
                params, enc, batch, tiny["sampler"], tiny["table"], rngs["session"], *shared
            ),
        }
        value, alone = calls[task]()
        rngs.update(self.rngs())  # the same draws again
        items = ItemPass(params, enc)
        shared_value, _ = calls[task](items, 0.25)
        shared = items.backward()
        assert shared_value == value
        for name in alone:
            np.testing.assert_allclose(shared[name], 0.25 * alone[name], rtol=1e-12, atol=1e-15)

    def test_one_item_pass_and_one_grads_dict_per_step(self, tiny, monkeypatch):
        calls = {"item_tower": 0, "zero_grads": 0}

        def counted(name):
            original = getattr(losses, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(losses, name, counted(name))
        _, components, _ = loss_joint(tiny["params"], tiny["enc"], self.inputs(tiny), (1.0, 0.3, 0.1), self.rngs())
        assert all(components[task] > 0 for task in ("feature", "semantic", "session"))
        assert calls == {"item_tower": 1, "zero_grads": 1}

    @pytest.mark.parametrize("lambdas", [(1.0, 0.3, 0.1), (0.0, 0.3, 0.1), (1.0, 0.0, 0.1), (1.0, 0.3, 0.0)])
    def test_one_negative_draw_per_active_contrastive_task(self, tiny, monkeypatch, lambdas):
        calls = spy_negatives(monkeypatch)
        _, components, _ = loss_joint(tiny["params"], tiny["enc"], self.inputs(tiny), lambdas, self.rngs())
        assert all((components[task] > 0) == (w > 0) for task, w in zip(("feature", "semantic", "session"), lambdas))
        assert len(calls) == sum(w > 0 for w in lambdas)

    def test_negative_weights_rejected(self, tiny):
        with pytest.raises(ValueError, match="nonnegative"):
            loss_joint(tiny["params"], tiny["enc"], self.inputs(tiny), (-1, 0, 0), self.rngs())
