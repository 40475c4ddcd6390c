"""Feature dropout augmentation: the one mask routine, its strategies,
repair rule and statistics, and the augmented embedding it feeds."""

import numpy as np
import pytest

from itemcl.augment import (
    STRATEGIES,
    AugmentationPlan,
    augmentation_masks,
    draw_element_mask,
    draw_field_mask,
    draw_value_keep,
)
from itemcl.model import embed_items, embed_items_augmented

N_FIELDS, D_FIELD = 3, 4  # item_id | tags | provider
WIDTH = N_FIELDS * D_FIELD


def masks(strategy, ratio, tag_lens, rng, d_field=D_FIELD):
    return augmentation_masks(N_FIELDS, d_field, AugmentationPlan(strategy, ratio), np.asarray(tag_lens), rng)


class TestFieldStrategy:
    def test_masked_field_becomes_zero_others_untouched(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(100, WIDTH))
        _, zero_mask = masks("field", 0.5, np.zeros(100), rng)
        out = np.where(zero_mask, 0.0, raw)
        for row, source in zip(out, raw):
            for start in range(0, WIDTH, D_FIELD):
                chunk = row[start : start + D_FIELD]
                assert np.all(chunk == 0.0) or np.array_equal(chunk, source[start : start + D_FIELD])

    def test_at_least_one_field_survives(self):
        _, zero_mask = masks("field", 0.9, np.zeros(2000), np.random.default_rng(0))
        assert (~zero_mask).any(axis=1).all()

    def test_repair_draw_is_uniform(self):
        # ratio ~1 forces the all-masked repair almost every draw
        rng = np.random.default_rng(1)
        restored = np.zeros(3)
        for _ in range(30_000):
            mask = draw_field_mask(3, 0.999999, rng)
            restored[np.flatnonzero(~mask)] += 1
        freq = restored / restored.sum()
        assert np.all(np.abs(freq - 1 / 3) < 0.02)


class TestElementStrategy:
    def test_zeroed_fraction_matches_ratio(self):
        _, zero_mask = masks("element", 0.5, np.zeros(10_000), np.random.default_rng(2), d_field=64)
        assert zero_mask.shape == (10_000, 192)
        assert abs(zero_mask.mean() - 0.5) < 0.02

    def test_ratio_zero_is_identity(self):
        for strategy in STRATEGIES:
            keep, zero_mask = masks(strategy, 0.0, [2, 0, 3], np.random.default_rng(3))
            assert keep.shape == (5,) and keep.all()
            assert zero_mask.shape == (3, WIDTH) and not zero_mask.any()

    def test_unmasked_coordinates_bit_identical(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        ids = np.arange(enc.n_items)
        out, trace = embed_items_augmented(
            params, enc, ids, AugmentationPlan("element", 0.5), np.random.default_rng(4)
        )
        raw, _ = embed_items(params, enc, ids)
        kept = ~trace.zero_mask
        assert trace.zero_mask.any() and kept.any()
        assert np.array_equal(out[kept], raw[kept])
        assert np.all(out[trace.zero_mask] == 0.0)


class TestReproducibility:
    def test_same_state_same_output(self):
        for strategy in STRATEGIES:
            a = masks(strategy, 0.5, [2, 0, 1, 3], np.random.default_rng(99))
            b = masks(strategy, 0.5, [2, 0, 1, 3], np.random.default_rng(99))
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)


class TestCategorial:
    def test_categorial_drops_values_before_pooling(self, tiny):
        params, enc = tiny["params"], tiny["enc"]
        d = params.meta.dims.d_field
        item = np.array([0])  # two tags
        raw, trace = embed_items(params, enc, item)
        values = params.arrays["emb.tags"][trace.flat_tags]
        subsets = [values[[0]], values[[1]], values]
        candidates = [s.mean(axis=0) for s in subsets] + [np.zeros(d)]
        rng = np.random.default_rng(7)
        plan = AugmentationPlan("categorial", 0.5)
        seen_subset = False
        for _ in range(200):
            out, _ = embed_items_augmented(params, enc, item, plan, rng)
            chunk = out[0, d : 2 * d]
            # the pooled slice must be the mean of some subset of the values
            assert any(np.array_equal(chunk, c) for c in candidates)
            if not np.array_equal(chunk, candidates[2]):
                seen_subset = True
            # single-valued fields are untouched by the pure categorial strategy
            np.testing.assert_array_equal(out[0, :d], raw[0, :d])
            np.testing.assert_array_equal(out[0, 2 * d :], raw[0, 2 * d :])
        assert seen_subset

    def test_field_plus_categorial_masks_fields_too(self):
        keep, zero_mask = masks("field_plus_categorial", 0.5, np.full(200, 2), np.random.default_rng(8))
        assert zero_mask[:, :4].all(axis=1).any()
        assert not keep.all()

    def test_categorial_masks_values_not_coordinates(self):
        keep, zero_mask = masks("categorial", 0.5, np.full(200, 2), np.random.default_rng(9))
        assert not zero_mask.any()
        assert keep.shape == (400,) and keep.any() and not keep.all()


def per_item_masks(plan, tag_lens, rng):
    """Reference: the same masks drawn one item at a time through the
    primitives, every item's value keeps first, then one element or
    field mask per item, in item order."""
    m = len(tag_lens)
    keep = np.ones(int(np.sum(tag_lens)), dtype=bool)
    if plan.strategy in ("categorial", "field_plus_categorial") and m:
        keep = np.concatenate([draw_value_keep(int(n), plan.mask_ratio, rng) for n in tag_lens])
    zero_mask = np.zeros((m, WIDTH), dtype=bool)
    if plan.strategy == "element":
        for i in range(m):
            zero_mask[i] = draw_element_mask(WIDTH, plan.mask_ratio, rng)
    elif plan.strategy in ("field", "field_plus_categorial"):
        for i in range(m):
            fmask = draw_field_mask(N_FIELDS, plan.mask_ratio, rng)
            for f, masked in enumerate(fmask):
                if masked:
                    zero_mask[i, f * D_FIELD : (f + 1) * D_FIELD] = True
    return keep, zero_mask


class TestMatchesPerItemLoop:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("m", [0, 1, 50])
    @pytest.mark.parametrize("tags", ["mixed", "none"])
    @pytest.mark.parametrize("ratio", [0.5, 0.95])
    def test_same_masks_and_generator_state(self, strategy, m, tags, ratio):
        tag_lens = np.random.default_rng(m).integers(0, 4, size=m) if tags == "mixed" else np.zeros(m, dtype=np.int64)
        plan = AugmentationPlan(strategy, ratio)
        rng, expected_rng = np.random.default_rng(11), np.random.default_rng(11)
        keep, zero_mask = augmentation_masks(N_FIELDS, D_FIELD, plan, tag_lens, rng)
        expected_keep, expected_zero = per_item_masks(plan, tag_lens, expected_rng)
        np.testing.assert_array_equal(keep, expected_keep)
        np.testing.assert_array_equal(zero_mask, expected_zero)
        assert keep.dtype == bool and zero_mask.dtype == bool
        assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestValidation:
    def test_bad_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            AugmentationPlan("bogus", 0.5)

    def test_bad_ratio(self):
        with pytest.raises(ValueError, match="mask_ratio"):
            AugmentationPlan("field", 1.0)
