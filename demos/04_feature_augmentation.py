#!/usr/bin/env python3
"""The three feature-dropout strategies on one item's raw embedding.

The raw embedding is the concatenation of three 4-wide field slices here
(ID | tags | provider), so masked structure is easy to read off. Training
draws the same masks for a whole batch of items in one
``augmentation_masks`` call and applies them in ``embed_items_augmented``.
"""

import numpy as np

from itemcl import AugmentationPlan, augmentation_masks

N_FIELDS, D_FIELD = 3, 4
rng = np.random.default_rng(0)

tag_values = np.array([[1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0, 3.0]])  # two tags, pre-pooling
raw = np.concatenate([np.full(4, 7.0), tag_values.mean(axis=0), np.full(4, 9.0)])
print(f"clean embedding:        {raw}")


def view(strategy: str, ratio: float = 0.5) -> np.ndarray:
    """One augmented view: pool the surviving tag values, then zero the
    masked coordinates."""
    keep, zero_mask = augmentation_masks(
        N_FIELDS, D_FIELD, AugmentationPlan(strategy, ratio), np.array([len(tag_values)]), rng
    )
    out = raw.copy()
    out[4:8] = tag_values[keep].mean(axis=0) if keep.any() else 0.0
    return np.where(zero_mask[0], 0.0, out)


element = view("element")
print(f"element dropout:        {element}")
print(f"field dropout:          {view('field')}")
print(f"categorial dropout:     {view('categorial')}   (tag slice = mean of a surviving tag subset)")
print(f"field + categorial:     {view('field_plus_categorial')}   (the default strategy)")

# dropout never rescales: surviving coordinates are bit-identical
kept = element != 0
assert np.array_equal(element[kept], raw[kept])
print("surviving coordinates are bit-identical to the clean embedding")

# the field strategy never returns an all-zero view
_, zero_mask = augmentation_masks(N_FIELDS, D_FIELD, AugmentationPlan("field", 0.9), np.zeros(2000, dtype=np.int64), rng)
assert (~zero_mask).any(axis=1).all()
print("field dropout always leaves at least one field unmasked (checked over 2000 draws)")
