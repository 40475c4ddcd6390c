"""Dropout-style augmentation of concatenated item feature embeddings.

Four strategies, applied to the raw concatenated field embedding before
the item tower:

* ``element``: each scalar is independently zeroed with the mask ratio.
* ``field``: whole field slices are zeroed; a draw that would zero every
  field gets one uniformly chosen field restored.
* ``categorial``: for multi-valued fields only, individual values are
  dropped before mean pooling.
* ``field_plus_categorial`` (default): categorial then field.

:func:`augmentation_masks` draws every mask of a batch of items;
``model.embed_items_augmented`` applies them. Masking never rescales;
unmasked coordinates stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STRATEGIES = ("element", "field", "categorial", "field_plus_categorial")


@dataclass(frozen=True)
class AugmentationPlan:
    strategy: str = "field_plus_categorial"
    mask_ratio: float = 0.5

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if not (0.0 <= self.mask_ratio < 1.0):
            raise ValueError("mask_ratio must lie in [0, 1)")


def draw_element_mask(width: int | tuple[int, int], ratio: float, rng: np.random.Generator) -> np.ndarray:
    """True where a scalar gets zeroed; ``width`` may be a shape
    ``(items, width)`` to draw every item's mask in one call."""
    return rng.random(width) < ratio


def draw_field_mask(n_fields: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """True where a whole field gets zeroed; never all-True (one uniformly
    chosen field is restored when the draw would mask everything)."""
    mask = rng.random(n_fields) < ratio
    if mask.all():
        mask[int(rng.integers(n_fields))] = False
    return mask


def draw_value_keep(n_values: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """True where a constituent value of a multi-valued field is kept."""
    return rng.random(n_values) >= ratio


def augmentation_masks(
    n_fields: int,
    d_field: int,
    plan: AugmentationPlan,
    tag_lens: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Every mask of one augmented view per item whose raw embedding is
    ``n_fields`` fields of ``d_field`` coordinates each, in order.

    ``tag_lens`` holds each item's number of multi-valued (tag) values.
    Returns ``value_keep``, True at each of the ``sum(tag_lens)`` values
    that survives pooling (all of them unless the strategy is
    categorial), and ``zero_mask`` of shape (items, ``n_fields *
    d_field``), True where a coordinate gets zeroed. Draw order is fixed:
    every value keep, items in order, then the element masks of all items
    or one field mask per item.
    """
    tag_lens = np.asarray(tag_lens, dtype=np.int64)
    m = tag_lens.size
    width = n_fields * d_field
    n_values = int(tag_lens.sum())
    if plan.strategy in ("categorial", "field_plus_categorial"):
        value_keep = draw_value_keep(n_values, plan.mask_ratio, rng)
    else:
        value_keep = np.ones(n_values, dtype=bool)
    if plan.strategy == "element":
        zero_mask = draw_element_mask((m, width), plan.mask_ratio, rng)
    elif plan.strategy in ("field", "field_plus_categorial"):
        # the field restore draw is conditional, so field masks stay per item
        fields = np.empty((m, n_fields), dtype=bool)
        for i in range(m):
            fields[i] = draw_field_mask(n_fields, plan.mask_ratio, rng)
        zero_mask = np.repeat(fields, d_field, axis=1)
    else:
        zero_mask = np.zeros((m, width), dtype=bool)
    return value_keep, zero_mask
