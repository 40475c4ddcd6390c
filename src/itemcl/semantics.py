"""Semantic positive-pool mining from title vectors or shared taxonomy.

Title vectors arrive precomputed (the toolkit never runs a content
encoder). Title mode retrieves each item's top-k most cosine-similar
peers; taxonomy mode groups items sharing a taxonomy key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ItemCatalog
from .sampling import uniform_excluding
from .util import atomic_write_text, top_k, warn

_KNN_CHUNK = 512


@dataclass
class SemanticPositivePool:
    """Per-item semantic positives; ``positives[i]`` never contains i."""

    positives: list[np.ndarray]
    source: str  # "title_knn" or "taxonomy"

    @property
    def n_items(self) -> int:
        return len(self.positives)

    def has_positives(self, item: int) -> bool:
        return self.positives[item].size > 0


def mine_title_knn(catalog: ItemCatalog, k: int = 10) -> SemanticPositivePool:
    """Exact top-k cosine neighbors among items that carry title vectors.

    Items without a vector (or with an all-zero vector, where cosine is
    undefined) take no part, as query or candidate, and end up with empty
    positive lists. Ties are broken toward the lower item index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(catalog)
    with_vec = [i for i in range(n) if catalog[i].title_vector is not None]
    vectors = np.stack([catalog[i].title_vector for i in with_vec]) if with_vec else np.empty((0, 0))
    norms = np.linalg.norm(vectors, axis=1) if with_vec else np.empty(0)
    zero = norms == 0.0
    if np.any(zero):
        warn(f"excluded {int(zero.sum())} items with all-zero title vectors from semantic mining")
    keep = [idx for idx, z in zip(with_vec, zero) if not z]
    if len(keep) < 2:
        raise ValueError("need at least 2 items with usable title vectors")
    unit = vectors[~zero] / norms[~zero][:, None]
    keep_arr = np.asarray(keep, dtype=np.int64)

    positives: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(n)]
    take = min(k, len(keep) - 1)
    for start in range(0, len(keep), _KNN_CHUNK):
        block = unit[start : start + _KNN_CHUNK]
        sims = block @ unit.T
        rows = np.arange(block.shape[0])
        sims[rows, start + rows] = -np.inf  # exclude self
        top = top_k(sims, take)
        for row in rows:
            positives[keep[start + row]] = keep_arr[top[row]]
    return SemanticPositivePool(positives, "title_knn")


def mine_taxonomy(
    catalog: ItemCatalog,
    cap: int | None = None,
    rng: np.random.Generator | None = None,
) -> SemanticPositivePool:
    """Items sharing a taxonomy key become each other's positives.

    Groups larger than ``cap`` are uniformly subsampled to exactly ``cap``
    positives per item; items without a taxonomy get empty lists.
    """
    groups: dict[str, list[int]] = {}
    for i in range(len(catalog)):
        taxonomy = catalog[i].taxonomy
        if taxonomy is not None:
            groups.setdefault(taxonomy, []).append(i)
    if not groups:
        raise ValueError("no items carry a taxonomy key")
    if cap is not None and rng is None:
        rng = np.random.default_rng(0)

    positives: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(len(catalog))]
    for members in groups.values():
        arr = np.asarray(members, dtype=np.int64)
        for i in members:
            others = arr[arr != i]
            if cap is not None and others.size > cap:
                others = rng.choice(others, size=cap, replace=False)
                others.sort()
            positives[i] = others
    return SemanticPositivePool(positives, "taxonomy")


def sample_semantic_negatives(
    pool: SemanticPositivePool, item: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Distinct items drawn uniformly outside ``positives[item]`` and
    ``item`` itself."""
    excluded = set(int(j) for j in pool.positives[item])
    excluded.add(item)
    return uniform_excluding(pool.n_items, excluded, n, rng)


def dump_semantic_pool(pool: SemanticPositivePool, catalog: ItemCatalog, path: str) -> None:
    """One ``item_id TAB comma-joined positive ids`` row per item, sorted
    by item_id."""
    rows = []
    for i in range(len(catalog)):
        ids = ",".join(catalog[int(j)].item_id for j in pool.positives[i])
        rows.append((catalog[i].item_id, ids))
    rows.sort()
    atomic_write_text(path, "".join(f"{a}\t{b}\n" for a, b in rows))


def load_semantic_pool(path: str, catalog: ItemCatalog, source: str) -> SemanticPositivePool:
    positives: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(len(catalog))]
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            item_id, _, joined = line.partition("\t")
            owner = catalog.index_of[item_id]
            if joined:
                positives[owner] = np.asarray(
                    [catalog.index_of[x] for x in joined.split(",")], dtype=np.int64
                )
    return SemanticPositivePool(positives, source)
