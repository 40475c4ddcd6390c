"""Semantic positive-pool mining from title vectors or shared taxonomy.

Title vectors arrive precomputed (the toolkit never runs a content
encoder). Title mode retrieves each item's top-k most cosine-similar
peers; taxonomy mode groups items sharing a taxonomy key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataFormatError, ItemCatalog
from .rng import substream
from .sampling import exclusion_rows
from .util import atomic_write_text, top_k, warn

_KNN_CHUNK = 512

SEMANTIC_SOURCES = ("title_knn", "taxonomy")


def check_semantic_source(source: str) -> None:
    """Reject a pool source that is not one of ``SEMANTIC_SOURCES``."""
    if source not in SEMANTIC_SOURCES:
        raise ValueError(f"semantic_source must be title_knn or taxonomy, not {source!r}")


@dataclass
class SemanticPositivePool:
    """Per-item semantic positives; ``positives[i]`` holds distinct items
    and never i. Every item's exclusions are built once, as CSR rows."""

    positives: list[np.ndarray]
    source: str  # one of SEMANTIC_SOURCES
    _excluded_ptr: np.ndarray = field(init=False, repr=False, compare=False)
    _excluded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = np.repeat(np.arange(self.n_items), [p.size for p in self.positives])
        cols = np.concatenate([np.empty(0, dtype=np.int64), *self.positives])
        self._excluded_ptr, self._excluded = exclusion_rows(rows, cols, self.n_items)

    @property
    def n_items(self) -> int:
        return len(self.positives)

    def excluded(self, item: int) -> np.ndarray:
        """The items a semantic negative of ``item`` may not be: its
        positives and itself, sorted, no duplicates; read-only."""
        return self._excluded[self._excluded_ptr[item] : self._excluded_ptr[item + 1]]


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
    positives per item by draws from ``rng``, which a ``cap`` requires;
    items without a taxonomy get empty lists.
    """
    if cap is not None and rng is None:
        raise ValueError("cap needs rng")
    groups: dict[str, list[int]] = {}
    for i in range(len(catalog)):
        taxonomy = catalog[i].taxonomy
        if taxonomy is not None:
            groups.setdefault(taxonomy, []).append(i)
    if not groups:
        raise ValueError("no items carry a taxonomy key")

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


def mine_semantic_pool(catalog: ItemCatalog, source: str, k: int, seed: int) -> SemanticPositivePool:
    """The pool ``source`` names: each item's top-``k`` title neighbors, or
    its taxonomy group capped at ``k`` positives by draws from the
    ``taxonomy_cap`` substream of ``seed``."""
    check_semantic_source(source)
    if source == "title_knn":
        return mine_title_knn(catalog, k)
    return mine_taxonomy(catalog, cap=k, rng=substream(seed, "taxonomy_cap"))


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
    """Read a ``dump_semantic_pool`` file; a malformed row, a second row
    for one item or a positive listed twice raises ``DataFormatError``
    naming ``path:line``."""
    positives: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(len(catalog))]
    first_line: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            item_id, _, joined = line.partition("\t")
            owner = catalog.index_at(item_id, f"{path}:{lineno}")
            if owner in first_line:
                raise DataFormatError(f"{path}:{lineno}: item {item_id!r} repeats line {first_line[owner]}")
            first_line[owner] = lineno
            if joined:
                names = joined.split(",")
                row = [catalog.index_at(x, f"{path}:{lineno}") for x in names]
                if owner in row:
                    raise DataFormatError(f"{path}:{lineno}: item {item_id!r} listed as its own positive")
                repeated = next((x for i, x in enumerate(names) if x in names[:i]), None)
                if repeated is not None:
                    raise DataFormatError(f"{path}:{lineno}: positive {repeated!r} listed twice")
                positives[owner] = np.asarray(row, dtype=np.int64)
    return SemanticPositivePool(positives, source)
