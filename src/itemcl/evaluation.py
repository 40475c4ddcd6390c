"""Frozen-model evaluation: exact brute-force top-N retrieval, HIT@N,
item coverage, and embedding export.

Retrieval scans the whole catalog (no approximate index); ties break
toward the lower item index. Items a user already clicked in train stay
retrievable: matching-stage systems usually re-expose them. Scores are
inner products (``dot``) or cosines (``cosine``), the names in
``SIMILARITIES``; ``check_similarity`` rejects any other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ItemCatalog, SplitDataset, write_lines
from .model import EncodedCatalog, EncodedProfiles, ModelParams, embed_items, item_tower, pad_histories, user_tower
from .util import top_k

_EVAL_CHUNK = 1024

SIMILARITIES = ("dot", "cosine")
DEFAULT_NS = (50, 100, 200, 500)  # the N of HIT@N and coverage@N when none are given


def check_similarity(similarity: str) -> None:
    """Reject a scoring rule that is not one of ``SIMILARITIES``."""
    if similarity not in SIMILARITIES:
        raise ValueError("similarity must be dot or cosine")


@dataclass
class EvalReport:
    hit: dict[int, float]
    coverage: dict[int, float]  # coverage of each N-prefix of the same lists
    n_test_users: int
    n_test_interactions: int
    similarity: str

    def to_dict(self) -> dict:
        out = {f"hit@{n}": self.hit[n] for n in sorted(self.hit)}
        out.update({f"coverage@{n}": self.coverage[n] for n in sorted(self.coverage)})
        out["n_test_users"] = self.n_test_users
        out["n_test_interactions"] = self.n_test_interactions
        out["similarity"] = self.similarity
        return out


def item_matrix(params: ModelParams, enc: EncodedCatalog) -> np.ndarray:
    """Item-tower outputs for the whole catalog, in index order."""
    raw, _ = embed_items(params, enc, np.arange(enc.n_items))
    return item_tower(params, raw)[0]


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)


def _top_n(scores: np.ndarray, n: int) -> np.ndarray:
    """Per-row top-n indices, highest score first, ties toward the lower
    index."""
    return top_k(scores, n)


def retrieve_topn(
    params: ModelParams,
    enc: EncodedCatalog,
    history: list[int],
    profile_row: np.ndarray,
    n: int,
    similarity: str = "dot",
    items: np.ndarray | None = None,
) -> np.ndarray:
    """Exact top-n catalog scan for one user; ``items`` is the catalog's
    ``item_matrix`` when the caller already has it. The user vector reads
    the model's ``served()`` value, so a request runs no attention
    affine; a history item outside the catalog raises ``ValueError``."""
    check_similarity(similarity)
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    if n > enc.n_items:
        raise ValueError(f"n = {n} exceeds catalog size {enc.n_items}")
    unknown = next((item for item in history if item >= enc.n_items), None)
    if unknown is not None:
        raise ValueError(f"history item {unknown} is not in the catalog of {enc.n_items} items")
    if items is None:
        items = item_matrix(params, enc)
    hist = pad_histories([history], params.meta.dims.behavior_window)
    u, _ = user_tower(params, hist, profile_row.reshape(1, -1), params.served())
    if similarity == "cosine":
        u = _normalize_rows(u)
        items = _normalize_rows(items)
    return _top_n((items @ u[0]).ravel(), n)


def evaluate(
    params: ModelParams,
    enc: EncodedCatalog,
    prof_enc: EncodedProfiles,
    split: SplitDataset,
    ns: tuple[int, ...] = DEFAULT_NS,
    similarity: str = "dot",
) -> EvalReport:
    """HIT@N over test clicks plus item coverage, from one retrieval of
    the largest N, ``n_max``, per distinct test user. ``test_rank`` holds
    each test click's position in its user's top-``n_max`` list, or
    ``n_max`` when the item is absent; ``first_rank`` holds each item's
    lowest position in any user's list, or ``n_max``. HIT@N is
    ``count(test_rank < N) / n_test`` and coverage@N is
    ``count(first_rank < N) / n_items``. Both are read off a rank table
    per chunk of users, chunk x n_items in the narrowest dtype that holds
    ``n_max``, filled once the chunk's score matrix is freed.
    """
    if not split.test_interactions:
        raise ValueError("test split is empty")
    ns = tuple(sorted(set(int(n) for n in ns)))
    if not ns:
        raise ValueError("no N given: evaluation needs at least one N")
    n_max = ns[-1]
    if ns[0] < 1:
        raise ValueError(f"N = {ns[0]} must be at least 1")
    if n_max > enc.n_items:
        raise ValueError(f"largest N = {n_max} exceeds catalog size {enc.n_items}")
    check_similarity(similarity)

    users, user_row = split.test_interactions.users()
    test_item = split.test_interactions.item
    items = item_matrix(params, enc)
    if similarity == "cosine":
        items = _normalize_rows(items)

    test_rank = np.full(len(test_item), n_max)
    first_rank = np.full(enc.n_items, n_max)
    window = params.meta.dims.behavior_window
    dtype = np.min_scalar_type(n_max)
    served = params.served()
    for lo in range(0, len(users), _EVAL_CHUNK):
        block = users[lo : lo + _EVAL_CHUNK]
        hist = split.behavior_histories.padded(block, window)
        u_vecs, _ = user_tower(params, hist, prof_enc.rows(block), served)
        if similarity == "cosine":
            u_vecs = _normalize_rows(u_vecs)
        top = _top_n(u_vecs @ items.T, n_max)
        # rank[r, i]: item i's position in the chunk's r-th list, n_max if absent
        rank = np.full((len(block), enc.n_items), n_max, dtype=dtype)
        rank[np.arange(len(block))[:, None], top] = np.arange(n_max, dtype=dtype)
        clicks = np.flatnonzero((user_row >= lo) & (user_row < lo + _EVAL_CHUNK))
        test_rank[clicks] = rank[user_row[clicks] - lo, test_item[clicks]]
        np.minimum(first_rank, rank.min(axis=0), out=first_rank)

    n_test = len(test_item)
    return EvalReport(
        hit={n: int(np.count_nonzero(test_rank < n)) / n_test for n in ns},
        coverage={n: int(np.count_nonzero(first_rank < n)) / enc.n_items for n in ns},
        n_test_users=len(users),
        n_test_interactions=n_test,
        similarity=similarity,
    )


def export_embeddings(
    params: ModelParams, enc: EncodedCatalog, catalog: ItemCatalog, path: str
) -> None:
    """Write ``item_id TAB v1 .. TAB vD`` per catalog item; ten significant
    digits, so a re-import agrees to well under 1e-6."""
    items = item_matrix(params, enc)
    rows = zip(catalog.item_ids(), items.tolist())
    write_lines(path, ("\t".join([item_id, *(format(x, ".10g") for x in row)]) for item_id, row in rows))

