"""Frozen-model evaluation: exact brute-force top-N retrieval, HIT@N,
item coverage, and embedding export.

Retrieval scans the whole catalog (no approximate index); ties break
toward the lower item index. Items a user already clicked in train are
not filtered out unless asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ItemCatalog, SplitDataset
from .model import EncodedCatalog, EncodedProfiles, ModelParams, embed_items, item_tower, pad_histories, user_tower
from .util import atomic_write_text, top_k

_EVAL_CHUNK = 1024


@dataclass
class EvalReport:
    hit: dict[int, float]
    item_coverage: float  # coverage of the largest-N lists
    coverage: dict[int, float]  # coverage of each N-prefix of the same lists
    n_test_users: int
    n_test_interactions: int
    similarity: str

    def to_dict(self) -> dict:
        out = {f"hit@{n}": self.hit[n] for n in sorted(self.hit)}
        out.update({f"coverage@{n}": self.coverage[n] for n in sorted(self.coverage)})
        out["item_coverage"] = self.item_coverage
        out["n_test_users"] = self.n_test_users
        out["n_test_interactions"] = self.n_test_interactions
        out["similarity"] = self.similarity
        return out


def item_matrix(params: ModelParams, enc: EncodedCatalog) -> np.ndarray:
    """Item-tower outputs for the whole catalog, in index order."""
    blocks = []
    for lo in range(0, enc.n_items, 4096):
        ids = np.arange(lo, min(lo + 4096, enc.n_items))
        raw, _ = embed_items(params, enc, ids)
        d, _ = item_tower(params, raw)
        blocks.append(d)
    return np.concatenate(blocks, axis=0)


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
    exclude_history: bool = False,
) -> np.ndarray:
    """Exact top-n catalog scan for one user.

    Already-clicked items stay retrievable by default (matching-stage
    systems usually re-expose them); ``exclude_history`` filters them.
    """
    if n > enc.n_items:
        raise ValueError(f"n = {n} exceeds catalog size {enc.n_items}")
    if items is None:
        items = item_matrix(params, enc)
    hist = pad_histories([history], params.meta.dims.behavior_window)
    u, _ = user_tower(params, hist, profile_row.reshape(1, -1))
    if similarity == "cosine":
        u = _normalize_rows(u)
        items = _normalize_rows(items)
    elif similarity != "dot":
        raise ValueError("similarity must be dot or cosine")
    scores = (items @ u[0]).ravel()
    if exclude_history:
        seen = sorted({i for i in history if 0 <= i < enc.n_items})
        if enc.n_items - len(seen) < n:
            raise ValueError("history filtering leaves fewer than n items")
        scores = scores.copy()
        scores[seen] = -np.inf
    return _top_n(scores, n)


def evaluate(
    params: ModelParams,
    enc: EncodedCatalog,
    prof_enc: EncodedProfiles,
    split: SplitDataset,
    ns: tuple[int, ...] = (50, 100, 200, 500),
    similarity: str = "dot",
) -> EvalReport:
    """HIT@N over test clicks plus item coverage.

    One retrieval of the largest N per distinct test user; smaller-N hit
    rates reuse prefixes of the same ranking. The HIT@N denominator is the
    test interaction count, and coverage is the fraction of the catalog
    appearing in at least one retrieved list.
    """
    if not split.test_interactions:
        raise ValueError("test split is empty")
    ns = tuple(sorted(set(int(n) for n in ns)))
    n_max = ns[-1]
    if n_max > enc.n_items:
        raise ValueError(f"largest N = {n_max} exceeds catalog size {enc.n_items}")
    if similarity not in ("dot", "cosine"):
        raise ValueError("similarity must be dot or cosine")

    users = sorted({ev.user_id for ev in split.test_interactions})
    items = item_matrix(params, enc)
    if similarity == "cosine":
        items = _normalize_rows(items)

    rank_of: dict[str, dict[int, int]] = {}
    covered: dict[int, set[int]] = {n: set() for n in ns}
    window = params.meta.dims.behavior_window
    for lo in range(0, len(users), _EVAL_CHUNK):
        block = users[lo : lo + _EVAL_CHUNK]
        hist = pad_histories([split.behavior_histories.get(u, []) for u in block], window)
        prof = prof_enc.rows(block)
        u_vecs, _ = user_tower(params, hist, prof)
        if similarity == "cosine":
            u_vecs = _normalize_rows(u_vecs)
        top = _top_n(u_vecs @ items.T, n_max)
        for row, user_id in enumerate(block):
            ranking = top[row]
            rank_of[user_id] = {int(item): pos for pos, item in enumerate(ranking)}
            for n in ns:
                covered[n].update(int(x) for x in ranking[:n])

    hits = {n: 0 for n in ns}
    for ev in split.test_interactions:
        pos = rank_of[ev.user_id].get(ev.item_index)
        if pos is None:
            continue
        for n in ns:
            if pos < n:
                hits[n] += 1
    n_test = len(split.test_interactions)
    return EvalReport(
        hit={n: hits[n] / n_test for n in ns},
        item_coverage=len(covered[n_max]) / enc.n_items,
        coverage={n: len(covered[n]) / enc.n_items for n in ns},
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
    lines = []
    for i in range(len(catalog)):
        values = "\t".join(format(x, ".10g") for x in items[i])
        lines.append(f"{catalog[i].item_id}\t{values}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_embeddings(path: str, catalog: ItemCatalog) -> np.ndarray:
    """Re-import an embedding export, in catalog index order."""
    rows: dict[int, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            rows[catalog.index_of[parts[0]]] = np.asarray([float(x) for x in parts[1:]])
    return np.stack([rows[i] for i in range(len(catalog))])
