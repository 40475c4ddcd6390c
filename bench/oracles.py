"""Independent recounts that the benchmark checks the program's outputs against.

Nothing here imports itemcl. Each function recomputes a quantity from raw
inputs by a route of its own (sparse incidence products instead of pair
loops, lexsort instead of stable argsort), so a fault in the program does
not reappear in its own check.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def session_ids(users: np.ndarray, timestamps: np.ndarray, window: int) -> np.ndarray:
    """Session number of every click.

    Clicks of one user, taken in time order, stay in one session while
    each gap to the previous click is at most ``window`` seconds.
    ``users`` holds integer user codes.
    """
    order = np.lexsort((timestamps, users))
    u = users[order]
    t = timestamps[order]
    starts = np.ones(len(u), dtype=bool)
    starts[1:] = (u[1:] != u[:-1]) | (t[1:] - t[:-1] > window)
    ids = np.empty(len(u), dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids


def cooccurrence_matrix(sessions: np.ndarray, items: np.ndarray, n_items: int) -> sparse.csr_matrix:
    """Symmetric (n_items, n_items) count of sessions holding both items.

    Built as S.T @ S over the 0/1 session-by-item incidence matrix, so a
    repeated click inside a session counts once and the diagonal is zero.
    """
    n_sessions = int(sessions.max()) + 1 if sessions.size else 0
    incidence = sparse.coo_matrix(
        (np.ones(len(items)), (sessions, items)), shape=(n_sessions, n_items)
    ).tocsr()
    incidence.sum_duplicates()
    incidence.data[:] = 1.0
    counts = (incidence.T @ incidence).tocsr()
    counts.setdiag(0)
    counts.eliminate_zeros()
    return counts


def title_knn(vectors: np.ndarray, queries: np.ndarray, k: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Top-k cosine neighbours of each query among the other rows.

    Rows whose vector is zero take no part, as query or candidate. Ties go
    to the lower index. Returns the neighbour lists and each query's
    cosine scores against every row, for tie-tolerant comparison.
    """
    norms = np.linalg.norm(vectors, axis=1)
    usable = norms > 0
    unit = vectors / np.where(usable, norms, 1.0)[:, None]
    take = max(0, min(k, int(usable.sum()) - 1))
    lists, scores = [], []
    for q in queries:
        s = unit @ unit[q]
        s[~usable] = -np.inf
        s[q] = -np.inf
        if usable[q]:
            lists.append(np.lexsort((np.arange(len(s)), -s))[:take])
        else:
            lists.append(np.empty(0, dtype=np.int64))
        scores.append(s)
    return lists, scores


def same_ranking(expected: np.ndarray, got: np.ndarray, scores: np.ndarray, tol: float = 1e-12) -> bool:
    """True when ``got`` equals ``expected`` or differs only by rounding.

    Rounding may reorder items whose scores agree within ``tol``; it never
    excuses an exact tie broken toward the higher index.
    """
    expected = np.asarray(expected, dtype=np.int64)
    got = np.asarray(got, dtype=np.int64)
    if expected.shape != got.shape:
        return False
    if np.array_equal(expected, got):
        return True
    if np.unique(got).size != got.size:
        return False
    if np.any(np.abs(scores[expected] - scores[got]) > tol):
        return False
    s = scores[got]
    tied = s[1:] == s[:-1]
    if np.any(got[1:][tied] < got[:-1][tied]):
        return False
    left_out = np.setdiff1d(expected, got)
    return not any(np.any((s == scores[o]) & (got > o)) for o in left_out)


def topn(scores: np.ndarray, n: int) -> np.ndarray:
    """Per-row indices of the n highest scores, ties toward the lower index."""
    scores = np.atleast_2d(scores)
    index = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    return np.lexsort((index, -scores), axis=-1)[:, :n]


def hit_and_coverage(
    lists: dict[str, np.ndarray], test_pairs: list[tuple[str, int]], n: int
) -> tuple[int, int]:
    """Test clicks whose item is in its user's first n, and the number of
    distinct items across all users' first n."""
    top = {user: set(int(x) for x in ranking[:n]) for user, ranking in lists.items()}
    hits = sum(1 for user, item in test_pairs if item in top.get(user, ()))
    covered = set().union(*top.values()) if top else set()
    return hits, len(covered)


def topn_violation(scores: np.ndarray, returned: np.ndarray, n: int) -> str | None:
    """Why ``returned`` is not the top n of ``scores`` with ties toward the
    lower index, or None when it is."""
    returned = np.asarray(returned, dtype=np.int64)
    if returned.shape != (n,):
        return f"expected {n} items, got shape {returned.shape}"
    if np.unique(returned).size != n:
        return "repeated item"
    s = scores[returned]
    if np.any(s[1:] > s[:-1]):
        return "scores not in non-increasing order"
    tied = s[1:] == s[:-1]
    if np.any(returned[1:][tied] < returned[:-1][tied]):
        return "tied items not in ascending index order"
    rest = np.ones(len(scores), dtype=bool)
    rest[returned] = False
    nth = s[-1]
    if np.any(scores[rest] > nth):
        return "an unreturned item scores above the n-th"
    tied_rest = np.flatnonzero(rest & (scores == nth))
    if tied_rest.size and tied_rest.min() < returned[s == nth].max():
        return "a lower-index item tied with the n-th was left out"
    return None


def negative_violations(rows: list[np.ndarray], exclusions: list[np.ndarray], k: int, n_items: int) -> int:
    """Rows of negatives that repeat an item, hit their exclusion set, or
    fall short of min(k, eligible items)."""
    bad = 0
    for row, excluded in zip(rows, exclusions):
        row = np.asarray(row, dtype=np.int64)
        excluded = np.unique(np.asarray(excluded, dtype=np.int64))
        want = min(k, n_items - excluded.size)
        if np.unique(row).size != row.size or np.isin(row, excluded).any() or row.size != want:
            bad += 1
    return bad


def draw_match_negatives(pos_items: np.ndarray, n_items: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k uniform catalog items per pair, none equal to the pair's positive."""
    negs = rng.integers(0, n_items, size=(len(pos_items), k))
    while True:
        clash = negs == pos_items[:, None]
        if not clash.any():
            return negs
        negs[clash] = rng.integers(0, n_items, size=int(clash.sum()))


# -- checks: one message when the program's output disagrees, else None ------


def check_cooccurrence(count, users: np.ndarray, items: np.ndarray, stamps: np.ndarray,
                       window: int, n_items: int, rng: np.random.Generator, samples: int = 2000) -> str | None:
    """``count(a, b)`` against the recount, on sampled co-occurring pairs
    and on uniformly drawn pairs (mostly zero)."""
    recount = cooccurrence_matrix(session_ids(users, stamps, window), items, n_items)
    coo = recount.tocoo()
    upper = coo.row < coo.col
    nonzero = np.stack([coo.row[upper], coo.col[upper]], axis=1)
    pairs = np.concatenate([
        nonzero[rng.choice(len(nonzero), size=min(samples, len(nonzero)), replace=False)],
        rng.integers(0, n_items, size=(samples, 2)),
    ])
    wrong = [(int(a), int(b)) for a, b in pairs if count(int(a), int(b)) != int(recount[a, b])]
    if wrong:
        a, b = wrong[0]
        return (f"co-occurrence: {len(wrong)} of {len(pairs)} sampled pairs differ from the recount, "
                f"e.g. ({a}, {b}): {count(a, b)} vs {int(recount[a, b])}")
    return None


def check_title_knn(positives: list[np.ndarray], vectors: np.ndarray, k: int, queries: np.ndarray) -> str | None:
    expected, scores = title_knn(vectors, queries, k)
    wrong = [int(q) for q, exp, s in zip(queries, expected, scores) if not same_ranking(exp, positives[int(q)], s)]
    if wrong:
        return f"title k-NN: {len(wrong)} of {len(queries)} sampled items differ from the recount, e.g. item {wrong[0]}"
    return None


def check_hit_coverage(hit: float, coverage: float, user_vecs: dict[str, np.ndarray], items: np.ndarray,
                       test_pairs: list[tuple[str, int]], n: int) -> str | None:
    """HIT@n and coverage@n against a recount from ``items`` scores."""
    users = list(user_vecs)
    lists = {}
    for lo in range(0, len(users), 1024):
        block = users[lo : lo + 1024]
        lists.update(zip(block, topn(np.stack([user_vecs[u] for u in block]) @ items.T, n)))
    hits, covered = hit_and_coverage(lists, test_pairs, n)
    if round(hit * len(test_pairs)) != hits or round(coverage * items.shape[0]) != covered:
        return (f"evaluate: hit@{n} {hit:.6f} / coverage@{n} {coverage:.6f} but the recount gives "
                f"{hits / len(test_pairs):.6f} / {covered / items.shape[0]:.6f}")
    return None
