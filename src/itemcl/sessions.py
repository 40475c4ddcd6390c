"""Session segmentation and global item co-occurrence mining.

A session is a maximal run of one user's clicks whose inter-click gaps do
not exceed the window (a gap exactly equal to the window stays inside).
Within a session, every unordered pair of distinct items counts one
co-occurrence; repeated clicks on the same item within a session neither
self-pair nor inflate a pair beyond one count per session.

Sessions are offsets over one item column; the table is sorted pair and
count arrays plus per-item CSR rows (``values[indptr[i]:indptr[i + 1]]``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataFormatError, ItemCatalog, SplitDataset, read_lines, record_key, write_lines
from .sampling import exclusion_rows
from .util import argsort_codes, sorted_unique


@dataclass(frozen=True)
class Sessions:
    """Train clicks cut into sessions. Session ``s`` is the items
    ``items[offsets[s]:offsets[s + 1]]`` in click order, clicked by
    ``user_ids[user[s]]``; sessions run in sorted user order, then time."""

    offsets: np.ndarray
    items: np.ndarray
    user: np.ndarray
    user_ids: list[str]

    def __len__(self) -> int:
        return self.user.size


def segment_sessions(split: SplitDataset, window_seconds: int = 3600) -> Sessions:
    """Greedily segment each user's train clicks into sessions.

    Users are processed in sorted order and clicks in time order, so the
    output is deterministic. Single-click sessions are kept; they simply
    contribute no pairs.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    train = split.train_interactions  # already time-ordered
    n = len(train)
    user_ids, user = train.users()
    order = argsort_codes(user)  # each user's clicks stay in time order
    user, stamps, items = user[order], train.time[order], train.item[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (user[1:] != user[:-1]) | (np.diff(stamps) > window_seconds)
    heads = np.flatnonzero(starts)
    return Sessions(np.append(heads, n), items, user[heads], user_ids)


class CooccurrenceTable:
    """Sparse symmetric session co-occurrence counts.

    ``pairs`` (one ``a < b`` row per distinct pair) and ``counts`` are
    aligned and sorted by (a, b). Row ``i`` of the neighbor layout
    (``indptr``, ``neighbors``, ``neighbor_counts``) holds every item that
    co-occurred with ``i``, by count descending, index ascending, so its
    first ``k`` entries are ``i``'s top-k.
    """

    def __init__(self, pairs: np.ndarray, counts: np.ndarray, n_items: int, k: int = 10):
        if k <= 0:
            raise ValueError("k must be positive")
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        keys = pairs[:, 0] * n_items + pairs[:, 1]
        order = np.argsort(keys, kind="stable")
        self.n_items, self.k, self._keys = n_items, k, keys[order]
        self.pairs, self.counts = pairs[order], np.asarray(counts, dtype=np.int64)[order]
        a, b = self.pairs.T
        bad = (a < 0) | (a >= b) | (b >= n_items) | (self.counts <= 0)
        bad[1:] |= self._keys[1:] == self._keys[:-1]
        if bad.any():
            at = int(np.argmax(bad))
            raise ValueError(f"bad or repeated pair ({a[at]}, {b[at]}), count {self.counts[at]}, of {n_items} items")

        rows, cols = np.concatenate([a, b]), np.concatenate([b, a])
        both = np.concatenate([self.counts, self.counts])
        # one sort key, unique per entry: row ascending, count descending, column ascending
        levels = int(self.counts.max(initial=0)) + 1
        if n_items * n_items * levels - 1 > np.iinfo(np.int64).max:
            raise ValueError(
                f"{n_items} items with counts up to {levels - 1} overflow the int64 neighbor sort key"
            )
        layout = np.argsort((rows * levels + (levels - 1 - both)) * n_items + cols)
        self.neighbors, self.neighbor_counts = cols[layout], both[layout]
        self._excluded_ptr, self._excluded = exclusion_rows(rows, cols, n_items)
        self.indptr = self._excluded_ptr - np.arange(n_items + 1)  # the same rows without the item itself

    def count(self, a: int, b: int) -> int:
        lo, hi = min(a, b), max(a, b)
        key = lo * self.n_items + hi
        at = int(np.searchsorted(self._keys, key))
        found = 0 <= lo < hi < self.n_items and at < self._keys.size and self._keys[at] == key
        return int(self.counts[at]) if found else 0

    def topk(self, item: int) -> tuple[np.ndarray, np.ndarray]:
        """``item``'s top-k neighbors and their counts, by count
        descending, index ascending."""
        lo = self.indptr[item]
        hi = min(self.indptr[item + 1], lo + self.k)
        return self.neighbors[lo:hi], self.neighbor_counts[lo:hi]

    def excluded(self, item: int) -> np.ndarray:
        """The items a session negative of ``item`` may not be: its
        co-occurred neighbors and itself, sorted, no duplicates. Built
        once per table; read-only."""
        return self._excluded[self._excluded_ptr[item] : self._excluded_ptr[item + 1]]


def build_cooccurrence(sessions: Sessions, n_items: int, k: int = 10) -> CooccurrenceTable:
    """Count each session's distinct item pairs and build the table."""
    items = sessions.items
    if items.size and (items.min() < 0 or items.max() >= n_items):
        raise ValueError(f"item index out of range for catalog of size {n_items}")
    session = np.repeat(np.arange(len(sessions)), np.diff(sessions.offsets))
    # each session's distinct items
    session, items = np.divmod(sorted_unique(session * n_items + items), n_items)
    # each distinct item pairs with every later distinct item of its session
    later = np.searchsorted(session, session, side="right") - np.arange(session.size) - 1
    first = np.repeat(np.arange(session.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    keys, counts = np.unique(items[first] * n_items + items[second], return_counts=True)
    return CooccurrenceTable(np.stack(np.divmod(keys, n_items), axis=1), counts, n_items, k)


class SessionPositiveSampler:
    """Weighted sampler over each item's top-k co-occurred neighbors,
    proportional to co-occurrence counts. Row ``i`` of the padded
    (items x k) arrays holds item ``i``'s neighbors and their cumulative
    counts, padded with +inf."""

    def __init__(self, table: CooccurrenceTable):
        self._length = np.minimum(np.diff(table.indptr), table.k)
        width = int(self._length.max(initial=0))
        padding = np.arange(width) >= self._length[:, None]
        at = np.where(padding, 0, table.indptr[:-1, None] + np.arange(width))  # a row's top-k lead it
        self._neighbors = np.where(padding, 0, table.neighbors[at])
        counts = np.where(padding, 0, table.neighbor_counts[at])
        self._cumweights = np.where(padding, np.inf, np.cumsum(counts, axis=1))

    def sample_many(self, anchors: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """The anchors that have neighbors, in order, and one positive for
        each, from one uniform double per such anchor."""
        anchors = np.asarray(anchors, dtype=np.int64)
        anchors = anchors[self._length[anchors] > 0]
        last = self._length[anchors] - 1
        cum = self._cumweights[anchors]
        u = rng.random(anchors.size) * cum[np.arange(anchors.size), last]
        pos = np.minimum((cum <= u[:, None]).sum(axis=1), last)
        return anchors, self._neighbors[anchors, pos]


def dump_cooccurrence(table: CooccurrenceTable, catalog: ItemCatalog, path: str) -> None:
    """Write ``item_id_a TAB item_id_b TAB count`` rows, each pair ordered
    and the file sorted lexicographically, for diffable golden files."""
    ids = catalog.item_ids()
    pairs = zip(table.pairs.tolist(), table.counts.tolist())
    rows = sorted((*sorted((ids[a], ids[b])), c) for (a, b), c in pairs)
    write_lines(path, (f"{a}\t{b}\t{c}" for a, b, c in rows))


def load_cooccurrence(path: str, catalog: ItemCatalog, k: int = 10) -> CooccurrenceTable:
    """Read a ``dump_cooccurrence`` file; a malformed row, or a pair given
    twice in either order, raises ``DataFormatError`` naming ``path:line``."""
    counts: list[int] = []
    first_line: dict[tuple[int, int], int] = {}  # in file order, as ``counts``
    for lineno, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
        a, b = (catalog.index_at(x, f"{path}:{lineno}") for x in parts[:2])
        if a == b:
            raise DataFormatError(f"{path}:{lineno}: item {parts[0]!r} paired with itself")
        try:
            count = int(parts[2])
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad count {parts[2]!r}") from None
        if count <= 0:
            raise DataFormatError(f"{path}:{lineno}: nonpositive count {count}")
        record_key(first_line, (min(a, b), max(a, b)), path, lineno, "pair {!r} {!r}", *parts[:2])
        counts.append(count)
    return CooccurrenceTable(list(first_line), counts, len(catalog), k)
