"""Session segmentation and global item co-occurrence mining.

A session is a maximal run of one user's clicks whose inter-click gaps do
not exceed the window (a gap exactly equal to the window stays inside).
Within a session, every unordered pair of distinct items counts one
co-occurrence; repeated clicks on the same item within a session neither
self-pair nor inflate a pair beyond one count per session.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataFormatError, ItemCatalog, SplitDataset
from .util import atomic_write_text


@dataclass
class Session:
    user_id: str
    items: list[int]


def segment_sessions(split: SplitDataset, window_seconds: int = 3600) -> list[Session]:
    """Greedily segment each user's train clicks into sessions.

    Users are processed in sorted order and clicks in time order, so the
    output is deterministic. Single-click sessions are kept; they simply
    contribute no pairs.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    per_user: dict[str, list[tuple[int, int]]] = {}
    for ev in split.train_interactions:
        per_user.setdefault(ev.user_id, []).append((ev.timestamp, ev.item_index))

    sessions: list[Session] = []
    for user_id in sorted(per_user):
        events = per_user[user_id]  # train_interactions are already time-ordered
        current: list[int] = [events[0][1]]
        last_ts = events[0][0]
        for ts, item in events[1:]:
            if ts - last_ts > window_seconds:
                sessions.append(Session(user_id, current))
                current = []
            current.append(item)
            last_ts = ts
        sessions.append(Session(user_id, current))
    return sessions


def count_pairs(sessions: list[Session]) -> dict[tuple[int, int], int]:
    """Raw unordered pair counts; keys are (low, high) index tuples."""
    counts: dict[tuple[int, int], int] = {}
    for session in sessions:
        distinct = sorted(set(session.items))
        for i, a in enumerate(distinct):
            for b in distinct[i + 1 :]:
                key = (a, b)
                counts[key] = counts.get(key, 0) + 1
    return counts


class CooccurrenceTable:
    """Sparse symmetric session co-occurrence counts with per-item top-k
    neighbor lists (ordered by count descending, index ascending)."""

    def __init__(self, counts: dict[tuple[int, int], int], n_items: int, k: int = 10):
        if k <= 0:
            raise ValueError("k must be positive")
        self.n_items = n_items
        self.k = k
        self.counts = dict(counts)
        neighbor_lists: dict[int, list[tuple[int, int]]] = {}
        for (a, b), c in counts.items():
            if not (0 <= a < b < n_items):
                raise ValueError(f"bad pair key ({a}, {b}) for catalog of size {n_items}")
            if c <= 0:
                raise ValueError(f"nonpositive count for pair ({a}, {b})")
            neighbor_lists.setdefault(a, []).append((b, c))
            neighbor_lists.setdefault(b, []).append((a, c))
        self._excluded: dict[int, np.ndarray] = {}
        self.topk: dict[int, list[tuple[int, int]]] = {}
        for item, pairs in neighbor_lists.items():
            excluded = np.sort(np.asarray([nb for nb, _ in pairs] + [item], dtype=np.int64))
            excluded.flags.writeable = False
            self._excluded[item] = excluded
            pairs.sort(key=lambda pair: (-pair[1], pair[0]))
            self.topk[item] = pairs[:k]

    def count(self, a: int, b: int) -> int:
        if a == b:
            return 0
        key = (a, b) if a < b else (b, a)
        return self.counts.get(key, 0)

    def neighbors(self, item: int) -> frozenset[int]:
        return frozenset(self.excluded(item).tolist()) - {item}

    def excluded(self, item: int) -> np.ndarray:
        """The items a session negative of ``item`` may not be: its
        co-occurred neighbors and itself, sorted, no duplicates. Built
        once per table; read-only."""
        excluded = self._excluded.get(item)
        return np.array([item], dtype=np.int64) if excluded is None else excluded


def build_cooccurrence(sessions: list[Session], n_items: int, k: int = 10) -> CooccurrenceTable:
    """Scan all sessions and build the co-occurrence table."""
    return CooccurrenceTable(count_pairs(sessions), n_items, k)


class SessionPositiveSampler:
    """Weighted sampler over each item's top-k co-occurred neighbors,
    proportional to co-occurrence counts. Row ``i`` of the padded
    (items x k) arrays holds item ``i``'s neighbors and their cumulative
    counts, padded with +inf."""

    def __init__(self, table: CooccurrenceTable):
        width = max((len(pairs) for pairs in table.topk.values()), default=0)
        self._length = np.zeros(table.n_items, dtype=np.int64)
        self._neighbors = np.zeros((table.n_items, width), dtype=np.int64)
        self._cumweights = np.full((table.n_items, width), np.inf)
        for item, pairs in table.topk.items():
            self._length[item] = len(pairs)
            self._neighbors[item, : len(pairs)] = [nb for nb, _ in pairs]
            self._cumweights[item, : len(pairs)] = np.cumsum([c for _, c in pairs])

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
    rows = []
    for (a, b), c in table.counts.items():
        id_a, id_b = catalog[a].item_id, catalog[b].item_id
        if id_b < id_a:
            id_a, id_b = id_b, id_a
        rows.append((id_a, id_b, c))
    rows.sort()
    body = "".join(f"{a}\t{b}\t{c}\n" for a, b, c in rows)
    atomic_write_text(path, body)


def load_cooccurrence(path: str, catalog: ItemCatalog, k: int = 10) -> CooccurrenceTable:
    """Read a ``dump_cooccurrence`` file; a malformed row, or a pair given
    twice in either order, raises ``DataFormatError`` naming ``path:line``."""
    counts: dict[tuple[int, int], int] = {}
    first_line: dict[tuple[int, int], int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
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
            key = (a, b) if a < b else (b, a)
            if key in counts:
                raise DataFormatError(
                    f"{path}:{lineno}: pair {parts[0]!r} {parts[1]!r} repeats line {first_line[key]}"
                )
            counts[key] = count
            first_line[key] = lineno
    return CooccurrenceTable(counts, len(catalog), k)

