"""Catalog and click-log ingestion, validation, and chronological splitting.

On-disk formats:

* item catalog, one JSON object per line::

    {"item_id": str, "tags": [str], "provider": str,
     "taxonomy": str|null, "title_vector": [float]|null}

* interactions, tab-separated, one click per line::

    user_id <TAB> item_id <TAB> timestamp_seconds

* user profiles, one JSON object per line::

    {"user_id": str, "fields": {name: str}}

Every text file is read by ``read_lines`` and written by ``write_lines``.
A malformed line raises ``DataFormatError`` naming ``path:line``, the first
bad line in file order, whether its fault is its format or its encoding.

Item indices are assigned in catalog file order (0..n-1), so every
downstream artifact is reproducible byte for byte.

A split's behavior histories (``Histories``) hold every train click as
CSR, one time-ordered row per user, and read each row's last ``window``
items as a list per user id, or for many users at once as one padded
array gathered by one index array (what ``train`` and ``evaluate`` read).
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .util import argsort_codes, atomic_write_bytes, warn

PAD = -1  # the item index of a padding slot in a behavior history


class DataFormatError(ValueError):
    """Raised for malformed or inconsistent input files; the message names
    the offending file and line."""


def read_lines(path: str, strip: bool = False) -> Iterator[tuple[int, str]]:
    """``(N, line)`` for each non-empty line N of the UTF-8 file ``path``, its
    break (``\\n``, ``\\r\\n`` or a lone ``\\r``) and a leading byte-order
    mark removed; ``strip`` strips each line first, skipping blank ones. A
    byte that is not UTF-8 raises ``DataFormatError("path:N: not UTF-8
    text")`` only on reaching its line N. The file is split at once and
    its lines numbered by C-level iterators."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8-sig", errors="surrogateescape")
    if "\r" in text:  # a search for one character is far cheaper than a replace
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # ``surrogateescape`` decodes each byte that is not UTF-8 to one of U+DC80..U+DCFF
    bad = None if text.isascii() else re.search("[\udc80-\udcff]", text)
    lines = text.split("\n") if bad is None else text[: bad.start()].split("\n")[:-1]  # those ahead of bad's line
    lines = list(map(str.strip, lines)) if strip else lines
    numbered = itertools.compress(enumerate(lines, 1), lines)
    if bad is None:
        return numbered
    return itertools.chain(numbered, _raise(DataFormatError(f"{path}:{len(lines) + 1}: not UTF-8 text")))


def _raise(error: Exception) -> Iterator:
    """An iterator that raises ``error`` when first advanced."""
    raise error
    yield


def record_key(first_line: dict, key, path: str, lineno: int, what: str, *shown) -> None:
    """Record ``key`` in ``first_line`` as read on line ``lineno``; a key read on
    line M before raises ``DataFormatError("path:lineno: <what.format(*shown)> repeats line M")``."""
    first = first_line.setdefault(key, lineno)
    if first != lineno:
        raise DataFormatError(f"{path}:{lineno}: {what.format(*shown)} repeats line {first}")


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a line break after it to ``path`` as UTF-8,
    through a temporary file renamed into place; no lines, an empty file."""
    atomic_write_bytes(path, "".join(f"{line}\n" for line in lines).encode("utf-8"))


@dataclass(frozen=True)
class Item:
    item_id: str
    tags: tuple[str, ...] = ()
    provider: str = ""
    taxonomy: str | None = None
    title_vector: np.ndarray | None = None


@dataclass(frozen=True)
class Interaction:
    """One click, the row a ``ClickLog`` yields; ``item_index`` is resolved against the catalog."""

    user_id: str
    item_index: int
    timestamp: int


@dataclass(frozen=True, eq=False)
class ClickLog:
    """A click log as int64 columns: click ``i`` is user
    ``user_ids[user[i]]`` clicking item ``item[i]`` at ``time[i]``.
    ``user_ids`` is sorted, so code order is user-id order, and may name
    users with no click here. An int index yields an ``Interaction``, a
    slice or index array a ``ClickLog`` over the same ``user_ids``."""

    user: np.ndarray
    item: np.ndarray
    time: np.ndarray
    user_ids: tuple[str, ...]

    @classmethod
    def of(cls, clicks: ClickLog | Iterable[Interaction]) -> ClickLog:
        """``clicks`` unchanged if it is a ``ClickLog``, else its rows as
        columns, in row order."""
        if isinstance(clicks, ClickLog):
            return clicks
        code_of: dict[str, int] = {}
        coded = [(code_of.setdefault(ev.user_id, len(code_of)), ev.item_index, ev.timestamp) for ev in clicks]
        return cls.from_codes(list(code_of), *np.array(coded, dtype=np.int64).reshape(-1, 3).T)

    @classmethod
    def from_codes(cls, names: list[str], user, item, time) -> ClickLog:
        """Columns whose ``user`` codes index ``names``, distinct ids in any
        order; the codes are remapped to the sorted vocabulary."""
        order = sorted(range(len(names)), key=names.__getitem__)
        user, item, time = (np.asarray(c, dtype=np.int64) for c in (user, item, time))
        return cls(np.argsort(order)[user], item, time, tuple(names[i] for i in order))

    def __len__(self) -> int:
        return self.user.size

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return Interaction(self.user_ids[self.user[key]], int(self.item[key]), int(self.time[key]))
        return ClickLog(self.user[key], self.item[key], self.time[key], self.user_ids)

    def __iter__(self) -> Iterator[Interaction]:
        for u, i, t in zip(self.user.tolist(), self.item.tolist(), self.time.tolist()):
            yield Interaction(self.user_ids[u], i, t)

    def __eq__(self, other) -> bool:
        """Equal rows, whatever the two vocabularies hold."""
        return isinstance(other, ClickLog) and list(self) == list(other)

    def users(self) -> tuple[list[str], np.ndarray]:
        """The ids of the users that click here, sorted, and each click's
        row among them."""
        present = np.bincount(self.user, minlength=len(self.user_ids)) > 0
        rows = np.cumsum(present) - 1
        return [self.user_ids[c] for c in np.flatnonzero(present).tolist()], rows[self.user]


class ItemCatalog:
    """Immutable, index-addressed item collection.

    Index i is the position of the item in the source file; all embedding
    tables, mined pools, and retrieval lists use these indices.
    """

    def __init__(self, items: list[Item]):
        self.items = list(items)
        self.index_of: dict[str, int] = {}
        for i, item in enumerate(self.items):
            if item.item_id in self.index_of:
                raise DataFormatError(f"duplicate item_id {item.item_id!r}")
            self.index_of[item.item_id] = i
        dims = {item.title_vector.shape[0] for item in self.items if item.title_vector is not None}
        if len(dims) > 1:
            raise DataFormatError(f"title_vector dimensions disagree: {sorted(dims)}")
        self.title_dim: int | None = dims.pop() if dims else None

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Item:
        return self.items[index]

    def item_ids(self) -> list[str]:
        return [item.item_id for item in self.items]

    def index_at(self, item_id: str, where: str) -> int:
        """Index of ``item_id``, read at ``where`` (``path:line``), which
        an unknown id's ``DataFormatError`` names."""
        index = self.index_of.get(item_id)
        if index is None:
            raise DataFormatError(f"{where}: unknown item_id {item_id!r}")
        return index


@dataclass
class UserProfileTable:
    """Per-user categorical profile fields with a fixed field schema."""

    field_names: tuple[str, ...] = ()
    rows: dict[str, tuple[str, ...]] = field(default_factory=dict)


class Histories(Mapping[str, list[int]]):
    """Each user's time-ordered train clicks as CSR: row ``r`` is
    ``column[offsets[r]:offsets[r + 1]]``, oldest item first, and ``row_of``
    maps a user id to its row, in order of the users' first clicks.

    As a mapping, a user id gives that user's most recent ``window`` train
    items, most-recent-last, as a list; users with no train click are
    absent. ``get`` looks a user up without raising. ``padded`` gathers
    many users' histories into the array ``model.user_tower`` reads. The
    arrays are read-only."""

    def __init__(self, row_of: dict[str, int], offsets: np.ndarray, column: np.ndarray, window: int):
        self.row_of = row_of
        self.window = window
        # an empty row after the last, for absent users, and a PAD after
        # the last item, which padding slots gather
        self._offsets = np.append(offsets, offsets[-1])
        self._column = np.append(column, PAD)
        for arr in (self._offsets, self._column):
            arr.setflags(write=False)
        self.offsets, self.column = self._offsets[:-1], self._column[:-1]

    def __getitem__(self, user_id: str) -> list[int]:
        return self._row(self.row_of[user_id])

    def get(self, user_id: str, default=None):
        row = self.row_of.get(user_id)
        return default if row is None else self._row(row)

    def __contains__(self, user_id) -> bool:
        return user_id in self.row_of

    def __iter__(self) -> Iterator[str]:
        return iter(self.row_of)

    def __len__(self) -> int:
        return len(self.row_of)

    def _row(self, row: int) -> list[int]:
        start, end = self._offsets[row : row + 2].tolist()
        return self._column[max(start, end - self.window) : end].tolist()

    def padded(self, user_ids: list[str], width: int) -> np.ndarray:
        """``model.pad_histories([self.get(u, []) for u in user_ids],
        width)`` by one gather: each user's most recent ``min(width,
        window)`` items, right-aligned in a (len(user_ids), width) int64
        array, ``PAD`` padded."""
        absent = len(self.offsets) - 1
        rows = np.fromiter((self.row_of.get(u, absent) for u in user_ids), np.intp, len(user_ids))
        ends = self._offsets[rows + 1, None]
        starts = np.maximum(self._offsets[rows, None], ends - min(width, self.window))
        at = ends - width + np.arange(width)
        return self._column[np.where(at >= starts, at, -1)]


@dataclass
class SplitDataset:
    """Chronological train/test split plus per-user behavior histories
    (``Histories``) over the train side, at most the split's behavior
    window long. Clicks given as ``Interaction`` rows are held as a
    ``ClickLog``.
    """

    train_interactions: ClickLog
    test_interactions: ClickLog
    behavior_histories: Histories

    def __post_init__(self):
        self.train_interactions = ClickLog.of(self.train_interactions)
        self.test_interactions = ClickLog.of(self.test_interactions)


def load_catalog(path: str) -> ItemCatalog:
    """Parse a JSONL item catalog; indices follow file order."""
    items: list[Item] = []
    first_line: dict[str, int] = {}
    for lineno, line in read_lines(path, strip=True):
        try:
            item = _item_from_row(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise DataFormatError(f"{path}:{lineno}: malformed item row ({exc})") from None
        record_key(first_line, item.item_id, path, lineno, "item_id {!r}", item.item_id)
        items.append(item)
    return ItemCatalog(items)


def _item_from_row(row: dict) -> Item:
    item_id = row["item_id"]
    if not isinstance(item_id, str) or not item_id:
        raise ValueError("item_id must be a non-empty string")
    # ids are written as TSV fields and comma-joined semantic positives
    if any(c in item_id for c in "\t\n\r,"):
        raise ValueError(f"item_id {item_id!r} holds a tab, line break or comma")
    tags = row.get("tags", [])
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise ValueError("tags must be a list of strings")
    provider = row.get("provider", "")
    if not isinstance(provider, str):
        raise ValueError("provider must be a string")
    taxonomy = row.get("taxonomy")
    if taxonomy is not None and not isinstance(taxonomy, str):
        raise ValueError("taxonomy must be a string or null")
    vector = row.get("title_vector")
    title_vector = None
    if vector is not None:
        title_vector = np.asarray(vector, dtype=np.float64)
        if title_vector.ndim != 1:
            raise ValueError("title_vector must be a flat list of numbers")
        title_vector.setflags(write=False)
    return Item(item_id, tuple(tags), provider, taxonomy, title_vector)


def save_catalog(catalog: ItemCatalog, path: str) -> None:
    """Write the catalog back to JSONL in index order (round-trip exact)."""
    rows = (
        {
            "item_id": item.item_id,
            "tags": list(item.tags),
            "provider": item.provider,
            "taxonomy": item.taxonomy,
            "title_vector": None if item.title_vector is None else [float(x) for x in item.title_vector],
        }
        for item in catalog.items
    )
    write_lines(path, (json.dumps(row, sort_keys=True) for row in rows))


def load_interactions(path: str, catalog: ItemCatalog) -> ClickLog:
    """Parse a TSV click log; rows whose item_id is not in the catalog are
    dropped and reported in one warning with the rejected count."""
    code_of: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    times: list[int] = []
    rejected = 0
    for lineno, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
        user_id, item_id, ts_text = parts
        if not user_id:
            raise DataFormatError(f"{path}:{lineno}: empty user_id")
        try:
            timestamp = int(ts_text)
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad timestamp {ts_text!r}") from None
        index = catalog.index_of.get(item_id)
        if index is None:
            rejected += 1
            continue
        users.append(code_of.setdefault(user_id, len(code_of)))
        items.append(index)
        times.append(timestamp)
    if rejected:
        warn(f"dropped {rejected} interaction rows with item_ids missing from the catalog")
    return ClickLog.from_codes(list(code_of), users, items, times)


def save_interactions(log: ClickLog, catalog: ItemCatalog, path: str) -> None:
    names, ids = log.user_ids, catalog.item_ids()
    rows = zip(log.user.tolist(), log.item.tolist(), log.time.tolist())
    write_lines(path, (f"{names[u]}\t{ids[i]}\t{t}" for u, i, t in rows))


def load_profiles(path: str) -> UserProfileTable:
    """Parse JSONL user profiles; every row must carry the same field set."""
    field_names: tuple[str, ...] | None = None
    rows: dict[str, tuple[str, ...]] = {}
    first_line: dict[str, int] = {}
    for lineno, line in read_lines(path, strip=True):
        try:
            row = json.loads(line)
            user_id, fields = row["user_id"], row["fields"]
            if not isinstance(user_id, str) or not isinstance(fields, dict):
                raise ValueError("user_id must be a string and fields an object")
        except (ValueError, KeyError, TypeError) as exc:
            raise DataFormatError(f"{path}:{lineno}: malformed profile row ({exc})") from None
        record_key(first_line, user_id, path, lineno, "user_id {!r}", user_id)
        if field_names is None:
            field_names = tuple(sorted(fields))
        elif tuple(sorted(fields)) != field_names:
            raise DataFormatError(
                f"{path}:{lineno}: profile fields {sorted(fields)} do not match schema {list(field_names)}"
            )
        rows[user_id] = tuple(str(fields[name]) for name in field_names)
    return UserProfileTable(field_names or (), rows)


def save_profiles(profiles: UserProfileTable, path: str) -> None:
    rows = ({"user_id": u, "fields": dict(zip(profiles.field_names, values))} for u, values in profiles.rows.items())
    write_lines(path, (json.dumps(row, sort_keys=True) for row in rows))


def _time_ordered(log: ClickLog) -> ClickLog:
    """``log`` stably sorted by timestamp (ties keep input order); a log
    already in order is returned as it is."""
    if (log.time[1:] < log.time[:-1]).any():
        return log[np.argsort(log.time, kind="stable")]
    return log


def build_histories(train: ClickLog, behavior_window: int) -> Histories:
    """Each user's train clicks as ``Histories`` capped at
    ``behavior_window``, from one stable sort by user code. ``train``
    must already be time-ordered."""
    if behavior_window <= 0:
        raise ValueError("behavior_window must be positive")
    order = argsort_codes(train.user)  # each user's clicks stay in time order
    user = train.user[order]
    heads = np.flatnonzero(np.diff(user, prepend=-1))
    names = [train.user_ids[c] for c in user[heads].tolist()]
    first = np.argsort(order[heads]).tolist()  # rows in order of their user's first click
    row_of = {names[r]: r for r in first}
    return Histories(row_of, np.append(heads, user.size), train.item[order], behavior_window)


def assemble_split(
    train: ClickLog | Iterable[Interaction],
    test: ClickLog | Iterable[Interaction],
    behavior_window: int = 20,
) -> SplitDataset:
    """Build a SplitDataset from already-separated train/test clicks (each
    gets stably time-ordered)."""
    train = _time_ordered(ClickLog.of(train))
    test = _time_ordered(ClickLog.of(test))
    return SplitDataset(train, test, build_histories(train, behavior_window))


def chronological_split(
    interactions: ClickLog | Iterable[Interaction],
    split_time: int,
    behavior_window: int = 20,
) -> SplitDataset:
    """Split clicks at ``split_time`` (train strictly before, test at or
    after) and build per-user behavior histories from the train side only.

    Events are ordered by timestamp with ties resolved by stable input
    order. Users that only appear in the test side get no history entry.
    """
    log = _time_ordered(ClickLog.of(interactions))
    if not len(log):
        raise ValueError("interactions must be non-empty")

    cut = int(np.searchsorted(log.time, split_time, side="left"))
    train, test = log[:cut], log[cut:]
    histories = build_histories(train, behavior_window)
    if not len(train):
        warn("chronological split produced an empty train set")
    if not len(test):
        warn("chronological split produced an empty test set")

    return SplitDataset(train, test, histories)
