"""Small shared helpers: warning category, atomic file writes and the
exact top-k used by retrieval and mining."""

from __future__ import annotations

import os
import tempfile
import warnings

import numpy as np


class ItemclWarning(UserWarning):
    """Category for degenerate-but-legal situations (empty splits, short
    eligible sets, excluded items)."""


def warn(message: str) -> None:
    warnings.warn(message, ItemclWarning, stacklevel=3)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and rename."""
    _atomic_write(path, text.encode("utf-8"))


def atomic_write_bytes(path: str, data: bytes) -> None:
    _atomic_write(path, data)


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest scores along the last axis, highest
    first, ties broken toward the lower index: exactly the first ``k`` of
    a stable argsort of ``-scores``, found by partial sorting.

    ``argpartition`` settles which scores are in but picks arbitrarily
    among those equal to the k-th; rows with more than ``k`` scores at or
    above the k-th take their lowest-index tied entries instead.
    """
    neg = -np.asarray(scores)
    n = neg.shape[-1]
    if not 0 < k < n:
        return np.argsort(neg, axis=-1, kind="stable")[..., :k]
    rows = neg.reshape(-1, n)
    r = np.arange(rows.shape[0])[:, None]
    part = np.argpartition(rows, k - 1, axis=1)
    kth = rows[r, part[:, k - 1 : k]]
    top = part[:, :k]
    for i in np.flatnonzero((rows <= kth).sum(axis=1) > k):
        better = np.flatnonzero(rows[i] < kth[i])
        tied = np.flatnonzero(rows[i] == kth[i])
        top[i] = np.concatenate([better, tied[: k - better.size]])
    order = np.lexsort((top, rows[r, top]))
    return top[r, order].reshape(neg.shape[:-1] + (k,))
