"""Small shared helpers: the process's heap policy, warning category,
atomic file writes, a sort-based ``np.unique`` and the exact top-k used by
retrieval and mining."""

from __future__ import annotations

import ctypes
import os
import tempfile
import warnings

import numpy as np


# mallopt parameters, from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's own cap for its dynamic mmap threshold on 64-bit
TRIM_THRESHOLD_BYTES = 1 << 30


def _is_glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name here
        return False


def keep_freed_heap() -> bool:
    """Keep heap memory that is freed in the process, so that a training
    step's temporaries (tens of MiB, created and freed every step) reuse
    pages that are already mapped instead of faulting fresh ones in.

    By default glibc serves an allocation above its dynamic threshold with
    its own ``mmap`` and unmaps it when freed, and gives the top of the heap
    back to the kernel once more than twice that threshold is free there;
    the threshold stops rising at 32 MiB, so the step's arrays are returned
    and faulted in again every step. This sets the mmap threshold to that
    32 MiB cap and the trim threshold to 1 GiB. Both are needed: either
    setting alone switches the dynamic threshold off and leaves the other
    at its 128 KiB default, which faults more than glibc's default policy.

    Does nothing, and returns False, off glibc or where ``ctypes`` cannot
    reach ``mallopt``; returns True once both settings are in force. The
    cost is resident memory: it stays at the process's high-water mark
    until exit, unless the caller runs ``ctypes.CDLL(None).malloc_trim(0)``.
    """
    if not _is_glibc():
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)) and bool(
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    )


class ItemclWarning(UserWarning):
    """Category for degenerate-but-legal situations (empty splits, short
    eligible sets, excluded items)."""


def warn(message: str) -> None:
    warnings.warn(message, ItemclWarning, stacklevel=3)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and rename."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str, data: bytes) -> None:
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


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``, the sorted distinct entries of the flattened
    array, by a sort and a mask: without ``return_*`` flags numpy's
    ``unique`` hashes, which is several times slower on integer arrays."""
    flat = np.sort(values, axis=None)
    keep = np.ones(flat.size, dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    return flat[keep]


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
