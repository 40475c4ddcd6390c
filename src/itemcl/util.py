"""Small shared helpers: the process's heap policy, warning category,
atomic file writes, a sort-based ``np.unique``, a radix argsort of integer
codes and the exact top-k used by retrieval and mining."""

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


def argsort_codes(codes: np.ndarray) -> np.ndarray:
    """``np.argsort(codes, kind="stable")`` of nonnegative integer codes,
    sorted in the narrowest unsigned dtype that holds them: numpy sorts
    integers of 16 bits or fewer stably by radix, in linear time."""
    narrow = np.min_scalar_type(int(codes.max(initial=0)))
    return np.argsort(codes.astype(narrow, copy=False), kind="stable")


_BLOCK = 8  # columns per block of the pruned top-k
_PRUNE_MIN_ROWS = 32  # fewer rows cannot repay the pruned path's fixed cost


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest scores along the last axis, highest
    first, ties broken toward the lower index: exactly the first ``k`` of
    a stable argsort of ``-scores``. So ``-inf`` ranks below every number
    and NaN below ``-inf``, and a row with fewer than ``k`` numbers lists
    them first, then its NaN columns in index order. ``k`` at least the
    row length gives the whole argsort; a negative ``k`` raises
    ``ValueError``.

    Rows are found by partial sorting (``argpartition``), which settles
    which scores are in but picks arbitrarily among those equal to the
    k-th; a row with more than ``k`` scores at or above the k-th takes its
    lowest-index tied entries instead.

    Inputs of at least ``_PRUNE_MIN_ROWS`` rows with at least ``8 k``
    blocks (below) are pruned first; one row, and evaluation's k = 50 or
    500 of 1000 items, are not. The ``n`` columns are cut into
    ``B = n // 8`` blocks: block ``j`` holds columns ``j, j + B, ...,
    j + 7 B``, and tail column ``8 B + j`` joins it. The k-th largest block
    maximum is at most the row's k-th score, so the row's top ``k`` lie in
    the ``k`` blocks with the largest maxima, and the partial sort runs
    over their at most ``9 k`` columns only. A row falls back to the
    unpruned partial sort when another block's maximum ties that bound,
    when a candidate outside the top ``k`` ties the k-th score (the
    candidates are not in index order), or when it holds a NaN.
    """
    scores = np.asarray(scores)
    if k < 0:
        raise ValueError(f"k = {k} must not be negative")
    n = scores.shape[-1]
    if not 0 < k < n:
        return np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    rows = scores.reshape(-1, n)
    prune = rows.shape[0] >= _PRUNE_MIN_ROWS and n // _BLOCK >= _BLOCK * k
    top = _pruned_top_k(rows, k) if prune else _exact_top_k(-rows, k)
    return top.reshape(scores.shape[:-1] + (k,))


def _partition(neg: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of each row's ``k`` lowest entries, in no order, and
    whether the row holds more than ``k`` entries at or below the k-th
    lowest, so that which of the tied ones were taken is arbitrary (NaN
    ranks last, so a NaN k-th counts as tied)."""
    part = np.argpartition(neg, k - 1, axis=1)
    kth = neg[np.arange(neg.shape[0]), part[:, k - 1]]
    tied = np.isnan(kth) | ((neg <= kth[:, None]).sum(axis=1) > k)
    return part[:, :k], tied


def _ordered(top: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Each row of column indices ``top`` sorted by its values ``neg``
    ascending, then by column."""
    r = np.arange(top.shape[0])[:, None]
    return top[r, np.lexsort((top, neg))]


def _exact_top_k(neg: np.ndarray, k: int) -> np.ndarray:
    """``top_k`` of the (rows, n) array ``-neg`` by partial sorting."""
    top, tied = _partition(neg, k)
    for i in np.flatnonzero(tied):
        top[i] = np.argsort(neg[i], kind="stable")[:k]
    return _ordered(top, neg[np.arange(neg.shape[0])[:, None], top])


def _pruned_top_k(rows: np.ndarray, k: int) -> np.ndarray:
    """``top_k`` of the (rows, n) array ``rows`` from the ``k`` blocks of
    each row with the largest maxima, as ``top_k`` describes."""
    m, n = rows.shape
    width = n // _BLOCK
    maxima = rows[:, : _BLOCK * width].reshape(m, _BLOCK, width).max(axis=1)
    tail = n - _BLOCK * width
    np.maximum(maxima[:, :tail], rows[:, _BLOCK * width :], out=maxima[:, :tail])
    blocks = np.argpartition(maxima, width - k, axis=1)[:, width - k :]
    r = np.arange(m)[:, None]
    # argpartition ranks NaN above every number, so a row holding one has a NaN bound
    bound = maxima[r, blocks].min(axis=1)
    cols = (blocks[:, :, None] + width * np.arange(_BLOCK + 1)).reshape(m, -1)
    neg = np.where(cols < n, -rows[r, np.minimum(cols, n - 1)], np.inf)
    pos, tied = _partition(neg, k)
    top = _ordered(cols[r, pos], neg[r, pos])
    redo = np.flatnonzero(tied | np.isnan(bound) | ((maxima >= bound[:, None]).sum(axis=1) > k))
    if redo.size:
        top[redo] = _exact_top_k(-rows[redo], k)
    return top
