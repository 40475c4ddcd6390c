"""Uniform negative sampling over an index range with an exclusion set.

:func:`sample_distinct_rows` is the one rejection loop for distinct
negatives, with each row's exclusions given as one row of a boolean
mask. :func:`_batched_negatives` feeds it every row that has enough
eligible items and owns the rule for the rows that do not;
:func:`uniform_excluding` is its one-row call. :func:`exclusion_rows`
builds every item's sorted exclusion list at once.
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np

from .util import warn


def _batched_negatives(
    n_items: int,
    exclusion_lists: list[np.ndarray],
    k: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """``k`` distinct draws per row from ``range(n_items)`` outside the
    row's exclusion list (no duplicates). Rows with at least ``k``
    eligible items go through one vectorized draw. A scarce row gets its
    whole eligible set in ascending order and draws nothing; one warning
    per call counts the scarce rows."""
    counts = np.asarray([len(x) for x in exclusion_lists], dtype=np.int64)
    scarce = n_items - counts < k
    rich = np.flatnonzero(~scarce)
    out: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(exclusion_lists)
    if rich.size:
        mask = np.zeros((rich.size, n_items), dtype=bool)
        cols = np.concatenate([np.asarray(exclusion_lists[i], dtype=np.int64) for i in rich])
        mask[np.repeat(np.arange(rich.size), counts[rich]), cols] = True
        drawn = sample_distinct_rows(n_items, k, rng, exclude_mask=mask)
        for row, idx in enumerate(rich):
            out[idx] = drawn[row]
    for idx in np.flatnonzero(scarce):
        out[idx] = np.setdiff1d(np.arange(n_items), exclusion_lists[idx])
    if scarce.any():
        warn(f"{scarce.sum()} of {scarce.size} rows have fewer than {k} eligible items; each gets its whole set")
    return out


def uniform_excluding(
    n_items: int,
    excluded: Collection[int],
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` distinct indices uniformly from ``range(n_items)`` minus
    ``excluded``: the one-row call of :func:`_batched_negatives`, so with
    fewer than ``n`` eligible indices the whole eligible set comes back in
    ascending order with a warning, and nothing is drawn."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _batched_negatives(n_items, [np.unique(np.fromiter(excluded, np.int64, len(excluded)))], n, rng)[0]


def exclusion_rows(rows: np.ndarray, cols: np.ndarray, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Each item's exclusions as CSR ``(indptr, excluded)``: item ``i``
    excludes itself and every ``cols[j]`` with ``rows[j] == i``, sorted,
    in the read-only slice ``excluded[indptr[i]:indptr[i + 1]]``."""
    every = np.arange(n_items)
    excluded = np.sort(np.concatenate([rows, every]) * n_items + np.concatenate([cols, every])) % n_items
    excluded.flags.writeable = False
    return np.append(0, np.cumsum(np.bincount(rows, minlength=n_items) + 1)), excluded


def _mark_row_duplicates(draws: np.ndarray) -> np.ndarray:
    """True at every entry that repeats an earlier value in its row."""
    order = np.argsort(draws, axis=1, kind="stable")
    sorted_draws = np.take_along_axis(draws, order, axis=1)
    dup_sorted = np.zeros_like(draws, dtype=bool)
    dup_sorted[:, 1:] = sorted_draws[:, 1:] == sorted_draws[:, :-1]
    dup = np.zeros_like(dup_sorted)
    np.put_along_axis(dup, order, dup_sorted, axis=1)
    return dup


def sample_distinct_rows(
    n_items: int,
    k: int,
    rng: np.random.Generator,
    exclude_mask: np.ndarray,
) -> np.ndarray:
    """Per-row uniform draws without replacement, vectorized across rows.

    Row r may not hold any index where the boolean (n_rows, n_items)
    ``exclude_mask`` is True. Invalid entries are redrawn until every row
    holds k distinct eligible values; the acceptance rule sees only the
    equality pattern, never the values, so the result is uniform over
    distinct k-tuples. Every row must have at least k eligible values.

    A row with no rejected draw in a round is settled, so each round
    checks only the rows that held a rejected draw in the round before;
    the rejected entries, and the row-major order they are redrawn in,
    are those of a check over every row.
    """
    n_rows = exclude_mask.shape[0]
    draws = rng.integers(0, n_items, size=(n_rows, k))
    open_rows = np.arange(n_rows)
    while open_rows.size:
        open_draws = draws[open_rows]
        bad = exclude_mask[open_rows[:, None], open_draws] | _mark_row_duplicates(open_draws)
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        open_draws[bad] = rng.integers(0, n_items, size=n_bad)
        draws[open_rows] = open_draws
        open_rows = open_rows[bad.any(axis=1)]
    return draws
