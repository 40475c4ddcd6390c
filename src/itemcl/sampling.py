"""Uniform negative sampling over an index range with an exclusion set.

:func:`sample_distinct_rows` is the one rejection loop for distinct
negatives, with each row's exclusions given as one row of a boolean
mask; :func:`uniform_excluding` draws one row through it.
:func:`exclusion_rows` builds every item's sorted exclusion list at once.
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np

from .util import warn


def uniform_excluding(
    n_items: int,
    excluded: Collection[int],
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` distinct indices uniformly from ``range(n_items)`` minus
    ``excluded``: one row of :func:`sample_distinct_rows`.

    If fewer than ``n`` indices are eligible, the whole eligible set is
    returned in ascending order with a warning, and nothing is drawn.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mask = np.zeros((1, n_items), dtype=bool)
    mask[0, np.fromiter(excluded, dtype=np.int64, count=len(excluded))] = True
    eligible = np.flatnonzero(~mask[0])
    if eligible.size < n:
        warn("eligible set smaller than requested sample size; returning the whole eligible set")
        return eligible
    return sample_distinct_rows(n_items, n, rng, exclude_mask=mask)[0]


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
