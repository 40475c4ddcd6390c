"""Shared negative-sampling helpers."""

import numpy as np
import pytest

from itemcl.sampling import sample_distinct_rows, uniform_excluding
from itemcl.util import ItemclWarning


class TestUniformExcluding:
    def test_distinct_and_excluded(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            out = uniform_excluding(20, {3, 4, 5}, 8, rng)
            assert len(set(out.tolist())) == 8
            assert not ({3, 4, 5} & set(out.tolist()))

    def test_zero(self):
        assert uniform_excluding(10, {1}, 0, np.random.default_rng(0)).size == 0

    def test_is_one_row_of_sample_distinct_rows(self):
        rng, expected_rng = np.random.default_rng(5), np.random.default_rng(5)
        mask = np.zeros((1, 20), dtype=bool)
        mask[0, [3, 4, 5]] = True
        for _ in range(50):
            out = uniform_excluding(20, np.array([5, 3, 4]), 8, rng)
            np.testing.assert_array_equal(out, sample_distinct_rows(20, 8, expected_rng, exclude_mask=mask)[0])
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_shortfall_returns_eligible_ascending_and_draws_nothing(self):
        rng = np.random.default_rng(6)
        before = rng.bit_generator.state
        with pytest.warns(ItemclWarning) as caught:
            out = uniform_excluding(6, {4, 0, 2}, 4, rng)
        assert out.tolist() == [1, 3, 5]
        assert len(caught) == 1
        assert rng.bit_generator.state == before


class TestSampleDistinctRows:
    def test_respects_single_exclusion_and_distinctness(self):
        rng = np.random.default_rng(1)
        anchors = np.arange(50) % 10
        mask = np.zeros((50, 10), dtype=bool)
        mask[np.arange(50), anchors] = True  # one excluded index per row
        draws = sample_distinct_rows(10, 5, rng, exclude_mask=mask)
        for row, a in zip(draws, anchors):
            assert a not in row.tolist()
            assert len(set(row.tolist())) == 5

    def test_respects_mask(self):
        rng = np.random.default_rng(2)
        mask = np.zeros((30, 12), dtype=bool)
        mask[:, :4] = True
        draws = sample_distinct_rows(12, 6, rng, exclude_mask=mask)
        assert draws.min() >= 4
        assert all(len(set(r.tolist())) == 6 for r in draws)

    def test_uniform_over_eligible(self):
        rng = np.random.default_rng(3)
        mask = np.zeros((50_000, 10), dtype=bool)
        mask[:, [0, 1, 2]] = True  # eligible {3..9}
        draws = sample_distinct_rows(10, 1, rng, exclude_mask=mask)
        freq = np.bincount(draws.ravel(), minlength=10) / draws.size
        assert freq[:3].sum() == 0
        assert np.all(np.abs(freq[3:] - 1 / 7) < 0.01)

    def test_pairs_uniform_without_replacement(self):
        # drawing 2 of 4 eligible values: all 12 ordered pairs equally likely
        rng = np.random.default_rng(4)
        mask = np.zeros((60_000, 5), dtype=bool)
        mask[:, 0] = True  # eligible {1,2,3,4}
        draws = sample_distinct_rows(5, 2, rng, exclude_mask=mask)
        pairs, counts = np.unique(draws, axis=0, return_counts=True)
        assert len(pairs) == 12
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 1 / 12) < 0.01)


def every_row_reference(n_items, k, rng, exclude_mask):
    """The rejection loop that checks every row in every round, one entry
    at a time: an entry is rejected when its row excludes it or it repeats
    an earlier entry of its row; rejected entries are redrawn in row-major
    order."""
    n_rows = exclude_mask.shape[0]
    draws = rng.integers(0, n_items, size=(n_rows, k))
    while True:
        bad = np.zeros(draws.shape, dtype=bool)
        for r in range(n_rows):
            seen = set()
            for j in range(k):
                value = int(draws[r, j])
                bad[r, j] = bool(exclude_mask[r, value]) or value in seen
                seen.add(value)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return draws
        draws[bad] = rng.integers(0, n_items, size=n_bad)


class TestSampleDistinctRowsMatchesEveryRowLoop:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_draws_and_stream(self, seed):
        # planted exclusions of 0-8 items per row leave 22-30 eligible, and
        # k = 20 of them makes most rows redraw repeats for many rounds
        n_rows, n_items, k = 120, 30, 20
        plant = np.random.default_rng(1000 + seed)
        mask = np.zeros((n_rows, n_items), dtype=bool)
        for row in range(n_rows):
            mask[row, plant.choice(n_items, size=plant.integers(0, 9), replace=False)] = True
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = sample_distinct_rows(n_items, k, rng, exclude_mask=mask)
        np.testing.assert_array_equal(draws, every_row_reference(n_items, k, expected_rng, mask))
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        assert not mask[np.arange(n_rows)[:, None], draws].any()
        assert all(len(set(row.tolist())) == k for row in draws)
