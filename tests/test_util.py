"""The process heap policy that importing itemcl sets (``util.keep_freed_heap``),
the exact top-k with its pruned path, and the radix argsort of integer codes."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from itemcl import util

SRC = Path(util.__file__).resolve().parent.parent

# Allocate and free three 24 MiB arrays, three times, and print each
# round's minor page faults. numpy is imported first on both sides, so
# the only difference between them is the import of itemcl.
FAULT_ROUNDS = """
import json, resource, sys
import numpy as np
if sys.argv[1] == "itemcl":
    import itemcl
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(3 << 20) for _ in range(3)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def fault_rounds(mode: str) -> list[int]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FAULT_ROUNDS, mode], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and util._is_glibc()), reason="the heap policy applies to glibc on Linux"
)
def test_freed_arrays_are_reused_without_faulting_again():
    control = fault_rounds("numpy")
    if min(control[1:]) < 0.5 * control[0]:
        pytest.skip(f"freed memory is reused here without itemcl too (faults per round {control})")
    with_itemcl = fault_rounds("itemcl")
    assert max(with_itemcl[1:]) < 0.05 * with_itemcl[0], (
        f"faults per round: {with_itemcl} with itemcl, {control} without"
    )


def test_does_nothing_off_glibc(monkeypatch):
    def no_libc(*args, **kwargs):
        raise AssertionError("mallopt must not be looked up off glibc")

    monkeypatch.setattr(util, "_is_glibc", lambda: False)
    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert util.keep_freed_heap() is False


def stable_argsort(scores, k):
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]


@pytest.fixture
def pruned_calls(monkeypatch):
    """Counts the calls that take the pruned path, so a test can show its
    sizes reach it."""
    calls = []
    pruned = util._pruned_top_k

    def counting(rows, k):
        calls.append(rows.shape)
        return pruned(rows, k)

    monkeypatch.setattr(util, "_pruned_top_k", counting)
    return calls


def assert_pruned_matches_stable_argsort(scores, k, pruned_calls):
    np.testing.assert_array_equal(util.top_k(scores, k), stable_argsort(scores, k))
    assert pruned_calls, f"shape {scores.shape} with k = {k} did not take the pruned path"


class TestPrunedTopK:
    def test_ties_planted_at_the_block_bound(self, pruned_calls):
        # k + 1 blocks share the highest score, so the k-th largest block
        # maximum ties another block's: the lowest k tied columns must win
        rng = np.random.default_rng(0)
        n, k = 4000, 10
        width = n // 8
        scores = rng.random((64, n))
        for row in scores:
            blocks = rng.choice(width, size=k + 1, replace=False)
            row[blocks + width * rng.integers(0, 8, size=k + 1)] = 2.0
        assert_pruned_matches_stable_argsort(scores, k, pruned_calls)

    def test_ties_planted_at_the_kth_score(self, pruned_calls):
        # the k-th score repeated inside blocks that hold higher scores, in
        # any column order, and among the scores above it
        rng = np.random.default_rng(1)
        n, k = 1000, 7
        scores = rng.random((96, n))
        for i, row in enumerate(scores):
            top = np.argsort(-row, kind="stable")[:k]
            row[rng.choice(top[:-1], size=int(rng.integers(1, 4)))] = row[top[-1]] if i % 2 else row[top[0]]
            if i % 3 == 0:
                row[top[rng.integers(0, k)] % (n // 8) + (n // 8) * rng.integers(0, 8)] = row[top[-1]]
        assert_pruned_matches_stable_argsort(scores, k, pruned_calls)

    def test_few_distinct_values(self, pruned_calls):
        scores = np.random.default_rng(2).integers(0, 4, size=(64, 777)).astype(float)
        assert_pruned_matches_stable_argsort(scores, 9, pruned_calls)

    def test_minus_inf_entries_and_rows_with_fewer_than_k_finite_scores(self, pruned_calls):
        rng = np.random.default_rng(3)
        n, k = 1200, 12
        scores = rng.normal(size=(64, n))
        scores[rng.random(scores.shape) < 0.3] = -np.inf
        for i in range(0, 64, 4):  # 0 to 2k finite scores
            scores[i] = -np.inf
            scores[i, rng.choice(n, size=i // 2, replace=False)] = rng.normal(size=i // 2)
        assert_pruned_matches_stable_argsort(scores, k, pruned_calls)

    def test_nan_rows(self, pruned_calls):
        rng = np.random.default_rng(4)
        n, k = 1000, 10
        scores = rng.normal(size=(64, n))
        scores[0] = np.nan
        scores[1, ::2] = np.nan
        scores[2, :995] = np.nan  # fewer than k numbers
        scores[3, 7] = np.nan
        scores[4, :] = -np.inf
        scores[4, 100:104] = np.nan
        scores[5, rng.choice(n, size=3, replace=False)] = np.nan
        scores[5, :500] = -np.inf
        assert_pruned_matches_stable_argsort(scores, k, pruned_calls)

    @pytest.mark.parametrize("n", [641, 1001, 4003, 4007])
    def test_n_not_a_multiple_of_the_block(self, n, pruned_calls):
        rng = np.random.default_rng(n)
        scores = np.round(rng.random((48, n)), 2)
        scores[:, n - n % 8 :] += 1.0  # the tail columns hold the top scores
        scores[::3, n - 1] = 5.0
        assert_pruned_matches_stable_argsort(scores, 5, pruned_calls)

    @pytest.mark.parametrize("k", [12, 13])
    def test_k_at_the_edge_of_the_pruning_rule(self, k, pruned_calls):
        n = 8 * 8 * 13 + 5  # 109 blocks: k = 13 still prunes, k = 14 does not
        scores = np.round(np.random.default_rng(k).random((40, n)), 2)
        assert_pruned_matches_stable_argsort(scores, k, pruned_calls)
        pruned_calls.clear()
        np.testing.assert_array_equal(util.top_k(scores, 14), stable_argsort(scores, 14))
        np.testing.assert_array_equal(util.top_k(scores[:31], k), stable_argsort(scores[:31], k))
        assert not pruned_calls, "14 of 109 blocks, or 31 rows, should take the unpruned path"

    def test_three_dimensional_input(self, pruned_calls):
        rng = np.random.default_rng(5)
        scores = np.round(rng.normal(size=(4, 16, 900)), 1)
        top = util.top_k(scores, 6)
        assert top.shape == (4, 16, 6)
        np.testing.assert_array_equal(top, stable_argsort(scores, 6))
        assert pruned_calls == [(64, 900)]

    def test_float32_scores(self, pruned_calls):
        scores = np.round(np.random.default_rng(6).normal(size=(32, 700)), 1).astype(np.float32)
        assert_pruned_matches_stable_argsort(scores, 4, pruned_calls)


def test_top_k_rejects_negative_k():
    with pytest.raises(ValueError, match="k = -2"):
        util.top_k(np.arange(5.0), -2)
    with pytest.raises(ValueError, match="k = -1"):
        util.top_k(np.zeros((64, 4000)), -1)


def test_unpruned_top_k_ranks_nan_after_minus_inf():
    rng = np.random.default_rng(7)
    scores = rng.random((40, 30))
    scores[rng.random(scores.shape) < 0.4] = np.nan
    scores[rng.random(scores.shape) < 0.3] = -np.inf
    for k in (1, 5, 20, 29, 30, 31):
        np.testing.assert_array_equal(util.top_k(scores, k), stable_argsort(scores, k))


@pytest.mark.parametrize("top", [0, 200, 255, 256, 5000, 65535, 65536, 1 << 40])
def test_argsort_codes_is_a_stable_argsort(top):
    codes = np.random.default_rng(top).integers(0, top + 1, size=3000)
    codes[:5] = top
    np.testing.assert_array_equal(util.argsort_codes(codes), np.argsort(codes, kind="stable"))
