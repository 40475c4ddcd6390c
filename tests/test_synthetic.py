"""Planted-structure recovery and determinism of the synthetic generator."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from itemcl.data import ClickLog, chronological_split, save_catalog, save_interactions, save_profiles
from itemcl.semantics import mine_title_knn
from itemcl.sessions import build_cooccurrence, segment_sessions
from itemcl.synthetic import SyntheticSpec, default_split_time, generate

SMALL_SPEC = SyntheticSpec(
    n_users=300,
    n_items=200,
    n_clusters=10,
    n_interactions=20_000,
    title_dim=8,
    seed=5,
)


def cooccurrence_of(data, spec):
    split = chronological_split(
        data.interactions, default_split_time(data.interactions), behavior_window=5
    )
    sessions = segment_sessions(split, 3600)
    return build_cooccurrence(sessions, spec.n_items)


class TestPlantedClusters:
    def test_zero_noise_title_cosines(self):
        spec = dataclasses.replace(SMALL_SPEC, title_noise=0.0, n_items=40, n_clusters=2, n_users=20, n_interactions=500)
        data = generate(spec)
        vectors = np.stack([item.title_vector for item in data.catalog.items])
        sims = vectors @ vectors.T
        same = data.clusters[:, None] == data.clusters[None, :]
        np.testing.assert_allclose(sims[same], 1.0, atol=1e-12)
        assert sims[~same].max() < 1.0

    def test_title_knn_recovers_only_same_cluster(self):
        spec = dataclasses.replace(SMALL_SPEC, title_noise=0.0, n_items=60, n_clusters=6, n_users=20, n_interactions=500)
        data = generate(spec)
        pool = mine_title_knn(data.catalog, k=5)
        for i in range(60):
            for j in pool.positives[i]:
                assert data.clusters[i] == data.clusters[int(j)]


class TestMotifs:
    def test_planted_motifs_rank_above_background_median(self):
        spec = dataclasses.replace(SMALL_SPEC, motif_rate=0.10)
        data = generate(spec)
        table = cooccurrence_of(data, spec)
        motif_counts = [table.count(a, b) for a, b in data.motif_pairs]
        background = _cross_cluster_counts(table, data, exclude=set(data.motif_pairs))
        assert np.median(motif_counts) > np.median(background)
        assert np.mean(motif_counts) > np.mean(background) + 3 * _stderr(background)

    def test_rate_zero_matches_background(self):
        spec = dataclasses.replace(SMALL_SPEC, motif_rate=0.0)
        data = generate(spec)
        table = cooccurrence_of(data, spec)
        motif_counts = [table.count(a, b) for a, b in data.motif_pairs]
        background = _cross_cluster_counts(table, data, exclude=set(data.motif_pairs))
        # two-sided: the would-be motif pairs look like any other pairs
        half_width = 4 * _stderr(background, len(motif_counts))
        assert abs(np.mean(motif_counts) - np.mean(background)) < max(half_width, 0.5)

    def test_invalid_motif_rejected(self):
        with pytest.raises(ValueError, match="motif"):
            SyntheticSpec(n_items=10, n_clusters=2, motif_pairs=((3, 3),)).validate()


def _cross_cluster_counts(table, data, exclude):
    counts = []
    n = len(data.clusters)
    rng = np.random.default_rng(0)
    for _ in range(4000):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a == b or data.clusters[a] == data.clusters[b]:
            continue
        if (a, b) in exclude or (b, a) in exclude:
            continue
        counts.append(table.count(a, b))
    return counts


def _stderr(sample, m=None):
    sample = np.asarray(sample, dtype=float)
    return float(sample.std() / np.sqrt(m if m else len(sample)))


class TestDeterminism:
    def test_same_seed_identical_files(self, tmp_path):
        for sub in ("x", "y"):
            data = generate(SMALL_SPEC)
            save_catalog(data.catalog, str(tmp_path / sub / "catalog.jsonl"))
            save_interactions(data.interactions, data.catalog, str(tmp_path / sub / "interactions.tsv"))
            save_profiles(data.profiles, str(tmp_path / sub / "profiles.jsonl"))
        for name in ("catalog.jsonl", "interactions.tsv", "profiles.jsonl"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()

    def test_different_seed_differs(self):
        a = generate(SMALL_SPEC)
        b = generate(dataclasses.replace(SMALL_SPEC, seed=6))
        assert [e.item_index for e in a.interactions] != [e.item_index for e in b.interactions]


# SHA-256 of the files the save_* functions write. The click stream's draw
# order is a contract (see the synthetic module docstring): a change that
# moves any draw changes these.
GOLDEN_SPECS = {
    "small": SMALL_SPEC,
    "motif_pairs": dataclasses.replace(
        SMALL_SPEC,
        n_users=120,
        n_items=95,
        n_clusters=9,
        n_interactions=4000,
        motif_pairs=((0, 1), (7, 40), (94, 3)),
        motif_rate=0.3,
        seed=11,
    ),
    "no_motifs": dataclasses.replace(SMALL_SPEC, n_interactions=5000, motif_rate=0.0, seed=12),
}
GOLDEN_SHA256 = {
    "small": {
        "catalog.jsonl": "c8a13e342dbba9e03ec6ef3ce1cf0744f4543a2af3ac0a78c13b6fdc281de229",
        "interactions.tsv": "85405e231c2426d4c41fd77f6af4ed3888939853246aef6e7e6485a081ec0df9",
        "profiles.jsonl": "1f8fc48e4a90353175dfb430e6a83f1407ec68edfa86c5b260062934e53be893",
    },
    "motif_pairs": {
        "catalog.jsonl": "18374d2fcd3a0662be36b81997ebce9146eb08b97986cb1fde727df92605a857",
        "interactions.tsv": "7475f331635b5bd87c99809e93e959f7121a2d6098b57d416bc191f99fc2744d",
        "profiles.jsonl": "8fb5c593fa64cc93d6e99a6f894d8438d718288dd27a3d024124eff3a7fea86f",
    },
    "no_motifs": {
        "catalog.jsonl": "8f23ffe7e9d0a116e6ce212a56c739513a6a386d28fb4842dfbc476e2c27a2f5",
        "interactions.tsv": "da60869c6429880532a500898baa63e7ebb9ef43abc9c721330953d553c22e23",
        "profiles.jsonl": "7be985f42501e0a355a4735317c85e6b03a3e7553c8662537346695fecaf2ce7",
    },
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_saved_files_match_pinned_hashes(self, name, tmp_path):
        data = generate(GOLDEN_SPECS[name])
        save_catalog(data.catalog, str(tmp_path / "catalog.jsonl"))
        save_interactions(data.interactions, data.catalog, str(tmp_path / "interactions.tsv"))
        save_profiles(data.profiles, str(tmp_path / "profiles.jsonl"))
        hashes = {
            file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in GOLDEN_SHA256[name]
        }
        assert hashes == GOLDEN_SHA256[name]


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_users", 0),
            ("n_items", 0),
            ("n_clusters", 0),
            ("n_clusters", 1),
            ("n_interactions", -1),
            ("title_dim", 0),
            ("n_motif_pairs", -1),
            ("seed", -1),
            ("title_noise", -0.1),
            ("title_noise", math.inf),
            ("motif_rate", math.nan),
        ],
    )
    def test_bad_field_rejected_by_name(self, field, value):
        spec = dataclasses.replace(SMALL_SPEC, **{field: value})
        with pytest.raises(ValueError, match=f"^{field} "):
            spec.validate()
        with pytest.raises(ValueError, match=f"^{field} "):
            generate(spec)

    def test_more_clusters_than_items_rejected(self):
        with pytest.raises(ValueError, match="item per cluster"):
            dataclasses.replace(SMALL_SPEC, n_clusters=SMALL_SPEC.n_items + 1).validate()


class TestShape:
    def test_sizes_and_split(self):
        data = generate(SMALL_SPEC)
        assert len(data.catalog) == SMALL_SPEC.n_items
        assert len(data.profiles.rows) == SMALL_SPEC.n_users
        assert abs(len(data.interactions) - SMALL_SPEC.n_interactions) < 0.1 * SMALL_SPEC.n_interactions
        split_time = default_split_time(data.interactions, 0.8)
        n_before = sum(1 for e in data.interactions if e.timestamp < split_time)
        assert 0.7 < n_before / len(data.interactions) < 0.9

    @pytest.mark.parametrize("fraction", [1.5, -0.2, float("nan")])
    def test_split_fraction_outside_0_1_named(self, fraction):
        with pytest.raises(ValueError, match=rf"^train fraction must lie in \[0, 1\], got {fraction}$"):
            default_split_time(ClickLog.from_codes(["u"], [0], [0], [5]), fraction)

    def test_timestamps_sorted(self):
        data = generate(SMALL_SPEC)
        ts = [e.timestamp for e in data.interactions]
        assert ts == sorted(ts)
