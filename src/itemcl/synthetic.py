"""Synthetic dataset generator with planted structure.

Items fall into clusters that leave three recoverable footprints: title
vectors near the cluster centroid, cluster-specific tags and taxonomy
keys, and user click streams skewed toward preferred clusters. Purely
behavioral structure is planted on top, invisible to features and
titles, so the session-level task has something of its own to find:
explicit cross-cluster motif pairs are injected into sessions.

Everything is a pure function of the spec and its seed. Each stage draws
from its own named substream, and the click stream's draw order is part
of the contract: a weighted item draw takes exactly one ``random()``
double and bisects the cluster's popularity CDF, built as
``Generator.choice(p=)`` builds it (``cdf = p.cumsum(); cdf /= cdf[-1]``,
then ``searchsorted(side="right")``), so it is the same draw ``choice``
would make, without re-validating ``p`` on every click.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .data import ClickLog, Item, ItemCatalog, UserProfileTable, _time_ordered
from .rng import substream

TRAIN_FRACTION = 0.8  # share of clicks before the default split time

# fixed shape of the planted structure
INTRA_CLUSTER_BIAS = 0.85  # share of sessions that lean on a preferred cluster
TAGS_PER_CLUSTER = 4
N_PROVIDERS = 20
ZIPF_EXPONENT = 0.8  # popularity over an item's rank within its cluster
MEAN_SESSION_LENGTH = 3.0
MAX_SESSION_LENGTH = 8
SESSION_GAP_SECONDS = 300  # clicks in a session lie 1..300 s apart

_POSITIVE_COUNTS = ("n_users", "n_items", "n_interactions", "title_dim")


@dataclass(frozen=True)
class SyntheticSpec:
    n_users: int = 2000
    n_items: int = 1000
    n_clusters: int = 20
    n_interactions: int = 200_000
    title_dim: int = 16
    title_noise: float = 0.05
    motif_pairs: tuple[tuple[int, int], ...] | None = None  # None -> auto-pick
    n_motif_pairs: int = 60
    motif_rate: float = 0.15
    seed: int = 0

    def validate(self) -> None:
        for name in _POSITIVE_COUNTS:
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be positive")
        if not self.n_clusters >= 2:
            raise ValueError("n_clusters must be at least 2: each user prefers two clusters")
        if not self.n_motif_pairs >= 0:
            raise ValueError("n_motif_pairs must be non-negative")
        if not self.seed >= 0:
            raise ValueError("seed must be non-negative")
        if not (0.0 <= self.title_noise < math.inf):
            raise ValueError("title_noise must be finite and non-negative")
        if not (0.0 <= self.motif_rate < 1.0):
            raise ValueError("motif_rate must lie in [0, 1)")
        if self.n_clusters > self.n_items:
            raise ValueError("need at least one item per cluster")
        if self.motif_pairs is not None:
            for a, b in self.motif_pairs:
                if not (0 <= a < self.n_items and 0 <= b < self.n_items) or a == b:
                    raise ValueError(f"motif pair ({a}, {b}) does not reference two distinct items")


@dataclass
class SyntheticDataset:
    catalog: ItemCatalog
    interactions: ClickLog
    profiles: UserProfileTable
    clusters: np.ndarray  # item index -> cluster
    motif_pairs: tuple[tuple[int, int], ...] = field(default_factory=tuple)


def _pick_motif_pairs(spec: SyntheticSpec, clusters: np.ndarray) -> tuple[tuple[int, int], ...]:
    if spec.motif_pairs is not None:
        return tuple((int(a), int(b)) for a, b in spec.motif_pairs)
    rng = substream(spec.seed, "synth", "motifs")
    sizes = np.bincount(clusters, minlength=spec.n_clusters)
    cross_pairs = (spec.n_items * (spec.n_items - 1) - int((sizes * (sizes - 1)).sum())) // 2
    target = min(spec.n_motif_pairs, cross_pairs)
    pairs: list[tuple[int, int]] = []
    taken: set[tuple[int, int]] = set()
    while len(pairs) < target:
        a, b = (int(x) for x in rng.integers(0, spec.n_items, size=2))
        if a == b or clusters[a] == clusters[b]:
            continue  # motifs are cross-cluster on purpose
        key = (min(a, b), max(a, b))
        if key in taken:
            continue
        taken.add(key)
        pairs.append((a, b))
    return tuple(pairs)


def generate(spec: SyntheticSpec) -> SyntheticDataset:
    """Build the catalog, click log, and profiles for ``spec``."""
    spec.validate()
    clusters = np.arange(spec.n_items) % spec.n_clusters
    motifs = _pick_motif_pairs(spec, clusters)

    rng_titles = substream(spec.seed, "synth", "titles")
    centroids = rng_titles.normal(size=(spec.n_clusters, spec.title_dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    noise = rng_titles.normal(size=(spec.n_items, spec.title_dim)) * spec.title_noise
    titles = centroids[clusters] + noise
    titles /= np.linalg.norm(titles, axis=1, keepdims=True)

    rng_items = substream(spec.seed, "synth", "items")
    items: list[Item] = []
    for i in range(spec.n_items):
        k = int(clusters[i])
        n_tags = int(rng_items.integers(1, 4))
        tag_ids = rng_items.choice(TAGS_PER_CLUSTER, size=n_tags, replace=False)
        tags = tuple(f"c{k}:t{int(t)}" for t in sorted(tag_ids))
        provider = f"p{int(rng_items.integers(N_PROVIDERS))}"
        items.append(
            Item(
                item_id=f"i{i:05d}",
                tags=tags,
                provider=provider,
                taxonomy=f"c{k}",
                title_vector=titles[i],
            )
        )
    catalog = ItemCatalog(items)

    # popularity within each cluster: Zipf over the cluster's member rank,
    # held as the CDF Generator.choice(p=) would build from it
    cluster_members: list[list[int]] = []
    cluster_cdfs: list[list[float]] = []
    for k in range(spec.n_clusters):
        members = np.flatnonzero(clusters == k)
        ranks = np.arange(1, members.size + 1, dtype=np.float64)
        w = ranks ** (-ZIPF_EXPONENT)
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        cluster_members.append(members.tolist())
        cluster_cdfs.append(cdf.tolist())

    rng_users = substream(spec.seed, "synth", "users")
    preferred = np.stack(
        [rng_users.choice(spec.n_clusters, size=2, replace=False) for _ in range(spec.n_users)]
    )
    profile_rows: dict[str, tuple[str, ...]] = {}
    for j in range(spec.n_users):
        profile_rows[f"u{j:05d}"] = (
            f"h{int(rng_users.integers(5))}",
            f"g{int(preferred[j, 0]) % 10}",
        )
    profiles = UserProfileTable(("cohort", "group"), profile_rows)

    rng_clicks = substream(spec.seed, "synth", "clicks")
    random, integers, poisson = rng_clicks.random, rng_clicks.integers, rng_clicks.poisson
    n_clusters, gap = spec.n_clusters, SESSION_GAP_SECONDS
    inject_motifs = spec.motif_rate > 0 and bool(motifs)
    click_user, click_item, click_time = [], [], []
    base_quota = spec.n_interactions // spec.n_users
    horizon = 90 * 24 * 3600
    for j, (first, second) in enumerate(preferred.tolist()):
        quota = base_quota + (1 if j < spec.n_interactions % spec.n_users else 0)
        if quota == 0:
            continue
        n_sessions = max(1, int(round(quota / MEAN_SESSION_LENGTH)))
        starts = np.sort(integers(0, horizon, size=n_sessions)).tolist()
        remaining = quota
        last_end = -(10**9)
        for session_start in starts:
            if remaining <= 0:
                break
            length = int(min(remaining, MAX_SESSION_LENGTH, 1 + poisson(MEAN_SESSION_LENGTH - 1.0)))
            t = max(session_start, last_end + 2 * 3600 + 1)
            # session items lean on one cluster for within-session coherence
            if random() < INTRA_CLUSTER_BIAS:
                session_cluster = first if random() < 0.7 else second
            else:
                session_cluster = int(integers(n_clusters))
            session_items: list[int] = []
            for _ in range(length):
                k = session_cluster if random() < 0.9 else int(integers(n_clusters))
                session_items.append(cluster_members[k][bisect_right(cluster_cdfs[k], random())])
            if inject_motifs and random() < spec.motif_rate:
                session_items.extend(motifs[int(integers(len(motifs)))])
            click_user.extend([j] * len(session_items))
            click_item.extend(session_items)
            for _ in session_items:
                click_time.append(t)
                t += 1 + int(integers(gap))
            last_end = t
            remaining -= len(session_items)

    log = ClickLog.from_codes(list(profile_rows), click_user, click_item, click_time)
    return SyntheticDataset(catalog, _time_ordered(log), profiles, clusters, motifs)


def default_split_time(interactions: ClickLog, train_fraction: float = TRAIN_FRACTION) -> int:
    """Timestamp at the given quantile of the click log, for chronological
    splitting."""
    if not 0.0 <= train_fraction <= 1.0:  # NaN fails this too
        raise ValueError(f"train fraction must lie in [0, 1], got {train_fraction}")
    ts = interactions.time
    if not ts.size:
        raise ValueError("interactions must be non-empty")
    return int(np.quantile(ts, train_fraction, method="higher"))
