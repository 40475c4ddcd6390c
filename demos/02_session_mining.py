#!/usr/bin/env python3
"""Segment click streams into sessions, count global item co-occurrence,
and sample session-level positives and negatives."""

import numpy as np

from itemcl import (
    SessionPositiveSampler,
    SyntheticSpec,
    build_cooccurrence,
    chronological_split,
    default_split_time,
    generate,
    segment_sessions,
)
from itemcl.sampling import uniform_excluding

spec = SyntheticSpec(n_users=200, n_items=120, n_clusters=10, n_interactions=12_000, motif_rate=0.1, seed=3)
data = generate(spec)
split = chronological_split(data.interactions, default_split_time(data.interactions), 20)

sessions = segment_sessions(split, window_seconds=3600)
lengths = np.diff(sessions.offsets)
print(f"{len(sessions)} sessions, lengths min/median/max = {lengths.min()}/{int(np.median(lengths))}/{lengths.max()}")

table = build_cooccurrence(sessions, len(data.catalog), k=10)
print(f"co-occurrence table: {len(table.counts)} distinct pairs")

# the planted cross-cluster motifs should sit far above the background
motif_counts = [table.count(a, b) for a, b in data.motif_pairs]
all_counts = table.counts
print(f"median planted-motif count = {np.median(motif_counts):.0f} vs overall median pair count = {np.median(all_counts):.0f}")

sampler = SessionPositiveSampler(table)
rng = np.random.default_rng(0)
anchor = data.motif_pairs[0][0]
_, draws = sampler.sample_many(np.full(2000, anchor), rng)
partner = data.motif_pairs[0][1]
neighbors, counts = table.topk(anchor)
print(f"item {anchor}: top co-occurred neighbors {list(zip(neighbors[:3].tolist(), counts[:3].tolist()))}")
print(f"  weighted sampling hit its motif partner {partner} in {int((draws == partner).sum())}/2000 draws")

negatives = uniform_excluding(table.n_items, table.excluded(anchor), 8, rng)
assert not (set(negatives.tolist()) & set(table.excluded(anchor).tolist()))
print(f"  8 negatives, all from the never-co-occurred set: {negatives.tolist()}")
