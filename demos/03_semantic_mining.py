#!/usr/bin/env python3
"""Mine semantic positive pools from precomputed title vectors (cosine
top-k) and from shared taxonomy keys, and compare the two sources."""

import numpy as np

from itemcl import SyntheticSpec, generate, mine_taxonomy, mine_title_knn
from itemcl.sampling import uniform_excluding

spec = SyntheticSpec(n_users=50, n_items=100, n_clusters=10, n_interactions=2000, title_noise=0.15, seed=9)
data = generate(spec)

title_pool = mine_title_knn(data.catalog, k=5)
taxo_pool = mine_taxonomy(data.catalog, cap=5, rng=np.random.default_rng(0))

item = 0
print(f"item {item} (cluster {data.clusters[item]}):")
print(f"  title-knn positives: {title_pool.positives[item].tolist()}")
print(f"  taxonomy positives:  {sorted(taxo_pool.positives[item].tolist())}")

# with modest title noise, nearest titles stay inside the cluster
agreement = []
for i in range(len(data.catalog)):
    same = [j for j in title_pool.positives[i] if data.clusters[j] == data.clusters[i]]
    agreement.append(len(same) / max(len(title_pool.positives[i]), 1))
print(f"fraction of title-knn positives that share the anchor's cluster: {np.mean(agreement):.2f}")

rng = np.random.default_rng(1)
negatives = uniform_excluding(title_pool.n_items, title_pool.excluded(item), 6, rng)
assert item not in negatives and not (set(negatives.tolist()) & set(title_pool.positives[item].tolist()))
print(f"6 semantic negatives for item {item} (outside its pool): {negatives.tolist()}")
