#!/usr/bin/env python3
"""Build a small synthetic dataset, write it to disk in the toolkit's
file formats, reload it, and split it chronologically."""

import shutil
import tempfile
from pathlib import Path

from itemcl import (
    SyntheticSpec,
    chronological_split,
    default_split_time,
    generate,
    load_catalog,
    load_interactions,
    save_catalog,
    save_interactions,
)

spec = SyntheticSpec(n_users=100, n_items=80, n_clusters=8, n_interactions=5000, seed=42)
data = generate(spec)
print(f"generated {len(data.interactions)} clicks over {len(data.catalog)} items by {spec.n_users} users")

item = data.catalog[0]
print(f"first item: id={item.item_id} tags={item.tags} provider={item.provider} taxonomy={item.taxonomy}")
print(f"title vector dim: {data.catalog.title_dim}")

workdir = Path(tempfile.mkdtemp(prefix="itemcl-demo-"))
save_catalog(data.catalog, str(workdir / "catalog.jsonl"))
save_interactions(data.interactions, data.catalog, str(workdir / "interactions.tsv"))
print(f"wrote catalog + interactions under {workdir}")

catalog = load_catalog(str(workdir / "catalog.jsonl"))
events = load_interactions(str(workdir / "interactions.tsv"), catalog)
shutil.rmtree(workdir)
assert catalog.index_of == data.catalog.index_of, "round trip must preserve indices"
print("reload reproduces identical item indices")

split_time = default_split_time(events, train_fraction=0.8)
split = chronological_split(events, split_time, behavior_window=20)
print(f"split at t={split_time}: {len(split.train_interactions)} train / {len(split.test_interactions)} test clicks")

some_user = split.train_interactions[0].user_id
history = split.behavior_histories[some_user]
print(f"behavior history of {some_user} (most recent last, <= 20): {history}")
