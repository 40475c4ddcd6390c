#!/usr/bin/env python3
"""Retrieval-style evaluation (HIT@N, item coverage) and a small ablation:
the full three-task model against the click-objective-only base model."""

import dataclasses
import tempfile

from itemcl import (
    EncodedCatalog,
    EncodedProfiles,
    SyntheticSpec,
    TrainConfig,
    chronological_split,
    default_split_time,
    evaluate,
    export_embeddings,
    generate,
)
from itemcl.training import mine_artifacts, train

spec = SyntheticSpec(n_users=300, n_items=200, n_clusters=10, n_interactions=24_000, seed=2)
data = generate(spec)
split = chronological_split(data.interactions, default_split_time(data.interactions), 20)

config = TrainConfig(
    epochs=3, batch_size=2048, learning_rate=0.01, seed=0, negatives=20,
    d_field=16, hidden1=32, hidden2=16, d_out=16, ffn_dim=16, d_proj=16,
    behavior_window=10,
)

results = {}
for tag, cfg in {
    "full": config,
    "base": dataclasses.replace(
        config, lambda_feature=0.0, lambda_semantic=0.0, lambda_session=0.0
    ),
}.items():
    pool, sampler, table = mine_artifacts(cfg, split, data.catalog)
    params, _ = train(cfg, split, data.catalog, data.profiles, pool, sampler, table)
    enc = EncodedCatalog(data.catalog, params.meta)
    prof = EncodedProfiles(data.profiles, params.meta)
    results[tag] = evaluate(params, enc, prof, split, ns=(10, 20, 50, 100))
    if tag == "full":
        out = tempfile.mktemp(suffix=".tsv", prefix="itemcl-emb-")
        export_embeddings(params, enc, data.catalog, out)
        print(f"exported {len(data.catalog)} item embeddings to {out}")

print(f"\n{'model':<6} " + " ".join(f"{'hit@' + str(n):>8}" for n in (10, 20, 50, 100)) + f" {'cov@100':>9}")
for tag, rep in results.items():
    row = " ".join(f"{rep.hit[n]:>8.4f}" for n in (10, 20, 50, 100))
    print(f"{tag:<6} {row} {rep.coverage[100]:>9.3f}")

gain = results["full"].hit[50] - results["base"].hit[50]
print(f"\nthree contrastive tasks move HIT@50 by {gain:+.4f} on this run")
