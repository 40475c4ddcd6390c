"""Print the sha256 of a fixed set of itemcl outputs as one JSON object.

Usage::

    python tools/fingerprint.py SRC_ROOT

``SRC_ROOT`` is the directory holding the ``itemcl`` package (``src`` in a
checkout). Two source trees whose outputs agree bit for bit print the same
JSON, so a refactor that claims byte-identical results is checked with one
``diff`` of the two runs' output.

Covered, on small synthetic data and one BLAS thread:

* the chronological split's behavior histories, the session segmentation,
  the co-occurrence table and both semantic pools (title k-NN, taxonomy);
* the checkpoint and the per-epoch loss record (timings left out) of
  several training variants: full, taxonomy pool, negatives-only
  denominator, ``element`` augmentation, base (every contrastive task off),
  small batches (the user tower's unfolded path), and a 40-item catalog
  whose contrastive rows take the scarce-negatives fallback, under both
  denominators (the negatives-only one over ragged negative rows);
* the full model's ``evaluate`` report under dot and cosine scoring, and
  ``retrieve_topn`` lists for 40 test users.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import hashlib
import json
import sys
import tempfile
import warnings

import numpy as np

TIMING_KEYS = ("seconds", "clicks_per_s", "minor_page_faults", "peak_rss_mb")
SMALL_MODEL = {"d_field": 16, "hidden1": 32, "hidden2": 16, "d_out": 16, "ffn_dim": 16, "d_proj": 16}


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str((part.dtype.str, part.shape)).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest()


def _train(itemcl, config, split, catalog, profiles, workdir: str, name: str):
    """Train ``config`` with the tasks' mined artifacts; the checkpoint's
    and the timing-free report's hashes, and the parameters."""
    pool, sampler, table = itemcl.mine_artifacts(config, split, catalog)
    params, report = itemcl.train(config, split, catalog, profiles, pool, sampler, table)
    path = os.path.join(workdir, f"{name}.ckpt")
    itemcl.save_checkpoint(params, path, config.to_dict())
    with open(path, "rb") as handle:
        ckpt = hashlib.sha256(handle.read()).hexdigest()
    losses = [{k: v for k, v in epoch.items() if k not in TIMING_KEYS} for epoch in report.epochs]
    return {"checkpoint": ckpt, "losses": _sha(losses)}, params


def fingerprint() -> dict[str, object]:
    import itemcl
    from itemcl import synthetic
    from itemcl.data import chronological_split
    from itemcl.evaluation import evaluate, retrieve_topn
    from itemcl.model import EncodedCatalog, EncodedProfiles

    out: dict[str, object] = {}
    spec = synthetic.SyntheticSpec(n_users=300, n_items=200, n_clusters=8, n_interactions=20_000, seed=3)
    data = synthetic.generate(spec)
    split = chronological_split(data.interactions, synthetic.default_split_time(data.interactions), 8)
    out["histories"] = _sha(sorted(split.behavior_histories.items()))

    sessions = itemcl.sessions.segment_sessions(split, 900)
    out["sessions"] = _sha(sessions.offsets, sessions.items, sessions.user, list(sessions.user_ids))
    table = itemcl.sessions.build_cooccurrence(sessions, len(data.catalog), 5)
    out["cooccurrence"] = _sha(table.pairs, table.counts, table.indptr, table.neighbors, table.neighbor_counts)
    for source in ("title_knn", "taxonomy"):
        pool = itemcl.semantics.mine_semantic_pool(data.catalog, source, 6, 2)
        out[f"pool.{source}"] = _sha(*pool.positives)

    base = dict(SMALL_MODEL, epochs=2, batch_size=1024, behavior_window=8, negatives=20, seed=5)
    base.update(session_window=900, k_session=5, k_semantic=6)
    variants = {
        "full": {},
        "taxonomy_pool": {"semantic_source": "taxonomy"},
        "negatives_only": {"include_positive_in_denominator": False},
        "element": {"augment_strategy": "element"},
        "base": {"lambda_feature": 0.0, "lambda_semantic": 0.0, "lambda_session": 0.0},
        "small_batch": {"batch_size": 24, "epochs": 1},
    }
    with tempfile.TemporaryDirectory() as workdir:
        trained = {}
        for name, changes in variants.items():
            config = itemcl.TrainConfig(**{**base, **changes})
            out[f"train.{name}"], trained[name] = _train(
                itemcl, config, split, data.catalog, data.profiles, workdir, name
            )

        params = trained["full"]
        enc = EncodedCatalog(data.catalog, params.meta)
        prof = EncodedProfiles(data.profiles, params.meta)
        for similarity in ("dot", "cosine"):
            report = evaluate(params, enc, prof, split, (10, 50), similarity)
            out[f"evaluate.{similarity}"] = _sha(report.to_dict())
        users = split.test_interactions.users()[0][:40]
        lists = [
            retrieve_topn(params, enc, split.behavior_histories.get(u, []), prof.row(u), 20).tolist()
            for u in users
        ]
        out["retrieve_topn"] = _sha(lists)

        # 40 items, 20 negatives: an item with more than 19 co-occurrence
        # partners leaves fewer eligible negatives than asked for
        tiny = synthetic.generate(
            dataclasses.replace(spec, n_items=40, n_users=60, n_clusters=4, n_interactions=4000, n_motif_pairs=5)
        )
        tiny_split = chronological_split(tiny.interactions, synthetic.default_split_time(tiny.interactions), 8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name, changes in {"": {}, ".negatives_only": variants["negatives_only"]}.items():
                config = itemcl.TrainConfig(**{**base, **changes})
                out[f"train.scarce_negatives{name}"], _ = _train(
                    itemcl, config, tiny_split, tiny.catalog, tiny.profiles, workdir, f"scarce{name}"
                )
        out["scarce_negatives_warnings"] = sum("eligible" in str(w.message) for w in caught)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/fingerprint.py SRC_ROOT", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[1]))
    warnings.simplefilter("ignore")
    print(json.dumps(fingerprint(), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
