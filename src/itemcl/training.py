"""Joint multi-task training loop: batch assembly, negative sampling
orchestration, Adam updates, and checkpointing.

Every randomized stage draws from its own named substream of the config
seed (shuffling, matching negatives, per-task contrastive sampling,
dropout masks), so zeroing one task's loss weight never perturbs the
draws of the others and runs are bit-reproducible under a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from .augment import AugmentationPlan
from .config import TrainConfig
from .data import ItemCatalog, SplitDataset, UserProfileTable
from .losses import TASKS, ContrastiveBatch, JointLossInputs, MatchBatch, loss_joint
from .model import (
    EncodedCatalog,
    EncodedProfiles,
    ModelParams,
    build_meta,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .rng import substream
from .semantics import SemanticPositivePool, mine_semantic_pool
from .sessions import (
    CooccurrenceTable,
    SessionPositiveSampler,
    build_cooccurrence,
    segment_sessions,
)
from .util import sorted_unique

__all__ = [
    "TrainConfig",
    "TrainReport",
    "TrainingError",
    "train",
    "mine_artifacts",
    "save_checkpoint",
    "load_checkpoint",
]


class TrainingError(RuntimeError):
    """Raised when a loss or parameter turns non-finite; the message names
    the offending component."""


@dataclass
class TrainReport:
    """Per-epoch loss means, wall-clock, throughput, and a parameter-norm
    summary. Each epoch record holds ``seconds``, ``clicks_per_s`` (the
    epoch's train clicks over ``seconds``) and, where the ``resource``
    module exists, ``minor_page_faults``, the process's minor page faults
    during the epoch, and ``peak_rss_mb``, its resident-set high-water
    mark in MiB after the epoch."""

    epochs: list[dict] = field(default_factory=list)

    def final(self) -> dict:
        return self.epochs[-1] if self.epochs else {}


def mine_artifacts(
    config: TrainConfig, split: SplitDataset, catalog: ItemCatalog
) -> tuple[SemanticPositivePool | None, SessionPositiveSampler | None, CooccurrenceTable | None]:
    """Mine exactly the artifacts the config's active tasks (loss weight
    above zero) need."""
    pool = sampler = table = None
    if config.lambda_semantic > 0:
        pool = mine_semantic_pool(catalog, config.semantic_source, config.k_semantic, config.seed)
    if config.lambda_session > 0:
        sessions = segment_sessions(split, config.session_window)
        table = build_cooccurrence(sessions, len(catalog), config.k_session)
        sampler = SessionPositiveSampler(table)
    return pool, sampler, table


def _minor_faults() -> int | None:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else None


def _peak_rss_mb() -> float:
    """The process's resident-set high-water mark in MiB (``ru_maxrss``
    counts KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _sample_match_negatives(
    pos_items: np.ndarray, n_items: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform catalog draws, redrawn wherever a draw hit the pair's own
    positive item.

    This stays its own loop rather than a call to
    ``sampling.sample_distinct_rows``: a pair's negatives are drawn with
    replacement and may repeat, while that sampler rejects repeats within
    a row, so routing through it would redraw them, change the matching
    stream and with it every checkpoint."""
    negs = rng.integers(0, n_items, size=(pos_items.size, k))
    collisions = negs == pos_items[:, None]
    while collisions.any():
        negs[collisions] = rng.integers(0, n_items, size=int(collisions.sum()))
        collisions = negs == pos_items[:, None]
    return negs


def train(
    config: TrainConfig,
    split: SplitDataset,
    catalog: ItemCatalog,
    profiles: UserProfileTable | None = None,
    pool: SemanticPositivePool | None = None,
    sampler: SessionPositiveSampler | None = None,
    table: CooccurrenceTable | None = None,
) -> tuple[ModelParams, TrainReport]:
    """Run the joint optimization and return the final parameters plus the
    per-epoch report. Deterministic given the config seed."""
    config.validate()
    if not split.train_interactions:
        raise ValueError("train split is empty")
    if len(catalog) < 2:  # a pair's negatives are the catalog's other items
        raise ValueError(f"catalog has {len(catalog)} item(s); training needs at least 2")
    lambdas = (config.lambda_feature, config.lambda_semantic, config.lambda_session)

    meta = build_meta(catalog, profiles, config.model_dims())
    enc = EncodedCatalog(catalog, meta)
    prof_enc = EncodedProfiles(profiles, meta)
    params = init_params(meta, config.seed)

    user_ids, ev_user = split.train_interactions.users()
    ev_item = split.train_interactions.item
    histories_all = split.behavior_histories.padded(user_ids, config.behavior_window)
    profiles_all = prof_enc.rows(user_ids)

    rng_shuffle = substream(config.seed, "shuffle")
    rngs = {
        "match": substream(config.seed, "match_negatives"),
        "feature": substream(config.seed, "cl_feature"),
        "dropout": substream(config.seed, "dropout"),
        "semantic": substream(config.seed, "cl_semantic"),
        "session": substream(config.seed, "cl_session"),
    }
    plan = AugmentationPlan(config.augment_strategy, config.mask_ratio)
    adam_m = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
    adam_v = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step_count = 0

    report = TrainReport()
    n = ev_item.size
    for epoch in range(config.epochs):
        started = time.perf_counter()
        faults = _minor_faults()
        perm = rng_shuffle.permutation(n)
        sums = dict.fromkeys((*TASKS, "joint"), 0.0)
        n_steps = 0
        for lo in range(0, n, config.batch_size):
            chunk = perm[lo : lo + config.batch_size]
            step_users = ev_user[chunk]
            step_items = ev_item[chunk]
            uq, inv = np.unique(step_users, return_inverse=True)
            match = MatchBatch(
                user_rows=inv,
                histories=histories_all[uq],
                profile_idx=profiles_all[uq],
                pos_items=step_items,
                neg_items=_sample_match_negatives(step_items, len(catalog), config.negatives, rngs["match"]),
            )
            contrastive = ContrastiveBatch(
                anchors=sorted_unique(step_items),
                tau=config.tau,
                num_negatives=config.negatives,
                include_positive=config.include_positive_in_denominator,
            )
            inputs = JointLossInputs(match, contrastive, plan, pool, sampler, table)
            total, components, grads = loss_joint(params, enc, inputs, lambdas, rngs)

            for name, value in components.items():
                if not np.isfinite(value):
                    raise TrainingError(
                        f"loss component {name!r} became non-finite at epoch {epoch} step {n_steps}"
                    )
            step_count += 1
            correction1 = 1.0 - beta1**step_count
            correction2 = 1.0 - beta2**step_count
            for name, arr in params.arrays.items():
                g = grads[name]
                adam_m[name] = beta1 * adam_m[name] + (1.0 - beta1) * g
                adam_v[name] = beta2 * adam_v[name] + (1.0 - beta2) * g * g
                arr -= config.learning_rate * (adam_m[name] / correction1) / (
                    np.sqrt(adam_v[name] / correction2) + eps
                )
            if not params.all_finite():
                raise TrainingError(
                    f"parameters became non-finite after epoch {epoch} step {n_steps}"
                )

            for name in TASKS:
                sums[name] += components[name]
            sums["joint"] += total
            n_steps += 1

        norm = float(np.sqrt(sum(float((a * a).sum()) for a in params.arrays.values())))
        seconds = time.perf_counter() - started
        record = {
            "epoch": epoch,
            **{f"loss_{name}": summed / n_steps for name, summed in sums.items()},
            "seconds": seconds,
            "clicks_per_s": n / seconds,
            "param_norm": norm,
        }
        if faults is not None:
            record["minor_page_faults"] = _minor_faults() - faults
            record["peak_rss_mb"] = _peak_rss_mb()
        report.epochs.append(record)
    return params, report
