"""The four training objectives and their exact analytic gradients.

All four share the same temperature-scaled softmax-over-negatives shape:

* matching: sampled softmax over (user, clicked item) pairs with randomly
  drawn negative items, scored by dot products of tower outputs.
* feature level: an item's clean raw feature embedding against its
  dropout-augmented view, scored through the ``f`` projector; negatives
  are random catalog items (never in-batch), each scored against its own
  augmented view.
* semantic level: an item against every member of its mined semantic
  positive pool, scored on item-tower outputs through the ``t`` projector.
* session level: an item against one weighted draw from its top-k session
  co-occurrence neighbors, through the ``s`` projector; negatives come
  from the never-co-occurred complement.

By default the positive term joins the denominator (keeps every term
nonnegative); the literal negatives-only denominator stays available via
``include_positive=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .augment import AugmentationPlan
from .model import (
    _scatter_rows,
    EncodedCatalog,
    ModelParams,
    embed_items,
    embed_items_augmented,
    embed_items_augmented_backward,
    embed_items_backward,
    item_tower,
    item_tower_backward,
    project,
    project_backward,
    user_tower,
    user_tower_backward,
    zero_grads,
    add_scaled,
)
from .sampling import sample_distinct_rows, uniform_excluding
from .semantics import SemanticPositivePool
from .sessions import CooccurrenceTable, SessionPositiveSampler


@dataclass
class MatchBatch:
    """One step's (user, clicked item) pairs with per-pair negatives.

    User rows point into the deduplicated ``histories``/``profile_idx``
    arrays so repeated users are encoded once.
    """

    user_rows: np.ndarray  # (n,) indices into the unique-user arrays
    histories: np.ndarray  # (n_users, window) padded behavior histories
    profile_idx: np.ndarray  # (n_users, n_profile_fields)
    pos_items: np.ndarray  # (n,)
    neg_items: np.ndarray  # (n, k) never equal to the pair's positive


@dataclass
class ContrastiveBatch:
    """Anchor set for the contrastive tasks: the distinct items of the
    current training batch. Positive/negative draws happen inside each
    loss from its own stream unless pinned here (used by tests)."""

    anchors: np.ndarray
    tau: float = 1.0
    num_negatives: int = 50
    include_positive: bool = True
    feature_negatives: np.ndarray | None = None  # (n_anchors, k)
    semantic_negatives: dict[int, np.ndarray] = field(default_factory=dict)
    session_positives: dict[int, int] = field(default_factory=dict)
    session_negatives: dict[int, np.ndarray] = field(default_factory=dict)


def infonce_terms(
    pos_scores: np.ndarray,
    neg_scores: np.ndarray,
    neg_counts: np.ndarray,
    tau: float,
    include_positive: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-term contrastive losses and score gradients.

    ``neg_scores`` is zero-padded to the max count; ``neg_counts`` marks
    the valid prefix of each row. Computed with a max shift, so scores of
    any magnitude are safe. Returns (values, d/dpos, d/dneg).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    t, kmax = neg_scores.shape
    mask = np.arange(kmax)[None, :] < neg_counts[:, None]
    zp = pos_scores / tau
    zn = np.where(mask, neg_scores / tau, 0.0)
    neg_max = np.where(mask, zn, -np.inf).max(axis=1) if kmax else np.full(t, -np.inf)
    if include_positive:
        shift = np.maximum(zp, neg_max)
        e_pos = np.exp(zp - shift)
        e_neg = np.where(mask, np.exp(zn - shift[:, None]), 0.0)
        denom = e_pos + e_neg.sum(axis=1)
        values = shift + np.log(denom) - zp
        dpos = (e_pos / denom - 1.0) / tau
        dneg = (e_neg / denom[:, None]) / tau
    else:
        if np.any(neg_counts == 0):
            raise ValueError("negatives-only denominator needs >= 1 negative per term")
        e_neg = np.where(mask, np.exp(zn - neg_max[:, None]), 0.0)
        denom = e_neg.sum(axis=1)
        values = neg_max + np.log(denom) - zp
        dpos = np.full(t, -1.0 / tau)
        dneg = (e_neg / denom[:, None]) / tau
    return values, dpos, dneg


def _locate(sorted_unique: np.ndarray, items: np.ndarray) -> np.ndarray:
    return np.searchsorted(sorted_unique, items)


def _batched_negatives(
    n_items: int,
    exclusion_lists: list[np.ndarray],
    k: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Per-anchor distinct negative draws outside each anchor's exclusion
    list (which already contains the anchor itself). Rows with enough
    eligible items go through one vectorized draw; scarce rows fall back
    to the per-item sampler and keep its shortfall warning."""
    counts = np.asarray([len(x) for x in exclusion_lists])
    rich = np.flatnonzero(n_items - counts >= k)
    out: list[np.ndarray | None] = [None] * len(exclusion_lists)
    if rich.size:
        mask = np.zeros((rich.size, n_items), dtype=bool)
        for row, idx in enumerate(rich):
            mask[row, exclusion_lists[idx]] = True
        drawn = sample_distinct_rows(n_items, k, rng, exclude_mask=mask)
        for row, idx in enumerate(rich):
            out[idx] = drawn[row]
    for idx, drawn_row in enumerate(out):
        if drawn_row is None:
            out[idx] = uniform_excluding(
                n_items, set(int(x) for x in exclusion_lists[idx]), k, rng
            )
    return out


def loss_matching(
    params: ModelParams, enc: EncodedCatalog, batch: MatchBatch
) -> tuple[float, dict[str, np.ndarray]]:
    """Sampled softmax click loss; the clicked item joins its own
    denominator, so every pair contributes a nonnegative term."""
    if batch.neg_items.ndim != 2 or batch.neg_items.shape[1] < 1:
        raise ValueError("every pair needs at least one negative")
    grads = zero_grads(params)
    users, user_trace = user_tower(params, batch.histories, batch.profile_idx)
    u = users[batch.user_rows]
    n, k = batch.neg_items.shape

    unique_items = np.unique(np.concatenate([batch.pos_items, batch.neg_items.ravel()]))
    raw, raw_trace = embed_items(params, enc, unique_items)
    d, tower_trace = item_tower(params, raw)
    pos_loc = _locate(unique_items, batch.pos_items)
    neg_loc = _locate(unique_items, batch.neg_items.ravel()).reshape(n, k)

    # per-pair row dots, one negative column at a time: a dense u @ d.T
    # would be pairs x distinct items, of which only pairs x (k + 1) is read
    pos_scores = np.einsum("nd,nd->n", u, d[pos_loc])
    neg_scores = np.empty((n, k))
    for j in range(k):
        neg_scores[:, j] = np.einsum("nd,nd->n", u, d[neg_loc[:, j]])
    counts = np.full(n, k, dtype=np.int64)
    values, dpos, dneg = infonce_terms(pos_scores, neg_scores, counts, tau=1.0)

    # sparse coefficient matrix: coeffs[i, j] = d(loss)/d(score[i, j])
    rows = np.concatenate([np.arange(n), np.repeat(np.arange(n), k)])
    cols = np.concatenate([pos_loc, neg_loc.ravel()])
    weights = np.concatenate([dpos, dneg.ravel()])
    coeffs = sparse.csr_matrix((weights, (rows, cols)), shape=(n, len(unique_items)))
    grad_u = coeffs @ d
    grad_d = coeffs.T @ u
    grad_users = np.zeros_like(users)
    _scatter_rows(grad_users, batch.user_rows, grad_u)

    user_tower_backward(params, user_trace, grad_users, grads)
    grad_raw = item_tower_backward(params, tower_trace, grad_d, grads)
    embed_items_backward(params, enc, raw_trace, grad_raw, grads)
    return float(values.sum()), grads


def loss_feature_cl(
    params: ModelParams,
    enc: EncodedCatalog,
    batch: ContrastiveBatch,
    plan: AugmentationPlan,
    rng: np.random.Generator,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Clean-versus-augmented contrastive loss on raw feature embeddings.

    Each involved item gets one augmented view per step; an anchor pairs
    with its own view, against the views of its sampled negatives.
    Negative draws come from ``rng``; mask draws come from ``dropout_rng``
    (its own stream inside the trainer) and fall back to ``rng``.
    """
    grads = zero_grads(params)
    anchors = batch.anchors
    if anchors.size == 0:
        return 0.0, grads
    k = batch.num_negatives
    if batch.feature_negatives is not None:
        negs = batch.feature_negatives
    elif enc.n_items - 1 >= k:
        negs = sample_distinct_rows(enc.n_items, k, rng, exclude_single=anchors)
    else:
        negs = np.stack([uniform_excluding(enc.n_items, {int(a)}, k, rng) for a in anchors])

    aug_ids = np.unique(np.concatenate([anchors, negs.ravel()]))
    raw_clean, clean_trace = embed_items(params, enc, anchors)
    raw_aug, aug_trace = embed_items_augmented(
        params, enc, aug_ids, plan, dropout_rng if dropout_rng is not None else rng
    )
    p_clean, p_clean_trace = project(params, "f", raw_clean)
    p_aug, p_aug_trace = project(params, "f", raw_aug)

    self_loc = _locate(aug_ids, anchors)
    neg_loc = _locate(aug_ids, negs.ravel()).reshape(negs.shape)
    pos_scores = np.einsum("nd,nd->n", p_clean, p_aug[self_loc])
    neg_scores = np.einsum("nd,nkd->nk", p_clean, p_aug[neg_loc])
    counts = np.full(anchors.size, negs.shape[1], dtype=np.int64)
    values, dpos, dneg = infonce_terms(pos_scores, neg_scores, counts, batch.tau, batch.include_positive)

    # sparse coefficient matrix over (anchor, augmented-view) score pairs
    n = anchors.size
    rows = np.concatenate([np.arange(n), np.repeat(np.arange(n), negs.shape[1])])
    cols = np.concatenate([self_loc, neg_loc.ravel()])
    weights = np.concatenate([dpos, dneg.ravel()])
    coeffs = sparse.csr_matrix((weights, (rows, cols)), shape=(n, len(aug_ids)))
    grad_clean = coeffs @ p_aug
    grad_aug = coeffs.T @ p_clean

    grad_raw_clean = project_backward(params, "f", p_clean_trace, grad_clean, grads)
    grad_raw_aug = project_backward(params, "f", p_aug_trace, grad_aug, grads)
    embed_items_backward(params, enc, clean_trace, grad_raw_clean, grads)
    embed_items_augmented_backward(params, enc, aug_trace, grad_raw_aug, grads)
    return float(values.sum()), grads


def _item_pair_infonce(
    params: ModelParams,
    enc: EncodedCatalog,
    which: str,
    anchors: np.ndarray,
    positives: list[np.ndarray],
    negatives: list[np.ndarray],
    tau: float,
    include_positive: bool,
    grads: dict[str, np.ndarray],
) -> float:
    """Shared machinery for the semantic and session tasks: contrastive
    terms over projected item-tower outputs, one term per (anchor,
    positive), negatives shared across an anchor's terms."""
    involved = np.unique(
        np.concatenate([anchors] + [p for p in positives] + [n for n in negatives])
    )
    raw, raw_trace = embed_items(params, enc, involved)
    d, tower_trace = item_tower(params, raw)
    p, p_trace = project(params, which, d)

    n_anchors = anchors.size
    anchor_loc = _locate(involved, anchors)
    kmax = max(len(n) for n in negatives)
    neg_loc = np.zeros((n_anchors, kmax), dtype=np.int64)
    counts = np.zeros(n_anchors, dtype=np.int64)
    for i, neg in enumerate(negatives):
        counts[i] = len(neg)
        neg_loc[i, : len(neg)] = _locate(involved, np.asarray(neg, dtype=np.int64))

    term_anchor = np.repeat(np.arange(n_anchors), [len(p_) for p_ in positives])
    term_pos_loc = _locate(involved, np.concatenate(positives))
    anchor_neg_scores = np.einsum("ad,akd->ak", p[anchor_loc], p[neg_loc])

    pos_scores = np.einsum("td,td->t", p[anchor_loc[term_anchor]], p[term_pos_loc])
    values, dpos, dneg_term = infonce_terms(
        pos_scores, anchor_neg_scores[term_anchor], counts[term_anchor], tau, include_positive
    )
    anchor_dneg = np.zeros_like(anchor_neg_scores)
    _scatter_rows(anchor_dneg, term_anchor, dneg_term)

    # every scored pair (a, b) contributes w * p[b] to grad_p[a] and
    # w * p[a] to grad_p[b]; one symmetric sparse matrix covers them all
    a_loc_t = anchor_loc[term_anchor]
    valid = np.arange(kmax)[None, :] < counts[:, None]
    a_rep = np.broadcast_to(anchor_loc[:, None], (n_anchors, kmax))[valid]
    n_rep = neg_loc[valid]
    w = anchor_dneg[valid]
    rows = np.concatenate([a_loc_t, term_pos_loc, a_rep, n_rep])
    cols = np.concatenate([term_pos_loc, a_loc_t, n_rep, a_rep])
    weights = np.concatenate([dpos, dpos, w, w])
    coeffs = sparse.csr_matrix((weights, (rows, cols)), shape=(len(involved), len(involved)))
    grad_p = coeffs @ p

    grad_d = project_backward(params, which, p_trace, grad_p, grads)
    grad_raw = item_tower_backward(params, tower_trace, grad_d, grads)
    embed_items_backward(params, enc, raw_trace, grad_raw, grads)
    return float(values.sum())


def loss_semantic_cl(
    params: ModelParams,
    enc: EncodedCatalog,
    batch: ContrastiveBatch,
    pool: SemanticPositivePool,
    rng: np.random.Generator,
) -> tuple[float, dict[str, np.ndarray]]:
    """Contrastive loss over mined semantic positives; every positive of
    an anchor contributes its own term. Anchors with empty pools
    contribute exactly zero."""
    grads = zero_grads(params)
    kept = [int(a) for a in batch.anchors if pool.has_positives(int(a))]
    to_draw = [a for a in kept if a not in batch.semantic_negatives]
    drawn = _batched_negatives(
        pool.n_items,
        [np.append(pool.positives[a], a) for a in to_draw],
        batch.num_negatives,
        rng,
    )
    negs_by_anchor = dict(zip(to_draw, drawn))
    anchors, positives, negatives = [], [], []
    for a in kept:
        if a in batch.semantic_negatives:
            neg = np.asarray(batch.semantic_negatives[a], dtype=np.int64)
        else:
            neg = negs_by_anchor[a]
        if neg.size == 0:
            continue
        anchors.append(a)
        positives.append(np.asarray(pool.positives[a], dtype=np.int64))
        negatives.append(neg)
    if not anchors:
        return 0.0, grads
    value = _item_pair_infonce(
        params,
        enc,
        "t",
        np.asarray(anchors, dtype=np.int64),
        positives,
        negatives,
        batch.tau,
        batch.include_positive,
        grads,
    )
    return value, grads


def loss_session_cl(
    params: ModelParams,
    enc: EncodedCatalog,
    batch: ContrastiveBatch,
    sampler: SessionPositiveSampler,
    table: CooccurrenceTable,
    rng: np.random.Generator,
) -> tuple[float, dict[str, np.ndarray]]:
    """Contrastive loss over session co-occurrence: one weighted positive
    draw per anchor per step, negatives from the never-co-occurred set.
    Isolated anchors contribute exactly zero."""
    grads = zero_grads(params)
    kept, kept_pos = [], []
    for a in batch.anchors:
        a = int(a)
        pos = batch.session_positives.get(a)
        if pos is None:
            pos = sampler.sample(a, rng)
        if pos is None:
            continue
        kept.append(a)
        kept_pos.append(pos)
    to_draw = [a for a in kept if a not in batch.session_negatives]
    drawn = _batched_negatives(
        table.n_items,
        [np.fromiter(table.neighbors(a) | {a}, dtype=np.int64) for a in to_draw],
        batch.num_negatives,
        rng,
    )
    negs_by_anchor = dict(zip(to_draw, drawn))
    anchors, positives, negatives = [], [], []
    for a, pos in zip(kept, kept_pos):
        if a in batch.session_negatives:
            neg = np.asarray(batch.session_negatives[a], dtype=np.int64)
        else:
            neg = negs_by_anchor[a]
        if neg.size == 0:
            continue
        anchors.append(a)
        positives.append(np.asarray([pos], dtype=np.int64))
        negatives.append(neg)
    if not anchors:
        return 0.0, grads
    value = _item_pair_infonce(
        params,
        enc,
        "s",
        np.asarray(anchors, dtype=np.int64),
        positives,
        negatives,
        batch.tau,
        batch.include_positive,
        grads,
    )
    return value, grads


@dataclass
class JointLossInputs:
    """Everything one optimization step consumes besides the parameters."""

    match: MatchBatch
    contrastive: ContrastiveBatch
    plan: AugmentationPlan | None = None
    pool: SemanticPositivePool | None = None
    sampler: SessionPositiveSampler | None = None
    table: CooccurrenceTable | None = None


def loss_joint(
    params: ModelParams,
    enc: EncodedCatalog,
    inputs: JointLossInputs,
    lambdas: tuple[float, float, float],
    rngs: dict[str, np.random.Generator],
) -> tuple[float, dict[str, float], dict[str, np.ndarray]]:
    """Weighted multi-task objective.

    A task with weight zero is skipped outright and consumes none of its
    random streams, which is exactly what makes an ablated run reproduce
    the corresponding zero-weight run step for step.
    """
    l_fea, l_sem, l_sess = lambdas
    if min(lambdas) < 0:
        raise ValueError("loss weights must be nonnegative")
    value_match, grads = loss_matching(params, enc, inputs.match)
    components = {"matching": value_match, "feature": 0.0, "semantic": 0.0, "session": 0.0}
    total = value_match
    if l_fea > 0:
        if inputs.plan is None:
            raise ValueError("feature task is enabled but no augmentation plan was given")
        v, g = loss_feature_cl(
            params, enc, inputs.contrastive, inputs.plan, rngs["feature"], rngs.get("dropout")
        )
        components["feature"] = v
        total += l_fea * v
        add_scaled(grads, g, l_fea)
    if l_sem > 0:
        if inputs.pool is None:
            raise ValueError("semantic task is enabled but no positive pool was given")
        v, g = loss_semantic_cl(params, enc, inputs.contrastive, inputs.pool, rngs["semantic"])
        components["semantic"] = v
        total += l_sem * v
        add_scaled(grads, g, l_sem)
    if l_sess > 0:
        if inputs.sampler is None or inputs.table is None:
            raise ValueError("session task is enabled but no sampler/table was given")
        v, g = loss_session_cl(
            params, enc, inputs.contrastive, inputs.sampler, inputs.table, rngs["session"]
        )
        components["session"] = v
        total += l_sess * v
        add_scaled(grads, g, l_sess)
    return total, components, grads
