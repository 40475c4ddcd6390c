"""The four training objectives and their exact analytic gradients.

All four share the same temperature-scaled softmax-over-negatives shape:

* matching: sampled softmax over (user, clicked item) pairs with randomly
  drawn negative items, scored by dot products of tower outputs.
* feature level: an item's clean raw feature embedding against its
  dropout-augmented view, scored through the ``f`` projector; negatives
  are random catalog items other than the anchor (never in-batch), each
  scored against its own augmented view.
* semantic level: an item against every member of its mined semantic
  positive pool, scored on item-tower outputs through the ``t`` projector.
* session level: an item against one weighted draw from its top-k session
  co-occurrence neighbors, through the ``s`` projector; negatives come
  from the never-co-occurred complement.

Every contrastive task draws its negatives through ``_batched_negatives``
from its own stream, outside a per-anchor exclusion list: the anchor alone
for the feature task, the anchor and its positives for the semantic task,
the anchor and its co-occurrence partners for the session task.

By default the positive term joins the denominator (keeps every term
nonnegative); the literal negatives-only denominator stays available via
``include_positive=False``.

Every task shares one item-side forward per step, an ``ItemPass``: the
raw embeddings and item-tower outputs of the whole catalog, read by item
index. A task takes an optional trailing pass and a ``weight`` (its
lambda); it adds ``weight`` times its gradient into the pass's
``grad_raw``/``grad_d`` and its other parameters' gradients into the
pass's one dict, and ``ItemPass.backward`` then runs the item tower and
embedding backward once. ``loss_joint`` hands every task the same pass;
a task called without one runs its own and returns finished gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
)
from .sampling import sample_distinct_rows, uniform_excluding
from .semantics import SemanticPositivePool
from .sessions import CooccurrenceTable, SessionPositiveSampler
from .util import sorted_unique


TASKS = ("matching", "feature", "semantic", "session")  # the keys of loss_joint's components


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
    current training batch, with the shared temperature, negatives per
    anchor and denominator form. Each task draws its positives and
    negatives inside its loss, from its own stream."""

    anchors: np.ndarray
    tau: float = 1.0
    num_negatives: int = 50
    include_positive: bool = True


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
    any magnitude are safe. The negatives-only denominator is the same sum
    with the positive's term at zero, shifted by the negatives' maximum.
    Returns (values, d/dpos, d/dneg).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not include_positive and np.any(neg_counts == 0):
        raise ValueError("negatives-only denominator needs >= 1 negative per term")
    mask = np.arange(neg_scores.shape[1])[None, :] < neg_counts[:, None]
    zp = pos_scores / tau
    zn = np.where(mask, neg_scores / tau, 0.0)
    neg_max = np.where(mask, zn, -np.inf).max(axis=1, initial=-np.inf)
    shift = np.maximum(zp, neg_max) if include_positive else neg_max
    e_pos = np.exp(zp - shift) if include_positive else np.zeros_like(zp)
    e_neg = np.where(mask, np.exp(zn - shift[:, None]), 0.0)
    denom = e_pos + e_neg.sum(axis=1)
    values = shift + np.log(denom) - zp
    dpos = (e_pos / denom - 1.0) / tau
    dneg = (e_neg / denom[:, None]) / tau
    return values, dpos, dneg


def _batched_negatives(
    n_items: int,
    exclusion_lists: list[np.ndarray],
    k: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Per-anchor distinct negative draws outside each anchor's exclusion
    list (sorted, no duplicates, and holding the anchor itself). Rows
    with at least ``k`` eligible items go through one vectorized draw;
    each scarce row goes to ``uniform_excluding``, which returns its whole
    eligible set in ascending order with a warning and draws nothing."""
    counts = np.asarray([len(x) for x in exclusion_lists], dtype=np.int64)
    rich = np.flatnonzero(n_items - counts >= k)
    out: list[np.ndarray | None] = [None] * len(exclusion_lists)
    if rich.size:
        mask = np.zeros((rich.size, n_items), dtype=bool)
        cols = np.concatenate([np.asarray(exclusion_lists[i], dtype=np.int64) for i in rich])
        mask[np.repeat(np.arange(rich.size), counts[rich]), cols] = True
        drawn = sample_distinct_rows(n_items, k, rng, exclude_mask=mask)
        for row, idx in enumerate(rich):
            out[idx] = drawn[row]
    for idx, drawn_row in enumerate(out):
        if drawn_row is None:
            out[idx] = uniform_excluding(n_items, exclusion_lists[idx], k, rng)
    return out


class ItemPass:
    """One step's item-side forward, shared by every task: raw feature
    embeddings ``raw`` and item-tower outputs ``d`` of the whole catalog,
    in catalog order. Tasks add their weighted gradients into ``grad_raw``
    and ``grad_d`` (same shapes) and their other parameters' gradients
    into ``grads``; ``backward`` finishes that one dict."""

    def __init__(self, params: ModelParams, enc: EncodedCatalog):
        self.params = params
        self.enc = enc
        self.grads = zero_grads(params)
        self.raw, self._embed_trace = embed_items(params, enc, np.arange(enc.n_items))
        self.d, self._tower_trace = item_tower(params, self.raw)
        self.grad_raw = np.zeros_like(self.raw)
        self.grad_d = np.zeros_like(self.d)

    def backward(self) -> dict[str, np.ndarray]:
        """Backpropagate the accumulated item gradients, once."""
        self.grad_raw += item_tower_backward(self.params, self._tower_trace, self.grad_d, self.grads)
        embed_items_backward(self.params, self.enc, self._embed_trace, self.grad_raw, self.grads)
        return self.grads


def _rowwise_infonce(
    queries: np.ndarray,
    keys: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    tau: float,
    include_positive: bool,
    weight: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """One term per query row: ``queries[i]`` against its positive key row
    ``pos[i]`` and negative key rows ``neg[i]``, scored by row dots one
    negative column at a time (never a dense queries x keys product).
    Returns the loss sum and ``weight`` times its query and key gradients."""
    n, k = neg.shape
    pos_scores = np.einsum("nd,nd->n", queries, keys[pos])
    neg_scores = np.empty((n, k))
    for j in range(k):
        neg_scores[:, j] = np.einsum("nd,nd->n", queries, keys[neg[:, j]])
    counts = np.full(n, k, dtype=np.int64)
    values, dpos, dneg = infonce_terms(pos_scores, neg_scores, counts, tau, include_positive)

    # sparse coefficient matrix over (query, key): weight * d(loss)/d(score)
    rows = np.concatenate([np.arange(n), np.repeat(np.arange(n), k)])
    cols = np.concatenate([pos, neg.ravel()])
    weights = weight * np.concatenate([dpos, dneg.ravel()])
    coeffs = sparse.csr_matrix((weights, (rows, cols)), shape=(n, keys.shape[0]))
    return float(values.sum()), coeffs @ keys, coeffs.T @ queries


def _result(value: float, items: ItemPass, own: bool) -> tuple[float, dict[str, np.ndarray]]:
    """A task's return: finished gradients if it ran its own pass, else
    the shared dict, complete once the caller runs ``items.backward()``."""
    return value, items.backward() if own else items.grads


def loss_matching(
    params: ModelParams,
    enc: EncodedCatalog,
    batch: MatchBatch,
    items: ItemPass | None = None,
    weight: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Sampled softmax click loss; the clicked item joins its own
    denominator, so every pair contributes a nonnegative term."""
    if batch.neg_items.ndim != 2 or batch.neg_items.shape[1] < 1:
        raise ValueError("every pair needs at least one negative")
    own = items is None
    items = items or ItemPass(params, enc)
    users, user_trace = user_tower(params, batch.histories, batch.profile_idx)
    value, grad_u, grad_d = _rowwise_infonce(
        users[batch.user_rows], items.d, batch.pos_items, batch.neg_items, 1.0, True, weight
    )
    grad_users = np.zeros_like(users)
    _scatter_rows(grad_users, batch.user_rows, grad_u)
    items.grad_d += grad_d

    user_tower_backward(params, user_trace, grad_users, items.grads)
    return _result(value, items, own)


def loss_feature_cl(
    params: ModelParams,
    enc: EncodedCatalog,
    batch: ContrastiveBatch,
    plan: AugmentationPlan,
    rng: np.random.Generator,
    dropout_rng: np.random.Generator,
    items: ItemPass | None = None,
    weight: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Clean-versus-augmented contrastive loss on raw feature embeddings.

    Each involved item gets one augmented view per step; an anchor pairs
    with its own view, against the views of its sampled negatives. The
    clean view is the shared pass's ``raw`` row. Negatives are drawn
    from ``rng`` outside each anchor's one-item exclusion list; mask
    draws come from ``dropout_rng``.
    """
    own = items is None
    items = items or ItemPass(params, enc)
    anchors = batch.anchors
    if anchors.size == 0:
        return _result(0.0, items, own)
    negs = np.stack(_batched_negatives(enc.n_items, list(anchors[:, None]), batch.num_negatives, rng))

    aug_ids = sorted_unique(np.concatenate([anchors, negs.ravel()]))
    raw_aug, aug_trace = embed_items_augmented(params, enc, aug_ids, plan, dropout_rng)
    p_clean, p_clean_trace = project(params, "f", items.raw[anchors])
    p_aug, p_aug_trace = project(params, "f", raw_aug)

    self_loc = np.searchsorted(aug_ids, anchors)
    neg_loc = np.searchsorted(aug_ids, negs.ravel()).reshape(negs.shape)
    value, grad_clean, grad_aug = _rowwise_infonce(
        p_clean, p_aug, self_loc, neg_loc, batch.tau, batch.include_positive, weight
    )

    grad_raw_clean = project_backward(params, "f", p_clean_trace, grad_clean, items.grads)
    _scatter_rows(items.grad_raw, anchors, grad_raw_clean)
    grad_raw_aug = project_backward(params, "f", p_aug_trace, grad_aug, items.grads)
    embed_items_augmented_backward(params, enc, aug_trace, grad_raw_aug, items.grads)
    return _result(value, items, own)


def _item_pair_infonce(
    items: ItemPass,
    which: str,
    batch: ContrastiveBatch,
    anchors: list[int],
    positives: list[np.ndarray],
    excluded: Callable[[int], np.ndarray],
    n_items: int,
    rng: np.random.Generator,
    weight: float,
) -> float:
    """Shared machinery for the semantic and session tasks: contrastive
    terms over projected item-tower outputs, one term per (anchor,
    positive), negatives shared across an anchor's terms. An anchor's
    negatives are drawn outside ``excluded(a)``; anchors left with none
    drop out. Arrays are indexed by item id throughout."""
    negatives = _batched_negatives(n_items, [excluded(a) for a in anchors], batch.num_negatives, rng)
    keep = [i for i, neg in enumerate(negatives) if neg.size]
    if not keep:
        return 0.0
    anchors = np.asarray([anchors[i] for i in keep], dtype=np.int64)
    positives = [np.asarray(positives[i], dtype=np.int64) for i in keep]
    negatives = [negatives[i] for i in keep]

    params = items.params
    p, p_trace = project(params, which, items.d)
    n_anchors = anchors.size
    counts = np.asarray([len(neg) for neg in negatives], dtype=np.int64)
    kmax = int(counts.max())
    valid = np.arange(kmax)[None, :] < counts[:, None]  # each anchor's negatives, left-aligned
    neg_ids = np.zeros((n_anchors, kmax), dtype=np.int64)
    neg_ids[valid] = np.concatenate(negatives)

    term_row = np.repeat(np.arange(n_anchors), [len(p_) for p_ in positives])
    term_anchor = anchors[term_row]
    term_pos = np.concatenate(positives)
    anchor_neg_scores = np.einsum("ad,akd->ak", p[anchors], p[neg_ids])

    pos_scores = np.einsum("td,td->t", p[term_anchor], p[term_pos])
    values, dpos, dneg_term = infonce_terms(
        pos_scores, anchor_neg_scores[term_row], counts[term_row], batch.tau, batch.include_positive
    )
    anchor_dneg = np.zeros_like(anchor_neg_scores)
    _scatter_rows(anchor_dneg, term_row, dneg_term)

    # every scored pair (a, b) contributes w * p[b] to grad_p[a] and
    # w * p[a] to grad_p[b]; one symmetric sparse matrix covers them all
    a_rep = np.broadcast_to(anchors[:, None], (n_anchors, kmax))[valid]
    n_rep = neg_ids[valid]
    w = anchor_dneg[valid]
    rows = np.concatenate([term_anchor, term_pos, a_rep, n_rep])
    cols = np.concatenate([term_pos, term_anchor, n_rep, a_rep])
    weights = weight * np.concatenate([dpos, dpos, w, w])
    n_rows = items.d.shape[0]
    coeffs = sparse.csr_matrix((weights, (rows, cols)), shape=(n_rows, n_rows))
    items.grad_d += project_backward(params, which, p_trace, coeffs @ p, items.grads)
    return float(values.sum())


def loss_semantic_cl(
    params: ModelParams,
    enc: EncodedCatalog,
    batch: ContrastiveBatch,
    pool: SemanticPositivePool,
    rng: np.random.Generator,
    items: ItemPass | None = None,
    weight: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Contrastive loss over mined semantic positives; every positive of
    an anchor contributes its own term. Anchors with empty pools
    contribute exactly zero."""
    own = items is None
    items = items or ItemPass(params, enc)
    anchors = [int(a) for a in batch.anchors if pool.has_positives(int(a))]
    positives = [pool.positives[a] for a in anchors]
    value = _item_pair_infonce(items, "t", batch, anchors, positives, pool.excluded, pool.n_items, rng, weight)
    return _result(value, items, own)


def loss_session_cl(
    params: ModelParams,
    enc: EncodedCatalog,
    batch: ContrastiveBatch,
    sampler: SessionPositiveSampler,
    table: CooccurrenceTable,
    rng: np.random.Generator,
    items: ItemPass | None = None,
    weight: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Contrastive loss over session co-occurrence: one weighted positive
    draw per anchor per step, negatives from the never-co-occurred set.
    Isolated anchors contribute exactly zero."""
    own = items is None
    items = items or ItemPass(params, enc)
    anchors, positives = sampler.sample_many(batch.anchors, rng)
    value = _item_pair_infonce(
        items, "s", batch, anchors.tolist(), positives[:, None], table.excluded, table.n_items, rng, weight
    )
    return _result(value, items, own)


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
    random streams or inputs, so ablating it leaves the other tasks'
    draws untouched; an active task whose input is missing raises a
    ``ValueError`` naming the task. All tasks share one
    ``ItemPass``, so the step runs the item tower once forward and once
    backward and returns one gradient dict.
    """
    l_fea, l_sem, l_sess = lambdas
    if min(lambdas) < 0:
        raise ValueError("loss weights must be nonnegative")
    items = ItemPass(params, enc)
    value_match, _ = loss_matching(params, enc, inputs.match, items, 1.0)
    components = dict.fromkeys(TASKS, 0.0)
    components["matching"] = value_match
    total = value_match
    if l_fea > 0:
        if inputs.plan is None:
            raise ValueError("feature task is enabled but no augmentation plan was given")
        v, _ = loss_feature_cl(
            params, enc, inputs.contrastive, inputs.plan, rngs["feature"], rngs["dropout"], items, l_fea
        )
        components["feature"] = v
        total += l_fea * v
    if l_sem > 0:
        if inputs.pool is None:
            raise ValueError("semantic task is enabled but no positive pool was given")
        v, _ = loss_semantic_cl(params, enc, inputs.contrastive, inputs.pool, rngs["semantic"], items, l_sem)
        components["semantic"] = v
        total += l_sem * v
    if l_sess > 0:
        if inputs.sampler is None or inputs.table is None:
            raise ValueError("session task is enabled but no sampler/table was given")
        v, _ = loss_session_cl(
            params, enc, inputs.contrastive, inputs.sampler, inputs.table, rngs["session"], items, l_sess
        )
        components["session"] = v
        total += l_sess * v
    return total, components, items.backward()
