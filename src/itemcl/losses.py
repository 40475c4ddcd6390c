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

Every contrastive task draws its negatives through one call of
``sampling._batched_negatives`` from its own stream, outside a per-anchor
exclusion list: the anchor alone for the feature task, the anchor and its
positives for the semantic task, the anchor and its co-occurrence partners
for the session task; a scarce row holds fewer than asked for.

One scorer, ``_infonce``, scores all four objectives and returns the loss
and the sparse queries x keys matrix of weighted score gradients; the
semantic and session tasks, whose queries and keys are both item rows,
fold it into one symmetric items x items matrix.

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

import numpy as np
from scipy import sparse

from .augment import AugmentationPlan
from .model import (
    _scatter_rows,
    _segment_matrix,
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
from .sampling import _batched_negatives
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


def _infonce(
    queries: np.ndarray,
    keys: np.ndarray,
    term_query: np.ndarray,
    term_pos: np.ndarray,
    neg: np.ndarray,
    counts: np.ndarray,
    tau: float,
    include_positive: bool,
    weight: float,
) -> tuple[float, sparse.csr_matrix]:
    """The one InfoNCE scorer. Term t scores ``queries[term_query[t]]``
    against its positive key row ``term_pos[t]`` and its query row's
    negatives: the first ``counts[q]`` key rows of ``neg[q]``, shared by
    all of that row's terms. Scores are row dots, one negative column at a
    time (never a dense queries x keys product). Returns the loss sum and
    the sparse queries x keys matrix of ``weight`` times d(loss)/d(score)."""
    n_queries, kmax = neg.shape
    neg_scores = np.empty((n_queries, kmax))
    for j in range(kmax):
        neg_scores[:, j] = np.einsum("nd,nd->n", queries, keys[neg[:, j]])
    pos_scores = np.einsum("td,td->t", queries[term_query], keys[term_pos])
    values, dpos, dneg = infonce_terms(pos_scores, neg_scores[term_query], counts[term_query], tau, include_positive)
    query_dneg = np.zeros_like(neg_scores)
    _scatter_rows(query_dneg, term_query, dneg)
    valid = np.arange(kmax) < counts[:, None]
    rows = np.concatenate([term_query, np.repeat(np.arange(n_queries), counts)])
    cols = np.concatenate([term_pos, neg[valid]])
    weights = weight * np.concatenate([dpos, query_dneg[valid]])
    return float(values.sum()), sparse.csr_matrix((weights, (rows, cols)), shape=(n_queries, keys.shape[0]))


def _left_aligned(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Negative rows of any lengths as one zero-padded (rows, longest)
    id array, each row left-aligned, and the rows' lengths."""
    counts = np.asarray([len(row) for row in rows], dtype=np.int64)
    ids = np.zeros((len(rows), int(counts.max(initial=0))), dtype=np.int64)
    ids[np.arange(ids.shape[1]) < counts[:, None]] = np.concatenate([np.empty(0, dtype=np.int64), *rows])
    return ids, counts


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
    queries = users[batch.user_rows]
    n, k = batch.neg_items.shape
    value, coeffs = _infonce(
        queries, items.d, np.arange(n), batch.pos_items, batch.neg_items, np.full(n, k), 1.0, True, weight
    )
    grad_users = np.zeros_like(users)
    _scatter_rows(grad_users, batch.user_rows, coeffs @ items.d)
    items.grad_d += coeffs.T @ queries
    del queries, coeffs  # the user tower's backward is the step's memory peak

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
    rows = _batched_negatives(enc.n_items, list(anchors[:, None]), batch.num_negatives, rng)
    neg, counts = _left_aligned(rows)

    aug_ids = sorted_unique(np.concatenate([anchors, *rows]))
    raw_aug, aug_trace = embed_items_augmented(params, enc, aug_ids, plan, dropout_rng)
    p_clean, p_clean_trace = project(params, "f", items.raw[anchors])
    p_aug, p_aug_trace = project(params, "f", raw_aug)

    self_loc, neg_loc = np.searchsorted(aug_ids, anchors), np.searchsorted(aug_ids, neg)
    value, coeffs = _infonce(
        p_clean, p_aug, np.arange(anchors.size), self_loc, neg_loc, counts, batch.tau, batch.include_positive, weight
    )

    grad_raw_clean = project_backward(params, "f", p_clean_trace, coeffs @ p_aug, items.grads)
    _scatter_rows(items.grad_raw, anchors, grad_raw_clean)
    grad_raw_aug = project_backward(params, "f", p_aug_trace, coeffs.T @ p_clean, items.grads)
    embed_items_augmented_backward(params, enc, aug_trace, grad_raw_aug, items.grads)
    return _result(value, items, own)


def _item_pair_infonce(
    items: ItemPass,
    which: str,
    batch: ContrastiveBatch,
    anchors: np.ndarray,
    positives: list[np.ndarray],
    exclusions: list[np.ndarray],
    rng: np.random.Generator,
    weight: float,
) -> float:
    """Shared machinery for the semantic and session tasks: contrastive
    terms over projected item-tower outputs, one term per (distinct
    anchor, positive), negatives shared across an anchor's terms. Anchor
    i's negatives are drawn outside ``exclusions[i]``; anchors left with
    none drop out. The scorer's anchors x items coefficients become an
    items x items matrix C, and every scored pair (a, b) sends its
    coefficient to both rows: grad_p = (C + C.T) @ p."""
    neg, counts = _left_aligned(_batched_negatives(items.d.shape[0], exclusions, batch.num_negatives, rng))
    keep = np.flatnonzero(counts)
    if not keep.size:
        return 0.0
    positives = [positives[i] for i in keep]
    term_row = np.repeat(np.arange(keep.size), [len(row) for row in positives])

    params = items.params
    p, p_trace = project(params, which, items.d)
    anchors, term_pos = anchors[keep], np.concatenate(positives)
    value, coeffs = _infonce(
        p[anchors], p, term_row, term_pos, neg[keep], counts[keep], batch.tau, batch.include_positive, weight
    )
    coeffs = _segment_matrix(anchors, p.shape[0]) @ coeffs
    items.grad_d += project_backward(params, which, p_trace, (coeffs + coeffs.T) @ p, items.grads)
    return value


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
    anchors = np.asarray([a for a in batch.anchors if pool.positives[a].size], dtype=np.int64)
    positives = [pool.positives[a] for a in anchors]
    exclusions = [pool.excluded(a) for a in anchors]
    value = _item_pair_infonce(items, "t", batch, anchors, positives, exclusions, rng, weight)
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
    exclusions = [table.excluded(a) for a in anchors]
    value = _item_pair_infonce(items, "s", batch, anchors, list(positives[:, None]), exclusions, rng, weight)
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
