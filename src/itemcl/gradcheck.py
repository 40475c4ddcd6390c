"""Central finite-difference verification of every analytic gradient.

Runs each loss (and the joint objective) on a deliberately tiny fixture,
re-seeding the sampling streams on every evaluation so each loss is a
deterministic, differentiable function of the parameters, then compares
the hand-written gradients against central differences coordinate by
coordinate. This is acceptance criterion 1, and it has one configuration:
the fixture, the step ``STEP`` and the threshold ``DEFAULT_THRESHOLD``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .augment import AugmentationPlan
from .data import Item, ItemCatalog, UserProfileTable
from .losses import (
    ContrastiveBatch,
    JointLossInputs,
    MatchBatch,
    loss_feature_cl,
    loss_joint,
    loss_matching,
    loss_semantic_cl,
    loss_session_cl,
)
from .model import (
    EncodedCatalog,
    EncodedProfiles,
    ModelDims,
    ModelParams,
    build_meta,
    init_params,
    pad_histories,
)
from .rng import substream
from .semantics import mine_taxonomy
from .sessions import CooccurrenceTable, SessionPositiveSampler

STEP = 1e-4
DEFAULT_THRESHOLD = 1e-5


def flatten(arrays: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([arrays[name].ravel() for name in arrays])


def finite_difference_gradient(value_fn: Callable[[ModelParams], float], params: ModelParams) -> np.ndarray:
    """Central differences over every parameter coordinate, in ``flatten``
    order; each coordinate is moved in place and put back."""
    grad = []
    for arr in params.arrays.values():
        for index in np.ndindex(arr.shape):
            base = arr[index]
            arr[index] = base + STEP
            plus = value_fn(params)
            arr[index] = base - STEP
            minus = value_fn(params)
            arr[index] = base
            grad.append((plus - minus) / (2.0 * STEP))
    return np.array(grad)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Coordinatewise |a - b| / max(|a|, |b|, 1e-6).

    The absolute floor keeps coordinates whose true gradient sits below
    the central-difference noise floor (about 1e-12 here) from swamping
    the ratio; any real gradient bug still produces errors far above it.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    err = np.abs(analytic - numeric) / denom
    return float(err.max()) if err.size else 0.0


def quiet_arrays(grads: dict[str, np.ndarray]) -> list[str]:
    """Arrays whose largest |gradient| lies in (1e-12, 1e-5]: reached, but
    within ten times ``max_relative_error``'s floor, so checked only to an
    absolute precision. At most 1e-12 is the round-off of an exact zero,
    an array the closure does not reach."""
    return [name for name, g in grads.items() if 1e-12 < np.abs(g).max() <= 1e-5]


def build_fixture() -> dict:
    """A complete miniature pipeline, 170 parameters each drawn uniform in
    [-1, 1), on which no closure has a quiet array and no ReLU input lies
    within 0.01 of its kink. Its six users, more than the user tower's
    first layer has units, repeat items within and across histories; one
    history is empty, one profile unknown, the last padded at its end."""
    items = [
        Item("a", ("t1", "t2"), "p1", "c1"),
        Item("b", ("t2",), "p2", "c1"),
        Item("c", ("t1", "t3"), "p1", "c1"),
        Item("d", ("t3",), "p2", "c2"),
        Item("e", (), "p1", "c2"),
        Item("f", ("t2",), "p2", None),
    ]
    catalog = ItemCatalog(items)
    profiles = UserProfileTable(("seg",), {"u1": ("s1",), "u2": ("s2",)})
    dims = ModelDims(d_field=2, tower_dims=(3, 2, 2), behavior_window=3, ffn_dim=2, d_proj=2)
    meta = build_meta(catalog, profiles, dims)
    params = init_params(meta, 0)
    rng = substream(5, "fd", "values")
    for arr in params.arrays.values():
        arr[...] = rng.uniform(-1.0, 1.0, size=arr.shape)

    enc = EncodedCatalog(catalog, meta)
    prof_enc = EncodedProfiles(profiles, meta)
    pool = mine_taxonomy(catalog)
    table = CooccurrenceTable([(0, 1), (0, 2), (1, 2), (3, 4), (2, 4)], [3, 1, 2, 2, 1], 6, k=10)
    sampler = SessionPositiveSampler(table)

    histories = pad_histories([[0, 2], [1, 3, 4], [2, 0, 2], [], [5, 5], [2, 2]], dims.behavior_window)
    histories[-1] = histories[-1, ::-1]
    match = MatchBatch(
        user_rows=np.array([0, 1, 2, 3, 4, 5, 1]),
        histories=histories,
        profile_idx=prof_enc.rows(["u1", "u2", "u1", "u2", "u1", "unprofiled"]),
        pos_items=np.array([1, 4, 5, 0, 3, 2, 5]),
        neg_items=np.array([[0, 3], [2, 5], [0, 2], [1, 4], [5, 0], [3, 1], [0, 2]]),
    )
    contrastive = ContrastiveBatch(
        anchors=np.unique(match.pos_items), tau=1.0, num_negatives=2, include_positive=True
    )
    plan = AugmentationPlan("field_plus_categorial", 0.5)
    return {
        "catalog": catalog,
        "params": params,
        "enc": enc,
        "prof_enc": prof_enc,
        "pool": pool,
        "table": table,
        "sampler": sampler,
        "match": match,
        "contrastive": contrastive,
        "plan": plan,
    }


def _loss_closures(fix: dict) -> dict[str, Callable[[ModelParams], tuple[float, dict]]]:
    enc = fix["enc"]
    tags = {"feature": "fea", "dropout": "drop", "semantic": "sem", "session": "sess"}

    def rngs():  # every evaluation draws from fresh streams
        return {task: substream(0, "fd", tag) for task, tag in tags.items()}

    def matching(params):
        return loss_matching(params, enc, fix["match"])

    def feature(params):
        r = rngs()
        return loss_feature_cl(params, enc, fix["contrastive"], fix["plan"], r["feature"], r["dropout"])

    def semantic(params):
        return loss_semantic_cl(params, enc, fix["contrastive"], fix["pool"], rngs()["semantic"])

    def session(params):
        return loss_session_cl(params, enc, fix["contrastive"], fix["sampler"], fix["table"], rngs()["session"])

    def joint(params):
        inputs = JointLossInputs(
            fix["match"], fix["contrastive"], fix["plan"], fix["pool"], fix["sampler"], fix["table"]
        )
        value, _, grads = loss_joint(params, enc, inputs, (1.0, 0.3, 0.1), rngs())
        return value, grads

    return {"matching": matching, "feature": feature, "semantic": semantic, "session": session, "joint": joint}


def closure_error(
    closure: Callable[[ModelParams], tuple[float, dict]], params: ModelParams
) -> tuple[float, dict[str, np.ndarray]]:
    """Max relative error of ``closure``'s analytic gradient at ``params``
    against central differences, and that gradient by array name."""
    _, grads = closure(params)
    numeric = finite_difference_gradient(lambda p: closure(p)[0], params)
    return max_relative_error(flatten(grads), numeric), grads


def gradcheck_suite() -> dict[str, float]:
    """Max relative error of the analytic gradient per loss: criterion 1."""
    fix = build_fixture()
    return {name: closure_error(closure, fix["params"])[0] for name, closure in _loss_closures(fix).items()}
