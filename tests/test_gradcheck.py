"""Analytic gradients against central finite differences."""

import dataclasses

import numpy as np
import pytest

from itemcl.augment import STRATEGIES, AugmentationPlan
from itemcl.gradcheck import (
    _loss_closures,
    build_fixture,
    finite_difference_gradient,
    flatten,
    gradcheck_suite,
    max_relative_error,
)
from itemcl.losses import loss_feature_cl, loss_matching
from itemcl.model import pad_histories, user_tower
from itemcl.rng import substream


def test_fixture_stays_under_200_parameters():
    assert build_fixture(0)["params"].n_parameters() <= 200


def test_all_losses_match_finite_differences():
    errors = gradcheck_suite(seed=0)
    assert set(errors) == {"matching", "feature", "semantic", "session", "joint"}
    for name, err in errors.items():
        assert err < 1e-5, f"{name}: {err:.3e}"
    # the suite checks every array the joint objective reaches except the
    # attention query/key path, whose gradients stay below the error floor
    fix = build_fixture(0)
    _, grads = _loss_closures(fix)["joint"](fix["params"])
    quiet = {name for name, g in grads.items() if not np.abs(g).max() > 1e-5}  # ten times the error floor
    assert quiet == {"attn.Wq", "attn.bq", "attn.Wk"}


CONTRASTIVE = ["feature", "semantic", "session", "joint"]


def assert_contrastive_gradient(name, include_positive, k):
    """Gradcheck task ``name`` on the fixture under one denominator form
    with ``k`` negatives asked per anchor. At k = 4 the semantic rows
    hold 3 and 4 negatives and the session rows 3 each: ragged rows, the
    scarce ones holding their whole eligible set."""
    fix = build_fixture(0)
    fix["contrastive"] = dataclasses.replace(
        fix["contrastive"], include_positive=include_positive, num_negatives=k
    )
    closure = _loss_closures(fix)[name]
    _, grads = closure(fix["params"])
    numeric = finite_difference_gradient(lambda p: closure(p)[0], fix["params"])
    assert max_relative_error(flatten(grads), numeric) < 1e-5


@pytest.mark.filterwarnings("ignore::itemcl.util.ItemclWarning")
@pytest.mark.parametrize(
    "name, k", [pytest.param(name, k, id=name if k == 2 else f"{name}-k{k}") for k in (2, 4) for name in CONTRASTIVE]
)
def test_negatives_only_denominator_matches_finite_differences(name, k):
    # the paper's form of the contrastive loss; the suite above checks the
    # default, whose denominator also holds the positive, at k = 2
    assert_contrastive_gradient(name, False, k)


@pytest.mark.filterwarnings("ignore::itemcl.util.ItemclWarning")
@pytest.mark.parametrize("name", CONTRASTIVE)
def test_default_denominator_over_ragged_negatives_matches_finite_differences(name):
    assert_contrastive_gradient(name, True, 4)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_feature_gradient_under_every_strategy(strategy):
    # coordinate masks (element, field) and dropped tags (categorial)
    # each reach the embedding tables through the augmented view's backward
    fix = build_fixture(0)
    params, enc = fix["params"], fix["enc"]
    plan = AugmentationPlan(strategy, 0.5)

    def loss(p):
        return loss_feature_cl(
            p, enc, fix["contrastive"], plan, substream(0, "fd", "fea"), substream(0, "fd", "drop")
        )

    _, grads = loss(params)
    for name in ("emb.item_id", "emb.tags", "emb.provider", "proj_f.W"):
        assert np.abs(grads[name]).max() > 1e-5, name  # ten times the error floor
    numeric = finite_difference_gradient(lambda p: loss(p)[0], params)
    assert max_relative_error(flatten(grads), numeric) < 1e-5


def test_max_relative_error_handles_zeros():
    assert max_relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert max_relative_error(np.array([1.0]), np.array([2.0])) == 0.5


def test_finite_difference_on_quadratic():
    # sanity-check the harness itself on a function with a known gradient
    fix = build_fixture(0)
    params = fix["params"]

    def quadratic(p):
        return 0.5 * float(sum((a * a).sum() for a in p.arrays.values()))

    numeric = finite_difference_gradient(quadratic, params, step=1e-4)
    np.testing.assert_allclose(numeric, flatten(params.arrays), atol=1e-8)


def assert_matching_gradient(reverse_slots, **batch):
    """Gradcheck ``loss_matching`` on the fixture with ``batch`` replacing
    fields of its match batch, each history's slots reversed when
    ``reverse_slots`` so the padding leads instead of trailing."""
    fix = build_fixture(0)
    params = fix["params"]
    match = dataclasses.replace(fix["match"], **batch)
    if reverse_slots:
        match.histories = match.histories[:, ::-1].copy()
    _, trace = user_tower(params, match.histories, match.profile_idx)

    def value(p):
        return loss_matching(p, fix["enc"], match)[0]

    _, grads = loss_matching(params, fix["enc"], match)
    for name in ("attn.Wv", "attn.Wo", "attn.Wf1", "attn.Wf2", "attn.bf2", "user_tower.W0", "user_emb.seg"):
        assert np.abs(grads[name]).max() > 1e-5, name  # ten times the error floor
    numeric = finite_difference_gradient(value, params)
    assert max_relative_error(flatten(grads), numeric) < 1e-5
    return trace


@pytest.mark.parametrize("reverse_slots", [False, True])
def test_matching_gradient_with_repeated_history_items(reverse_slots):
    # item 2 repeats within each user and across both, next to padding
    trace = assert_matching_gradient(reverse_slots, histories=pad_histories([[2, 0, 2], [2, 2]], 3))
    assert not trace.folded


@pytest.mark.parametrize("reverse_slots", [False, True])
def test_matching_gradient_through_the_folded_first_layer(reverse_slots):
    # five users against a first hidden layer of three units: the user
    # tower folds attn.Wf2 into that layer's weight
    trace = assert_matching_gradient(
        reverse_slots,
        user_rows=np.array([0, 1, 2, 3, 4, 1]),
        histories=pad_histories([[2, 0, 2], [1, 3, 4], [], [5, 5], [4, 1]], 3),
        profile_idx=np.array([[0], [1], [0], [1], [0]]),
        pos_items=np.array([1, 4, 5, 0, 3, 2]),
        neg_items=np.array([[0, 3], [2, 5], [0, 2], [1, 4], [5, 0], [3, 1]]),
    )
    assert trace.folded
