"""Analytic gradients against central finite differences."""

import dataclasses

import numpy as np
import pytest

from itemcl.augment import STRATEGIES, AugmentationPlan
from itemcl.gradcheck import (
    _loss_closures,
    build_fixture,
    closure_error,
    finite_difference_gradient,
    flatten,
    max_relative_error,
    quiet_arrays,
)
from itemcl.model import embed_items, item_tower, user_tower


def assert_gradient(name, plan=None, **contrastive):
    """Gradcheck closure ``name`` on the fixture, with ``plan`` and the
    ``contrastive`` batch fields replacing the fixture's, and return its
    gradient: within the threshold, with no quiet array."""
    fix = build_fixture()
    fix["plan"] = plan or fix["plan"]
    fix["contrastive"] = dataclasses.replace(fix["contrastive"], **contrastive)
    err, grads = closure_error(_loss_closures(fix)[name], fix["params"])
    assert err < 1e-5, f"{name}: {err:.3e}"
    assert quiet_arrays(grads) == [], name
    return grads


def test_fixture_stays_under_200_parameters():
    assert build_fixture()["params"].n_parameters() <= 200


def test_all_losses_match_finite_differences():
    assert list(_loss_closures(build_fixture())) == ["matching", "feature", "semantic", "session", "joint"]
    for name in ("matching", "feature", "semantic", "session"):
        assert_gradient(name)
    # the joint objective reaches every array
    assert min(np.abs(g).max() for g in assert_gradient("joint").values()) > 1e-5


def test_fixture_keeps_every_relu_off_its_kink():
    # a pre-activation within a step of 0 would bend the loss between two probes
    fix = build_fixture()
    params, match, a = fix["params"], fix["match"], fix["params"].arrays
    _, user = user_tower(params, match.histories, match.profile_idx)
    _, item = item_tower(params, embed_items(params, fix["enc"], np.arange(6))[0])
    pre_activations = {
        "user_tower.0": user.mlp.x @ user.attn.w0 + a["user_tower.b0"],
        "user_tower.1": user.mlp.h0 @ a["user_tower.W1"] + a["user_tower.b1"],
        "attn.ffn": (user.probs @ user.attn.f[user.slot_item])[user.valid],
        "item_tower.0": item.x @ a["item_tower.W0"] + a["item_tower.b0"],
        "item_tower.1": item.h0 @ a["item_tower.W1"] + a["item_tower.b1"],
    }
    for name, pre in pre_activations.items():
        assert np.abs(pre).min() >= 0.01, name


def test_quiet_arrays_lie_between_round_off_and_ten_times_the_error_floor():
    largest = {"a": 0.0, "b": 1e-12, "c": 2e-12, "d": -1e-5, "e": 2e-5}
    assert quiet_arrays({name: np.array([0.0, g]) for name, g in largest.items()}) == ["c", "d"]


CONTRASTIVE = ["feature", "semantic", "session", "joint"]


@pytest.mark.filterwarnings("ignore::itemcl.util.ItemclWarning")
@pytest.mark.parametrize(
    "name, k", [pytest.param(name, k, id=name if k == 2 else f"{name}-k{k}") for k in (2, 4) for name in CONTRASTIVE]
)
def test_negatives_only_denominator_matches_finite_differences(name, k):
    # the paper's form of the contrastive loss; the suite above checks the
    # default, whose denominator also holds the positive, at k = 2
    assert_gradient(name, include_positive=False, num_negatives=k)


@pytest.mark.filterwarnings("ignore::itemcl.util.ItemclWarning")
@pytest.mark.parametrize("name", CONTRASTIVE)
def test_default_denominator_over_ragged_negatives_matches_finite_differences(name):
    # at k = 4 the semantic and session rows hold 2 to 4 negatives, the
    # scarce ones their whole eligible set
    assert_gradient(name, num_negatives=4)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_feature_gradient_under_every_strategy(strategy):
    # coordinate masks (element, field) and dropped tags (categorial)
    # each reach the embedding tables through the augmented view's backward
    assert_gradient("feature", plan=AugmentationPlan(strategy, 0.5))


def test_max_relative_error_handles_zeros():
    assert max_relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert max_relative_error(np.array([1.0]), np.array([2.0])) == 0.5


def test_finite_difference_on_quadratic():
    # sanity-check the harness itself on a function with a known gradient
    fix = build_fixture()
    params = fix["params"]

    def quadratic(p):
        return 0.5 * float(sum((a * a).sum() for a in p.arrays.values()))

    numeric = finite_difference_gradient(quadratic, params)
    np.testing.assert_allclose(numeric, flatten(params.arrays), atol=1e-8)
