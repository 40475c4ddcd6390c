"""Analytic gradients against central finite differences."""

import dataclasses

import numpy as np
import pytest

from itemcl.gradcheck import (
    build_fixture,
    finite_difference_gradient,
    flatten,
    gradcheck_suite,
    max_relative_error,
)
from itemcl.losses import loss_matching
from itemcl.model import pad_histories


def test_fixture_stays_under_200_parameters():
    assert build_fixture(0)["params"].n_parameters() <= 200


def test_all_losses_match_finite_differences():
    errors = gradcheck_suite(seed=0)
    assert set(errors) == {"matching", "feature", "semantic", "session", "joint"}
    for name, err in errors.items():
        assert err < 1e-5, f"{name}: {err:.3e}"


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


@pytest.mark.parametrize("positional", [False, True])
def test_matching_gradient_with_repeated_history_items(positional):
    # item 2 repeats within each user and across both, next to padding
    fix = build_fixture(0)
    params = fix["params"]
    dims = dataclasses.replace(params.meta.dims, positional_encoding=positional)
    params.meta = dataclasses.replace(params.meta, dims=dims)
    match = dataclasses.replace(
        fix["match"], histories=pad_histories([[2, 0, 2], [2, 2]], dims.behavior_window)
    )

    def value(p):
        return loss_matching(p, fix["enc"], match)[0]

    _, grads = loss_matching(params, fix["enc"], match)
    numeric = finite_difference_gradient(value, params)
    assert max_relative_error(flatten(grads), numeric) < 1e-5
