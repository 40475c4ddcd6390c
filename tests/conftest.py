import numpy as np
import pytest

from itemcl.gradcheck import build_fixture


@pytest.fixture
def tiny():
    """Criterion 1's miniature end-to-end fixture: a 6-item catalog, 2
    profiled users, a match batch of 7 pairs over 6 histories, small dims,
    mined pools, every parameter uniform in [-1, 1)."""
    return build_fixture()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
