import numpy as np
import pytest

from itemcl.gradcheck import build_fixture


@pytest.fixture
def tiny():
    """The miniature end-to-end fixture: 6-item catalog, 2 users, small
    dims, mined pools, random but healthy parameter values."""
    return build_fixture()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
