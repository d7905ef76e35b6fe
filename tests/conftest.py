import os
import sys

import numpy as np
import pytest

# the 40-digit references of bench/refs.py
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from mocktheta.mock import _phi  # noqa: E402
from mocktheta.modifier import _phi_add  # noqa: E402
from mocktheta.suites import _points as random_points  # noqa: E402,F401


@pytest.fixture(autouse=True)
def _empty_memos():
    """Every test starts with the memos of phi and phi_add empty, so that
    no outcome depends on which tests ran before it."""
    _phi.cache_clear()
    _phi_add.cache_clear()


@pytest.fixture
def rng():
    return np.random.RandomState(7771)
