import os
import sys

import numpy as np
import pytest

# the 40-digit references of bench/refs.py
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from mocktheta.suites import _points as random_points  # noqa: E402,F401


@pytest.fixture
def rng():
    return np.random.RandomState(7771)
