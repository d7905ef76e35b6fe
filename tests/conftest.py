import numpy as np
import pytest

from mocktheta.suites import _points as random_points  # noqa: F401


@pytest.fixture
def rng():
    return np.random.RandomState(7771)
