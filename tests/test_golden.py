"""Every pinned value in tests/data/golden.json still holds to 1e-13."""

import pytest

from golden import cases, deviation, load

PINNED = load()
CASES = dict(cases())


def test_cases_match_pinned_ids():
    assert sorted(CASES) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_golden_value(name):
    assert deviation(complex(CASES[name]().value), PINNED[name]) <= 1e-13
