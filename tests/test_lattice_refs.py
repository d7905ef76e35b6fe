"""The lattice sums against their 40-digit direct enumerations.

At two seeded points, one with Im tau in each benchmark band, every
``lattice_refs`` row is within 1e-14 of its reference in the mixed metric
|value - ref| / max(1, |ref|), and its ``err_bound`` covers |value - ref|.
The level-1/2 minus-mode context ``half`` is the exception to the second
check: its values reach |ref| ~ 260, and their rounding error (~1e-13)
exceeds the truncation-only bound of 1e-14.
"""

import pytest

import mocktheta as mt
from lattice_refs import (
    CONTEXTS,
    THETA_ROWS,
    error,
    library_mock,
    library_theta,
    mock_ref,
    points,
    theta_ref,
)

POINTS = points(1505, 2)
# values too large for a truncation-only err_bound (see the module docstring)
ROUNDING_OVER_BOUND = {"half"}


def _check(out, ref, bound_holds=True):
    assert error(out.value, ref) <= 1e-14, (out, ref)
    if bound_holds:
        assert abs(out.value - ref) <= out.err_bound, (out, ref)


@pytest.mark.parametrize("row", THETA_ROWS, ids=lambda r: f"{r[0]}-{r[3]}-k{r[2]}")
def test_lattice_theta_matches_reference(row):
    for p in POINTS:
        _check(library_theta(mt, *row, *p), theta_ref(*row, *p))


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_lattice_mock_theta_matches_reference(name):
    for p in POINTS:
        _check(library_mock(mt, name, *p), mock_ref(name, *p), name not in ROUNDING_OVER_BOUND)
