"""The memos behind ``mock.phi`` and ``modifier.phi_add``.

Each keeps the SeriesValue of its last ``mock._MEMO_SIZE`` distinct
arguments, so a repeated evaluation runs no ladder.  A hit must give what
the miss computed, bit for bit; a refusal must be raised on every call;
and the counts below pin the repeats the memos absorb.  The autouse
fixture of ``conftest.py`` empties both memos before each test.
"""

import itertools
from fractions import Fraction as F

import pytest

from golden import RANK1, bits, evaluate
from mocktheta import ModularPoint, MockIndex, phi, phi_add, phi_tilde, run_suite
from mocktheta.errors import PoleAtZ1
from mocktheta.mock import _phi
from mocktheta.modifier import _phi_add
from mocktheta.smatrix import apply_smatrix_check


def test_warm_values_are_the_cold_ones():
    # every golden case, cold with both memos empty and then warm
    moved = [name for name, (cold, warm) in evaluate().items()
             if warm is not cold and bits(warm) != bits(cold)]
    assert not moved


def _signed_zero_points():
    """One point with a zero in Re tau, Im z1 and Re z2, under each of the
    eight sign combinations of those zeros."""
    for a, b, c in itertools.product((0.0, -0.0), repeat=3):
        yield complex(a, 1.1), complex(0.3, b), complex(c, 0.06)


@pytest.mark.parametrize("fn", [phi, phi_add, phi_tilde])
def test_signed_zeros_share_an_entry(fn):
    # The memo compares keys with ==, so -0.0 finds the entry of 0.0.  That
    # keeps the bits only because the ladders do not tell the zeros apart:
    # each point is evaluated cold, then all of them warm.
    for m, s, sign in RANK1:
        idx = MockIndex(m, s, sign)
        cold = []
        for point in _signed_zero_points():
            _phi.cache_clear()
            _phi_add.cache_clear()
            cold.append(bits(fn(idx, *point)))
        assert len(set(cold)) == 1, (m, s, sign)
        warm = {bits(fn(idx, *point)) for point in _signed_zero_points()}
        assert warm == set(cold[:1])


def test_a_hit_returns_the_computed_value():
    idx = MockIndex(F(3, 2), F(1, 2), "minus")
    point = (0.1 + 1.1j, 0.3 + 0.05j, 0.2 - 0.03j)
    assert phi(idx, *point) is phi(idx, *point)
    assert phi_add(idx, *point) is phi_add(idx, *point)
    phi_tilde(idx, *point)
    assert (_phi.cache_info().misses, _phi_add.cache_info().misses) == (1, 1)


def test_a_pole_is_refused_on_every_call():
    idx = MockIndex(1, 0)
    for _ in range(2):
        with pytest.raises(PoleAtZ1):
            phi(idx, 1j, 1j, 0.41)
    assert _phi.cache_info().currsize == 0


@pytest.mark.parametrize("suite_id,calls,ladders", [("lem2.4", 70, 30), ("lem2.3", 40, 30)])
def test_lemma_suites_run_each_phi_ladder_once(suite_id, calls, ladders):
    # the residual helpers evaluate again what the suite already holds
    assert run_suite(suite_id)["pass"]
    info = _phi.cache_info()
    assert (info.hits + info.misses, info.misses) == (calls, ladders)


def test_osp42_mirror_factor_runs_once_per_point():
    # the mirror-side phi_tilde of each Tp class is the same evaluation
    apply_smatrix_check("osp42", 2, [ModularPoint(0.13 + 0.92j, (0.21, 0.17, 0.33), 0.05)])
    for info in (_phi.cache_info(), _phi_add.cache_info()):
        assert (info.hits + info.misses, info.misses) == (64, 27)
