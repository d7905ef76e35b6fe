"""The memos behind ``mock.phi``, ``modifier.phi_add`` and the rank-1
theta ladder ``theta._theta_ladder``.

The first two keep the SeriesValue of their last ``mock._MEMO_SIZE``
distinct arguments, the ladder of its last ``theta._MEMO_SIZE``, so a
repeated evaluation runs no ladder.  A hit must give what the miss
computed, bit for bit; a refusal must be raised on every call; and the
counts below pin the repeats the memos absorb.  The autouse fixture of
``conftest.py`` empties all three memos before each test.
"""

import itertools
from fractions import Fraction as F

import pytest

from golden import RANK1, bits, evaluate
from mocktheta import (
    LatticeData,
    ModularPoint,
    MockIndex,
    SignCharacter,
    eta,
    lattice_theta,
    phi,
    phi_add,
    phi_tilde,
    run_suite,
    theta_ab,
    theta_jm,
    theta_jm_signed,
)
from mocktheta.errors import NonConvergent, PoleAtZ1
from mocktheta.mock import _phi
from mocktheta.modifier import _phi_add
from mocktheta.smatrix import apply_smatrix_check
from mocktheta.theta import _theta_ladder


def test_warm_values_are_the_cold_ones():
    # every golden case, cold with all three memos empty and then warm
    moved = [name for name, (cold, warm) in evaluate().items()
             if warm is not cold and bits(warm) != bits(cold)]
    assert not moved


def _signed_zero_points():
    """One point with a zero in Re tau, Im z1 and Re z2, under each of the
    eight sign combinations of those zeros."""
    for a, b, c in itertools.product((0.0, -0.0), repeat=3):
        yield complex(a, 1.1), complex(0.3, b), complex(c, 0.06)


def _rank1(fn):
    """fn at every golden rank-1 index."""
    def values(tau, z1, z2):
        return [fn(MockIndex(m, s, sign), tau, z1, z2) for m, s, sign in RANK1]
    return values


def _thetas(tau, z1, z2):
    """Six (sign, c0, m) cases of the theta ladder, one through each caller."""
    return [
        eta(tau),
        theta_ab(0, 0, tau, z1),
        theta_ab(1, 1, tau, z2),
        theta_jm(1, 2, tau, z1),
        theta_jm_signed(-1, F(1, 2), F(3, 4), tau, z2),
        lattice_theta((0.5,), 1, LatticeData(((2.0,),)), SignCharacter(),
                      ModularPoint(tau, (z1,), 0.0)),
    ]


@pytest.mark.parametrize("values", [_rank1(phi), _rank1(phi_add), _rank1(phi_tilde), _thetas],
                         ids=["phi", "phi_add", "phi_tilde", "thetas"])
def test_signed_zeros_share_an_entry(values):
    # The memos compare keys with ==, so -0.0 finds the entry of 0.0.  That
    # keeps the bits only because the ladders do not tell the zeros apart:
    # each point is evaluated cold, then all of them warm.
    cold = []
    for point in _signed_zero_points():
        _phi.cache_clear()
        _phi_add.cache_clear()
        _theta_ladder.cache_clear()
        cold.append(tuple(map(bits, values(*point))))
    assert len(set(cold)) == 1
    warm = {tuple(map(bits, values(*point))) for point in _signed_zero_points()}
    assert warm == set(cold[:1])


def test_a_hit_returns_the_computed_value():
    idx = MockIndex(F(3, 2), F(1, 2), "minus")
    point = (0.1 + 1.1j, 0.3 + 0.05j, 0.2 - 0.03j)
    assert phi(idx, *point) is phi(idx, *point)
    assert phi_add(idx, *point) is phi_add(idx, *point)
    phi_tilde(idx, *point)
    assert (_phi.cache_info().misses, _phi_add.cache_info().misses) == (1, 1)


def test_a_theta_hit_returns_the_computed_value():
    tau, z = 0.1 + 1.1j, 0.3 + 0.05j
    assert theta_jm(1, 2, tau, z) is theta_jm(1, 2, tau, z)
    # the signed theta of sign +1 asks the ladder for theta_jm's arguments
    assert theta_jm_signed(1, 1, 2, tau, z) is theta_jm(1, 2, tau, z)
    assert bits(eta(tau)) == bits(eta(tau))
    assert _theta_ladder.cache_info().misses == 2


def test_a_pole_is_refused_on_every_call():
    idx = MockIndex(1, 0)
    for _ in range(2):
        with pytest.raises(PoleAtZ1):
            phi(idx, 1j, 1j, 0.41)
    assert _phi.cache_info().currsize == 0


def test_a_theta_refusal_is_raised_on_every_call():
    for _ in range(2):
        with pytest.raises(NonConvergent):
            theta_jm(0, 1, 1j, 20000j)
    assert _theta_ladder.cache_info().currsize == 0


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


def test_osp_level1_spans_share_their_thetas():
    # the even and odd (M, N) spans of each point ask for the same thetas
    assert run_suite("osp-level1-S")["pass"]
    info = _theta_ladder.cache_info()
    assert (info.hits + info.misses, info.misses) == (228, 60)
