"""The closed-form ladder windows against the same sums widened.

Every rank-1 ladder (theta_jm, theta_jm_signed, theta_ab, phi, r_jm,
r_jm_signed and both walks of phi_add) is summed over the window that
``core.gaussian_window`` solves from its envelope.  Each public value is
exactly the sum over that window, and widening the window by 30 terms per
side and residue class moves the sum by no more than the reported
``err_bound``, which stays within ABS_TOL.  The widening is
measured as the sum of the added terms: re-running the walk over the
wider window would also move the last bits of the value by reordered
rounding, which ``err_bound`` does not claim to cover.  Points are
seeded, with Im tau in the two benchmark bands and |Im z| up to Im tau.
"""

import random
from fractions import Fraction as F

import pytest

import mocktheta as mt
from mocktheta.core import ABS_TOL, sum_ladder
from mocktheta.mock import SIGNS, _phi_window, distance_to_lattice
from mocktheta.modifier import _phi_add_walks, _r_window
from mocktheta.theta import _theta_window

WIDEN = 30
# (m, s, sign): unsigned m = 1, 2, 3 and plus/minus m = 1/2, 3/2
INDICES = (
    (1, 0, "unsigned"),
    (2, 1, "unsigned"),
    (3, 0, "unsigned"),
    (F(1, 2), 0, "plus"),
    (F(1, 2), F(1, 2), "minus"),
    (F(3, 2), F(1, 2), "plus"),
    (F(3, 2), 0, "minus"),
)


def _points(seed, count=6):
    """(tau, z1, z2): half in each Im tau band, |Im z| <= Im tau, z1 at
    least 0.05 from Z + Z tau (the poles of Phi)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        band = (0.06, 0.15) if len(out) % 2 else (0.8, 2.0)
        y = rng.uniform(*band)
        tau = complex(rng.uniform(-0.5, 0.5), y)
        z1, z2 = (complex(rng.uniform(-0.45, 0.45), rng.uniform(-y, y)) for _ in "12")
        if distance_to_lattice(z1, tau) >= 0.05:
            out.append((tau, z1, z2))
    return out


POINTS = _points(2015)


def _sums(term, window, period=1):
    return sum_ladder(term, window, period).sums


def _added(term, window, period=1):
    """Per class, the sum of the WIDEN terms per side just outside the window."""
    lo, hi, _ = window
    wide = WIDEN * period
    above = _sums(term, (hi + 1, hi + wide, 0.0), period)
    below = _sums(term, (lo - wide, lo - 1, 0.0), period)
    return [a + b for a, b in zip(above, below)]


def _check(value, term, window, scale=1):
    assert value.value == scale * _sums(term, window)[0]
    added = abs(scale * _added(term, window)[0])
    assert added <= value.err_bound <= ABS_TOL, (value, added)


@pytest.mark.parametrize("m,s,sign", INDICES)
def test_rank1_ladders_within_err_bound(m, s, sign):
    sg = SIGNS[sign]
    mf = float(m)
    for tau, z1, z2 in POINTS:
        u = z1 + z2
        v = (z1 - z2) / 2
        c0 = float(F(s) / (2 * F(m)))
        if sign == "unsigned":
            th = mt.theta_jm(s, m, tau, u)
            r = mt.r_jm(s, m, tau, v)
        else:
            th = mt.theta_jm_signed(sg, s, m, tau, u)
            r = mt.r_jm_signed(sg, s, m, tau, v)
        _check(th, *_theta_window(sg, (c0,), mf, tau, u))
        _check(r, *_r_window(sg, (float(s),), mf, tau, v))
        idx = mt.MockIndex(m, s, sign)
        _check(mt.phi(idx, tau, z1, z2), *_phi_window(idx, tau, z1, z2))


@pytest.mark.parametrize("m,s,sign", INDICES)
def test_phi_add_walks_within_err_bound(m, s, sign):
    idx = mt.MockIndex(m, s, sign)
    for tau, z1, z2 in POINTS:
        r_walk, th_walk, p = _phi_add_walks(idx, tau, z1, z2)
        r_sums, th_sums = _sums(*r_walk, p), _sums(*th_walk, p)
        value = mt.phi_add(idx, tau, z1, z2)
        assert value.value == sum(rr * th for rr, th in zip(r_sums, th_sums))
        # (R + dR)(Theta + dTheta) - R Theta, class by class
        added = abs(
            sum(
                dr * th + rr * dth + dr * dth
                for rr, th, dr, dth in zip(
                    r_sums, th_sums, _added(*r_walk, p), _added(*th_walk, p)
                )
            )
        )
        assert added <= value.err_bound <= ABS_TOL, (value, added)


def test_theta_ab_within_err_bound():
    for tau, z, _ in POINTS:
        for a in (0, 1):
            for b in (0, 1):
                _check(
                    mt.theta_ab(a, b, tau, z),
                    *_theta_window(-1 if b else 1, (0.5 * a,), 0.5, tau, 2.0 * z),
                    scale=1j if (a, b) == (1, 1) else 1,
                )


@pytest.mark.parametrize("m,s,sign", INDICES)
def test_phi_add_is_its_definition(m, s, sign):
    # the residue-class walks against the public ladders, j = s .. s+2m-1
    idx = mt.MockIndex(m, s, sign)
    sg = SIGNS[sign]
    for tau, z1, z2 in POINTS:
        u = z1 + z2
        v = (z1 - z2) / 2
        want = 0
        for r in range(int(2 * idx.m)):
            j = idx.s + r
            if sign == "unsigned":
                rr = mt.r_jm(int(j), int(m), tau, v)
                th = mt.theta_jm(int(j), int(m), tau, u)
            else:
                rr = mt.r_jm_signed(sg, j, m, tau, v)
                th = mt.theta_jm_signed(sg, j, m, tau, u)
            want += rr.value * th.value
        got = mt.phi_add(idx, tau, z1, z2).value
        assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), (tau, z1, z2, got, want)
