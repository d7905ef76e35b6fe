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


# ---------------------------------------------------------------------------
# lattice windows
#
# lattice_theta and lattice_mock_theta sum one window of lattice vectors c
# (a rank-1 lattice_theta: one rank-1 theta ladder window; a rank-1
# lattice_mock_theta: one Phi ladder window, n = c).  Each value is
# the defining summand t_c summed over that window, to 4 ulps of
# sum |t_c|, and the next shell, every vector one step outside the window,
# sums to at most err_bound.  The summands are the 40-digit ones of
# lattice_refs; the points have t = 0, so no phase multiplies the sum.
#
# A summand's float exponent w_c carries a rounding error of a few ulps of
# |w_c|.  In the level-1/2 context "half" the largest summands reach
# |t_c| ~ 1e4 with |w_c| ~ 20, which puts the sum up to 5 ulps of
# sum |t_c| from the exact one, evaluated per summand or in one batch
# alike; there the bound is 4 ulps of sum |t_c| max(1, |w_c|).

import itertools  # noqa: E402
import math  # noqa: E402

import mpmath  # noqa: E402

from mocktheta import lattice, lattice_window  # noqa: E402
from lattice_refs import (  # noqa: E402
    CONTEXTS,
    THETA_ROWS,
    library_mock,
    library_theta,
    mock_summand,
    points,
    theta_summand,
)

LATTICE_POINTS = [(tau, z, 0.0) for tau, z, _ in points(2015, 2)]


@pytest.fixture
def window(monkeypatch):
    """The list of vectors the next lattice sum runs over, as tuples."""
    seen = []
    lattice_sum, theta_ladder, phi = lattice_window._lattice_sum, lattice._theta_ladder, lattice.phi

    def spy_sum(gram, centre, k, tau, growth, terms):
        def spy_terms(coords, norms):
            seen[:] = [tuple(c) for c in coords.tolist()]
            return terms(coords, norms)

        return lattice_sum(gram, centre, k, tau, growth, spy_terms)

    def spy_ladder(sign, c0, m, tau, z):
        lo, hi, _ = _theta_window(sign, (c0,), m, tau, z)[1]
        seen[:] = [(n,) for n in range(lo, hi + 1)]
        return theta_ladder(sign, c0, m, tau, z)

    def spy_phi(idx, tau, z1, z2):
        lo, hi, _ = _phi_window(idx, tau, complex(z1), complex(z2))[1]
        seen[:] = [(n,) for n in range(lo, hi + 1)]
        return phi(idx, tau, z1, z2)

    monkeypatch.setattr(lattice_window, "_lattice_sum", spy_sum)
    monkeypatch.setattr(lattice, "_theta_ladder", spy_ladder)
    monkeypatch.setattr(lattice, "phi", spy_phi)
    return seen


def _next_shell(vectors):
    inside = set(vectors)
    steps = itertools.product((-1, 0, 1), repeat=len(vectors[0]))
    shell = {tuple(a + b for a, b in zip(c, s)) for s in steps for c in vectors}
    return sorted(shell - inside)


def _audit(out, summand, vectors, exponent_scale=False):
    with mpmath.workdps(40):
        terms = [summand(c) for c in vectors]
        exact = complex(mpmath.fsum(t for t, _ in terms))
        scale = float(mpmath.fsum(
            abs(t) * (max(1, abs(w)) if exponent_scale else 1) for t, w in terms
        ))
        outside = float(mpmath.fsum(abs(summand(c)[0]) for c in _next_shell(vectors)))
    assert out.terms_used == len(vectors)
    assert abs(out.value - exact) <= 4 * math.ulp(scale), (out, exact, scale)
    assert outside <= out.err_bound, (out, outside)


@pytest.mark.parametrize("row", THETA_ROWS, ids=lambda r: f"{r[0]}-{r[3]}-k{r[2]}")
def test_lattice_theta_is_its_window(row, window):
    for p in LATTICE_POINTS:
        out = library_theta(mt, *row, *p)
        _audit(out, theta_summand(*row, *p[:2]), list(window))


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_lattice_mock_theta_is_its_window(name, window):
    for p in LATTICE_POINTS:
        out = library_mock(mt, name, *p)
        _audit(out, mock_summand(name, *p[:2]), list(window), exponent_scale=name == "half")


# at Im z1 = -4 Im tau the factors 1 - e^d of the window's most negative
# c have Re d > 40, so their e^-d is folded into the exponent; the
# summands reach |w| ~ 100, hence the exponent-scaled bound.  The rank-1
# contexts sum on the Phi ladder, whose window sits at the peak of its
# numerator: Im z2 = -15 Im tau moves that peak to c ~ -4, where Re d > 40.
FOLD_Z = {"sl3": (0.3 - 4j, 0.17 + 0.8j, 0.21 - 0.1j), "sl2": (0.3 - 4j, 0.17 - 15j),
          "odd": (0.3 - 4j, 0.17 - 15j)}


@pytest.mark.parametrize("name", ["sl2", "sl3", "odd"])
def test_lattice_mock_theta_folds_large_factors(name, window):
    tau = 0.1 + 1j
    z = FOLD_Z[name]
    out = library_mock(mt, name, tau, z, 0.0)
    vectors = list(window)
    assert min(c[0] for c in vectors) * tau.imag + z[0].imag < -40 / (2 * math.pi)
    _audit(out, mock_summand(name, tau, z), vectors, exponent_scale=True)
