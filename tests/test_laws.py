"""Every rank-1 entry of ``modular.LAWS`` against 40-digit mpmath.

Both sides of each law come from ``refs.rank1_index`` (bench/refs.py), the
term-by-term mpmath sums that share no code with the evaluators, at seeded
points in both Im tau bands of the benchmark: 0.06-0.15 and 0.8-2.  Only
the law's prefactors and phases are double precision, so a wrong factor,
target index or sign shows as a residual far above the tolerance.

The lattice entries have no mpmath reference; the suites prop3.2b-prop3.8
check them against the factored evaluator.
"""

from fractions import Fraction as F
from functools import cache

import pytest
import refs

from mocktheta.mock import MockIndex
from mocktheta.modular import LAWS
from conftest import random_points

BANDS = {"low": (0.06, 0.15), "high": (0.8, 2.0)}
POINTS = [(band, pt) for band, im in BANDS.items() for pt in random_points(1105, 2, im=im)]
UNSIGNED = [MockIndex(1, 0), MockIndex(2, 1)]
SIGNED = [MockIndex(F(1, 2), s, sgn) for s in (0, F(1, 2)) for sgn in ("plus", "minus")]
SIGNED += [MockIndex(1, F(1, 2), "minus"), MockIndex(1, 0, "plus")]
INDICES = UNSIGNED + SIGNED
TOL = 1e-11


@cache
def rank1(tau, z1, z2, m, s, sign):
    """(theta, R, Phi, Phi_add, Phi~) of refs.rank1_index, once per argument."""
    return refs.rank1_index(tau, z1, z2, m, s, sign)


def phi_tilde(idx, tau, z1, z2):
    return rank1(tau, z1, z2, idx.m, idx.s, idx.sign)[4]


def phi(idx, tau, z1, z2):
    return rank1(tau, z1, z2, idx.m, idx.s, idx.sign)[2]


def theta(j, m, tau, z):
    return rank1(tau, z, 0j, m, j, "unsigned")[0]


def assert_close(lhs, rhs, *parts):
    scale = max([1.0, abs(lhs), abs(rhs)] + [abs(p) for p in parts])
    assert abs(lhs - rhs) <= TOL * scale, (lhs, rhs)


@pytest.fixture(params=POINTS, ids=[f"{band}{i % 2}" for i, (band, _) in enumerate(POINTS)])
def point(request):
    return request.param[1]


@pytest.mark.parametrize("family,f", [("phi~", phi_tilde), ("phi", phi)])
def test_integer_shifts(point, family, f):
    tau, z1, z2 = point
    for idx in INDICES:
        for a, b in ((1, 0), (1, 1), (-1, 1), (2, 0)):
            law = LAWS[family, "int"](idx, tau, (z1, z2), a, b)
            rhs = law.apply(lambda t: f(t, tau, z1, z2))
            assert_close(f(idx, tau, z1 + a, z2 + b), rhs)


def test_phi_tilde_tau_shifts(point):
    tau, z1, z2 = point
    for idx in INDICES:
        for a, b in ((1, 0), (0, 1), (1, 1), (-1, 1), (1, 2)):
            law = LAWS["phi~", "tau"](idx, tau, (z1, z2), a, b)
            rhs = law.apply(lambda t: phi_tilde(t, tau, z1, z2))
            assert_close(phi_tilde(idx, tau, z1 + a * tau, z2 + b * tau), rhs)


def test_phi_diagonal_shifts(point):
    tau, z1, z2 = point
    for idx in INDICES:
        for j in (1, -1):
            law = LAWS["phi", "tau"](idx, tau, (z1, z2), j, j)
            rhs = law.apply(lambda t: phi(t, tau, z1, z2))
            assert_close(phi(idx, tau, z1 + j * tau, z2 + j * tau), rhs)
    with pytest.raises(ValueError):
        LAWS["phi", "tau"](INDICES[0], tau, (z1, z2), 0, 2)


def test_phi_tilde_S_and_T(point):
    tau, z1, z2 = point
    for idx in INDICES:
        law = LAWS["phi~", "S"](idx, tau, (z1, z2))
        rhs = law.apply(lambda t: phi_tilde(t, tau, z1, z2))
        assert_close(phi_tilde(idx, -1 / tau, z1 / tau, z2 / tau), rhs)
        law = LAWS["phi~", "T"](idx, tau, (z1, z2))
        rhs = law.apply(lambda t: phi_tilde(t, tau, z1, z2))
        assert_close(phi_tilde(idx, tau + 1, z1, z2), rhs)


@pytest.mark.parametrize(
    "idx", [MockIndex(1, 0), MockIndex(F(1, 2), F(1, 2), "minus"), MockIndex(F(3, 2), F(1, 2), "plus")]
)
def test_lemma_2_3_window(point, idx):
    tau, z1, z2 = point
    for a, b in ((0, 2), (-2, 0)):
        law = LAWS["phi", "window"](idx, tau, (z1, z2), a, b)
        base = phi(idx, tau, z1, z2)
        moved = law.prefactor * phi(idx, tau, z1 + a * tau, z2 + b * tau)
        # a target (sign, j, m): Theta at j = s on z1 + z2, as rank1_index takes it
        window = [
            phase * rank1(tau, z1, z2, m, j, "minus" if sign == -1 else "plus")[0]
            for phase, (sign, j, m) in law.terms
        ]
        assert_close(base - moved, sum(window), base, moved, *window)


@pytest.mark.parametrize("j,m", [(0, 1), (1, 1), (1, 2), (3, 2)])
def test_theta_laws(point, j, m):
    tau, z, _ = point
    law = LAWS["theta", "S"]((j, m), tau, (z,))
    assert_close(theta(j, m, -1 / tau, z / tau), law.apply(lambda t: theta(*t, tau, z)))
    for a in (1, -1):
        law = LAWS["theta", "tau"]((j, m), tau, (z,), a)
        assert_close(theta(j, m, tau, z + 2 * a * tau), law.apply(lambda t: theta(*t, tau, z)))
        law = LAWS["theta", "int"]((j, m), tau, (z,), a)
        assert_close(theta(j, m, tau, z + 2 * a), law.apply(lambda t: theta(*t, tau, z)))


def test_every_rank1_entry_is_checked():
    rank1_entries = {key for key in LAWS if key[0] != "lattice"}
    assert rank1_entries == {
        ("phi~", "S"), ("phi~", "T"), ("phi~", "tau"), ("phi~", "int"),
        ("phi", "tau"), ("phi", "int"), ("phi", "window"),
        ("theta", "S"), ("theta", "tau"), ("theta", "int"),
    }
