"""The integer domain checks and the inlined ladder guards against the
Fraction forms they replaced.

``MockIndex``, ``theta_jm_signed`` and ``r_jm_signed`` test their indices
on numerators and denominators and compute the ladder offsets as int/int
divisions.  The references below are the earlier Fraction-arithmetic
checks, verbatim: every input must be accepted or refused exactly as
there, with the same exception class and message, and every accepted
input must reach the ladder with bitwise the same float offsets.  The pole
test of ``phi`` and the overflow guard of the walkers are held to the
same standard.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

import mocktheta.modifier as modifier
import mocktheta.theta as theta
from mocktheta.core import as_fraction
from mocktheta.errors import NonConvergent, PoleAtZ1
from mocktheta.mock import POLE_THRESHOLD, SIGNS, MockIndex, distance_to_lattice, phi
from mocktheta.modifier import phi_add, r_jm_signed
from mocktheta.theta import theta_jm, theta_jm_signed

VALUES = (
    sorted({F(p, q) for p in range(-12, 13) for q in range(1, 9)})
    + list(range(-3, 4))
    + [0.5, 0.25, 0.3, -0.5, 1e-7]
)
PAIRS = list(itertools.product(VALUES, VALUES))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def _index(m, s, sign):
    idx = MockIndex(m, s, sign)
    return idx.m, idx.s


def _bits(outcome):
    """An outcome with its floats as their exact bits."""
    return tuple(v.hex() if isinstance(v, float) else v for v in outcome)


def ref_index(m, s, sign):
    m = as_fraction(m)
    s = as_fraction(s)
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {sorted(SIGNS)}")
    if m <= 0:
        raise ValueError("degree m must be positive")
    if sign == "unsigned":
        if m.denominator != 1 or s.denominator != 1:
            raise ValueError("unsigned index needs integer m and s")
    else:
        if (2 * m).denominator != 1 or (2 * s).denominator != 1:
            raise ValueError("signed index needs half-integer m and s")
    return m, s


def ref_theta_signed(sign, j, m):
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    mf = as_fraction(m)
    jf = as_fraction(j)
    if mf <= 0 or (4 * mf).denominator != 1:
        raise ValueError("degree m must lie in (1/4)Z_{>0}")
    if (2 * jf).denominator != 1:
        raise ValueError("index j must lie in (1/2)Z")
    return float(jf / (2 * mf)), float(mf)


def ref_r_signed(sign, j, m):
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    jf = as_fraction(j)
    mf = as_fraction(m)
    if mf <= 0 or (2 * mf).denominator != 1:
        raise ValueError("m must lie in (1/2)Z_{>0}")
    if (2 * jf).denominator != 1:
        raise ValueError("j must lie in (1/2)Z")
    return float(jf), float(mf)


def ref_distance(z, tau):
    """Brute-force minimum of |z - n tau - m| over every lattice point within
    1 + Im tau of z, a radius that holds the nearest one."""
    y = tau.imag
    radius = 1 + y
    rows = range(math.floor((z.imag - radius) / y), math.ceil((z.imag + radius) / y) + 1)
    return min(
        abs(z - n * tau - m)
        for n in rows
        for m in range(math.floor((z - n * tau).real - radius), math.ceil((z - n * tau).real + radius) + 1)
    )


@pytest.mark.parametrize("sign", ["unsigned", "plus", "minus", "neither"])
def test_mock_index_checks_match_the_fraction_form(sign):
    for m, s in PAIRS:
        want = _outcome(ref_index, m, s, sign)
        got = _outcome(_index, m, s, sign)
        assert got == want, (m, s, sign)
        if not isinstance(got[0], type):
            assert all(type(x) is F for x in got)


@pytest.fixture
def ladder_args(monkeypatch):
    """The (offset, degree) each public signed ladder hands its kernel."""

    def capture_theta(sign, c0, m, tau, z):
        return c0, m

    def capture_r(sign, j, m, tau, z):
        return j, m

    monkeypatch.setattr(theta, "_theta_ladder", capture_theta)
    monkeypatch.setattr(modifier, "_r_ladder", capture_r)


@pytest.mark.parametrize("sign", [-1, 1, 2])
def test_signed_theta_checks_and_offsets_match(ladder_args, sign):
    for j, m in PAIRS:
        want = _bits(_outcome(ref_theta_signed, sign, j, m))
        got = _bits(_outcome(theta_jm_signed, sign, j, m, 0.1 + 1.1j, 0.2))
        assert got == want, (j, m)


@pytest.mark.parametrize("sign", [-1, 1, 0])
def test_signed_r_checks_and_offsets_match(ladder_args, sign):
    for j, m in PAIRS:
        want = _bits(_outcome(ref_r_signed, sign, j, m))
        got = _bits(_outcome(r_jm_signed, sign, j, m, 0.1 + 1.1j, 0.2))
        assert got == want, (j, m)


# one tau in each benchmark band of Im tau, 0.06-0.15 and 0.8-2
POLE_TAUS = (0.31 + 0.07j, -0.12 + 0.13j, 0.2 + 0.85j, -0.45 + 1.9j)
EPS_SIZES = (0.0, 5e-9, 1e-8 * (1 - 1e-6), 1e-8 * (1 + 1e-6), 1e-3)
EPS_DIRECTIONS = (1, 1j, -1, (-1 + 1j) / math.sqrt(2))


@pytest.mark.parametrize("tau", POLE_TAUS)
def test_phi_refuses_poles_where_the_search_did(tau):
    idx = MockIndex(1, 0)
    refused = 0
    for a, b, size, u in itertools.product(range(-2, 3), range(-2, 3), EPS_SIZES, EPS_DIRECTIONS):
        z1 = a + b * tau + size * u
        near = ref_distance(z1, tau)
        assert distance_to_lattice(z1, tau) == near
        if near < POLE_THRESHOLD:
            refused += 1
            with pytest.raises(PoleAtZ1):
                phi(idx, tau, z1, 0.2 + 0.01j)
        else:
            phi(idx, tau, z1, 0.2 + 0.01j)
    # eps = 0 and 5e-9 in every direction, and 1e-8 (1 - 1e-6) at least
    # along the real axis, at all 25 lattice points
    assert refused >= 25 * 9


def test_distance_matches_the_neighbour_search():
    rng = random.Random(7)
    for _ in range(20000):
        y = rng.choice((rng.uniform(0.05, 0.2), rng.uniform(0.5, 3.0)))
        tau = complex(rng.uniform(-1, 1), y)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3 * y, 3 * y))
        assert distance_to_lattice(z, tau) == ref_distance(z, tau), (z, tau)


OVERFLOW_TAU = 0.1 + 0.2j


@pytest.mark.parametrize(
    "evaluate,re_w",
    [
        (lambda: theta_jm(1, 1, OVERFLOW_TAU, 0.1 + 60j), "935"),
        (lambda: theta_jm_signed(-1, F(1, 2), F(1, 2), OVERFLOW_TAU, 0.1 + 60j), "836"),
        (lambda: phi(MockIndex(1, 0), OVERFLOW_TAU, 0.1 + 30j, 0.2 + 30j), "749"),
        (lambda: phi_add(MockIndex(1, 0), OVERFLOW_TAU, 0.1 + 30j, 0.2 + 30j), "749"),
    ],
    ids=["theta_jm", "theta_jm_signed", "phi", "phi_add"],
)
def test_overflow_stays_loud(evaluate, re_w):
    with pytest.raises(NonConvergent) as err:
        evaluate()
    assert str(err.value) == f"exponent overflow: Re(w) = {re_w}"
