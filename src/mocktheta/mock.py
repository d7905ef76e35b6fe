"""Rank-1 mock theta functions Phi^[m;s] and their signed variants.

The series is

    Phi(tau, z1, z2) = sum_n (pm1)^n e^(2 pi i (m n (z1+z2) + s z1))
                       * q^(m n^2 + s n) / (1 - e^(2 pi i z1) q^n)

with simple poles along z1 in Z + Z tau.  Terms are Gaussian in n away
from the poles, so the ladder engine applies; the denominator is folded
in through its exponent when it grows, never divided naively.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    _EXP_GUARD,
    TWO_PI,
    SeriesValue,
    _finite,
    as_fraction,
    exp_overflow,
    gaussian_window,
    outward,
    require_tau,
    sum_ladder,
)
from .errors import PoleAtZ1
from .modular import LAWS
from .theta import _theta_ladder

_2PI_I = 2j * math.pi
_LOG2 = math.log(2.0)

POLE_THRESHOLD = 1e-8

# phi and modifier.phi_add each keep the values of their last _MEMO_SIZE
# distinct (index, tau, z1, z2) arguments.  In one benchmark pass
# (seed 0) every repeat lies 1 distinct argument back on rank1_grid
# (phi_tilde after phi and phi_add) and at most 4 back on suite_sweep;
# lattice_char_table's lie 4 back (37%), 30-35 back (23%) or up to 233
# back.  A 256-entry memo, which held them all, ran suite_sweep 7.5% and
# lattice_char_table 2.9% slower than no memo in 10 benchmark pairs.
_MEMO_SIZE = 32

# sign label -> the (+-1)^n of the series; unsigned is the + series
SIGNS = {"unsigned": 1, "plus": 1, "minus": -1}
# the argument types whose integer ratio is their exact value
_EXACT = (Fraction, int)


@lru_cache(maxsize=256, typed=True)
def _checked_index(m, s, sign: str) -> tuple:
    """(m, s, float(m), float(s), hash) of a valid index; ValueError, raised
    again on every call, for an invalid one.  ``typed``, so that a float
    and a Fraction of equal value each go through ``as_fraction``."""
    m = as_fraction(m)
    s = as_fraction(s)
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {sorted(SIGNS)}")
    if m.numerator <= 0:
        raise ValueError("degree m must be positive")
    # in lowest terms, 2x is an integer exactly when x's denominator divides 2
    if sign == "unsigned":
        if m.denominator != 1 or s.denominator != 1:
            raise ValueError("unsigned index needs integer m and s")
    elif 2 % m.denominator or 2 % s.denominator:
        raise ValueError("signed index needs half-integer m and s")
    # integers: Fraction.__hash__ is a modular inverse; once, since every
    # memo lookup of phi and phi_add hashes the index
    key = (m.numerator, m.denominator, s.numerator, s.denominator, sign)
    return m, s, float(m), float(s), hash(key)


@lru_cache(maxsize=256)
def _checked_ratio(m_num: int, m_den: int, s_num: int, s_den: int, sign: str) -> tuple:
    """``_checked_index`` of m = m_num / m_den and s = s_num / s_den, kept
    by those integers: Fraction.__hash__ runs in Python, ten times slower."""
    return _checked_index.__wrapped__(Fraction(m_num, m_den), Fraction(s_num, s_den), sign)


@dataclass(frozen=True)
class MockIndex:
    """Degree m, shift s, and sign label of a rank-1 mock theta function.

    Each distinct (m, s, sign) argument triple is checked once; the index
    also carries ``m_float`` and ``s_float``, the floats the ladders read.
    """

    m: Fraction
    s: Fraction
    sign: str = "unsigned"

    def __post_init__(self):
        m, s = self.m, self.s
        tm, ts = type(m), type(s)
        if (tm is Fraction or ts is Fraction) and tm in _EXACT and ts in _EXACT:
            checked = _checked_ratio(*m.as_integer_ratio(), *s.as_integer_ratio(), self.sign)
        else:
            checked = _checked_index(m, s, self.sign)
        m, s, m_float, s_float, h = checked
        put = object.__setattr__
        put(self, "m", m)
        put(self, "s", s)
        put(self, "m_float", m_float)
        put(self, "s_float", s_float)
        put(self, "_hash", h)

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt, so the str hash follows the new process
        return MockIndex, (self.m, self.s, self.sign)

    @property
    def sign_value(self) -> int:
        return SIGNS[self.sign]

    def with_s(self, s) -> "MockIndex":
        return MockIndex(self.m, as_fraction(s), self.sign)

    def flipped(self) -> "MockIndex":
        if self.sign == "unsigned":
            return self
        return MockIndex(self.m, self.s, "plus" if self.sign == "minus" else "minus")


def distance_to_lattice(z: complex, tau: complex) -> float:
    """Distance from z to Z + Z tau: the nearest point of each row n tau + Z,
    outward from the row nearest z while a row can still come nearer."""
    best = math.inf
    n0 = round(z.imag / tau.imag)
    for n, step in ((n0, 1), (n0 - 1, -1)):
        while abs(z.imag - n * tau.imag) < best:
            w = z - n * tau
            best = min(best, abs(w - round(w.real)))
            n += step
    return best


def phi(idx: MockIndex, tau: complex, z1: complex, z2: complex) -> SeriesValue:
    """Evaluate Phi^[m;s] (or the signed variant) at (tau, z1, z2).

    A repeat of one of the last _MEMO_SIZE distinct arguments returns the
    SeriesValue computed for it, without running the ladder again.
    """
    return _phi(idx, require_tau(tau), _finite("z1", z1), _finite("z2", z2))


@lru_cache(maxsize=_MEMO_SIZE)
def _phi(idx: MockIndex, tau: complex, z1: complex, z2: complex) -> SeriesValue:
    """phi at checked arguments; a PoleAtZ1 is raised again on every call."""
    if distance_to_lattice(z1, tau) < POLE_THRESHOLD:
        raise PoleAtZ1(f"z1 = {z1} within {POLE_THRESHOLD} of Z + Z tau")
    (value,), err, terms = sum_ladder(*_phi_window(idx, tau, z1, z2))
    return SeriesValue(value, err, terms)


def _phi_window(idx: MockIndex, tau: complex, z1: complex, z2: complex):
    """(walk, window) of the Phi ladder at a checked point off the poles."""
    m = idx.m_float
    s = idx.s_float
    sgn = idx.sign_value
    # The numerator e^(2 pi i (m n u + s z1 + tau (m n^2 + s n))), u = z1 + z2,
    # has modulus exp(a n*^2 - 2 pi s Im z1 - a (n - n*)^2) with a = 2 pi m y
    # and n* = -(Im u / y + s / m) / 2.  The pole factor 1 / (1 - w), with
    # |w| = x = exp(-2 pi (Im z1 + n y)), is at most 2 in modulus where
    # x <= 1/2, since |1 - w| >= 1 - x, and at most 1 where x >= 2, folded
    # or not, since |1 - w| >= x - 1 >= 1.  So the envelope carries log 2,
    # and the window contains the band 1/2 < x < 2, where
    # |Im z1 + n y| < log 2 / 2 pi.
    y = tau.imag
    a = TWO_PI * m * y
    nstar = -((z1 + z2).imag / y + s / m) / 2.0
    band = _LOG2 / TWO_PI
    core = (math.floor((-z1.imag - band) / y), math.ceil((-z1.imag + band) / y))
    window = gaussian_window(a * nstar * nstar - TWO_PI * s * z1.imag + _LOG2, a, nstar, core)

    u = z1 + z2
    sz1 = s * z1
    exp = cmath.exp

    def walk(_r: int, n_lo: int, n_hi: int) -> complex:
        total = 0j
        for n in outward(n_lo, n_hi):
            w = _2PI_I * (m * n * u + sz1 + tau * (m * n * n + s * n))
            d = _2PI_I * (z1 + n * tau)
            # e^w / (1 - e^d), with e^-d folded into e^w once e^d is large
            if d.real > 40.0:
                w = w - d
                den = -(1.0 - exp(-d))
            else:
                den = 1.0 - exp(d)
            if w.real > _EXP_GUARD:
                raise exp_overflow(w)
            if sgn == -1 and n % 2:
                total -= exp(w) / den
            else:
                total += exp(w) / den
        return total

    return walk, window


def phi_shift_residual_a(idx: MockIndex, tau: complex, z1: complex, z2: complex) -> SeriesValue:
    """LHS - RHS of lemma 2.3 (a), ``modular.LAWS["phi", "window"]`` at z2 -> z2 + 2 tau:
    Phi(z) - e^(4 pi i m z1) Phi(z1, z2 + 2 tau) less its theta window."""
    tau = require_tau(tau)
    if abs(complex(z2).imag) > 4.0 * tau.imag:
        raise ValueError("Im z2 too large for the shifted evaluation")
    law = LAWS["phi", "window"](idx, tau, (z1, z2), 0, 2)
    total = phi(idx, tau, z1, z2) - law.prefactor * phi(idx, tau, z1, z2 + 2 * tau)
    u = complex(z1 + z2)
    for phase, (sign, j, m) in law.terms:
        total = total - phase * _theta_ladder(sign, float(j / (2 * m)), float(m), tau, u)
    return total


def phi_elliptic_residual(
    idx: MockIndex, j: int, tau: complex, z1: complex, z2: complex
) -> SeriesValue:
    """Residual of Phi(tau, z1 + j tau, z2 + j tau) against its elliptic law,
    ``modular.LAWS["phi", "tau"]`` at (a, b) = (j, j)."""
    if abs(j) > 3:
        raise ValueError("|j| <= 3 keeps the shifted series in safe range")
    tau = require_tau(tau)
    z1, z2 = _finite("z1", z1), _finite("z2", z2)
    if j == 0:
        return SeriesValue(0.0, 0.0, 0)
    law = LAWS["phi", "tau"](idx, tau, (z1, z2), j, j)
    ((_, target),) = law.terms
    shifted = phi(idx, tau, z1 + j * tau, z2 + j * tau)
    return shifted - law.prefactor * phi(target, tau, z1, z2)
