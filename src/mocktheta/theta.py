"""Classical building blocks: eta, the four level-2 Jacobi thetas and
the rank-1 theta ladders.  The positive definite lattice theta sums live
in ``lattice``, and their window in ``lattice_window``.

Convention for the level-2 thetas (fixed so that the denominator-identity
pin tests in the verification suite hold; see tests/test_characters.py):

    theta11(tau, z) =  i * sum_n (-1)^n q^((n+1/2)^2/2) e^(2 pi i (n+1/2) z)
    theta10(tau, z) =      sum_n        q^((n+1/2)^2/2) e^(2 pi i (n+1/2) z)
    theta01(tau, z) =      sum_n (-1)^n q^(n^2/2)       e^(2 pi i n z)
    theta00(tau, z) =      sum_n        q^(n^2/2)       e^(2 pi i n z)

With these choices theta11 is odd in z and theta11(tau, z + 1/2) equals
-theta10(tau, z).

One ladder, ``_theta_window``, sums every rank-1 theta
Theta^(sign)_(j,m)(tau, z) = sum_n sign^n e^(2 pi i m (z c + tau c^2)),
c = n + j/2m; theta_ab(tau, z) is i^(ab) Theta^((-1)^b)_(a/2, 1/2)(tau, 2z),
and eta(tau) is Euler's pentagonal series Theta^(-)_(1/2, 3/2)(tau, 0).
"""

from __future__ import annotations

import cmath
import math
from importlib import import_module

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

_2PI_I = 2j * math.pi


def eta(tau: complex) -> SeriesValue:
    """Dedekind eta q^(1/24) prod_(n>=1) (1 - q^n) as Euler's pentagonal
    series sum_n (-1)^n q^((3/2)(n + 1/6)^2).  err_bound adds to the tail
    the rounding of N summands t_n = e^(w_n), each w_n a few ulps off: with
    y = Im tau and r = 1/sqrt(3 y), sum |t_n| <= 1 + r and
    sum |w_n| |t_n| <= (|tau|/y)(2/e + r/2)."""
    tau = require_tau(tau)
    value, tail, terms = _theta_ladder(-1, 1 / 6, 1.5, tau, 0)
    r = 1.0 / math.sqrt(3.0 * tau.imag)
    rounding = (terms + 1) * (1.0 + r) + 3.0 * abs(tau) / tau.imag * (2.0 / math.e + 0.5 * r)
    return SeriesValue(value, tail + 2.0**-52 * rounding, terms)


def theta_ab(a: int, b: int, tau: complex, z: complex) -> SeriesValue:
    """Jacobi theta theta_{ab}(tau, z) in the module-level convention."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("theta_ab indices must be 0 or 1")
    tau = require_tau(tau)
    # theta_ab(tau, z) = Theta^((-1)^b)_(a/2, 1/2)(tau, 2z)
    out = _theta_ladder(-1 if b else 1, 0.5 * a, 0.5, tau, 2.0 * _finite("z", z))
    if (a, b) == (1, 1):
        out = SeriesValue(1j * out.value, out.err_bound, out.terms_used)
    return out


def theta_jm(j: int, m: int, tau: complex, z: complex) -> SeriesValue:
    """Rank-1 theta sum_n e^(2 pi i m z (n + j/2m)) q^(m (n + j/2m)^2)."""
    if m < 1:
        raise ValueError("theta_jm needs m >= 1")
    if j % 1 or m % 1:
        raise ValueError("theta_jm needs integer j and m")
    tau = require_tau(tau)
    return _theta_ladder(1, j / (2.0 * m), float(m), tau, _finite("z", z))


def theta_jm_signed(sign: int, j, m, tau: complex, z: complex) -> SeriesValue:
    """Signed rank-1 theta with a (sign)^n factor; m in (1/4)Z_{>0}, j in (1/2)Z."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    mf = as_fraction(m)
    jf = as_fraction(j)
    # in lowest terms, 4m is an integer exactly when m's denominator divides 4
    mn, md = mf.numerator, mf.denominator
    jn, jd = jf.numerator, jf.denominator
    if mn <= 0 or 4 % md:
        raise ValueError("degree m must lie in (1/4)Z_{>0}")
    if 2 % jd:
        raise ValueError("index j must lie in (1/2)Z")
    tau = require_tau(tau)
    # int / int rounds once, exactly as float(Fraction) does
    c0 = jn * md / (2 * mn * jd)
    return _theta_ladder(sign, c0, mn / md, tau, _finite("z", z))


def _theta_ladder(sign: int, c0: float, m: float, tau: complex, z: complex) -> SeriesValue:
    """sum_n sign^n e^(2 pi i m (z c + tau c^2)), c = n + c0, for checked
    arguments: m > 0, sign = +-1, tau already through ``require_tau``."""
    (value,), err, terms = sum_ladder(*_theta_window(sign, (c0,), m, tau, z))
    return SeriesValue(value, err, terms)


def _theta_window(sign, c0s, m: float, tau: complex, z: complex):
    """(walk, window) of the theta ladders c = n + c0s[r], 0 <= r < p, as
    the residue classes r mod p of one ladder in k = p n + r.

    The offsets must step by 1/p, c0s[r] = c0s[0] + r/p, so c = c0s[0] + k/p.
    """
    p = len(c0s)
    # |e^(2 pi i m (z c + tau c^2))| = exp(-2 pi m (Im z c + y c^2))
    #   = exp(a c*^2 - a (c - c*)^2),  a = 2 pi m y,  c* = -Im z / 2y,
    # and c - c* = (k - p (c* - c0s[0])) / p in the walk index k.
    y = tau.imag
    cstar = -z.imag / (2.0 * y)
    a = TWO_PI * m * y
    window = gaussian_window(a * cstar * cstar, a / (p * p), p * (cstar - c0s[0]))

    mz = m * z
    mtau = tau * m
    exp = cmath.exp

    def walk(r: int, n_lo: int, n_hi: int) -> complex:
        c0 = c0s[r]
        total = 0j
        for n in outward(n_lo, n_hi):
            c = n + c0
            w = _2PI_I * (mz * c + mtau * c * c)
            if w.real > _EXP_GUARD:
                raise exp_overflow(w)
            if sign == -1 and n % 2:
                total -= exp(w)
            else:
                total += exp(w)
        return total

    return walk, window


def __getattr__(name):
    """``lattice_theta`` and ``enumerate_ellipsoid`` by their former home,
    which ``bench/tracing.py`` still names: the objects the library calls,
    from ``lattice`` and ``lattice_window``."""
    home = {"lattice_theta": "lattice", "enumerate_ellipsoid": "lattice_window"}.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{home}", __package__), name)
