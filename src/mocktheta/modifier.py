"""Real-analytic corrections R_{j,m}, the modifier Phi_add, and the
modified functions Phi~ = Phi - Phi_add / 2.

The correction sums run over the ladder n = j + 2 m l.  Each summand is a
bounded sigmoid weight times a phase whose magnitude grows like
exp(pi n^2 Im(tau) / 2m); in the tails the weight is a Gaussian complement
that decays twice as fast, so weight and phase are combined into a single
exponent with the scaled complement (see core.gauss_E_complement_scaled)
before exponentiating.  Naive evaluation would overflow the phase and
underflow the weight long before their product leaves double range.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .core import (
    _EXP_GUARD,
    TWO_PI,
    SeriesValue,
    _finite,
    as_fraction,
    exp_overflow,
    gauss_E_complement,
    gauss_E_complement_scaled,
    gaussian_window,
    outward,
    require_tau,
    sum_ladder,
)
from .mock import _MEMO_SIZE, MockIndex, phi
from .theta import _theta_window

_NEG_I_PI = -(1j * math.pi)
_2PI_I = 2j * math.pi

# Beyond this the sigmoid weight is a pure Gaussian complement and must be
# carried in scaled form.
_PSI_SWITCH = 6.0


def _r_ladder(sign: int, j: float, m: float, tau: complex, z: complex) -> SeriesValue:
    """Shared ladder for R_{j,m} and its signed analogues."""
    tau = require_tau(tau)
    return sum_ladder(*_r_window(sign, (j,), m, tau, _finite("z", z))).series()


def _r_window(sign, js, m: float, tau: complex, z: complex):
    """(walk, window) of the R ladders n = js[r] + 2 m l, 0 <= r < p, as
    the residue classes r mod p of one ladder in k = p l + r.

    The offsets must step by 2m/p, js[r] = js[0] + 2 m r / p, so that
    n = js[0] + 2 m k / p, and l >= 0 exactly when k >= 0.
    """
    p = len(js)
    y = tau.imag
    step = 2.0 * m
    # centre of the Gaussian weight in the n variable
    centre = 2.0 * m * z.imag / y
    scale = math.sqrt(y / m)
    # Where sp >= 0, erfc(x) <= exp(-x^2) bounds the summand by
    #   exp(pi n^2 y / 2m - 2 pi n Im z - pi psi^2)
    #   = exp(-pi y (n - centre)^2 / 2m - 2 pi m (Im z)^2 / y),
    # also in the scaled branch, where erfc(x) e^(x^2) <= 1.  In k that is
    # a = 2 pi m y / p^2 around k* = p (centre - js[0]) / 2m.  sp < 0 only
    # for k between 0 and k*, which the window therefore contains.
    kstar = p * (centre - js[0]) / step
    window = gaussian_window(
        -TWO_PI * m * z.imag * z.imag / y,
        TWO_PI * m * y / (p * p),
        kstar,
        (min(0, math.floor(kstar)), max(0, math.ceil(kstar))),
    )

    two_m = 2.0 * m
    comp = gauss_E_complement
    comp_scaled = gauss_E_complement_scaled
    exp = cmath.exp

    def walk(r: int, l_lo: int, l_hi: int) -> complex:
        j = js[r]
        total = 0j
        for ell in outward(l_lo, l_hi):
            n = j + step * ell
            sign_step = 1.0 if ell >= 0 else -1.0
            psi = (n - centre) * scale
            w = _NEG_I_PI * n * n * tau / two_m + _2PI_I * n * z
            # sign_step - E(psi) == sign_step * erfc(sqrt(pi) sign_step psi),
            # which keeps full relative accuracy where the weight is tiny but
            # the phase factor is exponentially large.
            sp = sign_step * psi
            if sp >= _PSI_SWITCH:
                weight = sign_step * comp_scaled(sp)
                w = w - math.pi * psi * psi
            else:
                weight = sign_step * comp(sp)
            if w.real > _EXP_GUARD:
                raise exp_overflow(w)
            if sign == -1 and ell % 2:
                total -= weight * exp(w)
            else:
                total += weight * exp(w)
        return total

    return walk, window


def r_jm(j: int, m: int, tau: complex, z: complex) -> SeriesValue:
    """R_{j,m}(tau, z) for integer j and positive integer m."""
    if m < 1:
        raise ValueError("r_jm needs a positive integer m")
    if j % 1 or m % 1:
        raise ValueError("r_jm needs integer j and m")
    return _r_ladder(1, float(j), float(m), tau, z)


def r_jm_signed(sign: int, j, m, tau: complex, z: complex) -> SeriesValue:
    """Signed correction R^{+-}_{j,m}; j in (1/2)Z, m in (1/2)Z_{>0}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    jf = as_fraction(j)
    mf = as_fraction(m)
    # in lowest terms, 2x is an integer exactly when x's denominator divides 2
    if mf.numerator <= 0 or 2 % mf.denominator:
        raise ValueError("m must lie in (1/2)Z_{>0}")
    if 2 % jf.denominator:
        raise ValueError("j must lie in (1/2)Z")
    # int / int rounds once, exactly as float(Fraction) does
    jv = jf.numerator / jf.denominator
    return _r_ladder(sign, jv, mf.numerator / mf.denominator, tau, z)


def phi_add(idx: MockIndex, tau: complex, z1: complex, z2: complex) -> SeriesValue:
    """The modifier: sum over j = s, ..., s + 2m - 1 of R_{j,m} * Theta_{j,m}.

    R_j and Theta_j are the residue classes mod 2m of one ladder in
    N in s + Z, R at n = N and Theta at c = N / 2m, with l >= 0 exactly
    when N >= s; so one walk sums every R_j and one every Theta_j.

    Memoized as ``mock.phi`` is: a repeat of one of the last _MEMO_SIZE
    distinct arguments returns the SeriesValue computed for it.
    """
    return _phi_add(idx, require_tau(tau), _finite("z1", z1), _finite("z2", z2))


@lru_cache(maxsize=_MEMO_SIZE)
def _phi_add(idx: MockIndex, tau: complex, z1: complex, z2: complex) -> SeriesValue:
    """phi_add at checked arguments."""
    r_walk, th_walk, p = _phi_add_walks(idx, tau, z1, z2)
    r_sums = sum_ladder(*r_walk, p)
    th_sums = sum_ladder(*th_walk, p)
    value = 0.0
    for rr, th in zip(r_sums.sums, th_sums.sums):
        value += rr * th
    r_err, th_err = r_sums.err_bound, th_sums.err_bound
    err = (
        r_err * sum(map(abs, th_sums.sums))
        + th_err * sum(map(abs, r_sums.sums))
        + p * r_err * th_err
    )
    return SeriesValue(value, err, r_sums.terms_used + th_sums.terms_used)


def _phi_add_walks(idx: MockIndex, tau: complex, z1, z2):
    """The (walk, window) pairs of phi_add's R and Theta walks, and their
    period 2m: class r of each walk is j = s + r."""
    sgn = idx.sign_value
    m = float(idx.m)
    # 2s and 4m are integers (MockIndex keeps s and m in (1/2)Z), so
    # j = s + r and j / 2m = 2j / 4m round exactly as their Fractions do
    s2 = 2 * idx.s.numerator // idx.s.denominator
    m4 = 4 * idx.m.numerator // idx.m.denominator
    p = m4 // 2
    js = [(s2 + 2 * r) / 2 for r in range(p)]
    c0s = [(s2 + 2 * r) / m4 for r in range(p)]
    return (
        _r_window(sgn, js, m, tau, (z1 - z2) / 2.0),
        _theta_window(sgn, c0s, m, tau, z1 + z2),
        p,
    )


def phi_tilde(idx: MockIndex, tau: complex, z1: complex, z2: complex) -> SeriesValue:
    """Modified mock theta function Phi - Phi_add / 2."""
    base = phi(idx, tau, z1, z2)
    add = phi_add(idx, tau, z1, z2)
    return base - 0.5 * add
