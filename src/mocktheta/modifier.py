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

import math
from fractions import Fraction

from .core import (
    DEFAULT_POLICY,
    SeriesValue,
    TruncationPolicy,
    as_fraction,
    cexp,
    gauss_E_complement,
    gauss_E_complement_scaled,
    sum_ladder,
)
from .mock import MockIndex, phi
from .theta import _theta_ladder

_I_PI = 1j * math.pi
_2PI_I = 2j * math.pi

# Beyond this the sigmoid weight is a pure Gaussian complement and must be
# carried in scaled form.
_PSI_SWITCH = 6.0
_EXP_SWITCH = 600.0


def _r_ladder(
    sign: int,
    j: Fraction,
    m: Fraction,
    tau: complex,
    z: complex,
    policy: TruncationPolicy,
) -> SeriesValue:
    """Shared ladder for R_{j,m} and its signed analogues."""
    tau = policy.require_tau(tau)
    z = complex(z)
    y = tau.imag
    mf = float(m)
    jf = float(j)
    step = 2.0 * mf
    # centre of the Gaussian weight in the n variable
    centre = 2.0 * mf * z.imag / y
    scale = math.sqrt(y / mf)

    def term(ell: int) -> complex:
        n = jf + step * ell
        sign_step = 1.0 if ell >= 0 else -1.0
        psi = (n - centre) * scale
        w_exp = -_I_PI * n * n * tau / (2.0 * mf) + _2PI_I * n * z
        # sign_step - E(psi) == sign_step * erfc(sqrt(pi) sign_step psi),
        # which keeps full relative accuracy where the weight is tiny but
        # the phase factor is exponentially large.
        sp = sign_step * psi
        if sp >= _PSI_SWITCH:
            weight = sign_step * gauss_E_complement_scaled(sp)
            val = weight * cexp(w_exp - math.pi * psi * psi)
        else:
            weight = sign_step * gauss_E_complement(sp)
            val = weight * cexp(w_exp)
        if sign == -1 and ell % 2:
            val = -val
        return val

    return sum_ladder(term, policy)


def r_jm(
    j: int,
    m: int,
    tau: complex,
    z: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """R_{j,m}(tau, z) for integer j and positive integer m."""
    if m < 1:
        raise ValueError("r_jm needs a positive integer m")
    return _r_ladder(1, Fraction(j), Fraction(m), tau, z, policy)


def r_jm_signed(
    sign: int,
    j,
    m,
    tau: complex,
    z: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Signed correction R^{+-}_{j,m}; j in (1/2)Z, m in (1/2)Z_{>0}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    jf = as_fraction(j)
    mf = as_fraction(m)
    if mf <= 0 or (2 * mf).denominator != 1:
        raise ValueError("m must lie in (1/2)Z_{>0}")
    if (2 * jf).denominator != 1:
        raise ValueError("j must lie in (1/2)Z")
    return _r_ladder(sign, jf, mf, tau, z, policy)


def _window(idx: MockIndex):
    """The 2m ladder offsets j = s, s+1, ..., s+2m-1."""
    two_m = 2 * idx.m
    if two_m.denominator != 1:
        raise ValueError("2m must be an integer")
    return [idx.s + kk for kk in range(int(two_m))]


def phi_add(
    idx: MockIndex,
    tau: complex,
    z1: complex,
    z2: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """The modifier: sum over the window of R_{j,m} * Theta_{j,m} products."""
    tau = policy.require_tau(tau)
    z1 = complex(z1)
    z2 = complex(z2)
    v = (z1 - z2) / 2.0
    u = z1 + z2
    sgn = idx.sign_value
    m = float(idx.m)
    total = SeriesValue(0.0, 0.0, 0)
    for j in _window(idx):
        if idx.sign == "unsigned":
            rr = r_jm(int(j), int(idx.m), tau, v, policy)
        else:
            rr = r_jm_signed(sgn, j, idx.m, tau, v, policy)
        th = _theta_ladder(sgn, float(j / (2 * idx.m)), m, tau, u, policy)
        total = total + rr * th
    return total


def phi_tilde(
    idx: MockIndex,
    tau: complex,
    z1: complex,
    z2: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Modified mock theta function Phi - Phi_add / 2."""
    base = phi(idx, tau, z1, z2, policy)
    add = phi_add(idx, tau, z1, z2, policy)
    return base - 0.5 * add
