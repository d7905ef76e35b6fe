"""Rank-1 mock theta functions Phi^[m;s] and their signed variants.

The series is

    Phi(tau, z1, z2) = sum_n (pm1)^n e^(2 pi i (m n (z1+z2) + s z1))
                       * q^(m n^2 + s n) / (1 - e^(2 pi i z1) q^n)

with simple poles along z1 in Z + Z tau.  Terms are Gaussian in n away
from the poles, so the ladder engine applies; the denominator is folded
in through its exponent when it grows, never divided naively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DEFAULT_POLICY,
    SeriesValue,
    TruncationPolicy,
    as_fraction,
    cexp,
    fold_pole_factor,
    q_pow,
    sum_ladder,
)
from .errors import PoleAtZ1
from .theta import _theta_ladder

_2PI_I = 2j * math.pi

POLE_THRESHOLD = 1e-8

# sign label -> the (+-1)^n of the series; unsigned is the + series
SIGNS = {"unsigned": 1, "plus": 1, "minus": -1}


@dataclass(frozen=True)
class MockIndex:
    """Degree m, shift s, and sign label of a rank-1 mock theta function."""

    m: Fraction
    s: Fraction
    sign: str = "unsigned"

    def __post_init__(self):
        object.__setattr__(self, "m", as_fraction(self.m))
        object.__setattr__(self, "s", as_fraction(self.s))
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be one of {sorted(SIGNS)}")
        if self.m <= 0:
            raise ValueError("degree m must be positive")
        if self.sign == "unsigned":
            if self.m.denominator != 1 or self.s.denominator != 1:
                raise ValueError("unsigned index needs integer m and s")
        else:
            if (2 * self.m).denominator != 1 or (2 * self.s).denominator != 1:
                raise ValueError("signed index needs half-integer m and s")

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
    """Approximate distance from z to Z + Z tau (exact enough near zero)."""
    n_tau = round(z.imag / tau.imag)
    w = z - n_tau * tau
    w -= round(w.real)
    # neighbours in case the rounding was marginal
    best = abs(w)
    for dn in (-1, 0, 1):
        for dm in (-1, 0, 1):
            best = min(best, abs(z - (n_tau + dn) * tau - (round(w.real) + dm)))
    return best


def phi(
    idx: MockIndex,
    tau: complex,
    z1: complex,
    z2: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Evaluate Phi^[m;s] (or the signed variant) at (tau, z1, z2)."""
    tau = policy.require_tau(tau)
    z1 = complex(z1)
    z2 = complex(z2)
    if distance_to_lattice(z1, tau) < POLE_THRESHOLD:
        raise PoleAtZ1(f"z1 = {z1} within {POLE_THRESHOLD} of Z + Z tau")
    m = float(idx.m)
    s = float(idx.s)
    sgn = idx.sign_value

    def term(n: int) -> complex:
        w, den = fold_pole_factor(
            _2PI_I * (m * n * (z1 + z2) + s * z1 + tau * (m * n * n + s * n)),
            _2PI_I * (z1 + n * tau),
        )
        val = cexp(w) / den
        if sgn == -1 and n % 2:
            val = -val
        return val

    return sum_ladder(term, policy)


def phi_shift_residual_a(
    idx: MockIndex,
    tau: complex,
    z1: complex,
    z2: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """LHS - RHS of the z2 -> z2 + 2 tau shift identity.

    Phi(tau,z1,z2) - e^(4 pi i m z1) Phi(tau,z1,z2+2tau)
        = sum_(0<=kk<2m) e^(pi i (kk+s)(z1-z2)) q^(-(kk+s)^2/4m)
          Theta^(sign)_(kk+s, m)(tau, z1+z2)
    """
    tau = policy.require_tau(tau)
    if abs(complex(z2).imag) > 4.0 * tau.imag:
        raise ValueError("Im z2 too large for the shifted evaluation")
    m = idx.m
    s = idx.s
    lhs_a = phi(idx, tau, z1, z2, policy)
    lhs_b = phi(idx, tau, z1, z2 + 2 * tau, policy)
    shift_factor = cexp(_2PI_I * 2 * float(m) * z1)
    total = lhs_a - shift_factor * lhs_b
    two_m = int(2 * m) if (2 * m).denominator == 1 else None
    if two_m is None:
        raise ValueError("2m must be an integer for the shift identity window")
    u = complex(z1 + z2)
    for kk in range(two_m):
        c = float(kk + s)
        pref = cexp(1j * math.pi * c * (z1 - z2)) * q_pow(tau, -c * c / (4 * float(m)))
        th = _theta_ladder(
            idx.sign_value, float((kk + s) / (2 * m)), float(m), tau, u, policy
        )
        total = total - pref * th
    return total


def phi_elliptic_residual(
    idx: MockIndex,
    j: int,
    tau: complex,
    z1: complex,
    z2: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Residual of Phi(tau, z1 + j tau, z2 + j tau) against its elliptic law."""
    if abs(j) > 3:
        raise ValueError("|j| <= 3 keeps the shifted series in safe range")
    tau = policy.require_tau(tau)
    if j == 0:
        return SeriesValue(0.0, 0.0, 0)
    m = float(idx.m)
    shifted = phi(idx, tau, z1 + j * tau, z2 + j * tau, policy)
    base = phi(idx, tau, z1, z2, policy)
    pref = cexp(-_2PI_I * j * m * (z1 + z2)) * q_pow(tau, -m * j * j)
    if idx.sign == "minus" and j % 2:
        pref = -pref
    return shifted - pref * base
