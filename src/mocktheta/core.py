"""Foundation layer: truncation policy, error-integral helpers, ladder sums.

Every infinite series in the library is reduced to a sum over an integer
ladder whose term magnitudes decay like a Gaussian in both directions.
``sum_ladder`` walks such a ladder outward from a starting index and stops
once a geometric-ratio bound on the discarded tail is below the policy
target, so every returned :class:`SeriesValue` carries an honest
``err_bound``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonConvergent

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)

# Real exponents above this are treated as overflow hazards; the ladder
# term builders keep combined exponents far below it at any point that
# satisfies the policy preconditions.
_EXP_GUARD = 700.0
_SQRT_EXP_GUARD = math.sqrt(_EXP_GUARD)


@dataclass(frozen=True)
class TruncationPolicy:
    """Absolute tolerance and hard caps governing all series evaluation."""

    abs_tol: float = 1e-12
    max_terms: int = 10_000
    min_im_tau: float = 0.05

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_terms < 16:
            raise ValueError("max_terms must be at least 16")
        if not self.min_im_tau > 0:
            raise ValueError("min_im_tau must be positive")

    def require_tau(self, tau: complex) -> complex:
        tau = complex(tau)
        if tau.imag < self.min_im_tau:
            raise ValueError(
                f"Im tau = {tau.imag} below policy minimum {self.min_im_tau}"
            )
        return tau


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesValue:
    """A complex value paired with a truncation-error bound."""

    value: complex
    err_bound: float
    terms_used: int

    def __complex__(self) -> complex:
        return self.value

    def __add__(self, other: "SeriesValue") -> "SeriesValue":
        return SeriesValue(
            self.value + other.value,
            self.err_bound + other.err_bound,
            self.terms_used + other.terms_used,
        )

    def __sub__(self, other: "SeriesValue") -> "SeriesValue":
        return SeriesValue(
            self.value - other.value,
            self.err_bound + other.err_bound,
            self.terms_used + other.terms_used,
        )

    def __mul__(self, other):
        if isinstance(other, SeriesValue):
            return SeriesValue(
                self.value * other.value,
                abs(self.value) * other.err_bound
                + abs(other.value) * self.err_bound
                + self.err_bound * other.err_bound,
                self.terms_used + other.terms_used,
            )
        return SeriesValue(
            self.value * other, abs(other) * self.err_bound, self.terms_used
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "SeriesValue") -> "SeriesValue":
        quot = self.value / other.value
        return SeriesValue(
            quot,
            (self.err_bound + abs(quot) * other.err_bound) / abs(other.value),
            self.terms_used + other.terms_used,
        )


@dataclass(frozen=True)
class ModularPoint:
    """A point (tau, z, t) of the upper-half-plane domain.

    ``z`` is a tuple of complex coordinates in whatever frame the caller's
    evaluator documents; ``t`` tracks the central direction.
    """

    tau: complex
    z: tuple
    t: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "tau", complex(self.tau))
        object.__setattr__(self, "z", tuple(complex(w) for w in self.z))
        object.__setattr__(self, "t", complex(self.t))
        if self.tau.imag <= 0:
            raise ValueError("ModularPoint requires Im tau > 0")


def gauss_E(x: float) -> float:
    """Gaussian error integral 2*int_0^x exp(-pi u^2) du, an odd sigmoid."""
    return math.erf(SQRT_PI * x)


def gauss_E_complement(x: float) -> float:
    """1 - gauss_E(x), evaluated without cancellation for large x."""
    return math.erfc(SQRT_PI * x)


def gauss_E_complement_scaled(x: float) -> float:
    """exp(pi x^2) * (1 - gauss_E(x)); finite for all x, ~1/(pi x) as x->inf.

    This is the form the real-analytic correction sums need: their weights
    underflow while the paired phase factors overflow, so both are carried
    as a single combined exponent plus this scaled residue.

    With a = sqrt(pi) x: erfc(a) e^{a^2} below a = 26, where e^{a^2} is
    split as e^{ah^2} e^{(a-ah)(a+ah)} around the Veltkamp high half ah of
    a, so ah^2 is exact and only exp itself rounds; above it, a 5-level
    continued fraction of erfcx (Numerical Recipes 6.2).  Below
    a = -sqrt(_EXP_GUARD) the value overflows, which raises NonConvergent.
    """
    a = SQRT_PI * x
    if a >= 26.0:
        t = a
        for k in range(5, 0, -1):
            t = a + 0.5 * k / t
        return 1.0 / (SQRT_PI * t)
    if a < -_SQRT_EXP_GUARD:
        raise NonConvergent(f"scaled complement overflow: x = {x:.3g}")
    c = a * 134217729.0  # 2**27 + 1
    ah = c - (c - a)
    return math.erfc(a) * math.exp(ah * ah) * math.exp((a - ah) * (a + ah))


def q_pow(tau: complex, a) -> complex:
    """q**a = exp(2 pi i tau a) for the nome q attached to tau."""
    return cmath.exp(2j * math.pi * complex(tau) * complex(a))


def cexp(w: complex) -> complex:
    """exp(w) with a loud failure instead of silent overflow to inf."""
    if w.real > _EXP_GUARD:
        raise NonConvergent(f"exponent overflow: Re(w) = {w.real:.3g}")
    return cmath.exp(w)


def fold_pole_factor(num_exp: complex, den_exp: complex, plus: bool = False):
    """Split e^num / (1 -+ e^den) into (w, d) with e^w / d the same value.

    Once e^den is large, 1 -+ e^den = -+e^den (1 -+ e^-den) and e^-den is
    folded into the numerator exponent, so neither factor overflows.
    """
    if den_exp.real > 40.0:
        small = cexp(-den_exp)
        return num_exp - den_exp, (1.0 + small) if plus else -(1.0 - small)
    ex = cexp(den_exp)
    return num_exp, (1.0 + ex) if plus else (1.0 - ex)


def sum_ladder(term, policy: TruncationPolicy) -> SeriesValue:
    """Sum ``term(l)`` over all integers l, walking outward from 0.

    ``term`` must have Gaussian-type tails: beyond some index the magnitudes
    decrease with a ratio that keeps shrinking.  Each direction is stopped
    once two consecutive terms are below a quarter of the tolerance and
    decreasing; the discarded tail is then bounded by the geometric series
    with the last observed ratio.
    """
    tol = policy.abs_tol
    total = term(0)
    terms_used = 1
    err = 0.0
    for step in (1, -1):
        prev_mag = None
        small_run = 0
        zero_run = 0
        idx = 0
        while True:
            if terms_used >= policy.max_terms:
                raise NonConvergent(
                    f"ladder sum hit max_terms={policy.max_terms} "
                    f"before reaching abs_tol={tol}"
                )
            idx += step
            t = term(idx)
            total += t
            terms_used += 1
            mag = abs(t)
            if mag == 0.0:
                zero_run += 1
                if zero_run >= 3:
                    break
                continue
            zero_run = 0
            if prev_mag is not None and mag < prev_mag and mag < 0.25 * tol:
                small_run += 1
                if small_run >= 2:
                    ratio = mag / prev_mag
                    err += mag * ratio / (1.0 - ratio)
                    break
            else:
                small_run = 0
            prev_mag = mag
    return SeriesValue(total, err, terms_used)


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions, and float representations of rationals."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        frac = Fraction(x).limit_denominator(10**6)
        if abs(float(frac) - x) > 1e-9:
            raise ValueError(f"{x} is not recognizably rational")
        return frac
    raise TypeError(f"cannot interpret {x!r} as a rational number")
