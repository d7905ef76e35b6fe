"""Foundation layer: truncation limits, error-integral helpers, ladder sums.

Every rank-1 series in the library is a sum over an integer ladder whose
summands are bounded, outside a short core of indices, by a Gaussian
envelope exp(P - a (n - n*)^2).  ``gaussian_window`` solves that envelope
up front for the index window outside which it stays below
ABS_TOL / _WINDOW_MARGIN, together with the closed-form bound on the
discarded tails; ``sum_ladder`` then sums the window, one walker call per
residue class, so every returned value carries an honest ``err_bound``
and no term is evaluated past the window.  A walker sums its class in one
local loop over ``outward``, with the summand written out inline and the
overflow guard of ``cexp`` (``exp_overflow``) applied to each exponent.
``sum_ladder`` is the one kernel every ladder passes through; a period-1
evaluator unpacks its one sum into a ``SeriesValue``, the immutable
NamedTuple (value, err_bound, terms_used) every evaluator returns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import NonConvergent

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)

# Real exponents above this are treated as overflow hazards; the ladder
# term builders keep combined exponents far below it at any point that
# require_tau accepts.
_EXP_GUARD = 700.0
_SQRT_EXP_GUARD = math.sqrt(_EXP_GUARD)

# At the window's edge the summands are pushed this far below ABS_TOL.
_WINDOW_MARGIN = 1e6

# The variants of ``characters.ch_tilde``, here so that the command line
# can offer them without loading the character layer.
VARIANTS = (
    "ch_minus",
    "ch_minus_modified",
    "ch_plus_modified",
    "tw_minus_modified",
    "tw_plus_modified",
    "numerator_only",
    "denominator_only",
)


# The absolute tolerance every series truncates to, the most terms one
# series may take, and the smallest Im tau any evaluator accepts.
ABS_TOL = 1e-12
MAX_TERMS = 10_000
MIN_IM_TAU = 0.05

# The log of the envelope bound beyond a ladder window.
_LOG_WINDOW_TOL = math.log(ABS_TOL / _WINDOW_MARGIN)


def _finite(name: str, value) -> complex:
    """value as a complex; ValueError naming the argument if it is inf or nan."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise ValueError(f"{name} = {value} is not finite")
    return value


def require_tau(tau: complex) -> complex:
    """tau as a finite complex; ValueError below the floor MIN_IM_TAU."""
    tau = _finite("tau", tau)
    if tau.imag < MIN_IM_TAU:
        raise ValueError(f"Im tau = {tau.imag} below policy minimum {MIN_IM_TAU}")
    return tau


class SeriesValue(NamedTuple):
    """A complex value paired with a truncation-error bound.

    An immutable NamedTuple, cheap to build.  ``__array_ufunc__ = None``
    makes a numpy scalar on the left of ``*`` defer to ``__rmul__``
    instead of reading the tuple as a length-3 array.
    """

    value: complex
    err_bound: float
    terms_used: int

    __array_ufunc__ = None

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
        object.__setattr__(self, "tau", _finite("tau", self.tau))
        object.__setattr__(self, "z", tuple(_finite("z", w) for w in self.z))
        object.__setattr__(self, "t", _finite("t", self.t))
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


def exp_overflow(w: complex) -> NonConvergent:
    """The error for an exponent w with Re(w) above _EXP_GUARD."""
    return NonConvergent(f"exponent overflow: Re(w) = {w.real:.3g}")


def cexp(w: complex) -> complex:
    """exp(w) with a loud failure instead of silent overflow to inf."""
    if w.real > _EXP_GUARD:
        raise exp_overflow(w)
    return cmath.exp(w)


def gaussian_window(log_peak, a, centre, core=None):
    """The window [lo, hi] of a ladder with summands below the envelope
    exp(log_peak - a (n - centre)^2) at every index outside ``core``.

    ``core`` = (core_lo, core_hi), if given, is a range the window must
    contain, because the envelope does not hold there.  Beyond the window
    the envelope is below ABS_TOL / _WINDOW_MARGIN.  Returns (lo, hi, err):
    with d the distance from the centre to the first index left out on
    one side, (n - centre)^2 >= d^2 + 2 d i at the i-th index beyond it,
    so that side's tail is at most exp(log_peak - a d^2) / (1 - exp(-2 a d)).
    err is twice the sum of both sides: where the envelope is the summands'
    exact modulus, as for the thetas, the first left-out summand meets the
    bound up to the rounding of its exponent, which the factor 2 absorbs.
    Raises NonConvergent, before any summand is evaluated, if the window
    holds more than MAX_TERMS indices.
    """
    excess = log_peak - _LOG_WINDOW_TOL
    reach = math.sqrt(excess / a) if excess > 0.0 else 0.0
    lo = math.floor(centre - reach)
    hi = math.ceil(centre + reach)
    if core is not None:
        lo = min(lo, core[0])
        hi = max(hi, core[1])
    if hi - lo + 1 > MAX_TERMS:
        raise NonConvergent(
            f"ladder window of {hi - lo + 1} terms exceeds "
            f"max_terms={MAX_TERMS} at abs_tol={ABS_TOL}"
        )
    d1 = hi + 1 - centre
    d2 = centre - lo + 1
    err = (2.0 * math.exp(log_peak - a * d1 * d1) / -math.expm1(-2.0 * a * d1)
           + 2.0 * math.exp(log_peak - a * d2 * d2) / -math.expm1(-2.0 * a * d2))
    return lo, hi, err


class LadderSum(NamedTuple):
    """The sums of one ladder window, one per residue class of the index
    modulo the period, each within ``err_bound`` of its infinite sum."""

    sums: list
    err_bound: float
    terms_used: int


@lru_cache(maxsize=512)
def outward(n_lo: int, n_hi: int) -> tuple:
    """n_lo <= n <= n_hi from 0 upward, then from -1 downward: the order
    in which a walker sums its residue class.  Few windows recur across
    evaluations (83 distinct ones in 516 rank1_grid ops), so the tuples
    are kept."""
    return (*range(max(n_lo, 0), n_hi + 1), *range(min(n_hi, -1), n_lo - 1, -1))


def sum_ladder(walk, window, period: int = 1) -> LadderSum:
    """Sum the ladder k = period * n + r over the window (lo, hi, err) of
    ``gaussian_window``, one sum per residue class r.

    ``walk(r, n_lo, n_hi)`` returns the sum of class r's summands over
    n_lo <= n <= n_hi, added to 0j one by one in the order of
    ``outward(n_lo, n_hi)``; it is called once per class, with the
    window clipped to the class.  The tail bound ``err`` of the whole
    ladder bounds each class's tail.
    """
    lo, hi, err = window
    if period == 1:
        return LadderSum([walk(0, lo, hi)], err, hi - lo + 1)
    sums = [walk(r, -((r - lo) // period), (hi - r) // period) for r in range(period)]
    return LadderSum(sums, err, hi - lo + 1)


def _dot_gram(gram, u, v):
    """(u|v) in the Gram matrix, summing only the nonzero coordinate pairs."""
    return sum(
        gram[i][j] * u[i] * v[j]
        for i in range(len(u))
        for j in range(len(v))
        if u[i] and v[j]
    ) or Fraction(0)


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
