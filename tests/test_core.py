import cmath
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from mocktheta import _oracles
from mocktheta.cli import main
from mocktheta.core import (
    ABS_TOL,
    MAX_TERMS,
    MIN_IM_TAU,
    SQRT_PI,
    ModularPoint,
    SeriesValue,
    gauss_E,
    gauss_E_complement,
    gauss_E_complement_scaled,
    gaussian_window,
    outward,
    require_tau,
    sum_ladder,
)
from mocktheta.errors import NonConvergent
from mocktheta.mock import MockIndex, phi, phi_elliptic_residual, phi_shift_residual_a
from mocktheta.modifier import phi_add, phi_tilde, r_jm, r_jm_signed
from mocktheta.theta import eta, theta_ab, theta_jm, theta_jm_signed


def quad_E(x):
    with mpmath.workdps(30):
        return 2.0 * float(mpmath.quad(lambda u: mpmath.exp(-mpmath.pi * u * u), [0, x]))


def erfcx_ref(x):
    """erfc(a) exp(a^2) at the double a = sqrt(pi) x, to 40 digits."""
    with mpmath.workdps(40):
        a = mpmath.mpf(SQRT_PI * x)
        return mpmath.erfc(a) * mpmath.exp(a * a)


class TestPolicy:
    """The fixed limits every evaluator keeps: one truncation tolerance,
    one term cap and the Im tau floor of ``require_tau``."""

    def test_defaults(self):
        assert ABS_TOL == 1e-12 and MAX_TERMS == 10_000 and MIN_IM_TAU == 0.05

    def test_tau_gate(self):
        with pytest.raises(ValueError):
            require_tau(1.0 + 0.01j)


NAN = float("nan")
INF = float("inf")
IDX = MockIndex(1, 0)
# (argument named in the refusal, evaluation): every public rank-1
# evaluator, and ModularPoint, with one coordinate inf or nan
NON_FINITE = {
    "eta-inf": ("tau", lambda: eta(complex(0, INF))),
    "eta-nan": ("tau", lambda: eta(complex(NAN, 1))),
    "theta_ab": ("z", lambda: theta_ab(1, 1, 1j, NAN)),
    "theta_jm": ("z", lambda: theta_jm(1, 2, 1j, NAN)),
    "theta_jm_signed": ("z", lambda: theta_jm_signed(-1, F(1, 2), F(1, 2), 1j, INF)),
    "r_jm": ("z", lambda: r_jm(1, 2, 1j, NAN)),
    "r_jm_signed": ("z", lambda: r_jm_signed(1, F(1, 2), F(3, 2), 1j, complex(0, INF))),
    "phi": ("z2", lambda: phi(IDX, 1j, 0.3, NAN)),
    "phi-tau": ("tau", lambda: phi(IDX, complex(NAN, 1), 0.3, 0.2)),
    "phi_add": ("z1", lambda: phi_add(IDX, 1j, NAN, 0.2)),
    "phi_tilde": ("z2", lambda: phi_tilde(IDX, 1j, 0.3, INF)),
    "phi_shift_residual_a": ("z1", lambda: phi_shift_residual_a(IDX, 1j, NAN, 0.2)),
    "phi_elliptic_residual": ("z2", lambda: phi_elliptic_residual(IDX, 0, 1j, 0.3, NAN)),
    "point-tau": ("tau", lambda: ModularPoint(complex(0, NAN), (0.1,))),
    "point-z": ("z", lambda: ModularPoint(1j, (0.1, INF))),
    "point-t": ("t", lambda: ModularPoint(1j, (0.1,), NAN)),
}
CLI_NON_FINITE = {
    "theta-jm": ("z", ["theta-jm", "--j=1", "--m=2", "--tau=0.1+1i", "--z=nan"]),
    "phi": ("z1", ["phi", "--tau=i", "--z1=1e999", "--z2=0.2"]),
    "eta": ("tau", ["eta", "--tau=nan+1i"]),
    # the i of inf is no imaginary unit: these reach the finiteness check too
    "eta-inf": ("tau", ["eta", "--tau=inf+1i"]),
    "theta-jm-neg-inf": ("z", ["theta-jm", "--j=1", "--m=2", "--tau=0.1+1i", "--z=-inf"]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_argument_is_refused_by_name(case):
    name, evaluate = NON_FINITE[case]
    with pytest.raises(ValueError, match=rf"^{name} = .* is not finite$"):
        evaluate()


@pytest.mark.parametrize("case", sorted(CLI_NON_FINITE))
def test_non_finite_argument_exits_2(case, capsys):
    name, argv = CLI_NON_FINITE[case]
    assert main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} = ") and captured.err.endswith(" is not finite\n")
    assert captured.out == ""


class TestGaussE:
    def test_zero(self):
        assert gauss_E(0.0) == 0.0
        assert gauss_E_complement(0.0) == 1.0

    def test_odd(self, rng):
        for x in rng.uniform(-6, 6, size=30):
            assert gauss_E(x) == -gauss_E(-x)

    def test_quadrature_oracle(self):
        assert abs(gauss_E(1.0) - quad_E(1.0)) < 1e-13

    def test_complement_quadrature_oracle(self):
        # u = x + v substitution keeps the quadrature relatively accurate
        from mocktheta._oracles import gauss_E_complement_quad

        for x in (6.0, 10.0):
            ref = gauss_E_complement_quad(x)
            val = gauss_E_complement(x)
            assert abs(val - ref) / ref < 1e-11

    def test_complement_relation(self):
        for x in np.arange(-8.0, 8.0, 0.01):
            assert abs(gauss_E(x) + gauss_E_complement(x) - 1.0) < 1e-13

    def test_monotone(self):
        # strict growth is visible in E itself until it saturates at the
        # double-precision 1.0; past that the complement carries the
        # strictness at full relative accuracy
        xs = np.arange(-8.0, 8.0, 0.01)
        vals = [gauss_E(x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        mid = [v for x, v in zip(xs, vals) if abs(x) < 3.0]
        assert all(a < b for a, b in zip(mid, mid[1:]))
        tail = np.arange(-3.0, 8.0, 0.01)
        comp = [gauss_E_complement(x) for x in tail]
        assert all(a > b for a, b in zip(comp, comp[1:]))

    def test_bounded(self, rng):
        for x in rng.uniform(-50, 50, size=50):
            assert abs(gauss_E(x)) <= 1.0
        for x in rng.uniform(-3, 3, size=50):
            assert abs(gauss_E(x)) < 1.0

    def test_scaled_complement(self):
        # e^(pi x^2) (1 - E(x)) stays finite and matches the plain form
        for x in (0.0, 1.0, 3.0, 8.0):
            plain = gauss_E_complement(x) * math.exp(math.pi * x * x)
            assert abs(gauss_E_complement_scaled(x) - plain) < 1e-12 * plain
        assert gauss_E_complement_scaled(200.0) > 0.0

    def test_scaled_complement_against_mpmath(self):
        # both branches: erfc(a) e^{a^2} below a = 26, continued fraction above
        xs = np.concatenate(
            [
                np.linspace(-14.9, 0.0, 80),
                np.linspace(0.0, 15.0, 80),
                np.geomspace(15.0, 1e6, 60),
            ]
        )
        for x in xs:
            ref = erfcx_ref(float(x))
            assert abs(gauss_E_complement_scaled(float(x)) - ref) <= 1e-15 * ref

    def test_scaled_complement_overflow_is_loud(self):
        # e^{a^2} overflows below a = -sqrt(_EXP_GUARD), i.e. x < -14.93
        assert math.isfinite(gauss_E_complement_scaled(-14.9))
        for x in (-15.0, -20.0):
            with pytest.raises(NonConvergent):
                gauss_E_complement_scaled(x)

    def test_quadrature_oracles_against_mpmath(self):
        with mpmath.workdps(40):
            for x in np.linspace(-40.0, 12.0, 521):
                a = mpmath.sqrt(mpmath.pi) * mpmath.mpf(float(x))
                assert abs(_oracles.gauss_E_quad(float(x)) - mpmath.erf(a)) <= 1e-14
                comp = mpmath.erfc(a)
                err = abs(_oracles.gauss_E_complement_quad(float(x)) - comp)
                assert err <= 1e-12 * comp

    def test_complement_relative_accuracy_large_x(self):
        # the complement must not lose relative accuracy where it is tiny;
        # u = x + v keeps the reference integrand O(1), which mpmath.quad
        # needs (on [x, inf) directly it is off by 2e-5 relative at x = 6)
        x = 6.0
        with mpmath.workdps(30):
            pi = mpmath.pi
            tail = float(
                mpmath.exp(-pi * x * x)
                * mpmath.quad(lambda v: mpmath.exp(-pi * (v * v + 2 * x * v)), [0, mpmath.inf])
            )
        assert abs(gauss_E_complement(x) - 2 * tail) / (2 * tail) < 1e-12


def _walker(term):
    """The walker of the period-1 ladder with summand term(n)."""

    def walk(r, n_lo, n_hi):
        total = 0j
        for n in outward(n_lo, n_hi):
            total += term(n)
        return total

    return walk


class TestSumLadder:
    def test_gaussian(self):
        # e^(-pi n^2) is its own envelope: log_peak 0, a = pi, centre 0
        window = gaussian_window(0.0, math.pi, 0.0)
        out = sum_ladder(_walker(lambda n: cmath.exp(-math.pi * n * n)), window).series()
        brute = sum(cmath.exp(-math.pi * n * n) for n in range(-40, 41))
        assert abs(out.value - brute) < 1e-14
        assert out.err_bound < ABS_TOL
        assert out.terms_used == window[1] - window[0] + 1

    def test_shifted_peak(self):
        # a peak far from index 0 lies inside the window
        window = gaussian_window(0.0, 0.3, 9.0)
        lo, hi, _ = window
        assert lo < 9 < hi
        out = sum_ladder(_walker(lambda n: cmath.exp(-0.3 * (n - 9) ** 2)), window).series()
        brute = sum(cmath.exp(-0.3 * (n - 9) ** 2) for n in range(-60, 80))
        assert abs(out.value - brute) < 1e-12

    def test_max_terms(self):
        # a flat envelope, or a wide core, needs more terms than MAX_TERMS:
        # refused before any summand is evaluated
        with pytest.raises(NonConvergent):
            gaussian_window(0.0, 1e-7, 0.0)
        with pytest.raises(NonConvergent):
            gaussian_window(0.0, 1.0, 0.0, core=(-6000, 6000))

    def test_zero_direction(self):
        window = gaussian_window(0.0, 1.0, 0.0)
        out = sum_ladder(_walker(lambda n: 1.0 + 0j if n == 0 else 0j), window).series()
        assert out.value == 1.0

    def test_one_walk_per_class(self):
        # k = 3 n + r over -7 <= k <= 8: each class once, clipped to the window
        calls = []
        out = sum_ladder(lambda r, lo, hi: calls.append((r, lo, hi)) or 0j, (-7, 8, 0.0), 3)
        assert calls == [(0, -2, 2), (1, -2, 2), (2, -3, 2)]
        assert out.terms_used == 16

    def test_outward_order(self):
        assert outward(-3, 2) == (0, 1, 2, -1, -2, -3)
        assert outward(2, 4) == (2, 3, 4)
        assert outward(-4, -2) == (-2, -3, -4)
        assert outward(3, 2) == ()


class TestSeriesValue:
    def test_arithmetic(self):
        a = SeriesValue(2.0 + 0j, 1e-12, 5)
        b = SeriesValue(3.0 + 0j, 1e-13, 7)
        s = a + b
        assert s.value == 5.0 and abs(s.err_bound - 1.1e-12) < 1e-27
        p = a * b
        assert p.value == 6.0
        assert p.err_bound >= 3 * 1e-12
        assert complex(a) == 2.0 + 0j

    def test_quotient(self):
        a = SeriesValue(2.0 + 1.0j, 1e-12, 5)
        b = SeriesValue(0.3 - 0.7j, 1e-13, 7)
        q = a / b
        quot = a.value / b.value
        assert q.value == quot
        assert q.err_bound == (a.err_bound + abs(quot) * b.err_bound) / abs(b.value)
        assert q.terms_used == 12
        # an exact dividend keeps the divisor's relative error
        assert (SeriesValue(1.0, 0.0, 0) / b).err_bound >= b.err_bound / abs(b.value) ** 2
