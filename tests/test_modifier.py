import cmath
import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from mocktheta import _oracles as oracle
from mocktheta.core import gauss_E
from mocktheta.mock import MockIndex
from mocktheta.modifier import _r_window, phi_add, phi_tilde, r_jm, r_jm_signed
from mocktheta.theta import theta_ab, theta_jm, theta_jm_signed
import refs
from conftest import random_points

TAU = 0.13 + 0.92j


class TestRSeries:
    def test_naive_quadrature_oracle(self):
        mine = r_jm(0, 1, 1j, 0.1).value
        assert abs(mine - oracle.r_naive(1, 0, 1, 1j, 0.1 + 0j)) < 1e-10

    def test_mp_oracle(self):
        for tau, z1, _ in random_points(31, 6):
            for sign, j, m in ((1, 0, 1), (1, 1, 1), (-1, F(1, 2), F(1, 2)), (-1, 1, F(3, 2))):
                if sign == 1:
                    mine = r_jm(int(j), int(m), tau, z1).value
                else:
                    mine = r_jm_signed(sign, j, m, tau, z1).value
                # R is taken on v = (z1 - z2)/2, so z2 = -z1 puts it at z1
                mode = "minus" if sign == -1 else "plus"
                ref = refs.rank1_index(tau, z1, -z1, m, j, mode)[1]
                assert abs(mine - ref) < 1e-10, (sign, j, m)

    def test_signed_plus_reduces(self):
        for tau, z1, _ in random_points(32, 3):
            a = r_jm_signed(1, 1, 2, tau, z1).value
            b = r_jm(1, 2, tau, z1).value
            assert abs(a - b) < 1e-12

    def test_z_period(self):
        # z -> z+1 multiplies by (-1)^(2j)
        v = 0.21
        for j, m, sgn in ((0, 1, 1), (1, 1, 1), (F(1, 2), F(1, 2), -1)):
            f = (lambda t_, v_: r_jm_signed(sgn, j, m, t_, v_).value)
            lhs = f(1.3j, v + 1)
            rhs = (-1) ** int(2 * F(j)) * f(1.3j, v)
            assert abs(lhs - rhs) < 1e-10

    def test_lemma_210b_residual(self):
        j, m, t, v = 0, 1, 1.3j, 0.21
        lhs = r_jm(j, m, t, v).value - cmath.exp(2j * math.pi * m * (2 * v - t)) * r_jm(j, m, t, v - t).value
        rhs = 2 * cmath.exp(-2j * math.pi * t * j * j / (4 * m)) * cmath.exp(2j * math.pi * j * v)
        assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("sign", [1, -1])
    def test_scaled_branch_summands(self, sign):
        # Summands with sign(l) psi >= 6 lie more than 18 pi below the
        # ladder's peak, under the last bit of any sum, so they are checked
        # alone: l = -5, -4 and l = 2, 3 of R^(sign)_(1, 3/2), one odd l
        # each, against 30-digit terms.
        tau, z, j, m = 0.19 + 1.01j, 0.34 - 0.9j, 1, 1.5
        walk, _ = _r_window(sign, (float(j),), m, tau, z)
        centre, scale = 2 * m * z.imag / tau.imag, math.sqrt(tau.imag / m)
        with mp.workdps(30):
            mtau, mz, rpi = mp.mpc(tau), mp.mpc(z), mp.sqrt(mp.pi)

            def term(ell):
                n = j + 2 * m * ell
                sg = 1 if ell >= 0 else -1
                assert sg * (n - centre) * scale >= 6
                psi = (n - mp.mpf(2 * m) * mz.imag / mtau.imag) * mp.sqrt(mtau.imag / m)
                val = sg * mp.erfc(rpi * sg * psi) * mp.exp(
                    -1j * mp.pi * n * n * mtau / (2 * m) + 2j * mp.pi * n * mz
                )
                return -val if sign == -1 and ell % 2 else val

            for lo, hi in ((-5, -4), (2, 3)):
                want = complex(sum(term(ell) for ell in range(lo, hi + 1)))
                assert abs(walk(0, lo, hi) - want) <= 1e-12 * abs(want)

    def test_weight_profile(self):
        # the sigmoid weight is bounded by 2 and collapses past |psi| > 4
        y = 1.1
        for n in range(-30, 31):
            psi = n * math.sqrt(y)
            w = (1.0 if n >= 0 else -1.0) - gauss_E(psi)
            assert abs(w) <= 2.0
            if abs(psi) > 4:
                assert abs(w) < 1e-6

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            r_jm(0, 0, TAU, 0.1)
        with pytest.raises(ValueError):
            r_jm_signed(-1, F(1, 3), F(1, 2), TAU, 0.1)

    @pytest.mark.parametrize("j,m", [(0, 1.5), (0.5, 1), (F(1, 2), 2), (1, F(5, 2))])
    def test_non_integer_index_refused(self, j, m):
        with pytest.raises(ValueError, match="r_jm needs integer j and m"):
            r_jm(j, m, TAU, 0.1)

    def test_integral_values_of_any_type_accepted(self):
        want = r_jm(1, 2, TAU, 0.1).value
        assert r_jm(F(1), F(2), TAU, 0.1).value == want
        assert r_jm(1.0, 2.0, TAU, 0.1).value == want


class TestPhiAdd:
    def test_two_term_unroll(self):
        tau, z1, z2 = 1j, 0.2, 0.3
        v, u = (z1 - z2) / 2, z1 + z2
        want = (
            r_jm(0, 1, tau, v).value * theta_jm(0, 1, tau, u).value
            + r_jm(1, 1, tau, v).value * theta_jm(1, 1, tau, u).value
        )
        got = phi_add(MockIndex(1, 0), tau, z1, z2).value
        assert abs(got - want) < 1e-13

    def test_single_window_term(self):
        tau, z1, z2 = TAU, 0.21, 0.34
        idx = MockIndex(F(1, 2), F(1, 2), "minus")
        v, u = (z1 - z2) / 2, z1 + z2
        want = (
            r_jm_signed(-1, F(1, 2), F(1, 2), tau, v).value
            * theta_jm_signed(-1, F(1, 2), F(1, 2), tau, u).value
        )
        assert abs(phi_add(idx, tau, z1, z2).value - want) < 1e-13

    def test_argument_swap_symmetry(self):
        # the degree-1 modifier is symmetric under (z1, z2) -> (-z2, -z1)
        for tau, z1, z2 in random_points(33, 5):
            a = phi_add(MockIndex(1, 0), tau, z1, z2).value
            b = phi_add(MockIndex(1, 0), tau, -z2, -z1).value
            assert abs(a - b) < 1e-10


class TestPhiTilde:
    def test_shift_label_free(self):
        for m in (1, 2):
            for tau, z1, z2 in random_points(34, 5):
                a = phi_tilde(MockIndex(m, 0), tau, z1, z2).value
                b = phi_tilde(MockIndex(m, 1), tau, z1, z2).value
                assert abs(a - b) < 1e-9

    def test_signed_shift_label_free(self):
        for tau, z1, z2 in random_points(35, 5):
            a = phi_tilde(MockIndex(F(1, 2), F(1, 2), "minus"), tau, z1, z2).value
            b = phi_tilde(MockIndex(F(1, 2), F(3, 2), "minus"), tau, z1, z2).value
            assert abs(a - b) < 1e-9

    def test_s_transform(self):
        for tau, z1, z2 in random_points(36, 5):
            lhs = phi_tilde(MockIndex(1, 0), -1 / tau, z1 / tau, z2 / tau).value
            rhs = tau * cmath.exp(2j * math.pi * z1 * z2 / tau) * phi_tilde(MockIndex(1, 0), tau, z1, z2).value
            assert abs(lhs - rhs) < 1e-10

    def test_mu_bridge(self):
        # completed bridge against a full-precision mpmath evaluation of
        # the mu function and its real-analytic correction
        tauc, z1c, z2c = TAU, 0.23, 0.41
        lhs = phi_tilde(MockIndex(F(1, 2), F(1, 2), "minus"), tauc, z1c, 2 * z2c - z1c).value
        with mp.workdps(40):
            tau, z1, z2 = mp.mpc(tauc), mp.mpc(z1c), mp.mpc(z2c)
            q = mp.e ** (2j * mp.pi * tau)
            mu_sum = mp.mpc(0)
            for n in range(-40, 41):
                mu_sum += (
                    (-1) ** n
                    * q ** (mp.mpf(n * (n + 1)) / 2)
                    * mp.e ** (2j * mp.pi * n * z2)
                    / (1 - mp.e ** (2j * mp.pi * z1) * q**n)
                )
            u = z1 - z2
            y = mp.im(tau)
            R = mp.mpc(0)
            for kk in range(-25, 26):
                nu = mp.mpf(2 * kk + 1) / 2
                sgn = 1 if nu > 0 else -1
                w = sgn - mp.erf(mp.sqrt(mp.pi) * (nu + mp.im(u) / y) * mp.sqrt(2 * y))
                R += w * (-1) ** kk * mp.e ** (-1j * mp.pi * nu * nu * tau - 2j * mp.pi * nu * u)
            th = theta_ab(1, 1, tauc, z2c).value
            mu_hat = mp.e ** (1j * mp.pi * z1) * mu_sum / th + mp.mpc(0, "0.5") * R
            rhs = th * complex(mu_hat)
        assert abs(lhs - rhs) < 1e-9
