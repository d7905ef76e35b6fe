import cmath
import itertools
import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
import refs

from mocktheta import _oracles as oracle
from mocktheta.core import ABS_TOL, ModularPoint
from mocktheta.errors import NotPositiveDefinite
from mocktheta.lattice import LatticeData, SignCharacter, lattice_theta
from mocktheta.lattice_window import _gram_plan
from mocktheta.theta import eta, theta_ab, theta_jm, theta_jm_signed
from conftest import random_points

TAU = 0.13 + 0.92j


class TestEta:
    def test_product_oracle_at_i(self):
        v = eta(1j).value
        assert abs(v.imag) < 1e-15
        assert v.real > 0
        assert abs(v - oracle.eta_product(1j)) < 1e-12

    def test_product_oracle_2i(self):
        assert abs(eta(2j).value - oracle.eta_product(2j)) < 1e-12

    def test_t_law(self):
        for tau, _, _ in random_points(3, 5):
            lhs = eta(tau + 1).value
            rhs = cmath.exp(1j * math.pi / 12) * eta(tau).value
            assert abs(lhs - rhs) < 1e-12

    def test_s_law(self):
        for tau, _, _ in random_points(4, 5):
            lhs = eta(-1 / tau).value
            rhs = cmath.sqrt(-1j * tau) * eta(tau).value
            assert abs(lhs - rhs) < 1e-12

    def test_err_bound(self):
        out = eta(TAU)
        assert 0 <= out.err_bound < ABS_TOL

    def test_err_bound_covers_reference(self):
        # err_bound bounds the rounding as well as the tail: against the
        # 40-digit product of bench/refs.py at 300 seeded tau, Im tau
        # log-uniform in [0.05, 3], it is never exceeded and stays below
        # 1e-12 |eta|
        rng = random.Random(2015)
        for _ in range(300):
            y = math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
            tau = complex(rng.uniform(-0.5, 0.5), y)
            out, ref = eta(tau), refs.eta(tau)
            assert abs(out.value - ref) <= out.err_bound, (tau, out, ref)
            assert out.err_bound <= 1e-12 * abs(ref), (tau, out, ref)


class TestThetaAB:
    def test_theta11_odd(self):
        assert abs(theta_ab(1, 1, 1j, 0.0).value) < 1e-15
        a = theta_ab(1, 1, 1j, 0.3).value
        b = theta_ab(1, 1, 1j, -0.3).value
        assert abs(a + b) < 1e-12

    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_naive_oracle(self, a, b):
        for tau, z1, _ in random_points(5, 4):
            mine = theta_ab(a, b, tau, z1).value
            ref = oracle.theta_ab_naive(a, b, tau, z1)
            assert abs(mine - ref) < 1e-12

    def test_half_shift_relation(self):
        # theta11(z + 1/2) = -theta10(z) in this convention
        for tau, z1, _ in random_points(6, 4):
            lhs = theta_ab(1, 1, tau, z1 + 0.5).value
            rhs = -theta_ab(1, 0, tau, z1).value
            assert abs(lhs - rhs) < 1e-12

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            theta_ab(2, 0, 1j, 0.1)


class TestThetaJM:
    def test_index_periodicity(self):
        for tau, z1, _ in random_points(7, 3):
            for j, m in ((0, 1), (1, 2), (3, 2)):
                a = theta_jm(j + 2 * m, m, tau, z1).value
                b = theta_jm(j, m, tau, z1).value
                assert abs(a - b) < 1e-13

    def test_naive_oracle_origin(self):
        assert abs(theta_jm(0, 1, 1j, 0.0).value - oracle.theta_jm_naive(1, 0, 1, 1j, 0.0)) < 1e-13

    def test_negation_reindex(self):
        for tau, z1, _ in random_points(8, 4):
            for j, m in ((1, 1), (3, 2)):
                a = theta_jm(-j, m, tau, -z1).value
                b = theta_jm(j, m, tau, z1).value
                assert abs(a - b) < 1e-13

    def test_signed_plus_equals_unsigned(self):
        for tau, z1, _ in random_points(9, 3):
            a = theta_jm_signed(1, 1, 2, tau, z1).value
            b = theta_jm(1, 2, tau, z1).value
            assert abs(a - b) < 1e-13

    def test_signed_periodicity_mod_4m(self):
        for tau, z1, _ in random_points(10, 3):
            j, m = F(1, 2), F(1, 2)
            a = theta_jm_signed(-1, j + 4 * m, m, tau, z1).value
            b = theta_jm_signed(-1, j, m, tau, z1).value
            assert abs(a - b) < 1e-13
            # and NOT (generically) with period 2m
            c = theta_jm_signed(-1, j + 2 * m, m, tau, z1).value
            assert abs(c - b) > 1e-6

    def test_signed_naive_oracle(self):
        mine = theta_jm_signed(-1, F(1, 2), F(1, 2), 1j, 0.2).value
        ref = oracle.theta_jm_naive(-1, 0.5, 0.5, 1j, 0.2)
        assert abs(mine - ref) < 1e-12

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            theta_jm(0, 0, 1j, 0.1)
        with pytest.raises(ValueError):
            theta_jm_signed(-1, F(1, 3), F(1, 2), 1j, 0.1)
        with pytest.raises(ValueError):
            theta_jm_signed(2, 0, 1, 1j, 0.1)

    @pytest.mark.parametrize("j,m", [(0.5, 1), (0, 1.5), (F(1, 2), 2), (1, F(5, 2)), (1, 2.5)])
    def test_non_integer_index_refused(self, j, m):
        with pytest.raises(ValueError, match="theta_jm needs integer j and m"):
            theta_jm(j, m, 1j, 0.1)

    def test_integral_values_of_any_type_accepted(self):
        want = theta_jm(1, 2, 1j, 0.1).value
        assert theta_jm(F(1), F(2), 1j, 0.1).value == want
        assert theta_jm(1.0, 2.0, 1j, 0.1).value == want


class TestSignCharacter:
    def test_homomorphism(self, rng):
        # (-1)^(mult |gamma|^2) is a homomorphism whenever mult (L|L) is
        # integral, which both data sets below satisfy
        cases = [
            (np.array([[2, -1], [-1, 2]]), F(1)),
            (np.array([[2, 0], [0, 2]]), F(1, 2)),
        ]
        for gram, mult in cases:
            eps = SignCharacter("parity_of_norm", mult=mult)
            for _ in range(30):
                a = rng.randint(-3, 4, size=2)
                b = rng.randint(-3, 4, size=2)
                na = F(int(a @ gram @ a))
                nb = F(int(b @ gram @ b))
                nab = F(int((a + b) @ gram @ (a + b)))
                assert eps(a + b, nab) == eps(a, na) * eps(b, nb)

    def test_parity_on_the_integer_gram_matches_the_fraction_norm(self):
        # lattice_theta reads the parity sign off the Gram's plan, scaled to
        # integers; the Fraction norm of the same vector is the reference
        gram = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -0.5], [0.0, -0.5, 1.5]])
        g, d = _gram_plan(LatticeData(gram=gram).gram).scaled
        exact = [[F(x) for x in row] for row in gram.tolist()]
        for mult in (F(2), F(1)):
            eps = SignCharacter("parity_of_norm", mult=mult)
            for c in itertools.product(range(-2, 3), repeat=3):
                ref = sum(exact[i][j] * c[i] * c[j] for i in range(3) for j in range(3))
                num = sum(g[i][j] * c[i] * c[j] for i in range(3) for j in range(3))
                try:
                    want = eps(c, ref)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        eps.parity(num, d)
                else:
                    assert eps.parity(num, d) == want

    def test_custom_vector(self):
        eps = SignCharacter("custom_vector", vector=(1, 0))
        assert eps((1, 5), 0) == -1
        assert eps((2, 5), 0) == 1

    def test_trivial(self):
        assert SignCharacter()((3, 4), 7) == 1

    def test_rank1_ladder_sign_memo(self):
        # the rank-1 lattice_theta keeps eps(1) per (eps, Gram); an eps that
        # is no character of Z is refused on every call, not only the first
        lat = LatticeData(gram=((2.0,),))
        pt = ModularPoint(TAU, (0.23,), 0.0)
        third = SignCharacter("parity_of_norm", F(1, 3))
        for _ in range(2):
            with pytest.raises(ValueError, match="exponent 8/3 is not an integer"):
                lattice_theta((0.5,), 1, lat, third, pt)
        # a vector given as a list is kept as a tuple, so eps hashes
        as_list = SignCharacter("custom_vector", vector=[1])
        as_tuple = SignCharacter("custom_vector", vector=(1,))
        assert as_list == as_tuple
        assert lattice_theta((0.5,), 1, lat, as_list, pt) == lattice_theta((0.5,), 1, lat, as_tuple, pt)


class TestLatticeTheta:
    def test_rank1_reduces_to_theta_jm(self):
        lat = LatticeData(gram=np.array([[2.0]]))
        pt = ModularPoint(TAU, (0.23,), 0.11)
        out = lattice_theta((0.0,), 1.0, lat, SignCharacter(), pt).value
        # gamma(z) = 2 * 0.23 through the Gram pairing
        ref = cmath.exp(2j * math.pi * pt.t) * theta_jm(0, 1, TAU, 2 * 0.23).value
        assert abs(out - ref) < 1e-12

    def test_translation_invariance(self):
        lat = LatticeData(gram=np.array([[2.0]]))
        pt = ModularPoint(TAU, (0.19,), 0.0)
        a = lattice_theta((0.5,), 1.0, lat, SignCharacter(), pt).value
        b = lattice_theta((1.5,), 1.0, lat, SignCharacter(), pt).value
        assert abs(a - b) < 1e-12

    def test_rank2_factorizes(self):
        lat2 = LatticeData(gram=np.diag([2.0, 2.0]))
        lat1 = LatticeData(gram=np.array([[2.0]]))
        pt2 = ModularPoint(TAU, (0.23, -0.17), 0.0)
        prod = (
            lattice_theta((0.0,), 1.0, lat1, SignCharacter(), ModularPoint(TAU, (0.23,), 0.0)).value
            * lattice_theta((0.0,), 1.0, lat1, SignCharacter(), ModularPoint(TAU, (-0.17,), 0.0)).value
        )
        joint = lattice_theta((0.0, 0.0), 1.0, lat2, SignCharacter(), pt2).value
        assert abs(joint - prod) < 1e-12

    def test_rejects_indefinite(self):
        lat = LatticeData(gram=np.array([[-2.0]]))
        with pytest.raises(NotPositiveDefinite):
            lattice_theta((0.0,), 1.0, lat, SignCharacter(), ModularPoint(TAU, (0.1,), 0.0))
