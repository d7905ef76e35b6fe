from fractions import Fraction as F

import pytest

from mocktheta import _oracles as oracle
from mocktheta.errors import PoleAtZ1
from mocktheta.mock import (
    MockIndex,
    distance_to_lattice,
    phi,
    phi_elliptic_residual,
    phi_shift_residual_a,
)
import refs
from conftest import random_points

TAU = 0.13 + 0.92j


class TestMockIndex:
    def test_unsigned_domain(self):
        MockIndex(2, -1)
        with pytest.raises(ValueError):
            MockIndex(F(1, 2), 0)
        with pytest.raises(ValueError):
            MockIndex(1, F(1, 2))

    def test_signed_domain(self):
        MockIndex(F(1, 2), F(1, 2), "minus")
        with pytest.raises(ValueError):
            MockIndex(F(1, 4), 0, "minus")
        with pytest.raises(ValueError):
            MockIndex(-1, 0, "plus")

    def test_sign_value(self):
        assert MockIndex(1, 0).sign_value == 1
        assert MockIndex(F(1, 2), 0, "plus").sign_value == 1
        assert MockIndex(F(1, 2), 0, "minus").sign_value == -1

    def test_flip(self):
        idx = MockIndex(F(1, 2), 0, "plus")
        assert idx.flipped().sign == "minus"
        assert MockIndex(1, 0).flipped().sign == "unsigned"

    @pytest.mark.parametrize("forms", [
        [(1, 0), (F(1), F(0)), (1.0, 0.0), (1, F(0, 7))],
        [(F(3, 2), F(1, 2), "minus"), (1.5, 0.5, "minus"), (F(6, 4), 0.5, "minus")],
    ])
    def test_hash_agrees_with_equality(self, forms):
        # the hash reads the integers of the Fractions, as equality does
        indices = [MockIndex(*f) for f in forms]
        for a in indices:
            for b in indices:
                assert a == b and hash(a) == hash(b)
        assert {indices[0]: "x"}[indices[-1]] == "x"

    def test_hash_tells_the_sign_apart(self):
        plus, minus = MockIndex(F(1, 2), 0, "plus"), MockIndex(F(1, 2), 0, "minus")
        assert plus != minus and len({plus, minus, MockIndex(0.5, 0.0, "plus")}) == 2


class TestPhi:
    def test_naive_oracle(self):
        mine = phi(MockIndex(1, 0), 1j, 0.23, 0.41).value
        assert abs(mine - oracle.phi_naive(1, 1, 0, 1j, 0.23, 0.41)) < 1e-12

    def test_mp_oracle_30_points(self):
        for i, (tau, z1, z2) in enumerate(random_points(101, 30)):
            m, s, sign = [(1, 0, "unsigned"), (2, 1, "unsigned"), (F(1, 2), F(1, 2), "minus")][i % 3]
            mine = phi(MockIndex(m, s, sign), tau, z1, z2).value
            ref = refs.rank1_index(tau, z1, z2, m, s, sign)[2]
            assert abs(mine - ref) < 1e-10

    def test_plus_equals_unsigned(self):
        for tau, z1, z2 in random_points(11, 4):
            a = phi(MockIndex(1, 1, "plus"), tau, z1, z2).value
            b = phi(MockIndex(1, 1), tau, z1, z2).value
            assert abs(a - b) < 1e-13

    def test_pole_detection(self):
        with pytest.raises(PoleAtZ1):
            phi(MockIndex(1, 0), TAU, 1e-9, 0.3)
        with pytest.raises(PoleAtZ1):
            phi(MockIndex(1, 0), TAU, 2.0 + 3 * TAU, 0.3)

    def test_distance_to_lattice(self):
        assert distance_to_lattice(0.0 + 0j, TAU) == 0.0
        assert distance_to_lattice(2 + 3 * TAU + 1e-5, TAU) < 2e-5
        assert distance_to_lattice(0.5 + 0j, TAU) > 0.3

    def test_negation_identity(self):
        # Phi(tau, -z1, -z2) = -Phi^(1-s)(tau, z1, z2); the reindexing
        # n -> -n forces the overall sign
        for tau, z1, z2 in random_points(12, 5):
            for idx in (MockIndex(1, 0), MockIndex(F(1, 2), F(1, 2), "minus")):
                lhs = phi(idx, tau, -z1, -z2).value
                rhs = -phi(idx.with_s(1 - idx.s), tau, z1, z2).value
                assert abs(lhs - rhs) < 1e-11


class TestResidualOps:
    def test_shift_residual_basic(self):
        v = phi_shift_residual_a(MockIndex(1, 0), 1j, 0.2, 0.1).value
        assert abs(v) < 1e-9

    def test_shift_residual_signed(self):
        v = phi_shift_residual_a(MockIndex(F(1, 2), F(1, 2), "minus"), 1.1j, 0.15, -0.2).value
        assert abs(v) < 1e-9

    def test_shift_residual_translation(self):
        idx = MockIndex(1, 0)
        a = phi_shift_residual_a(idx, TAU, 0.21, 0.13).value
        b = phi_shift_residual_a(idx, TAU, 1.21, 1.13).value
        assert abs(a - b) < 1e-11

    def test_elliptic_residual_zero_shift(self):
        out = phi_elliptic_residual(MockIndex(1, 0), 0, TAU, 0.2, 0.3)
        assert out.value == 0.0

    def test_elliptic_residual_j1(self):
        v = phi_elliptic_residual(MockIndex(1, 0), 1, 1.2j, 0.3, 0.17).value
        assert abs(v) < 1e-9

    def test_elliptic_residual_signed_j2(self):
        v = phi_elliptic_residual(MockIndex(F(1, 2), F(1, 2), "minus"), 2, 1.1j, 0.23, 0.31).value
        assert abs(v) < 1e-8

    def test_elliptic_guard(self):
        with pytest.raises(ValueError):
            phi_elliptic_residual(MockIndex(1, 0), 4, TAU, 0.2, 0.3)
