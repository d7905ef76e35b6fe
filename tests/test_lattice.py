import cmath
import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from conftest import random_points

from mocktheta import lattice, lattice_window
from mocktheta.characters import WeightSpec, ch_tilde
from mocktheta.core import ModularPoint
from mocktheta.errors import (
    ConditionViolation, NonConvergent, NotPositiveDefinite, PoleProximity,
)
from mocktheta.lattice import (
    LatticeContext,
    LatticeData,
    SignCharacter,
    Weight,
    build_modification,
    eval_modified,
    lattice_mock_theta,
    lattice_theta,
    mu_class_representatives,
    translation_sign,
    validate_context,
)
from mocktheta.mock import MockIndex, phi
from mocktheta.modifier import phi_tilde

TAU = 0.13 + 0.92j
CTX1 = LatticeContext(gamma_gram=((2,),), n_isotropic=1, k=1)
CTX2 = LatticeContext(gamma_gram=((2, -1), (-1, 2)), n_isotropic=1, k=1)


class TestValidate:
    def test_good_context(self):
        assert validate_context(CTX1) == []

    def test_half_level_rejected(self):
        bad = validate_context(LatticeContext(((2,),), 1, F(1, 2)))
        assert any("(k/2)" in v for v in bad)

    def test_signed_mode_condition(self):
        ok = validate_context(LatticeContext(((2,),), 1, F(3, 2), mode="minus"))
        assert ok == []
        bad = validate_context(LatticeContext(((2,),), 1, F(3, 4), mode="minus"))
        assert bad

    def test_weight_conditions(self):
        w_bad = Weight(1, (F(1, 3), 0))
        assert validate_context(CTX1, weight=w_bad)


class TestMockTheta:
    def test_factorizes_through_rank_one(self):
        for k in (1, 2):
            ctx = LatticeContext(((2,),), 1, k)
            w = Weight(k, (0, F(-2)))
            pt = ModularPoint(TAU, (0.21, 0.33), 0.05)
            direct = lattice_window.window_mock_theta(ctx, w, pt, False).value
            G = ctx.full_gram_float()
            z = np.array(pt.z)
            beta_z = complex(G[1] @ z)
            gam_z = complex(G[0] @ z)
            s = ctx.pair(w.coords, ctx.gamma_vec(1))
            ref = cmath.exp(2j * math.pi * k * pt.t) * phi(
                MockIndex(k, s), TAU, -beta_z, beta_z + gam_z
            ).value
            assert abs(direct - ref) < 1e-10

    @pytest.mark.parametrize("lam1", [0, F(1, 2), 1, -1, F(3, 2)])
    @pytest.mark.parametrize("k", [F(1, 2), F(3, 2), F(5, 2)])
    @pytest.mark.parametrize("mode", ["plus", "minus"])
    def test_signed_sum_factorizes_through_rank_one(self, mode, k, lam1):
        # the minus mode reads eps_lattice_sign on every lattice vector
        ctx = LatticeContext(((2,),), 1, k, mode)
        w = Weight(k, (0, lam1))
        s = ctx.pair(w.coords, ctx.gamma_vec(1))
        G = ctx.full_gram_float()
        for tau, z1, z2 in random_points(35, 3):
            pt = ModularPoint(tau, (z1, z2), 0.07)
            beta_z = complex(G[1] @ np.array(pt.z))
            gam_z = complex(G[0] @ np.array(pt.z))
            ref = cmath.exp(2j * math.pi * k * pt.t) * phi(
                MockIndex(k, s, mode), tau, -beta_z, beta_z + gam_z
            ).value
            # the lattice window's direct sum, and the public function (eq 3.5's Phi)
            for direct in (lattice_window.window_mock_theta(ctx, w, pt, False).value,
                           lattice_mock_theta(ctx, w, pt).value):
                assert abs(direct - ref) / max(1.0, abs(ref)) < 1e-12

    def test_rank2_naive_oracle(self):
        w = Weight(1, (0, 0, 1))
        pt = ModularPoint(TAU, (0.21, -0.17, 0.33), 0.0)
        mine = lattice_mock_theta(CTX2, w, pt).value
        G = CTX2.full_gram_float()
        lam = np.array([0.0, 0.0, 1.0])
        z = np.array(pt.z)
        tot = 0j
        for c1 in range(-8, 9):
            for c2 in range(-8, 9):
                g = np.array([c1, c2, 0.0])
                v = lam + g
                n2 = float(v @ G @ v)
                den = 1 - cmath.exp(
                    2j * math.pi * (-(float(g @ G[:, 2])) * pt.tau - complex(G[2] @ z))
                )
                tot += cmath.exp(1j * math.pi * pt.tau * n2 + 2j * math.pi * complex(v @ G @ z)) / den
        assert abs(mine - tot) < 1e-9

    def test_rank2_minus_naive_oracle(self):
        # k|gamma_2|^2 = 3 is odd, so the sign reads the second coordinate
        w = Weight(1, (0, F(1, 2), 1))
        pt = ModularPoint(TAU, (0.21, -0.17, 0.33), 0.0)
        mine = lattice_mock_theta(MINUS2, w, pt).value
        G = MINUS2.full_gram_float()
        lam = np.array([float(x) for x in w.coords])
        z = np.array(pt.z)
        tot = 0j
        for c1 in range(-8, 9):
            for c2 in range(-8, 9):
                g = np.array([c1, c2, 0.0])
                v = lam + g
                n2 = float(v @ G @ v)
                den = 1 - cmath.exp(
                    2j * math.pi * (-(float(g @ G[:, 2])) * pt.tau - complex(G[2] @ z))
                )
                tot += _exact_sign(MINUS2, (c1, c2)) * cmath.exp(
                    1j * math.pi * pt.tau * n2 + 2j * math.pi * complex(v @ G @ z)
                ) / den
        assert abs(mine - tot) < 1e-9

    def test_pole_proximity(self):
        # beta(z) = i tau c_gamma-direction hits 1 - q^c e^(-2 pi i beta z)
        pt = ModularPoint(TAU, (-TAU, 0.0), 0.0)
        with pytest.raises(PoleProximity):
            lattice_mock_theta(CTX1, Weight(1, (0, 0)), pt)

    def test_empty_t_matches_plain_theta(self):
        from mocktheta.lattice import LatticeData, SignCharacter, lattice_theta

        ctx0 = LatticeContext(((2,),), 0, 1)
        pt = ModularPoint(TAU, (0.23,), 0.04)
        a = lattice_mock_theta(ctx0, Weight(1, (F(1, 2),)), pt).value
        lat = LatticeData(gram=np.array([[2.0]]))
        b = lattice_theta((0.5,), 1.0, lat, SignCharacter(), pt).value
        assert abs(a - b) < 1e-12

    def test_condition_violation_raised(self):
        with pytest.raises(ConditionViolation):
            lattice_mock_theta(
                LatticeContext(((2,),), 1, F(1, 2)),
                Weight(F(1, 2), (0, 0)),
                ModularPoint(TAU, (0.2, 0.3), 0.0),
            )


class TestModification:
    def test_sl_family_tilde_pattern(self):
        # gamma~_p = gamma_p + sum of the earlier isotropic directions
        gram = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
        ctx = LatticeContext(gram, 2, 1)
        gt2 = ctx.gamma_tilde(2)
        assert gt2[1] == 1 and gt2[3] == -1 and gt2[4] == 0
        gt3 = ctx.gamma_tilde(3)
        assert gt3[4] == -1 and gt3[3] == 0

    def test_orthogonal_family_tilde_trivial(self):
        gram = ((2, 0), (0, 2))
        ctx = LatticeContext(gram, 1, 1)
        assert ctx.gamma_tilde(2) == ctx.gamma_vec(2)

    def test_example_one_factor(self):
        res = build_modification(CTX1, Weight(1, (0, F(-1))))
        assert len(res.phi_factors) == 1
        fac = res.phi_factors[0]
        assert fac.degree == 1 and fac.shift == 1
        assert res.m_basis == ()

    def test_eval_matches_assembly(self):
        w = Weight(1, (0, F(-1)))
        res = build_modification(CTX1, w)
        pt = ModularPoint(TAU, (0.21, 0.33), 0.05)
        got = eval_modified(res, pt).value
        G = CTX1.full_gram_float()
        z = np.array(pt.z)
        beta_z = complex(G[1] @ z)
        gam_z = complex(G[0] @ z)
        ref = cmath.exp(2j * math.pi * pt.t) * phi_tilde(
            MockIndex(1, 1), TAU, -beta_z, beta_z + gam_z
        ).value
        assert abs(got - ref) < 1e-12

    def test_unsigned_vs_plus_on_even_context(self):
        ctxp = replace(CTX1, mode="plus")
        w = Weight(1, (0, F(-1)))
        pt = ModularPoint(TAU, (0.21, 0.33), 0.05)
        a = eval_modified(build_modification(CTX1, w), pt).value
        b = eval_modified(build_modification(ctxp, w), pt).value
        assert abs(a - b) < 1e-11

    def test_mu_classes(self):
        res = build_modification(CTX2, Weight(1, (0, 0, 1)))
        assert res.mu_group_order() == 2
        reps = mu_class_representatives(res)
        assert len(reps) == 2

    def test_xi0(self):
        ctx = LatticeContext(((2,),), 1, F(3, 2), mode="minus")
        res = build_modification(ctx, Weight(F(3, 2), (0, 1)))
        # (xi0 | gamma_1) must be half-integral, (xi0 | beta_1) = 0
        v = ctx.pair(res.xi0, ctx.gamma_vec(1))
        assert v.denominator == 2
        assert ctx.pair(res.xi0, ctx.beta_vec(1)) == 0


class TestRankTwoSigned:
    """Signed modification with a nontrivial class group and a shift
    vector that carries a lattice component (not just isotropic ones)."""

    def _setup(self):
        k = F(3, 2)
        ctx = LatticeContext(((2, 0), (0, 2)), 1, k, mode="minus")
        w = Weight(k, (0, 0, F(1)))
        return ctx, w

    def test_xi0_has_lattice_component(self):
        ctx, w = self._setup()
        res = build_modification(ctx, w)
        assert res.xi0[1] == F(1, 4)
        assert res.mu_group_order() == 3

    def test_signed_s_law_three_classes(self):
        import cmath

        ctx, w = self._setup()
        ctxs = {"minus": ctx, "plus": replace(ctx, mode="plus")}
        res_m = build_modification(ctx, w)
        res_p = build_modification(ctxs["plus"], w)
        reps = mu_class_representatives(res_m)
        pt = ModularPoint(TAU, (0.21, -0.14, 0.33), 0.04)
        G = ctx.full_gram_float()
        z = np.array(pt.z)
        zz = complex(z @ G @ z)
        ptS = ModularPoint(-1 / TAU, tuple(z / TAU), pt.t - zz / (2 * TAU))
        kf = float(ctx.k)
        pref = 1j * (-1j * TAU) ** 1.5 * res_m.mu_group_order() ** -0.5
        xi0 = res_m.xi0

        def msum(mode, xi_l, xi_r):
            tot = 0j
            left = [a + b for a, b in zip(w.coords, xi0)] if xi_l else w.coords
            for rep in reps:
                rr = build_modification(ctxs[mode], rep)
                right = (
                    [a + b for a, b in zip(rep.coords, xi0)] if xi_r else rep.coords
                )
                tot += cmath.exp(
                    -2j * cmath.pi * float(ctx.pair(left, right)) / kf
                ) * eval_modified(rr, pt, xi_shift=xi_r).value
            return tot

        cases = [
            (eval_modified(res_p, ptS).value, msum("plus", False, False)),
            (eval_modified(res_m, ptS).value, msum("plus", False, True)),
            (eval_modified(res_p, ptS, xi_shift=True).value, msum("minus", True, False)),
            (eval_modified(res_m, ptS, xi_shift=True).value, msum("minus", True, True)),
        ]
        for lhs, tot in cases:
            assert abs(lhs - pref * tot) < 1e-10

    def test_even_rank_two_level_two(self):
        import cmath

        ctx = LatticeContext(((2, -1), (-1, 2)), 1, 2)
        w = Weight(2, (0, 0, F(-1)))
        res = build_modification(ctx, w)
        assert res.mu_group_order() == 4
        reps = mu_class_representatives(res)
        pt = ModularPoint(TAU, (0.21, -0.14, 0.33), 0.04)
        G = ctx.full_gram_float()
        z = np.array(pt.z)
        zz = complex(z @ G @ z)
        ptS = ModularPoint(-1 / TAU, tuple(z / TAU), pt.t - zz / (2 * TAU))
        lhs = eval_modified(res, ptS).value
        pref = 1j * (-1j * TAU) ** 1.5 * 0.5
        tot = sum(
            cmath.exp(-1j * cmath.pi * float(ctx.pair(w.coords, rep.coords)))
            * eval_modified(build_modification(ctx, rep), pt).value
            for rep in reps
        )
        assert abs(lhs - pref * tot) < 1e-10


class TestTwoStepModification:
    """Both isotropic directions peeled off: two modified factors and a
    trivial residual lattice."""

    CTX = LatticeContext(((2, -1), (-1, 2)), 2, 1)
    W = Weight(1, (0, 0, F(-1), F(1)))

    def test_two_factors(self):
        res = build_modification(self.CTX, self.W)
        assert len(res.phi_factors) == 2
        assert res.m_basis == ()
        # second factor argument carries the first isotropic correction
        fac2 = res.phi_factors[1]
        assert fac2.arg2[2] != 0

    def test_product_assembly(self):
        import cmath
        import math
        from mocktheta.mock import MockIndex
        from mocktheta.modifier import phi_tilde

        res = build_modification(self.CTX, self.W)
        pt = ModularPoint(TAU, (0.21, -0.14, 0.33, 0.11), 0.04)
        G = self.CTX.full_gram_float()
        z = np.array(pt.z)
        got = eval_modified(res, pt).value
        prod = cmath.exp(2j * math.pi * pt.t)
        for fac in res.phi_factors:
            a1 = np.array([float(x) for x in fac.arg1])
            a2 = np.array([float(x) for x in fac.arg2])
            prod *= phi_tilde(
                MockIndex(fac.degree, fac.shift), TAU,
                complex(a1 @ G @ z), complex(a2 @ G @ z),
            ).value
        assert abs(got - prod) < 1e-13

    def test_naive_oracle(self):
        import cmath
        import math

        pt = ModularPoint(TAU, (0.21, -0.14, 0.33, 0.11), 0.04)
        mine = lattice_mock_theta(self.CTX, self.W, pt).value
        G = self.CTX.full_gram_float()
        lam = np.array([float(x) for x in self.W.coords])
        z = np.array(pt.z)
        tot = 0j
        for c1 in range(-9, 10):
            for c2 in range(-9, 10):
                g = np.array([c1, c2, 0.0, 0.0])
                v = lam + g
                n2 = float(v @ G @ v)
                den = 1.0
                for j in (2, 3):
                    den *= 1 - cmath.exp(
                        2j * math.pi * (-(float(g @ G[:, j])) * TAU - complex(G[j] @ z))
                    )
                tot += cmath.exp(
                    1j * math.pi * TAU * n2 + 2j * math.pi * complex(v @ G @ z)
                ) / den
        tot *= cmath.exp(2j * math.pi * pt.t)
        assert abs(mine - tot) < 1e-10

    def test_s_and_t_law(self):
        import cmath
        import math

        res = build_modification(self.CTX, self.W)
        pt = ModularPoint(TAU, (0.21, -0.14, 0.33, 0.11), 0.04)
        G = self.CTX.full_gram_float()
        z = np.array(pt.z)
        zz = complex(z @ G @ z)
        ptS = ModularPoint(-1 / TAU, tuple(z / TAU), pt.t - zz / (2 * TAU))
        base = eval_modified(res, pt).value
        lhs = eval_modified(res, ptS).value
        reps = mu_class_representatives(res)
        assert len(reps) == 1
        rhs = (1j ** 2) * (-1j * TAU) ** 2 * sum(
            cmath.exp(-2j * math.pi * float(self.CTX.pair(self.W.coords, rep.coords)))
            * eval_modified(build_modification(self.CTX, rep), pt).value
            for rep in reps
        )
        assert abs(lhs - rhs) / max(1, abs(rhs)) < 1e-12
        ptT = ModularPoint(TAU + 1, pt.z, pt.t)
        lam2 = float(self.CTX.pair(self.W.coords, self.W.coords))
        lhsT = eval_modified(res, ptT).value
        assert abs(lhsT - cmath.exp(1j * math.pi * lam2) * base) < 1e-12


MINUS2 = LatticeContext(((2, -1), (-1, 3)), 1, 1, "minus")


def _exact_sign(ctx, coords):
    """(-1)^e, e = sum_{i<=n} (gamma|beta_i) + k|gamma'|^2 with gamma' =
    gamma + sum_i (gamma|beta_i) gamma_i, in exact arithmetic."""
    n = ctx.n_isotropic
    gamma = [F(c) for c in coords] + [F(0)] * n
    expo = F(0)
    shifted = list(gamma)
    for i in range(1, n + 1):
        gb = ctx.pair(gamma, ctx.beta_vec(i))
        expo += gb
        shifted = [a + gb * b for a, b in zip(shifted, ctx.gamma_vec(i))]
    expo += ctx.k * ctx.pair(shifted, shifted)
    assert expo.denominator == 1
    return -1 if expo.numerator % 2 else 1


@pytest.mark.parametrize("ctx", [
    LatticeContext(((2,),), 1, F(1, 2), "minus"),
    LatticeContext(((2,),), 1, F(3, 2), "minus"),
    MINUS2,
    LatticeContext(((2, -1), (-1, 2)), 1, 1, "minus"),
    LatticeContext(((2, 0), (0, F(2, 3))), 1, F(3, 2), "minus"),
    LatticeContext(((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 2, 1, "minus"),
    LatticeContext(((2, -1, 0), (-1, 2, -1), (0, -1, 3)), 1, 1, "minus"),
])
def test_translation_sign_is_the_exact_sign(ctx):
    assert validate_context(ctx) == []
    sign = translation_sign(ctx)
    for coords in itertools.product(range(-3, 4), repeat=ctx.rank):
        assert sign(list(coords), None) == _exact_sign(ctx, coords), coords


@pytest.mark.parametrize("mode", ["unsigned", "plus"])
def test_translation_sign_is_trivial_outside_minus_mode(mode):
    assert translation_sign(LatticeContext(((2,),), 1, 1, mode)).kind == "trivial"


# ---------------------------------------------------------------------------
# evaluation plans: built once per key, never a different value


PLAN_CACHES = (
    lattice_window._gram_plan,
    lattice_window._box,
    lattice._violations,
    lattice._phi_route,
    lattice_window._mock_plan,
    lattice.build_modification,
)
# the benchmark's lattice Grams and contexts
GRAMS = {
    "A1": ([[2.0]], (0.5,)),
    "A2": ([[2.0, -1.0], [-1.0, 2.0]], (0.5, 0.0)),
    "A3": ([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]], (0.5, 0.0, 0.5)),
    "A1A1": ([[2.0, 0.0], [0.0, 2.0]], (0.5, 0.0)),
}
SIGNS = {
    "trivial": SignCharacter(),
    "parity_of_norm": SignCharacter("parity_of_norm", F(1, 2)),
}
CONTEXTS = {
    "sl2": (LatticeContext(((2,),), 1, 1), (0, -1)),
    "sl2_k2": (LatticeContext(((2,),), 1, 2), (0, -1)),
    "sl3": (LatticeContext(((2, -1), (-1, 2)), 1, 1), (0, 0, -1)),
    "odd": (LatticeContext(((2,),), 1, F(3, 2), "minus"), (0, 1)),
}
ZS = (0.21 + 0.03j, -0.13 + 0.05j, 0.34 - 0.02j)


def _point(n):
    return ModularPoint(TAU, ZS[:n], 0.07)


def _bits(sv):
    return repr((sv.value, sv.err_bound, sv.terms_used))


def _cold_then_warm(evaluate):
    """(cold, warm): with every plan cache emptied first, then again."""
    for cache in PLAN_CACHES:
        cache.cache_clear()
    return _bits(evaluate()), _bits(evaluate())


class TestPlans:
    @pytest.mark.parametrize("gram", sorted(GRAMS))
    @pytest.mark.parametrize("sign", sorted(SIGNS))
    def test_lattice_theta_cold_equals_warm(self, gram, sign):
        rows, lam = GRAMS[gram]
        cold, warm = _cold_then_warm(lambda: lattice_theta(
            lam, 1, LatticeData(gram=np.array(rows)), SIGNS[sign], _point(len(rows))
        ))
        assert cold == warm

    @pytest.mark.parametrize("name", sorted(CONTEXTS))
    def test_lattice_mock_theta_cold_equals_warm(self, name):
        ctx, coords = CONTEXTS[name]
        cold, warm = _cold_then_warm(lambda: lattice_mock_theta(
            ctx, Weight(ctx.k, coords), _point(len(coords))
        ))
        assert cold == warm

    # an unsigned context has no xi0 shift
    @pytest.mark.parametrize("name, xi_shift", [
        ("sl2", False), ("sl2_k2", False), ("sl3", False), ("odd", False), ("odd", True),
    ])
    def test_eval_modified_cold_equals_warm(self, name, xi_shift):
        ctx, coords = CONTEXTS[name]
        cold, warm = _cold_then_warm(lambda: eval_modified(
            build_modification(ctx, Weight(ctx.k, coords)), _point(len(coords)),
            xi_shift=xi_shift,
        ))
        assert cold == warm

    @pytest.mark.parametrize("case, k, labels, nz", [
        ("osp42", 1, (F(1, 2), F(1, 2)), 3),
        ("osp42", 1, (1, 0), 3),
        ("osp32", 1, (0,), 2),
        ("osp32", 1, (1,), 2),
        ("sl21", 1, (0,), 2),
        ("sl21", 2, (1,), 2),
    ])
    def test_ch_tilde_cold_equals_warm(self, case, k, labels, nz):
        cold, warm = _cold_then_warm(
            lambda: ch_tilde(case, WeightSpec(k, labels), _point(nz))
        )
        assert cold == warm

    def test_grams_of_one_shape_keep_their_own_plans(self):
        a2, a1a1 = (np.array(GRAMS[g][0]) for g in ("A2", "A1A1"))
        plan_a2 = lattice_window._gram_plan(a2.shape, a2.tobytes())
        plan_a1a1 = lattice_window._gram_plan(a1a1.shape, a1a1.tobytes())
        assert plan_a2 is not plan_a1a1
        assert (plan_a2.lam_min, plan_a1a1.lam_min) == (1.0, 2.0)
        eps = SIGNS["parity_of_norm"]
        lam = (0.5, 0.0)
        values = [
            lattice_theta(lam, 1, LatticeData(gram=g), eps, _point(2)).value
            for g in (a2, a1a1, a2)
        ]
        assert values[0] == values[2] != values[1]

    def test_gram_edited_in_place_leaves_the_lattice_as_built(self):
        # the lattice keeps its own tuple of the Gram, which takes no edit
        eps = SIGNS["parity_of_norm"]
        rows = np.array(GRAMS["A2"][0])
        lat = LatticeData(gram=rows)
        before = lattice_theta((0.5, 0.0), 1, lat, eps, _point(2))
        rows[:] = GRAMS["A1A1"][0]
        with pytest.raises(TypeError):
            lat.gram[0] = GRAMS["A1A1"][0][0]
        fresh, _ = _cold_then_warm(lambda: lattice_theta(
            (0.5, 0.0), 1, LatticeData(gram=np.array(GRAMS["A2"][0])), eps, _point(2)
        ))
        assert _bits(lattice_theta((0.5, 0.0), 1, lat, eps, _point(2))) == fresh == _bits(before)

    def test_caches_stay_bounded(self):
        eps = SIGNS["trivial"]
        for j in range(1, 1001):
            gram = np.array([[2.0 + j / 1000.0, 1.0], [1.0, 2.0 + j / 1000.0]])
            lattice_theta((0.5, 0.0), 1, LatticeData(gram=gram), eps, _point(2))
            ctx = LatticeContext(((2 * j,),), 1, 1)
            w = Weight(1, (0, -1))
            lattice_mock_theta(ctx, w, _point(2))
            eval_modified(build_modification(ctx, w), _point(2))
        for cache in PLAN_CACHES:
            info = cache.cache_info()
            assert info.currsize <= info.maxsize, cache

    def test_validate_context_returns_a_fresh_list(self):
        good = validate_context(CTX1)
        good.append("poison")
        assert validate_context(CTX1) == []
        bad_ctx, bad_w = LatticeContext(((2,),), 1, F(1, 2)), Weight(F(1, 2), (0, 0))
        bad = validate_context(bad_ctx, weight=bad_w)
        assert bad
        expected = list(bad)
        bad.clear()
        assert validate_context(bad_ctx, weight=bad_w) == expected

    def test_mu_classes_are_kept_and_returned_fresh(self, monkeypatch):
        ctx, coords = CONTEXTS["sl3"]
        res = build_modification(ctx, Weight(ctx.k, coords))
        first = mu_class_representatives(res)
        assert len(first) == res.mu_group_order()
        expected = list(first)
        monkeypatch.setattr(lattice, "_find_mu_classes", None)  # a second search would raise
        first.append("poison")
        first[0] = None
        second = mu_class_representatives(res)
        assert second == expected and second is not first

    @pytest.mark.parametrize("gram", [np.ones((2, 3)), np.ones(3), np.ones((1, 2, 2))])
    def test_lattice_data_refuses_a_non_square_gram(self, gram):
        with pytest.raises(ValueError, match="square"):
            LatticeData(gram=gram)

    def test_lattice_data_refuses_an_asymmetric_gram(self):
        for _ in range(2):  # the second read comes from the Gram's plan
            with pytest.raises(ValueError, match="symmetric"):
                LatticeData(gram=np.array([[2.0, 1.0], [1.0 + 1e-3, 2.0]]))
        # np.allclose's tolerance, 1e-12 + 1e-5 |g_ij|
        LatticeData(gram=np.array([[2.0, 1.0], [1.0 + 1e-9, 2.0]]))

    def test_violations_raise_on_every_call(self):
        ctx, w = LatticeContext(((2,),), 1, F(1, 2)), Weight(F(1, 2), (0, 0))
        for _ in range(3):
            with pytest.raises(ConditionViolation):
                lattice_mock_theta(ctx, w, _point(2))
            with pytest.raises(ConditionViolation):
                build_modification(ctx, w)
        good = LatticeContext(((2,),), 1, 1)
        for _ in range(3):
            with pytest.raises(ValueError, match="xi0"):
                eval_modified(build_modification(good, Weight(1, (0, -1))), _point(2),
                              xi_shift=True)

    def test_equal_contexts_and_weights_hash_alike(self):
        a = LatticeContext(((2, -1), (-1, 2)), 1, 1)
        b = LatticeContext(((2.0, F(-1)), (-1, F(4, 2))), 1, 1.0)
        assert a == b and hash(a) == hash(b)
        assert hash(Weight(1, (0, F(-1)))) == hash(Weight(1.0, (0.0, -1)))
        assert build_modification(a, Weight(1, (0, 0, -1))) is build_modification(
            b, Weight(1.0, (0.0, 0, -1))
        )


# Each refused input and the exact error the direct sums raise for it.  The
# messages name the first offending summand in window order (its exponent,
# its |c|^2, its denominator factor), so a change to how a window is summed
# must keep which summand offends first.
_A1 = LatticeData(gram=((2.0,),))
_A2 = LatticeData(gram=((2.0, -1.0), (-1.0, 2.0)))
_THIRD = SignCharacter("parity_of_norm", F(1, 3))
_SL2 = (LatticeContext(((2,),), 1, 1), Weight(1, (0, -1)))
_A1A1_T2 = (LatticeContext(((2, 0), (0, 2)), 2, 1), Weight(1, (0, 0, -1, -1)))
_SL2_K2 = (LatticeContext(((2,),), 1, 2), Weight(2, (0, -1)))
_ODD = (LatticeContext(((2,),), 1, F(3, 2), "minus"), Weight(F(3, 2), (0, 1)))
_HALF = (LatticeContext(((2,),), 1, F(1, 2), "minus"), Weight(F(1, 2), (0, F(3, 2))))
_TAU1 = 0.1 + 1j
REFUSED = {
    "pole sl2": (lambda: lattice_mock_theta(*_SL2, ModularPoint(_TAU1, (0, 0.3))),
                 PoleProximity, "denominator factor 1 vanishes"),
    "pole factor 1 of 2": (
        lambda: lattice_mock_theta(*_A1A1_T2, ModularPoint(_TAU1, (0, 0.3, 0.1, 0.2))),
        PoleProximity, "denominator factor 1 vanishes"),
    "pole factor 2 of 2": (
        lambda: lattice_mock_theta(*_A1A1_T2, ModularPoint(_TAU1, (0.3, 0, 0.1, 0.2))),
        PoleProximity, "denominator factor 2 vanishes"),
    "overflow theta A1": (
        lambda: lattice_theta((0.5,), 1, _A1, SignCharacter(), ModularPoint(_TAU1, (12j,))),
        NonConvergent, "exponent overflow: Re(w) = 715"),
    "overflow theta A1 below": (
        lambda: lattice_theta((0.5,), 1, _A1, SignCharacter(), ModularPoint(_TAU1, (-12j,))),
        NonConvergent, "exponent overflow: Re(w) = 715"),
    "overflow theta A2": (
        lambda: lattice_theta((0.5, 0.0), 1, _A2, SignCharacter(),
                              ModularPoint(_TAU1, (0.2, 12j))),
        NonConvergent, "exponent overflow: Re(w) = 702"),
    "overflow mock sl2": (
        lambda: lattice_mock_theta(*_SL2, ModularPoint(_TAU1, (12j, 0.3))),
        NonConvergent, "exponent overflow: Re(w) = 716"),
    "overflow mock odd": (
        lambda: lattice_mock_theta(*_ODD, ModularPoint(_TAU1, (12j, 0.3))),
        NonConvergent, "exponent overflow: Re(w) = 807"),
    "parity A1": (
        lambda: lattice_theta((0.5,), 1, _A1, _THIRD, ModularPoint(_TAU1, (0.2,))),
        ValueError, "parity_of_norm exponent 8/3 is not an integer"),
    "parity A2": (
        lambda: lattice_theta((0.5, 0.0), 1, _A2, _THIRD, ModularPoint(_TAU1, (0.2, 0.1))),
        ValueError, "parity_of_norm exponent 14/3 is not an integer"),
    "max terms A1": (
        lambda: lattice_theta((0.5,), 1, LatticeData(gram=((1e-7,),)), SignCharacter(),
                              ModularPoint(_TAU1, (0.2,))),
        NonConvergent, "lattice enumeration exceeds max_terms"),
    "max terms A2": (
        lambda: lattice_theta((0.5, 0.0), 1, LatticeData(gram=((1e-4, 0.0), (0.0, 1e-4))),
                              SignCharacter(), ModularPoint(_TAU1, (0.2, 0.1))),
        NonConvergent, "lattice enumeration exceeds max_terms"),
    "max terms mock sl2": (
        lambda: lattice_mock_theta(*_SL2, ModularPoint(_TAU1, (3000j, 0.3))),
        NonConvergent, "lattice enumeration exceeds max_terms"),
}
# the other rank-1 contexts of lattice_refs, each refused in all three ways
for _name, _args, _over in (("sl2_k2", _SL2_K2, (12j, 792)), ("odd", _ODD, None),
                            ("half", _HALF, (16j, 716))):
    REFUSED[f"pole {_name}"] = (
        lambda a=_args: lattice_mock_theta(*a, ModularPoint(_TAU1, (0, 0.3))),
        PoleProximity, "denominator factor 1 vanishes")
    REFUSED[f"max terms mock {_name}"] = (
        lambda a=_args: lattice_mock_theta(*a, ModularPoint(_TAU1, (3000j, 0.3))),
        NonConvergent, "lattice enumeration exceeds max_terms")
    if _over:
        REFUSED[f"overflow mock {_name}"] = (
            lambda a=_args, z=_over[0]: lattice_mock_theta(*a, ModularPoint(_TAU1, (z, 0.3))),
            NonConvergent, f"exponent overflow: Re(w) = {_over[1]}")


def test_a_gram_definite_only_in_exact_arithmetic_is_refused_by_the_window():
    # det = 1e-20 > 0, so validation (exact) passes; in floats the Gram is
    # ((1, 1), (1, 1)), singular, and every window over it refuses loudly
    ctx = LatticeContext(((1, 1), (1, 1 + F(1, 10**20))), 0, 10**20)
    w = Weight(ctx.k, (0, 0))
    assert validate_context(ctx, weight=w) == []
    pt = ModularPoint(_TAU1, (0.1, 0.2), 0.0)
    lat = LatticeData(gram=ctx.gamma_gram)
    for call in (lambda: lattice_mock_theta(ctx, w, pt),
                 lambda: eval_modified(build_modification(ctx, w), pt),
                 lambda: lattice_theta((0.0, 0.0), 1, lat, SignCharacter(), pt)):
        with pytest.raises(NotPositiveDefinite):
            call()


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_input_raises_its_error(case):
    call, exc, message = REFUSED[case]
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message


def test_a_parity_sign_that_no_summand_reads_is_not_refused():
    # at Im tau = 30 the A1 window holds c = 0 alone, whose |c|^2 = 0 is
    # integral for any multiplier
    out = lattice_theta((0.0,), 1, _A1, _THIRD, ModularPoint(0.1 + 30j, (0.2,)))
    assert out.value == 1 and out.terms_used == 1


@pytest.mark.parametrize("mult", [F(1, 2), F(1), F(3, 2), F(3 * 10**17)])
@pytest.mark.parametrize("gram", [((2.0,),), ((2.0, -1.0), (-1.0, 2.0)), ((0.5, 0.25), (0.25, 1.0))])
def test_window_signs_match_the_character(gram, mult):
    # the batched parity signs against SignCharacter.parity row by row; the
    # largest multiplier takes the Python-integer route past int64
    lat = np.array(LatticeData(gram=gram).gram)
    plan = lattice_window._gram_plan(lat.shape, lat.tobytes())
    g, d = plan.scaled
    eps = SignCharacter("parity_of_norm", mult)
    coords = np.array(list(itertools.product(range(-7, 8), repeat=len(gram))))
    signs, refused, refuse = lattice_window._signs(eps, plan, coords)
    assert signs.dtype == np.int64 and refused.dtype == bool
    for i, c in enumerate(coords.tolist()):
        num = sum(a * x * b for r, a in zip(g, c) for x, b in zip(r, c))
        try:
            want = eps.parity(num, d)
        except ValueError as exc:
            assert refused[i]
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                refuse(i)
        else:
            assert not refused[i] and signs[i] == want
