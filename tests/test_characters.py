import cmath
import json
import math
from fractions import Fraction as F

import pytest
import refs

from mocktheta.characters import (
    VARIANTS,
    ch_tilde,
    level1_osp_supercharacter,
    level1_quad,
    psi_fn,
    system,
)
from mocktheta.cli import main
from mocktheta.core import ModularPoint, SeriesValue
from mocktheta.errors import MockThetaError, UnsupportedCase
from mocktheta.mock import MockIndex, phi
from mocktheta.modifier import phi_tilde
from mocktheta.modular import sample_points
from mocktheta.smatrix import _SPANS, smatrix
from mocktheta.superalg import WeightSpec
from mocktheta.theta import eta, theta_ab, theta_jm
from conftest import random_points

TAU = 0.13 + 0.92j
PT2 = ModularPoint(TAU, (0.23, 0.41), 0.07)


class TestDenominators:
    def test_sl21_closed_form(self):
        sys = system("sl21")
        for tau, z1, z2 in random_points(71, 5):
            pt = ModularPoint(tau, (z1, z2), 0.07)
            den = sys.denominator(-1, pt).value
            closed = (
                1j
                * cmath.exp(2j * math.pi * pt.t)
                * eta(tau).value ** 3
                * theta_ab(1, 1, tau, z1 + z2).value
                / (theta_ab(1, 1, tau, z1).value * theta_ab(1, 1, tau, z2).value)
            )
            assert abs(den - closed) < 1e-10

    def test_osp32_closed_form(self):
        sys = system("osp32_sub")
        for tau, z1, z2 in random_points(72, 5):
            pt = ModularPoint(tau, (z1, z2), 0.07)
            den = sys.denominator(-1, pt).value
            closed = (
                1j
                * cmath.exp(1j * math.pi * pt.t)
                * eta(tau).value ** 3
                * theta_ab(1, 1, tau, z1 - z2).value
                * theta_ab(1, 1, tau, (z1 + z2) / 2).value
                / (
                    theta_ab(1, 1, tau, z1).value
                    * theta_ab(1, 1, tau, z2).value
                    * theta_ab(1, 1, tau, (z1 - z2) / 2).value
                )
            )
            assert abs(den - closed) < 1e-10

    def test_psi_denominator_pin(self):
        # the convention pin: Psi at degree one against the eta/theta
        # quotient, with the -i normalization the pin tests fix
        for tau, z1, z2 in random_points(73, 5):
            psi = psi_fn(1, 0, tau, z1, z2, 0.0, modified=False).value
            quot = (
                eta(tau).value ** 3
                * theta_ab(1, 1, tau, z1 + z2).value
                / (theta_ab(1, 1, tau, z1).value * theta_ab(1, 1, tau, z2).value)
            )
            assert abs(psi + 1j * quot) < 1e-9


class TestSl21:
    def test_numerator_reproduces_phi_difference(self):
        sys = system("sl21")
        for m, s in ((1, 0), (1, 1), (2, 1)):
            num = sys.numerator(WeightSpec(m - 1, (-s,)), PT2, modified=False).value
            want = cmath.exp(2j * math.pi * m * PT2.t) * (
                phi(MockIndex(m, s), TAU, 0.23, 0.41).value
                - phi(MockIndex(m, s), TAU, -0.41, -0.23).value
            )
            assert abs(num - want) < 1e-12

    def test_modified_supercharacter_invariance(self):
        sys = system("sl21")
        w = WeightSpec(1, (0,))
        base = ch_tilde("sl21", w, PT2).value
        zz = sys.quad(PT2.z, PT2.z)
        ptS = ModularPoint(-1 / TAU, (0.23 / TAU, 0.41 / TAU), PT2.t - zz / (2 * TAU))
        assert abs(ch_tilde("sl21", w, ptS).value - base) < 1e-7
        ptT = ModularPoint(TAU + 1, PT2.z, PT2.t)
        assert abs(ch_tilde("sl21", w, ptT).value - base) < 1e-9

    def test_label_quotient_invariance(self):
        a = ch_tilde("sl21", WeightSpec(1, (0,)), PT2).value
        b = ch_tilde("sl21", WeightSpec(1, (1,)), PT2).value
        assert abs(a - b) < 1e-9

    def test_variants_dispatch(self):
        w = WeightSpec(1, (0,))
        for variant in ("ch_minus", "ch_minus_modified", "ch_plus_modified",
                        "tw_minus_modified", "tw_plus_modified",
                        "numerator_only", "denominator_only"):
            out = ch_tilde("sl21", w, PT2, variant=variant)
            assert abs(out.value) > 0

    def test_twisted_t_relations(self):
        w = WeightSpec(1, (0,))
        ptT = ModularPoint(TAU + 1, PT2.z, PT2.t)
        twm = ch_tilde("sl21", w, PT2, variant="tw_minus_modified").value
        twp = ch_tilde("sl21", w, PT2, variant="tw_plus_modified").value
        twmT = ch_tilde("sl21", w, ptT, variant="tw_minus_modified").value
        assert abs(twmT - 1j * twp) < 1e-9
        chp = ch_tilde("sl21", w, PT2, variant="ch_plus_modified").value
        chpT = ch_tilde("sl21", w, ptT, variant="ch_plus_modified").value
        assert abs(chpT - chp) < 1e-9


class TestOsp32Sub:
    def test_f_closed_quotients(self):
        sub = system("osp32_sub")
        k = F(-3, 4)
        for tau, z1, z2 in random_points(74, 3):
            pt = ModularPoint(tau, (z1, z2), 0.05)
            den = sub.denominator(-1, pt).value
            for i in (1, 2, 3, 4):
                fi = sub.f_function(i, k, pt).value
                ci = sub.f_closed_quotient(i, pt).value / den
                assert abs(fi - ci) < 1e-9, i

    def test_doubling_identity(self):
        for tau, z1, z2 in random_points(75, 3, im=(0.5, 0.8)):
            for M, s in ((F(1, 2), F(1, 2)), (1, 0)):
                lhs = 2 * psi_fn(M, s, 2 * tau, z1, z2, 0.05).value
                rhs = (
                    psi_fn(2 * M, 2 * s, tau, z1 / 2, z2 / 2, 0.025).value
                    + cmath.exp(-2j * math.pi * float(s))
                    * psi_fn(2 * M, 2 * s, tau, (z1 + 1) / 2, (z2 - 1) / 2, 0.025).value
                )
                assert abs(lhs - rhs) < 1e-9

    def test_needs_noncritical_level(self):
        sub = system("osp32_sub")
        with pytest.raises(UnsupportedCase):
            sub.f_function(1, F(-1, 2), PT2)


class TestD21a:
    def test_numerator_two_term_assembly(self):
        sys = system("d21a")
        pt = ModularPoint(TAU, (0.21, 0.17, 0.33), 0.07)
        a = float(sys.a)
        N, pn = 2, 1
        for nu in (-1, 0, 1):
            num = sys.numerator_nu(nu, 1, pt).value
            argA = sys.functional((1, a + 1, a), pt.z)
            argA2 = sys.functional((-1, a - 1, a), pt.z)
            t1 = theta_jm(nu, N, TAU, argA).value * phi_tilde(
                MockIndex(pn, 0), TAU, sys.functional((-1, 0, 0), pt.z),
                sys.functional((0, 0, -1), pt.z),
            ).value
            t2 = theta_jm(nu, N, TAU, argA2).value * phi_tilde(
                MockIndex(pn, 0), TAU, sys.functional((1, 1, 1), pt.z),
                sys.functional((0, -1, 0), pt.z),
            ).value
            want = cmath.exp(2j * math.pi * (-0.5) * pt.t) * (t1 + t2)
            assert abs(num - want) < 1e-12

    def test_ch_depends_only_on_nu(self):
        pt = ModularPoint(TAU, (0.21, 0.17, 0.33), 0.07)
        a = ch_tilde("d21a", WeightSpec(F(-1, 2), (0, 1)), pt).value
        b = ch_tilde("d21a", WeightSpec(F(-1, 2), (1, 1), side="T"), pt).value
        assert abs(a - b) < 1e-12

    def test_numerator_reads_the_class_off_the_weight(self):
        # nu = k2 on the T side and -k2 on the mirror (Tp) side, at level n = 1
        sys = system("d21a")
        pt = ModularPoint(TAU, (0.21, 0.17, 0.33), 0.07)
        for side, nu in (("T", 1), ("Tp", -1)):
            w = WeightSpec(F(-1, 2), (0, 1), side=side)
            assert sys.numerator(w, pt).value == sys.numerator_nu(nu, 1, pt).value

    @pytest.mark.parametrize("k", [F(-1), F(-1, 2), F(1, 3), F(0)])
    def test_level_off_the_family_is_refused(self, k):
        # (p, q) = (1, 2) takes only k = -2n/3; k = -1 gives n = 3/2
        pt = ModularPoint(TAU, (0.21, 0.17, 0.33), 0.07)
        with pytest.raises(UnsupportedCase, match="-pqn/"):
            ch_tilde("d21a", WeightSpec(k, (0, 1)), pt, params=(1, 2))
        with pytest.raises(UnsupportedCase, match="-pqn/"):
            ch_tilde("d21a", WeightSpec(k, (0, 1)), pt, variant="numerator_only",
                     params=(1, 2))


WIRED = ["sl21", "osp32", "osp32_sub", "osp42", "d21a"]


@pytest.mark.parametrize("case", WIRED)
def test_weyl_images_agree_with_the_weyl_sharp_orbit(case):
    # each derived image M of w in W# carries the frame as w carries the
    # ambient space (F M = W F, exactly), and the context map C writes
    # each frame vector in the lattice context's basis B (B C = F)
    from mocktheta.superalg import weyl_sharp_orbit

    sys = system(case)
    pre = sys.pre
    cols = [[F(x) for x in c] for c in sys.frame]
    elements = sorted(weyl_sharp_orbit(pre), key=lambda el: el.word)
    assert [(em, ep) for _, em, ep in sys.weyl_images] == [
        (el.eps_minus, el.eps_plus) for el in elements]
    for (m, _, _), el in zip(sys.weyl_images, elements):
        for j, col in enumerate(cols):
            image = [sum(F(m[i][j]) * c[r] for i, c in enumerate(cols)) for r in range(len(col))]
            assert image == [sum(a * b for a, b in zip(row, col)) for row in el.matrix]
    basis = pre.gamma_basis + pre.isotropic_t
    for j, col in enumerate(cols):
        assert [sum(F(sys.to_ctx[i][j]) * b[r] for i, b in enumerate(basis))
                for r in range(len(col))] == col


def _law_points(n_z, seed):
    yield ModularPoint(0.1 + 1.1j, (0.21 + 0.03j, 0.17 - 0.02j, 0.33 + 0.01j)[:n_z], 0.07)
    pts = random_points(seed, 6)
    for (tau, z1, z2), (_, z3, _) in zip(pts[::2], pts[1::2]):
        yield ModularPoint(tau, (z1, z2, z3)[:n_z], 0.07)


@pytest.mark.parametrize("case", WIRED)
def test_denominators_follow_the_sign_characters(case):
    # R^-(w z) = eps^-(w) R^-(z) and R^+(w z) = eps^+(w) R^+(z) on W#
    sys = system(case)
    for pt in _law_points(sys.n_z, 81):
        for sign in (-1, 1):
            base = sys.denominator(sign, pt).value
            for m, eps_minus, eps_plus in sys.weyl_images:
                eps = eps_minus if sign == -1 else eps_plus
                zw = tuple(sum(c * x for c, x in zip(row, pt.z)) for row in m)
                got = sys.denominator(sign, ModularPoint(pt.tau, zw, pt.t)).value
                assert abs(got - eps * base) < 1e-12 * max(1.0, abs(base)), (sign, m)


@pytest.mark.parametrize("case,w", [
    ("sl21", WeightSpec(1, (0,))),
    ("osp32", WeightSpec(1, (0,))),
    ("osp42", WeightSpec(1, (F(1, 2), F(1, 2)))),
    pytest.param("d21a", WeightSpec(F(-1, 2), (0, 1)), marks=pytest.mark.xfail(
        strict=True, reason="the d21a numerator does not follow eps^- of its own W#")),
])
def test_numerators_follow_the_minus_sign_character(case, w):
    # numerator(w, w' z) = eps^-(w') numerator(w, z) for each w' of W#
    sys = system(case)
    pt = next(_law_points(sys.n_z, 81))
    base = sys.numerator(w, pt).value
    for zw, eps in sys.images(pt.z):
        got = sys.numerator(w, ModularPoint(pt.tau, tuple(zw), pt.t)).value
        assert abs(got - eps * base) < 1e-12 * abs(base), zw


class TestOsp42:
    def test_numerator_vs_closed_form(self):
        sys = system("osp42")
        pt = ModularPoint(TAU, (0.19, 0.32, 0.27), 0.07)
        for k1, k2 in ((F(1, 2), F(1, 2)), (1, 0)):
            num = sys.numerator(WeightSpec(1, (k1, k2)), pt).value
            tot = 0j
            for zi, epsv in sys.images(pt.z):
                x1, x2, y1 = zi
                th = theta_jm(int(2 * F(k2)), 2, TAU, x1 + x2 + y1).value
                ph = phi_tilde(MockIndex(1, 0), TAU, -x1 - y1, x2 + y1).value
                tot += epsv * th * ph
            want = cmath.exp(2j * math.pi * pt.t) * tot
            assert abs(num - want) < 1e-12

    def test_mirror_class_is_the_apply_check_basis(self):
        # the mirror-side (Tp) class of the eq 6.6 span; the T-side class
        # with the same labels is -1.2804370911-0.3834691550i here
        pt = ModularPoint(0.1 + 1.1j, (0.21 + 0.01j, 0.13 - 0.02j, 0.31 + 0.03j), 0.05)
        w = WeightSpec(1, (0, 0), side="Tp")
        val = ch_tilde("osp42", w, pt).value
        assert abs(val - (-0.0812502762 - 0.0772277593j)) < 1e-9
        sm = smatrix("osp42", 1)
        values, _ = _SPANS["osp42"].basis(sm, None)
        assert val == values(pt)[sm.weights.index(w)]


@pytest.mark.parametrize("case", ["sl21", "osp32"])
def test_mirror_side_refused_where_not_wired(case):
    with pytest.raises(UnsupportedCase):
        ch_tilde(case, WeightSpec(1, (0,), side="Tp"), PT2)


class TestLevel1:
    def test_explicit_value_odd(self):
        # the (3|2) sum combination at an explicit point equals its
        # eta/theta product assembled by hand
        pt = ModularPoint(1j, (0.2, 0.3), 0.0)
        f = level1_osp_supercharacter(3, 2, "sum01")
        got = f(pt).value
        want = (
            eta(1j).value ** 2
            / (eta(0.5j).value * eta(2j).value)
            * theta_ab(0, 0, 1j, 0.2).value
            / theta_ab(0, 0, 1j, 0.3).value
        )
        assert abs(got - want) < 1e-12

    def test_diff_top_prefactor(self):
        pt = ModularPoint(TAU, (0.2, 0.31, 0.3), 0.0)
        f = level1_osp_supercharacter(4, 2, "diff_top")
        got = f(pt).value
        want = (
            (-1)
            * 1j ** 2
            * eta(TAU).value ** (1 - 2)
            * theta_ab(1, 1, TAU, 0.2).value
            * theta_ab(1, 1, TAU, 0.31).value
            / theta_ab(1, 1, TAU, 0.3).value
        )
        assert abs(got - want) < 1e-12

    def test_equal_arguments_collapse(self):
        # m = n with x = y: the theta quotients cancel entirely
        pt = ModularPoint(TAU, (0.27, 0.27), 0.0)
        for combo in ("sum01", "diff01", "twisted"):
            f = level1_osp_supercharacter(2, 2, combo)
            got = f(pt).value
            pref = {"sum01": 1.0, "diff01": 1.0, "twisted": -1j}[combo]
            assert abs(got - pref) < 1e-12

    def test_domain_checks(self):
        with pytest.raises(UnsupportedCase):
            level1_osp_supercharacter(3, 3, "sum01")
        with pytest.raises(UnsupportedCase):
            level1_osp_supercharacter(3, 2, "diff_top")
        with pytest.raises(UnsupportedCase):
            level1_osp_supercharacter(4, 2, "bogus")

    def test_t_eigenvalues_odd(self):
        m, n = 1, 1
        pt = ModularPoint(TAU, (0.21, 0.37), 0.06)
        ptT = ModularPoint(TAU + 1, pt.z, pt.t)
        A = level1_osp_supercharacter(3, 2, "sum01")
        B = level1_osp_supercharacter(3, 2, "diff01")
        C = level1_osp_supercharacter(3, 2, "twisted")
        ev = cmath.exp(1j * math.pi * (n - m - 0.5) / 12)
        ch0 = lambda p: 0.5 * (A(p).value + B(p).value)
        ch1 = lambda p: 0.5 * (A(p).value - B(p).value)
        assert abs(ch0(ptT) - ev * ch0(pt)) < 1e-10
        assert abs(ch1(ptT) + ev * ch1(pt)) < 1e-10
        lam = cmath.exp(1j * math.pi * (m - n + 0.5) / 6)
        assert abs(C(ptT).value - lam * C(pt).value) < 1e-10

    def test_quad_signature(self):
        quad = level1_quad(3, 2)
        assert quad((1.0, 2.0), (1.0, 2.0)) == 1.0 - 4.0


class TestOsp32Principal:
    """The principal system routes through the signed lattice machinery."""

    def test_numerator_t_invariance(self):
        # the shifted weight lies along the isotropic direction, so the
        # T-phase is trivial for every admissible label
        sys = system("osp32")
        pt = ModularPoint(TAU, (0.23, 0.41), 0.06)
        ptT = ModularPoint(TAU + 1, pt.z, pt.t)
        for k1 in (0, 1):
            w = WeightSpec(1, (k1,))
            lhs = sys.numerator(w, ptT).value
            rhs = sys.numerator(w, pt).value
            assert abs(lhs - rhs) < 1e-11

    def test_numerator_s_law(self):
        sys = system("osp32")
        w = WeightSpec(1, (0,))
        pt = ModularPoint(TAU, (0.23, 0.41), 0.06)
        zz = sys.quad(pt.z, pt.z)
        ptS = ModularPoint(-1 / TAU, tuple(x / TAU for x in pt.z), pt.t - zz / (2 * TAU))
        lhs = sys.numerator(w, ptS).value
        # one weight class, all pairings along the isotropic direction
        rhs = 1j * (-1j * TAU) * sys.numerator(w, pt).value
        assert abs(lhs - rhs) < 1e-10

    def test_supercharacter_modular_invariance(self):
        w = WeightSpec(1, (0,))
        pt = ModularPoint(TAU, (0.23, 0.41), 0.06)
        sys = system("osp32")
        base = ch_tilde("osp32", w, pt).value
        zz = sys.quad(pt.z, pt.z)
        ptS = ModularPoint(-1 / TAU, tuple(x / TAU for x in pt.z), pt.t - zz / (2 * TAU))
        assert abs(ch_tilde("osp32", w, ptS).value - base) < 1e-9
        ptT = ModularPoint(TAU + 1, pt.z, pt.t)
        assert abs(ch_tilde("osp32", w, ptT).value - base) < 1e-10
        # labels along the isotropic direction leave the class unchanged
        other = ch_tilde("osp32", WeightSpec(1, (1,)), pt).value
        assert abs(other - base) < 1e-10

    def test_weyl_symmetrization(self):
        sys = system("osp32")
        w = WeightSpec(1, (0,))
        pt = ModularPoint(TAU, (0.23, 0.41), 0.06)
        swapped = ModularPoint(TAU, (0.41, 0.23), 0.06)
        a = sys.numerator(w, pt).value
        b = sys.numerator(w, swapped).value
        assert abs(a - b) < 1e-12  # eps^- of the reflection is +1


class TestDegrees:
    def test_t_degree_declarations(self):
        import cmath
        import math as _m

        t = 0.17
        for case, w, k, zs in (
            ("sl21", WeightSpec(1, (0,)), 1.0, (0.23, 0.41)),
            ("d21a", WeightSpec(F(-1, 2), (0, 1)), -0.5, (0.21, 0.17, 0.33)),
        ):
            base = ch_tilde(case, w, ModularPoint(TAU, zs, 0.0)).value
            shifted = ch_tilde(case, w, ModularPoint(TAU, zs, t)).value
            assert abs(shifted - cmath.exp(2j * _m.pi * k * t) * base) < 1e-10

    def test_level1_degree_one(self):
        import cmath
        import math as _m

        f = level1_osp_supercharacter(3, 2, "twisted")
        a = f(ModularPoint(TAU, (0.21, 0.37), 0.0)).value
        b = f(ModularPoint(TAU, (0.21, 0.37), 0.29)).value
        assert abs(b - cmath.exp(2j * _m.pi * 0.29) * a) < 1e-12


class TestErrBoundHonesty:
    def test_bounds_cover_the_reference(self):
        # Phi~ against its 40-digit mpmath sum (bench/refs.py), which
        # shares no code with the evaluators
        for tau, z1, z2 in (((0.13 + 0.92j), 0.23, 0.41), ((0.4 + 1.7j), -0.31, 0.12)):
            got = phi_tilde(MockIndex(1, 0), tau, z1, z2)
            want = refs.rank1_index(tau, z1, z2, 1, 0, "unsigned")[4]
            assert abs(got.value - want) <= got.err_bound + 1e-14


class TestQuotientBounds:
    """A quotient's err_bound carries its divisor's: at least
    |value| * den.err_bound / |den.value|."""

    @staticmethod
    def _covers(val, den):
        assert val.err_bound >= abs(val.value) * den.err_bound / abs(den.value)

    def test_supercharacters(self):
        rows = (
            ("sl21", None, WeightSpec(1, (0,))),
            ("osp32", None, WeightSpec(1, (1,))),
            ("osp42", None, WeightSpec(1, (F(1, 2), F(1, 2)))),
            ("d21a", (1, 1), WeightSpec(F(-1, 2), (0, 1))),
            ("d21a", (1, 1), WeightSpec(F(-1, 2), (0, 0))),
            ("d21a", (1, 2), WeightSpec(F(-2, 3), (0, 1))),
        )
        for case, params, w in rows:
            sys = system(case, params)
            for pt in sample_points(6, n_z=sys.n_z, seed=20240):
                self._covers(ch_tilde(case, w, pt, params=params), sys.denominator(-1, pt))

    def test_subprincipal_functions(self):
        sub = system("osp32_sub")
        ab = {1: (1, 1), 2: (1, 0), 3: (0, 1), 4: (0, 0)}
        for pt in sample_points(6, n_z=2, seed=20240):
            den = sub.denominator(-1, pt)
            z1, z2 = pt.z
            for i in (1, 2, 3, 4):
                self._covers(sub.f_function(i, F(-3, 4), pt), den)
                a, b = ab[i]
                closed_den = theta_ab(a, b, pt.tau, z1 / 2) * theta_ab(a, b, pt.tau, z2 / 2)
                self._covers(sub.f_closed_quotient(i, pt), closed_den)

    def test_level1(self):
        ab = {"sum01": (0, 0), "diff01": (0, 1), "twisted": (1, 0), "diff_top": (1, 1)}
        for M, N in ((3, 2), (4, 2)):
            m = M // 2
            for combo in ("sum01", "diff01", "twisted") + (() if M % 2 else ("diff_top",)):
                f = level1_osp_supercharacter(M, N, combo)
                for pt in sample_points(6, n_z=m + N // 2, seed=20240):
                    val = f(pt)
                    for y in pt.z[m:]:
                        self._covers(val, theta_ab(*ab[combo], pt.tau, y))


def test_unmodified_variant_gated():
    pt = ModularPoint(TAU, (0.21, 0.17, 0.33), 0.0)
    with pytest.raises(UnsupportedCase):
        ch_tilde("d21a", WeightSpec(F(-1, 2), (0, 1)), pt, variant="ch_minus")


# case -> (a weight of the case, the ch_tilde variants it wires)
_MODIFIED = {"ch_minus_modified", "numerator_only", "denominator_only"}
CASE_TABLE = {
    "sl21": (WeightSpec(1, (0,)), set(VARIANTS)),
    "osp32": (WeightSpec(1, (0,)), _MODIFIED),
    "osp32_sub": (WeightSpec(F(-3, 4), (0,)), {"denominator_only"}),
    "osp42": (WeightSpec(1, (F(1, 2), F(1, 2))), _MODIFIED),
    "d21a": (WeightSpec(F(-1, 2), (0, 1)), _MODIFIED),
}


def test_case_table_lists_every_wired_case():
    from mocktheta.characters import _CASES

    assert sorted(_CASES) == sorted(CASE_TABLE)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", sorted(CASE_TABLE))
def test_case_table_agrees_with_ch_tilde_and_chartable(case, variant, capsys):
    """A wired pair gives a finite value, equal to chartable's row at the
    same seeded point; an unwired one raises UnsupportedCase, and chartable
    exits 2 with no row."""
    w, wired = CASE_TABLE[case]
    wired = variant in wired
    sys = system(case)
    assert (variant in sys.VARIANTS) == wired
    pt = sample_points(1, n_z=sys.n_z, seed=20240)[0]
    args = ["chartable", "--case", case, f"--k={w.k}", "--variant", variant,
            "--labels", ",".join(map(str, w.labels)), "--points", "1",
            "--output", "json"]
    if wired:
        val = ch_tilde(case, w, pt, variant=variant)
        assert isinstance(val, SeriesValue) and cmath.isfinite(val.value)
        assert main(args) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert complex(row["re"], row["im"]) == val.value
    else:
        with pytest.raises(UnsupportedCase):
            ch_tilde(case, w, pt, variant=variant)
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


# (case, params) -> the parent's literal (n_z, sdim, eta_power, i_power_minus,
# i_power_plus, h_dual), now derived from the roots and the preset
CONSTANTS = {
    ("sl21", None): (2, 0, 3, -1, 1, 1),
    ("osp32", None): (2, 0, 3, -1, 2, F(1, 2)),
    ("osp32_sub", None): (2, 0, 3, -1, 2, F(1, 2)),
    ("osp42", None): (3, 1, 4, -1, 3, 0),
    ("d21a", None): (3, 1, 4, -1, 3, 0),
    ("d21a", (1, 2)): (3, 1, 4, -1, 3, 0),
}
# case -> (gamma Gram, isotropic count, mode) of its lattice numerators
CONTEXTS = {
    "sl21": (((2,),), 1, "unsigned"),
    "osp32": (((2,),), 1, "minus"),
    "osp42": (((2, 2), (2, 4)), 1, "unsigned"),
}


def test_constants_cover_every_wired_case():
    from mocktheta.characters import _CASES

    assert sorted({case for case, _ in CONSTANTS}) == sorted(_CASES)


@pytest.mark.parametrize("case,params", sorted(CONSTANTS, key=str))
def test_derived_constants_equal_the_literals(case, params):
    sys = system(case, params)
    got = (sys.n_z, sys.sdim, sys.eta_power, sys.i_power_minus, sys.i_power_plus, sys.h_dual)
    assert got == CONSTANTS[case, params]
    if case in CONTEXTS:
        gram, n_iso, mode = CONTEXTS[case]
        for k in (1, 2):
            ctx = sys.context(k)
            assert (ctx.gamma_gram, ctx.n_isotropic, ctx.mode) == (gram, n_iso, mode)
            assert ctx.k == k + sys.h_dual
    if case == "d21a":
        a = sys.a
        literal = [[0, a, -(a + 1)], [a, 0, 1], [-(a + 1), 1, 0]]
        assert sys.frame_gram.tolist() == [[float(x) for x in row] for row in literal]


@pytest.mark.parametrize("case,params", [
    ("sl21", (1,)), ("osp32", (1,)), ("osp32_sub", (0,)), ("osp42", (1, 2)), ("d21a", (1, 2, 3)),
    ("sl21", (2, 1)),
])
def test_parameters_a_case_does_not_take_are_refused(case, params):
    with pytest.raises(UnsupportedCase, match="does not take the parameters"):
        system(case, params)


@pytest.mark.parametrize("case,params", [
    ("sl21", (1, 1)), ("osp32", (1, 1)), ("osp32_sub", ()), ("osp42", (1,)), ("d21a", (1, 1)),
])
def test_a_case_takes_its_own_parameters(case, params):
    """Every system is built through preset(name, params): a case's own
    parameters give the preset that no parameters give."""
    assert system(case, params).pre == system(case).pre


def test_a_passing_level_is_checked_once(monkeypatch):
    from mocktheta import characters

    sys = system("osp42")
    sys.check_level(F(5))
    monkeypatch.setattr(characters, "validate_context", None)  # a rerun would raise
    sys.check_level(F(5))
    with pytest.raises(TypeError):
        sys.check_level(F(6))


@pytest.mark.parametrize("case,w", [
    ("osp42", WeightSpec(F(3, 2), (0, 0))),
    ("osp42", WeightSpec(F(3, 2), (0, 0), side="Tp")),
    ("sl21", WeightSpec(-1, (0,))),
    ("sl21", WeightSpec(F(1, 2), (0,))),
    ("osp32", WeightSpec(F(-1, 2), (0,))),
    ("osp32", WeightSpec(F(1, 4), (0,))),
])
def test_off_rule_level_is_refused_before_any_series(case, w, monkeypatch):
    from mocktheta import characters, lattice

    def series(*args, **kwargs):
        raise AssertionError("a series ran")

    for module, name in ((characters, "phi_tilde"), (characters, "theta_jm"),
                         (characters, "eta"), (lattice, "phi_tilde"),
                         (lattice, "lattice_theta")):
        monkeypatch.setattr(module, name, series)
    sys = system(case)
    pt = sample_points(1, n_z=sys.n_z, seed=20240)[0]
    for variant in sys.VARIANTS:
        with pytest.raises(UnsupportedCase, match="takes no level"):
            ch_tilde(case, w, pt, variant=variant)
    # called directly, a lattice numerator's own context check refuses it
    with pytest.raises(MockThetaError):
        sys.numerator(w, pt)


@pytest.mark.parametrize("case", sorted(CASE_TABLE))
def test_numerator_refuses_what_it_does_not_wire(case):
    """A case that wires no numerator_only variant refuses every numerator
    call; sl21, the one case with the unmodified variant, takes the flags
    and reaches plus only unmodified; the others take no flags."""
    w, wired = CASE_TABLE[case]
    sys = system(case)
    pt = sample_points(1, n_z=sys.n_z, seed=20240)[0]
    if "numerator_only" not in wired:
        with pytest.raises(UnsupportedCase, match="wires no numerator"):
            sys.numerator(w, pt)
        return
    if "ch_minus" in wired:
        with pytest.raises(UnsupportedCase, match="wired only unmodified"):
            sys.numerator(w, pt, plus=True)
        plus = sys.numerator(w, pt, modified=False, plus=True).value
        assert cmath.isfinite(plus)
    else:
        for flags in ({"modified": False}, {"plus": True}, {"modified": False, "plus": True}):
            with pytest.raises(TypeError):
                sys.numerator(w, pt, **flags)
