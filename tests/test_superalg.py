import dataclasses
import itertools
import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from mocktheta.errors import MockThetaError, UnsupportedCase
from mocktheta.superalg import (
    WeightSpec,
    d21a_level,
    d21a_nu_range,
    enumerate_omega,
    integrable,
    preset,
    weyl_sharp_orbit,
)

ALL_PRESETS = [
    ("sl", (1, 1)),
    ("sl", (2, 1)),
    ("sl", (3, 2)),
    ("osp_even_low", (1, 2)),
    ("osp_odd_low", (1, 2)),
    ("osp_odd_low", (2, 2)),
    ("osp_odd_high", (2, 1)),
    ("osp_odd_high", (3, 1)),
    ("osp_even_high", (4, 1)),
    ("osp_h0", (1,)),
    ("osp_h0", (2,)),
    ("d21a", (1, 1)),
    ("d21a", (1, 2)),
    ("f4", ()),
    ("g3", ()),
    ("osp32_sub", ()),
]


class TestPresets:
    @pytest.mark.parametrize("name,params", ALL_PRESETS)
    def test_rho_normalization(self, name, params):
        # 2(rho|alpha_i) = (alpha_i|alpha_i) on every simple root
        p = preset(name, params)
        for root, _ in p.simple_roots:
            assert 2 * p.pair(p.rho, root) == p.norm2(root), root

    @pytest.mark.parametrize("name,params", ALL_PRESETS)
    def test_dual_coxeter_matches_orthogonal_subalgebra(self, name, params):
        # h_dual is the dual Coxeter number of g_shriek, read off its name:
        # sl(N) -> N, so(N) -> N - 2, sp(2r) -> r + 1, osp(1|2r) -> r + 1/2
        p = preset(name, params)
        if p.g_shriek == "0":
            return
        kind, size = p.g_shriek.rstrip(")").split("(")
        if kind == "osp":
            want = F(int(size.split("|")[1]), 2) + F(1, 2)
        else:
            n = int(size)
            want = {"sl": n, "so": n - 2, "sp": n // 2 + 1}[kind]
        assert p.h_dual == want

    def test_table_values(self):
        assert preset("sl21").h_dual == 1 and preset("sl21").defect == 1
        assert preset("osp32").h_dual == F(1, 2)
        assert preset("d21a").h_dual == 0
        assert preset("f4").h_dual == 3 and preset("f4").g_shriek == "sl(3)"
        assert preset("g3").h_dual == 2 and preset("g3").g_shriek == "sl(2)"
        assert preset("osp_even_high", (4, 1)).g_shriek == "so(6)"

    def test_normalization_long_root(self):
        # longest even root in the distinguished part has square length 2
        p = preset("sl", (2, 1))
        gens = [root for root, _ in p.weyl_gens]
        assert max(p.norm2(r) for r in gens) == 2

    def test_unknown_case(self):
        with pytest.raises(UnsupportedCase):
            preset("e8")

    @pytest.mark.parametrize("name,params", [
        ("sl", (2,)), ("sl", (1, 1, 1)), ("sl", None), ("d21a", (1,)), ("f4", (1,)), ("osp_h0", ()),
    ])
    def test_wrong_parameter_count_is_refused(self, name, params):
        with pytest.raises(UnsupportedCase, match="does not take the parameters"):
            preset(name, params)

    def test_alias_takes_its_own_parameters(self):
        assert preset("sl21", (1, 1)) == preset("sl21") == preset("sl", (1, 1))
        assert preset("osp42", [1]) == preset("osp42")

    @pytest.mark.parametrize("name,params", [("sl21", (2, 1)), ("osp42", (2,)), ("sl21", ())])
    def test_alias_refuses_other_parameters(self, name, params):
        with pytest.raises(UnsupportedCase, match=f"case {name} does not take the parameters"):
            preset(name, params)

    def test_family_alias_passes_other_parameters_to_its_family(self):
        pre = preset("d21a", (1, 2))
        assert (pre.family, pre.params) == ("d21a", (1, 2)) and pre != preset("d21a")

    @pytest.mark.parametrize("p,q", [(0, 2), (2, 0), (-1, 1), (1, -1), (-1, -2)])
    def test_d21a_level_refuses_nonpositive_parameters(self, p, q):
        with pytest.raises(UnsupportedCase, match="needs positive p, q"):
            d21a_level(p, q, -1)

    def test_isotropy_of_t(self):
        for name, params in ALL_PRESETS:
            p = preset(name, params)
            for b1 in p.isotropic_t:
                for b2 in p.isotropic_t:
                    assert p.pair(b1, b2) == 0

    def test_gamma_beta_pairings(self):
        for name, params in ALL_PRESETS:
            if name == "osp32_sub":
                # the subprincipal lattice is negative definite and its
                # characters bypass the lattice-modification normalization
                continue
            p = preset(name, params)
            for i, g in enumerate(p.gamma_basis):
                for j, b in enumerate(p.isotropic_t):
                    want = F(-1) if i == j else F(0)
                    assert p.pair(g, b) == want, (p.name, i, j)


class TestWeylOrbits:
    @pytest.mark.parametrize(
        "name,order",
        [("sl21", 2), ("sl32", 6), ("osp32", 2), ("osp32_sub", 2), ("osp42", 4),
         ("d21a", 4), ("f4", 48), ("g3", 12)],
    )
    def test_group_order(self, name, order):
        els = weyl_sharp_orbit(preset(name))
        assert len(els) == order

    def test_identity_signs(self):
        els = weyl_sharp_orbit(preset("sl21"))
        ident = [e for e in els if not e.word]
        assert ident[0].eps_plus == 1 and ident[0].eps_minus == 1

    def test_osp32_principal_reflection_sign(self):
        # reflection in the doubled short root has eps^- = +1 because its
        # half is a root
        els = weyl_sharp_orbit(preset("osp32"))
        refl = [e for e in els if e.word]
        assert refl[0].eps_plus == -1 and refl[0].eps_minus == 1


class TestPositiveRoots:
    @pytest.mark.parametrize("name,params,dims", [
        ("sl21", None, (4, 4)), ("osp32", None, (6, 6)), ("osp32_sub", None, (6, 6)),
        ("osp42", None, (9, 8)), ("d21a", None, (9, 8)), ("d21a", (1, 2), (9, 8)),
        ("sl", (2, 1), (9, 6)), ("sl", (3, 2), (19, 16)), ("osp_odd_low", (1, 2), (13, 12)),
        ("osp_odd_low", (2, 2), (20, 20)), ("osp_h0", (2,), (25, 24)),
        ("osp_even_low", (1, 2), (11, 8)), ("osp_even_low", (2, 3), (27, 24)),
        ("osp_odd_high", (2, 1), (13, 10)), ("osp_odd_high", (3, 1), (24, 14)),
        ("osp_even_high", (4, 1), (31, 16)), ("osp_even_high", (6, 2), (76, 48)),
    ])
    def test_positive_roots_lie_on_the_simple_roots_and_fill_g(self, name, params, dims):
        # each positive root is a non-negative integer combination of the
        # simple roots, and dim g0 / dim g1 = rank + 2 #even / 2 #odd
        from mocktheta.lattice import _eliminate

        pre = preset(name, params)
        simple = [v for v, _ in pre.simple_roots]
        gram = [[pre.pair(u, v) for v in simple] for u in simple]
        _, coeffs = _eliminate(gram, [[pre.pair(u, root) for u in simple]
                                      for root, _ in pre.pos_roots])
        for (root, _), c in zip(pre.pos_roots, coeffs):
            assert all(x.denominator == 1 and x >= 0 for x in c), root
            assert tuple(sum(x * v[r] for x, v in zip(c, simple))
                         for r in range(len(root))) == root
        assert len(set(root for root, _ in pre.pos_roots)) == len(pre.pos_roots)
        assert set(pre.simple_roots) <= set(pre.pos_roots)
        odd = sum(parity for _, parity in pre.pos_roots)
        even = len(pre.pos_roots) - odd
        assert (len(simple) + 2 * even, 2 * odd) == dims

    @pytest.mark.parametrize("name,params", ALL_PRESETS)
    def test_simple_roots_are_independent_and_fill_the_rank(self, name, params):
        # one simple root per ambient coordinate, one fewer for sl, whose
        # ambient space also holds the radical of the form; independent
        # exactly when their Euclidean Gram matrix is invertible
        from mocktheta.lattice import _eliminate

        pre = preset(name, params)
        simple = [v for v, _ in pre.simple_roots]
        assert len(simple) == len(pre.gram) - (name == "sl")
        det, _ = _eliminate([[sum(a * b for a, b in zip(u, v)) for v in simple] for u in simple])
        assert det != 0


class TestIntegrable:
    def test_spec_examples(self):
        assert integrable(preset("sl21"), WeightSpec(2, (1,)))
        assert integrable(preset("osp32_sub"), WeightSpec(F(-3, 4), (1,)))
        assert integrable(preset("d21a"), WeightSpec(F(-1, 2), (0, 1)))

    def test_enumerated_weights_are_integrable(self):
        for name, params, k in (
            ("sl", (2, 1), 2),
            ("osp_even_low", (1, 2), 2),
            ("osp_odd_high", (2, 1), 2),
            ("f4", (), 2),
            ("g3", (), 2),
        ):
            p = preset(name, params)
            om = enumerate_omega(p, k)
            assert om, p.name
            assert all(integrable(p, w) for w in om)

    def test_random_non_members_fail(self, rng):
        p = preset("sl", (2, 1))
        om = {w.labels for w in enumerate_omega(p, 2)}
        for _ in range(30):
            labels = tuple(F(int(x)) for x in rng.randint(-3, 6, size=2))
            w = WeightSpec(2, labels)
            assert integrable(p, w) == (labels in om)


def _hand_sl(k, ks):
    if k.denominator != 1 or k <= 0:
        return False
    if any(x.denominator != 1 or x < 0 for x in ks):
        return False
    chain = [k] + list(ks)
    return all(a >= b for a, b in zip(chain, chain[1:]))


def _hand_osp_even_low(k, ks):
    return _hand_sl(k, list(reversed(ks)))


def _hand_osp_odd_high(k, ks):
    if k.denominator != 1 or k <= 0:
        return False
    k1 = ks[0]
    if (2 * k1).denominator != 1 or k1 < 0:
        return False
    if any((x - k1).denominator != 1 or x < k1 for x in ks[1:]):
        return False
    if list(ks) != sorted(ks):
        return False
    return k >= ks[-1] + ks[-2]


def _hand_osp_even_high(k, ks):
    if k.denominator != 1 or k <= 0:
        return False
    k1, rest = ks[0], list(ks[1:])
    if (2 * k1).denominator != 1:
        return False
    if any((x - k1).denominator != 1 for x in rest):
        return False
    if rest != sorted(rest):
        return False
    if rest and rest[0] < abs(k1):
        return False
    second = rest[-2] if len(rest) >= 2 else abs(k1)
    if k < rest[-1] + second:
        return False
    if rest and rest[0] == -k1 and k1 != 0:
        return False
    return True


def _hand_osp_h0(k, ks):
    if k.denominator != 1 or k <= 0:
        return False
    *head, last = ks
    if (2 * last).denominator != 1:
        return False
    if any((x - last).denominator != 1 or x < 0 for x in head):
        return False
    if head != sorted(head, reverse=True):
        return False
    if head and head[-1] < abs(last):
        return False
    second = head[1] if len(head) >= 2 else last
    if k < head[0] + second:
        return False
    if k == head[0] + second and head[0] != second:
        return False
    return True


def _hand_f4(k, ks):
    k1, k2, k3 = ks
    vals = (k - k2 - k3, k2 - k1, k1 + k2 - k3, k1 - 2 * k2 + 2 * k3)
    return all(v.denominator == 1 and v >= 0 for v in vals)


def _hand_g3(k, ks):
    k1, k2 = ks
    vals = (k - 2 * k2, 2 * k1, 2 * k2, k2 - k1)
    return all(v.denominator == 1 and v >= 0 for v in vals)


def _hand_osp32_sub(k, ks):
    (m,) = ks
    if (4 * k).denominator != 1 or m.denominator != 1:
        return False
    if k == F(-1, 2) and m == 1:
        return True
    return k <= F(-1, 2) and 0 <= m <= -(4 * k + 2)


def _hand_d21a(p, q, k, ks, side):
    n = -k * (p + q) / (p * q)
    if n.denominator != 1:
        return False
    k1, k2 = ks
    if side != "T":
        k1, k2 = k1 - q * n, (p + q) * n - k2
    a = F(-p, p + q)
    m0 = (-p * q * n + p * k2 + (p + q) * k1) / (p + q)
    m1 = F(0)
    m2 = -p * (k1 + k2) / (p + q)
    m3 = -q * k1 / (p + q)
    if side != "T":
        m0, m1, m2, m3 = m1, m0, m3, m2
    vals = ((m1 + m2) / a, (m0 + m3) / a, -(m1 + m3) / (a + 1), -(m0 + m2) / (a + 1))
    if not all(v.denominator == 1 and v >= 0 for v in vals):
        return False
    for mi in (m0, m1):
        for mj in (m2, m3):
            if mi + mj == 0 and not (mi == 0 and mj == 0):
                return False
    return True


class TestExhaustiveBoxes:
    """Predicates against independently transcribed inequality systems.

    Every label vector with at most four labels on a half-integer grid,
    levels up to three.
    """

    def _box(self, rank, half=True, lo=-2, hi=4):
        step = F(1, 2) if half else F(1)
        vals = [lo + step * i for i in range(int((hi - lo) / step) + 1)]
        return itertools.product(vals, repeat=rank)

    def test_sl_box(self):
        for m, n in ((1, 1), (2, 1), (3, 2)):
            p = preset("sl", (m, n))
            for k in (1, 2, 3):
                for ks in self._box(m, half=True, lo=-1, hi=3):
                    w = WeightSpec(k, ks)
                    assert integrable(p, w) == _hand_sl(F(k), list(map(F, ks)))

    def test_osp_even_low_box(self):
        p = preset("osp_even_low", (1, 2))
        for k in (1, 2, 3):
            for ks in self._box(2, half=True, lo=-1, hi=3):
                w = WeightSpec(k, ks)
                assert integrable(p, w) == _hand_osp_even_low(F(k), list(map(F, ks)))

    def test_osp_odd_low_box(self):
        p = preset("osp_odd_low", (1, 2))
        for k in (1, 2):
            for ks in self._box(2, half=True, lo=-1, hi=3):
                w = WeightSpec(k, ks)
                assert integrable(p, w) == _hand_sl(F(k), list(map(F, ks)))

    def test_osp_odd_high_box(self):
        for m, n in ((2, 1), (3, 1)):
            p = preset("osp_odd_high", (m, n))
            for k in (1, 2, 3):
                for ks in self._box(m, half=True, lo=-1, hi=3):
                    w = WeightSpec(k, ks)
                    assert integrable(p, w) == _hand_osp_odd_high(F(k), list(map(F, ks)))

    def test_osp_even_high_box(self):
        p = preset("osp_even_high", (4, 1))
        for k in (2, 3):
            for ks in self._box(4, half=False, lo=-2, hi=3):
                w = WeightSpec(k, ks)
                assert integrable(p, w) == _hand_osp_even_high(F(k), list(map(F, ks)))

    def test_osp_even_high_box_half(self):
        p = preset("osp_even_high", (4, 1))
        for ks in self._box(4, half=True, lo=F(-3, 2), hi=F(5, 2)):
            w = WeightSpec(3, ks)
            assert integrable(p, w) == _hand_osp_even_high(F(3), list(map(F, ks)))

    def test_osp_h0_box(self):
        for n in (1, 2):
            p = preset("osp_h0", (n,))
            for k in (1, 2, 3):
                for ks in self._box(n + 1, half=True, lo=-2, hi=3):
                    w = WeightSpec(k, ks)
                    assert integrable(p, w) == _hand_osp_h0(F(k), list(map(F, ks)))

    def test_f4_box(self):
        p = preset("f4")
        for k in (1, 2, 3):
            for ks in self._box(3, half=False, lo=-1, hi=3):
                thirds = tuple(F(x, 3) for x in range(-3, 10))
            for ks in itertools.product(
                [F(x, 3) for x in range(-3, 10)], repeat=3
            ):
                w = WeightSpec(k, ks)
                assert integrable(p, w) == _hand_f4(F(k), list(ks))

    def test_g3_box(self):
        p = preset("g3")
        for k in (1, 2, 3):
            for ks in self._box(2, half=True, lo=-1, hi=3):
                w = WeightSpec(k, ks)
                assert integrable(p, w) == _hand_g3(F(k), list(map(F, ks)))

    def test_osp32_sub_box(self):
        p = preset("osp32_sub")
        for k4 in range(-14, 0):
            k = F(k4, 4)
            for m in self._box(1, half=True, lo=-2, hi=5):
                w = WeightSpec(k, m)
                assert integrable(p, w) == _hand_osp32_sub(k, list(map(F, m)))

    def test_d21a_box(self):
        for (p_, q_) in ((1, 1), (1, 2)):
            pre = preset("d21a", (p_, q_))
            for n in (1, 2):
                k = F(-p_ * q_ * n, p_ + q_)
                for side in ("T", "Tp"):
                    for ks in self._box(2, half=False, lo=-4, hi=6):
                        w = WeightSpec(k, ks, side=side)
                        assert integrable(pre, w) == _hand_d21a(
                            p_, q_, k, ks, side
                        ), (p_, q_, n, side, ks)


class TestEnumerations:
    def test_sl21_levels(self):
        p = preset("sl21")
        assert [w.labels for w in enumerate_omega(p, 1)] == [(0,), (1,)]
        assert len(enumerate_omega(p, 2)) == 3

    def test_d21a_cor65(self):
        om = enumerate_omega(preset("d21a"), F(-1, 2))
        t_side = {tuple(map(int, w.labels)) for w in om if w.side == "T"}
        tp_side = {tuple(map(int, w.labels)) for w in om if w.side != "T"}
        assert t_side == {(0, 0), (0, 1), (1, -1)}
        assert tp_side == {(1, 1), (1, 2), (2, 3)}

    @pytest.mark.parametrize(
        "p,q", [(p, q) for p in (1, 2, 3) for q in (1, 2, 3) if math.gcd(p, q) == 1]
    )
    def test_d21a_box_loses_no_weight(self, p, q):
        # the box read off c1..c4 >= 0 keeps every weight of the square
        # box of side 2 (3 (p+q) n + 3) + 1 on both sides
        pre = preset("d21a", (p, q))
        for n in (1, 2, 3):
            k = F(-p * q * n, p + q)
            span = 3 * (p + q) * n + 3
            square = [
                WeightSpec(k, labels, side=side)
                for side in ("T", "Tp")
                for labels in itertools.product(range(-span, span + 1), repeat=2)
            ]
            kept = sorted(
                (w for w in square if integrable(pre, w)),
                key=lambda w: (w.side, w.labels),
            )
            assert enumerate_omega(pre, k) == kept, (p, q, n)

    def test_d21a_takes_two_labels(self):
        with pytest.raises(ValueError):
            integrable(preset("d21a"), WeightSpec(F(-1, 2), (0, 0, 0, 0)))

    def test_d21a_nu_range(self):
        assert d21a_nu_range(1, 1, 1) == [-2, -1, 0, 1]

    def test_osp32_sub_classes(self):
        om = enumerate_omega(preset("osp32_sub"), F(-3, 4))
        assert {(w.side, int(w.labels[0])) for w in om} == {
            ("T", 0), ("T", 1), ("Tp", 0), ("Tp", 1)
        }

    def test_f4_g3_finite(self):
        assert len(enumerate_omega(preset("f4"), 1)) > 0
        assert len(enumerate_omega(preset("g3"), 1)) > 0


# ---------------------------------------------------------------------------
# pinned enumerations and preset exports
#
#     PYTHONPATH=src python tests/test_superalg.py --write   # re-pin
#
# Re-pin only when a change is meant to move an Omega list or a preset's
# export or positive roots.

PINS = Path(__file__).with_name("data") / "superalg.json"
ALIASES = ("sl21", "sl32", "osp32", "osp32_sub", "osp42", "d21a", "f4", "g3")


def _levels(name, params):
    """Levels with a finite Omega (at least two per family), then one
    level that each family's enumeration refuses."""
    if name == "d21a":
        p, q = params
        return [F(-p * q * n, p + q) for n in (1, 2)], F(1)
    if name == "osp32_sub":
        return [F(-1, 2), F(-3, 4), F(-5, 4)], F(1)
    return [F(1), F(2)], F(1, 2)


def _pin_key(name, params, k):
    return f"{name}{tuple(params)}@{k}"


def _omega_rows(pre, k):
    return [[w.side, [str(x) for x in w.labels]] for w in enumerate_omega(pre, k)]


def pinned_values():
    omega, errors = {}, {}
    for name, params in ALL_PRESETS:
        pre = preset(name, params)
        good, bad = _levels(name, params)
        for k in good:
            omega[_pin_key(name, params, k)] = _omega_rows(pre, k)
        try:
            enumerate_omega(pre, bad)
        except MockThetaError as exc:
            errors[_pin_key(name, params, bad)] = f"{type(exc).__name__}: {exc}"
    presets = {alias: preset(alias).to_json() for alias in ALIASES}
    return {"omega": omega, "errors": errors, "preset_json": presets}


PRESET_PINS = Path(__file__).with_name("data") / "presets.json"


def _preset_data(pre):
    return {"to_json": pre.to_json(),
            "pos_roots": [" ".join([*map(str, root), ("even", "odd")[parity]])
                          for root, parity in pre.pos_roots]}


def pinned_presets():
    """The export and positive roots of every ``ALL_PRESETS`` entry."""
    return {f"{name}{tuple(params)}": _preset_data(preset(name, params))
            for name, params in ALL_PRESETS}


class TestPinned:
    """Omega lists, level errors and preset exports against
    ``tests/data/superalg.json``."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(PINS.read_text())

    @pytest.mark.parametrize("name,params", ALL_PRESETS)
    def test_omega_lists(self, pinned, name, params):
        pre = preset(name, params)
        good, bad = _levels(name, params)
        for k in good:
            assert _omega_rows(pre, k) == pinned["omega"][_pin_key(name, params, k)]
        with pytest.raises(MockThetaError) as err:
            enumerate_omega(pre, bad)
        got = f"{type(err.value).__name__}: {err.value}"
        assert got == pinned["errors"][_pin_key(name, params, bad)]

    @pytest.mark.parametrize("alias", ALIASES)
    def test_preset_json(self, pinned, alias):
        assert preset(alias).to_json() == pinned["preset_json"][alias]

    @pytest.mark.parametrize("name,params", ALL_PRESETS)
    def test_preset_data(self, name, params):
        pinned = json.loads(PRESET_PINS.read_text())
        assert _preset_data(preset(name, params)) == pinned[f"{name}{tuple(params)}"]


def _label_box(omega):
    """Every label vector on the finest grid of ``omega``'s labels (and
    at least the half-integers), from one step below its smallest label
    to one step above its largest."""
    labels = [x for w in omega for x in w.labels]
    step = F(1, math.lcm(2, *(x.denominator for x in labels)))
    lo, hi = min(labels) - step, max(labels) + step
    axis = [lo + step * i for i in range(int((hi - lo) / step) + 1)]
    return itertools.product(axis, repeat=len(omega[0].labels))


# osp(2n+2|2n): the predicate accepts weights with half-integer first
# labels that the Omega candidates (integers there) never propose, and at
# n = 1 it accepts (a, -a) for every half-integer a >= 0 at every level
_OMEGA_MISSES_WEIGHTS = pytest.mark.xfail(
    strict=True, reason="osp_h0 predicate accepts weights its Omega omits"
)


@pytest.mark.parametrize(
    "name,params",
    [
        pytest.param(name, params, marks=_OMEGA_MISSES_WEIGHTS)
        if name == "osp_h0"
        else (name, params)
        for name, params in ALL_PRESETS
    ],
)
def test_integrable_agrees_with_omega(name, params):
    # D(2,1;a) at k = 0 has the form -pqn/(p+q), but with n = 0, not positive
    pre = preset(name, params)
    good, refused = _levels(name, params)
    if name == "d21a":
        refused = F(0)
    with pytest.raises(MockThetaError):
        enumerate_omega(pre, refused)
    refused_levels = [refused]
    try:
        enumerate_omega(pre, F(0))
    except MockThetaError:
        refused_levels.append(F(0))
    for k in good:
        omega = enumerate_omega(pre, k)
        box = list(_label_box(omega))
        sides = sorted({w.side for w in omega} | {"T"})
        accepted = {
            (side, labels)
            for side in sides
            for labels in box
            if integrable(pre, WeightSpec(k, labels, side=side))
        }
        assert accepted == {(w.side, w.labels) for w in omega}, k
        for level in refused_levels:
            assert not any(
                integrable(pre, WeightSpec(level, labels, side=side))
                for side in sides
                for labels in box
            ), level


@pytest.mark.parametrize("name,params", ALL_PRESETS)
def test_answers_do_not_depend_on_the_display_name(name, params):
    pre = preset(name, params)
    renamed = dataclasses.replace(pre, name="renamed")
    for k in _levels(name, params)[0]:
        om = enumerate_omega(pre, k)
        assert enumerate_omega(renamed, k) == om
        assert all(integrable(renamed, w) for w in om)
        for w in om:
            off = WeightSpec(k, (w.labels[0] + F(1, 3),) + w.labels[1:], side=w.side)
            assert integrable(renamed, off) == integrable(pre, off)


if __name__ == "__main__":
    if "--write" in sys.argv[1:]:
        PINS.write_text(json.dumps(pinned_values(), indent=1, sort_keys=True) + "\n")
        PRESET_PINS.write_text(json.dumps(pinned_presets(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {PINS} and {PRESET_PINS}")
