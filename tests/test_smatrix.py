import cmath
from fractions import Fraction as F

import numpy as np
import pytest

from mocktheta.core import ModularPoint
from mocktheta.errors import UnsupportedCase
from mocktheta.smatrix import apply_smatrix_check, apply_tmatrix_check, smatrix

TAU = 0.13 + 0.92j


class TestBuilders:
    def test_d21a_unitary(self):
        sm = smatrix("d21a", F(-1, 2), (1, 1))
        assert len(sm.labels) == 4
        assert sm.unitarity_defect() < 1e-12
        assert sm.conjectural

    def test_d21a_entries(self):
        sm = smatrix("d21a", F(-1, 2), (1, 1))
        # (1/sqrt(4)) exp(-pi i nu nu' / 2) over nu in the strict window
        i = sm.labels.index("nu=1")
        j = sm.labels.index("nu=-1")
        want = 0.5 * cmath.exp(1j * cmath.pi / 2)
        assert abs(sm.entries[i][j] - want) < 1e-14

    def test_osp42_unitary(self):
        sm = smatrix("osp42", 1)
        assert len(sm.labels) == 4
        assert sm.unitarity_defect() < 1e-12

    def test_osp42_requires_integer_level(self):
        with pytest.raises(UnsupportedCase):
            smatrix("osp42", F(1, 2))

    def test_osp32_sub_structure(self):
        sm = smatrix("osp32_sub", F(-3, 4))
        S = np.array(sm.entries)
        assert S[0, 0] == 1 and S[1, 2] == 1 and S[2, 1] == 1
        assert S[3, 3] == (-1) ** (-3)
        # S^2 is the identity on the span
        assert np.abs(S @ S - np.eye(4)).max() < 1e-14

    def test_level1_consistency(self):
        # (S T)^3 = S^2 must hold as matrices for the level-1 spans
        for M, N in ((3, 2), (5, 2), (4, 2), (2, 2)):
            sm = smatrix("osp_level1", 1, (M, N))
            S, T = np.array(sm.entries), np.array(sm.t_matrix)
            lhs = np.linalg.matrix_power(S @ T, 3)
            rhs = S @ S
            assert np.abs(lhs - rhs).max() < 1e-12, (M, N)

    @pytest.mark.parametrize("M,N", [(3, 2), (5, 2), (3, 4)])
    def test_level1_odd_unitary_in_its_gram(self, M, N):
        # the closed forms are not normalized: S^+ G S = G with G = diag(1, 1, 2)
        sm = smatrix("osp_level1", 1, (M, N))
        S, G = np.array(sm.entries), np.diag([1.0, 1.0, 2.0])
        assert np.abs(S.conj().T @ G @ S - G).max() < 1e-12
        assert sm.unitarity_defect() < 1e-12
        assert abs(S[1, 2]) == pytest.approx(2**0.5)  # the pinned entries stay
        zs = [0.21 + 0.013 * i for i in range(M // 2)] + [0.37 - 0.02 * j for j in range(N // 2)]
        pts = [ModularPoint(TAU, tuple(zs), 0.05)]
        check = apply_smatrix_check("osp_level1", 1, pts, (M, N))
        assert check["unitarity_defect"] < 1e-12
        assert check["max_residual"] < 1e-9
        assert apply_tmatrix_check("osp_level1", 1, pts, (M, N))["max_residual"] < 1e-9

    def test_rows_export(self):
        rows = smatrix("d21a", F(-1, 2), (1, 1)).to_rows()
        assert len(rows) == 16
        assert set(rows[0]) == {"row", "col", "re", "im"}


class TestApplyChecks:
    def test_d21a(self):
        pts = [ModularPoint(TAU, (0.21, 0.17, 0.33), 0.07)]
        rep = apply_smatrix_check("d21a", F(-1, 2), pts, (1, 1))
        assert rep["max_residual"] < 1e-7
        rep = apply_tmatrix_check("d21a", F(-1, 2), pts, (1, 1))
        assert rep["max_residual"] < 1e-9

    def test_osp42(self):
        pts = [ModularPoint(TAU, (0.19, 0.32, 0.27), 0.05)]
        assert apply_smatrix_check("osp42", 1, pts)["max_residual"] < 1e-7
        assert apply_tmatrix_check("osp42", 1, pts)["max_residual"] < 1e-9

    def test_osp32_sub_both_levels(self):
        pts = [ModularPoint(TAU, (0.27, 0.43), 0.11)]
        for k in (F(-3, 4), F(-1)):
            assert apply_smatrix_check("osp32_sub", k, pts)["max_residual"] < 1e-7
            assert apply_tmatrix_check("osp32_sub", k, pts)["max_residual"] < 1e-7

    def test_sl21_trivial_span(self):
        pts = [ModularPoint(TAU, (0.23, 0.41), 0.07)]
        assert apply_smatrix_check("sl21", 1, pts)["max_residual"] < 1e-7

    @pytest.mark.parametrize("case,k,params,z", [
        ("sl21", 1, None, (0.23, 0.41)),
        ("osp32_sub", F(-3, 4), None, (0.27, 0.43)),
        ("osp_level1", 1, (3, 2), (0.21, 0.37)),
        ("osp42", 1, None, (0.19, 0.32, 0.27)),
        ("d21a", F(-1, 2), (1, 1), (0.21, 0.17, 0.33)),
    ])
    def test_policy_reaches_the_basis(self, case, k, params, z):
        # Im tau = 0.01 is below the evaluators' floor MIN_IM_TAU, so every
        # basis must refuse the point
        pts = [ModularPoint(0.13 + 0.01j, z, 0.05)]
        for check in (apply_smatrix_check, apply_tmatrix_check):
            with pytest.raises(ValueError, match="below policy minimum"):
                check(case, k, pts, params)


def test_osp42_level_two():
    sm = smatrix("osp42", 2)
    assert len(sm.labels) == 8
    assert sm.unitarity_defect() < 1e-12
    pts = [ModularPoint(TAU, (0.19, 0.32, 0.27), 0.05)]
    assert apply_smatrix_check("osp42", 2, pts)["max_residual"] < 1e-7
    assert apply_tmatrix_check("osp42", 2, pts)["max_residual"] < 1e-9


def test_d21a_asymmetric_parameters():
    # a = -1/3: six classes, still an exact discrete Fourier matrix
    from fractions import Fraction as F2

    k = F2(-2, 3)
    sm = smatrix("d21a", k, (1, 2))
    assert len(sm.labels) == 6
    assert sm.unitarity_defect() < 1e-12
    pts = [ModularPoint(TAU, (0.21, 0.17, 0.33), 0.05)]
    assert apply_smatrix_check("d21a", k, pts, (1, 2))["max_residual"] < 1e-7
    assert apply_tmatrix_check("d21a", k, pts, (1, 2))["max_residual"] < 1e-9


@pytest.mark.parametrize("k", [F(-1), F(-1, 2), F(1, 3)])
def test_d21a_level_off_the_family_is_refused(k):
    pts = [ModularPoint(TAU, (0.21, 0.17, 0.33), 0.05)]
    for call in (lambda: smatrix("d21a", k, (1, 2)),
                 lambda: apply_smatrix_check("d21a", k, pts, (1, 2)),
                 lambda: apply_tmatrix_check("d21a", k, pts, (1, 2))):
        with pytest.raises(UnsupportedCase, match="-pqn/"):
            call()


@pytest.mark.parametrize("case,k", [("sl21", F(1, 2)), ("sl21", F(-1)), ("osp42", F(3, 2))])
def test_level_off_the_case_rule_is_refused(case, k):
    with pytest.raises(UnsupportedCase, match="takes no level"):
        smatrix(case, k)


@pytest.mark.parametrize("case,k,params", [
    ("osp_level1", 2, (3, 2)),  # level 1 only
    ("osp_level1", 1, (3, 3)),  # odd N
    ("osp_level1", 1, (0, 2)),
    ("osp_level1", 1, None),
    ("osp_level1", 1, (3,)),
    ("osp32_sub", F(-3, 4), (1,)),  # parameters for a case that takes none
    ("osp42", 1, (2,)),  # osp42's own parameters are (1,)
    ("sl21", 1, (1, 2)),
    ("d21a", F(-2, 3), (2,)),  # one of the two family parameters; (2, 1) takes k = -2/3
    ("osp32", 1, None),  # a case with no wired span
])
def test_span_refuses_what_it_cannot_build(case, k, params):
    for call in (lambda: smatrix(case, k, params),
                 lambda: apply_smatrix_check(case, k, [], params),
                 lambda: apply_tmatrix_check(case, k, [], params)):
        with pytest.raises(UnsupportedCase):
            call()


def test_no_case_name_branches_outside_the_span_table():
    import importlib
    import inspect

    for name in ("mocktheta.smatrix", "mocktheta.cli"):
        source = inspect.getsource(importlib.import_module(name))
        assert "case ==" not in source and "case in (" not in source


@pytest.mark.parametrize("case,k,params,z", [
    ("sl21", 1, None, (0.23, 0.41)),
    ("osp42", 1, None, (0.19, 0.32, 0.27)),
    ("osp42", 2, None, (0.19, 0.32, 0.27)),
    ("d21a", F(-1, 2), (1, 1), (0.21, 0.17, 0.33)),
    ("d21a", F(-2, 3), (1, 2), (0.21, 0.17, 0.33)),
    ("osp32_sub", F(-3, 4), None, (0.27, 0.43)),
    ("osp32_sub", F(-1), None, (0.27, 0.43)),
    ("osp_level1", 1, (3, 2), (0.21, 0.37)),
    ("osp_level1", 1, (4, 2), (0.21, 0.22, 0.37)),
])
def test_span_values_are_the_row_evaluators(case, k, params, z):
    # a span evaluates its rows together at a point, bit for bit as the
    # public per-row evaluator does one row at a time
    from mocktheta.characters import ch_tilde, level1_osp_supercharacter, system
    from mocktheta.smatrix import _SPANS

    sm = smatrix(case, k, params)
    values, _ = _SPANS[case].basis(sm, params)
    pt = ModularPoint(TAU, z, 0.05)
    if case == "osp32_sub":
        rows = [system(case).f_function(i, k, pt).value for i in (1, 2, 3, 4)]
    elif case == "osp_level1":
        rows = [level1_osp_supercharacter(*params, c)(pt).value for c in sm.labels]
    else:
        rows = [ch_tilde(case, w, pt, params=params).value for w in sm.weights]
    assert values(pt) == rows


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_d21a_span_shares_its_denominator_and_nu_free_factors(monkeypatch):
    # one point and its S image: one superdenominator and one pair of
    # phi_tilde factors each, shared by the four classes
    from mocktheta import characters

    dens = _count_calls(monkeypatch, characters.CharacterSystem, "denominator")
    phis = _count_calls(monkeypatch, characters, "phi_tilde")
    pt = ModularPoint(TAU, (0.21, 0.17, 0.33), 0.05)
    apply_smatrix_check("d21a", F(-1, 2), [pt], (1, 1))
    assert (len(dens), len(phis)) == (2, 4)


def test_span_suite_evaluates_each_point_once(monkeypatch):
    # thm6.14's three points, each with its S and its T image
    from mocktheta import characters, run_suite

    dens = _count_calls(monkeypatch, characters.CharacterSystem, "denominator")
    assert run_suite("thm6.14")["pass"]
    assert len(dens) == 9
