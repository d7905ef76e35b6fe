"""S- and T-transformation matrices on the wired spans of modified
normalized supercharacters, with numeric apply-checks.

Row convention: F_i | S = sum_j S[i, j] F_j and F_i | T = sum_j T[i, j] F_j,
with no tau^weight factor: the functions are normalized quotients, whose
numerator's weight cancels against the superdenominator's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DEFAULT_POLICY, as_fraction
from .characters import (
    ch_tilde,
    level1_osp_supercharacter,
    level1_quad,
    system,
)
from .errors import UnsupportedCase
from .modular import S, T, act
from .superalg import WeightSpec, d21a_level

F = Fraction


@dataclass
class SMatrix:
    case: str
    k: Fraction
    labels: tuple
    entries: np.ndarray
    t_matrix: np.ndarray
    conjectural: bool = False
    note: str = ""
    weights: tuple = ()  # the WeightSpec of each row whose function is ch_tilde
    gram: tuple = ()  # diagonal of the basis Gram G; empty is the identity

    @property
    def t_phases(self):
        """Diagonal of the T action where it is diagonal."""
        return np.diag(self.t_matrix)

    def unitarity_defect(self) -> float:
        """max |S G^-1 S^+ - G^-1|, zero exactly when S^+ G S = G: S is
        unitary in the basis Gram G."""
        m = self.entries
        if not self.gram:
            return float(np.abs(m @ m.conj().T - np.eye(len(self.labels))).max())
        g_inv = np.diag(1.0 / np.array(self.gram))
        return float(np.abs(m @ g_inv @ m.conj().T - g_inv).max())

    def to_rows(self):
        out = []
        for i, li in enumerate(self.labels):
            for j, lj in enumerate(self.labels):
                v = self.entries[i, j]
                out.append(
                    {"row": str(li), "col": str(lj), "re": v.real, "im": v.imag}
                )
        return out


def _weil(labels, N: int):
    """S_ab = e^{-pi i ab/N}/sqrt(2N) and T_aa = e^{pi i a^2/2N - pi i/12}
    on labels that run over the residues mod 2N."""
    size = len(labels)
    S = np.zeros((size, size), dtype=complex)
    T = np.zeros((size, size), dtype=complex)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            S[i, j] = cmath.exp(-1j * math.pi * a * b / N) / math.sqrt(2 * N)
        T[i, i] = cmath.exp(1j * math.pi * a * a / (2 * N) - 1j * math.pi / 12)
    return S, T


def smatrix(case: str, k, params: tuple = None) -> SMatrix:
    k = as_fraction(k)
    if case == "sl21":
        system(case, params).check_level(k)
        return SMatrix(
            case,
            k,
            labels=(f"k{k}",),
            entries=np.array([[1.0 + 0j]]),
            t_matrix=np.array([[1.0 + 0j]]),
            weights=(WeightSpec(k, (0,)),),
        )
    if case == "d21a":
        sys = system(case, params)
        n = d21a_level(sys.p, sys.q, k)
        nus = sys.nu_range(n)
        S, T = _weil(nus, (sys.p + sys.q) * n)
        return SMatrix(
            case,
            k,
            labels=tuple(f"nu={nu}" for nu in nus),
            entries=S,
            t_matrix=T,
            conjectural=True,
            note="character identification relies on the conjectural "
            "two-term formula; the function-level transform is exact",
            weights=tuple(WeightSpec(k, (0, nu)) for nu in nus),
        )
    if case == "osp42":
        system(case, params).check_level(k)
        kk = int(k)
        js = list(range(-kk, 3 * kk))  # complete residues mod 4k
        S, T = _weil(js, 2 * kk)
        return SMatrix(
            case,
            k,
            labels=tuple(f"2k2={j}" for j in js),
            entries=S,
            t_matrix=T,
            weights=tuple(
                WeightSpec(k, (abs(F(j, 2)), F(j, 2))) if -kk <= j <= kk
                # mirror-side class: k2 = j/2 - k on the T' side
                else WeightSpec(k, (abs(F(j - 2 * kk, 2)), F(j - 2 * kk, 2)), side="Tp")
                for j in js
            ),
        )
    if case == "osp32_sub":
        if (4 * k).denominator != 1 or k >= F(-1, 2):
            raise UnsupportedCase("subprincipal span needs k in (1/4)Z, k < -1/2")
        four_k = int(4 * k)
        S = np.zeros((4, 4), dtype=complex)
        S[0, 0] = 1.0
        S[1, 2] = 1.0
        S[2, 1] = 1.0
        S[3, 3] = (-1.0) ** four_k
        T = np.zeros((4, 4), dtype=complex)
        T[0, 0] = 1.0
        T[1, 1] = 1.0
        ph = -((-1j) ** (four_k % 4))
        T[2, 3] = ph
        T[3, 2] = ph
        return SMatrix(
            case,
            k,
            labels=("f1", "f2", "f3", "f4"),
            entries=S,
            t_matrix=T,
            note="normalized quotients transform with no weight factor: "
            "the numerator's tau cancels against the superdenominator's",
        )
    if case == "osp_level1":
        M, N = params
        m, n = M // 2, N // 2
        odd = M % 2 == 1
        if odd:
            S = np.zeros((3, 3), dtype=complex)
            S[0, 0] = 1.0
            S[1, 2] = math.sqrt(2) * 1j ** (n % 4)
            S[2, 1] = (-1j) ** (n % 4) / math.sqrt(2)
            c = cmath.exp(1j * math.pi * (n - m - 0.5) / 12)
            lam = cmath.exp(1j * math.pi * (m - n + 0.5) / 6)
            T = np.array(
                [[0, c, 0], [c, 0, 0], [0, 0, lam]], dtype=complex
            )
            labels = ("sum01", "diff01", "twisted")
            # the closed forms are not normalized: S is unitary in the
            # Gram diag(1, 1, 2), S^+ G S = G
            return SMatrix("osp_level1", F(1), labels, S, T, gram=(1.0, 1.0, 2.0))
        else:
            S = np.zeros((4, 4), dtype=complex)
            S[0, 0] = 1.0
            S[1, 2] = 1j ** (n % 4)
            S[2, 1] = (-1j) ** (n % 4)
            S[3, 3] = (-1j) ** ((m - n) % 4)
            c = cmath.exp(1j * math.pi * (n - m) / 12)
            lam = cmath.exp(-1j * math.pi * (n - m) / 6)
            T = np.array(
                [
                    [0, c, 0, 0],
                    [c, 0, 0, 0],
                    [0, 0, lam, 0],
                    [0, 0, 0, lam],
                ],
                dtype=complex,
            )
            labels = ("sum01", "diff01", "twisted", "diff_top")
        return SMatrix("osp_level1", F(1), labels, S, T)
    raise UnsupportedCase(case)


def _basis_functions(sm: SMatrix, params, policy):
    """Evaluable basis functions matching the smatrix labels: ch_tilde at
    the row weights of the lattice cases, the spanning functions of the
    subprincipal case and the closed forms at level 1."""
    case, k = sm.case, sm.k
    if case == "osp32_sub":
        sub = system("osp32_sub")
        fns = [
            (lambda pt, i=i: sub.f_function(i, k, pt, policy).value)
            for i in (1, 2, 3, 4)
        ]
        return fns, sub.quad
    if case == "osp_level1":
        M, N = params
        fns = [
            (lambda pt, c=c: level1_osp_supercharacter(M, N, c)(pt, policy).value)
            for c in sm.labels
        ]
        return fns, level1_quad(M, N)
    fns = [
        (lambda pt, w=w: ch_tilde(case, w, pt, policy, params=params).value)
        for w in sm.weights
    ]
    return fns, system(case, params).quad


def _apply_residuals(case, k, points, params, policy, g):
    """F_i|g against sum_j M_ij F_j at the points, for g = S (M the
    S-matrix) or g = T (M the T-matrix)."""
    sm = smatrix(case, k, params)
    fns, quad = _basis_functions(sm, params, policy)
    matrix = sm.entries if g == S else sm.t_matrix
    records = []
    for pt in points:
        moved = act(g, pt, quad)
        vals = [f(pt) for f in fns]
        for i, f in enumerate(fns):
            rhs = sum(matrix[i, j] * vals[j] for j in range(len(fns)))
            res = abs(f(moved) - rhs)
            records.append({"label": str(sm.labels[i]), "tau": str(pt.tau), "residual": res})
    return sm, records, max([0.0] + [r["residual"] for r in records])


def apply_smatrix_check(
    case: str, k, points, params: tuple = None, policy=DEFAULT_POLICY
):
    """Numerically verify F_i|S = sum_j S_ij F_j at the points."""
    sm, records, max_res = _apply_residuals(case, k, points, params, policy, S)
    return {
        "case": case,
        "k": str(k),
        "max_residual": max_res,
        "unitarity_defect": sm.unitarity_defect(),
        "conjectural": sm.conjectural,
        "records": records,
    }


def apply_tmatrix_check(
    case: str, k, points, params: tuple = None, policy=DEFAULT_POLICY
):
    """Numerically verify F_i|T = sum_j T_ij F_j at the points."""
    _, _, max_res = _apply_residuals(case, k, points, params, policy, T)
    return {"case": case, "k": str(k), "max_residual": max_res}
