"""S- and T-transformation matrices on the wired spans of modified
normalized supercharacters, with numeric apply-checks.

One table, ``_SPANS``, declares each wired span once: its SMatrix builder,
which refuses a level or parameters off the span's rule, the basis its
apply-checks evaluate and the defaults of ``mocktheta smatrix``; no reader
branches on a case name.  A basis gives every row's value at a point in
one call, so what the rows share (the superdenominator, D(2,1;a)'s
nu-free factors) is evaluated once per point; the apply-checks evaluate
each point once, and its image once per move.

Row convention: F_i | S = sum_j S[i][j] F_j and F_i | T = sum_j T[i][j] F_j,
with no tau^weight factor: the functions are normalized quotients, whose
numerator's weight cancels against the superdenominator's.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import as_fraction
from .errors import UnsupportedCase
from .modular import S, T, act
from .superalg import WeightSpec, d21a_level, d21a_nu_range, preset

F = Fraction


@dataclass(frozen=True)
class SMatrix:
    """S- and T-matrix of one span, each a tuple of row tuples of complex,
    built without ``lattice`` or ``characters``.
    ``unitarity_defect`` is a plain double-precision sum: its value may
    differ from a BLAS product's at the 1e-16 level."""

    case: str
    k: Fraction
    labels: tuple
    entries: tuple
    t_matrix: tuple
    conjectural: bool = False
    note: str = ""
    weights: tuple = ()  # the WeightSpec of each row whose function is ch_tilde
    gram: tuple = ()  # diagonal of the basis Gram G; empty is the identity

    def unitarity_defect(self) -> float:
        """max |S G^-1 S^+ - G^-1|, zero exactly when S^+ G S = G: S is
        unitary in the basis Gram G."""
        m = self.entries
        g_inv = [1.0 / g for g in self.gram] or [1.0] * len(m)
        return max(
            abs(sum(a * g * b.conjugate() for a, g, b in zip(ri, g_inv, rj))
                - (g_inv[i] if i == j else 0.0))
            for i, ri in enumerate(m)
            for j, rj in enumerate(m)
        )

    def to_rows(self):
        out = []
        for i, li in enumerate(self.labels):
            for j, lj in enumerate(self.labels):
                v = self.entries[i][j]
                out.append(
                    {"row": str(li), "col": str(lj), "re": v.real, "im": v.imag}
                )
        return out


def _weil(labels, N: int):
    """S_ab = e^{-pi i ab/N}/sqrt(2N) and T_aa = e^{pi i a^2/2N - pi i/12}
    on labels that run over the residues mod 2N."""
    S = tuple(tuple(cmath.exp(-1j * math.pi * a * b / N) / math.sqrt(2 * N) for b in labels)
              for a in labels)
    T = tuple(tuple(cmath.exp(1j * math.pi * a * a / (2 * N) - 1j * math.pi / 12) if b == a
                    else 0j for b in labels) for a in labels)
    return S, T


def _matrix(rows):
    return tuple(tuple(complex(v) for v in row) for row in rows)


def _level_rule(case, k, params, least: int) -> None:
    """Refuse the case's parameters, then a level off its closed-form rule
    (docs/formats.md), an integer k >= least, naming the lattice's violations."""
    preset(case, params)
    if k.denominator != 1 or k < least:
        from .characters import system

        system(case, params).check_level(k)


def _sl21(k, params):
    _level_rule("sl21", k, params, 0)
    return SMatrix(
        "sl21",
        k,
        labels=(f"k{k}",),
        entries=_matrix([[1]]),
        t_matrix=_matrix([[1]]),
        weights=(WeightSpec(k, (0,)),),
    )


def _d21a(k, params):
    p, q = preset("d21a", params).params  # refuses p, q not coprime and positive
    n = d21a_level(p, q, k)
    nus = d21a_nu_range(p, q, n)
    S, T = _weil(nus, (p + q) * n)
    return SMatrix(
        "d21a",
        k,
        labels=tuple(f"nu={nu}" for nu in nus),
        entries=S,
        t_matrix=T,
        conjectural=True,
        note="character identification relies on the conjectural "
        "two-term formula; the function-level transform is exact",
        weights=tuple(WeightSpec(k, (0, nu)) for nu in nus),
    )


def _d21a_first_level(params):
    p, q = preset("d21a", params).params
    return F(-p * q, p + q)


def _osp42(k, params):
    _level_rule("osp42", k, params, 1)
    kk = int(k)
    js = list(range(-kk, 3 * kk))  # complete residues mod 4k
    S, T = _weil(js, 2 * kk)
    return SMatrix(
        "osp42",
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


def _osp32_sub(k, params):
    if params:
        raise UnsupportedCase(f"case osp32_sub does not take the parameters {params}")
    if (4 * k).denominator != 1 or k >= F(-1, 2):
        raise UnsupportedCase("subprincipal span needs k in (1/4)Z, k < -1/2")
    four_k = int(4 * k)
    ph = -((-1j) ** (four_k % 4))
    return SMatrix(
        "osp32_sub",
        k,
        labels=("f1", "f2", "f3", "f4"),
        entries=_matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, (-1.0) ** four_k]]),
        t_matrix=_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, ph], [0, 0, ph, 0]]),
        note="normalized quotients transform with no weight factor: "
        "the numerator's tau cancels against the superdenominator's",
    )


def _osp_level1(k, params):
    M, N = params if params and len(params) == 2 else (0, 0)  # (0, 0) is refused next
    if M < 1 or N < 2 or N % 2:
        raise UnsupportedCase(f"osp_level1 takes (M, N) with M >= 1, N >= 2 even, not {params}")
    if k != 1:
        raise UnsupportedCase(f"case osp_level1 takes only level 1, not {k}")
    m, n = M // 2, N // 2
    odd = M % 2 == 1
    if odd:
        S = [[1, 0, 0], [0, 0, math.sqrt(2) * 1j ** (n % 4)],
             [0, (-1j) ** (n % 4) / math.sqrt(2), 0]]
        c = cmath.exp(1j * math.pi * (n - m - 0.5) / 12)
        lam = cmath.exp(1j * math.pi * (m - n + 0.5) / 6)
        T = [[0, c, 0], [c, 0, 0], [0, 0, lam]]
        labels = ("sum01", "diff01", "twisted")
        # the closed forms are not normalized: S is unitary in the
        # Gram diag(1, 1, 2), S^+ G S = G
        return SMatrix("osp_level1", k, labels, _matrix(S), _matrix(T), gram=(1.0, 1.0, 2.0))
    S = [[1, 0, 0, 0], [0, 0, 1j ** (n % 4), 0], [0, (-1j) ** (n % 4), 0, 0],
         [0, 0, 0, (-1j) ** ((m - n) % 4)]]
    c = cmath.exp(1j * math.pi * (n - m) / 12)
    lam = cmath.exp(-1j * math.pi * (n - m) / 6)
    T = [[0, c, 0, 0], [c, 0, 0, 0], [0, 0, lam, 0], [0, 0, 0, lam]]
    labels = ("sum01", "diff01", "twisted", "diff_top")
    return SMatrix("osp_level1", k, labels, _matrix(S), _matrix(T))


def _ch_tilde_basis(sm, params):
    from .characters import system

    sys = system(sm.case, params)  # the builder has checked the level
    return (lambda pt: [v.value for v in sys.normalized(sm.weights, pt)]), sys.quad


def _f_basis(sm, params):
    from .characters import system

    sub = system("osp32_sub")
    return (lambda pt: [v.value for v in sub.f_functions(sm.k, pt)]), sub.quad


def _level1_basis(sm, params):
    from .characters import level1_osp_supercharacter, level1_quad

    M, N = params
    chars = [level1_osp_supercharacter(M, N, c) for c in sm.labels]
    return (lambda pt: [ch(pt).value for ch in chars]), level1_quad(M, N)


class _Span(NamedTuple):
    build: Callable  # (k, params) -> SMatrix; UnsupportedCase off the span's rule
    basis: Callable  # (SMatrix, params) -> (values, quad); values(point): all rows' values
    params: tuple = None  # the CLI's parameters when none are given
    level: Callable = None  # params -> the CLI's k without --k; None: --k is required


_SPANS = {
    "sl21": _Span(_sl21, _ch_tilde_basis),
    "osp42": _Span(_osp42, _ch_tilde_basis),  # eq 6.6
    "d21a": _Span(_d21a, _ch_tilde_basis, level=_d21a_first_level),  # Thm 6.14
    "osp32_sub": _Span(_osp32_sub, _f_basis),  # eqs 6.20/6.21
    "osp_level1": _Span(_osp_level1, _level1_basis, (3, 2), lambda params: F(1)),  # sec 6.5
}


def _span(case: str) -> _Span:
    if case not in _SPANS:
        raise UnsupportedCase(f"no wired S-matrix span for {case!r}; wired: {', '.join(_SPANS)}")
    return _SPANS[case]


@functools.cache
def smatrix(case: str, k, params: tuple = None) -> SMatrix:
    """The span's matrices, built once per (case, k, params)."""
    return _span(case).build(as_fraction(k), params)


def _apply_residuals(case, k, points, params, moves):
    """Per move g of moves, the records of F_i|g against sum_j M_ij F_j at
    the points (M the S-matrix for g = S, the T-matrix for g = T) and their
    largest residual.  Each point is evaluated once, and its image once per
    move."""
    sm = smatrix(case, k, params)
    values, quad = _SPANS[case].basis(sm, params)
    records = {g: [] for g in moves}
    for pt in points:
        vals = values(pt)
        for g in moves:
            matrix = sm.entries if g == S else sm.t_matrix
            moved = values(act(g, pt, quad))
            for label, row, got in zip(sm.labels, matrix, moved):
                res = abs(got - sum(m * v for m, v in zip(row, vals)))
                records[g].append({"label": str(label), "tau": str(pt.tau), "residual": res})
    return sm, [(recs, max([0.0] + [r["residual"] for r in recs])) for recs in records.values()]


def apply_smatrix_check(case: str, k, points, params: tuple = None):
    """Numerically verify F_i|S = sum_j S_ij F_j at the points."""
    sm, [(records, max_res)] = _apply_residuals(case, k, points, params, (S,))
    return {
        "case": case,
        "k": str(k),
        "max_residual": max_res,
        "unitarity_defect": sm.unitarity_defect(),
        "conjectural": sm.conjectural,
        "records": records,
    }


def apply_tmatrix_check(case: str, k, points, params: tuple = None):
    """Numerically verify F_i|T = sum_j T_ij F_j at the points."""
    _, [(_, max_res)] = _apply_residuals(case, k, points, params, (T,))
    return {"case": case, "k": str(k), "max_residual": max_res}
