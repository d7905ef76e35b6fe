"""Static data and exact-arithmetic predicates for the basic Lie
superalgebra cases: root systems, normalized forms, dual Coxeter numbers,
the defect-zero orthogonal subalgebra, Weyl-group generators with their
two sign characters, integrability predicates, and the finite weight
enumerations that index the modular families.

All label arithmetic is exact (fractions.Fraction); floats appear only
once series get evaluated elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import as_fraction
from .errors import InfiniteSet, UnsupportedCase

F = Fraction


def _dot_gram(gram, u, v):
    return sum(
        gram[i][j] * u[i] * v[j]
        for i in range(len(u))
        for j in range(len(v))
        if u[i] and v[j]
    ) or F(0)


@dataclass(frozen=True)
class WeightSpec:
    """Level plus per-case label vector, all exact."""

    k: Fraction
    labels: tuple
    side: str = "T"  # which isotropic set the weight is orthogonal to

    def __post_init__(self):
        object.__setattr__(self, "k", as_fraction(self.k))
        object.__setattr__(self, "labels", tuple(as_fraction(x) for x in self.labels))


@dataclass(frozen=True)
class WeylElement:
    matrix: tuple  # action on ambient coordinates, rows of Fractions
    eps_plus: int
    eps_minus: int
    word: tuple = ()


@dataclass(frozen=True)
class SuperalgebraPreset:
    name: str
    params: tuple
    gram: tuple  # ambient Gram matrix (rational)
    simple_roots: tuple  # (vector, parity) pairs
    rho: tuple
    h_dual: Fraction
    g_shriek: str
    g_shriek_h_dual: Fraction
    defect: int
    gamma_basis: tuple
    isotropic_t: tuple
    isotropic_t_prime: tuple = None
    weyl_gens: tuple = ()  # (root vector, eps_minus) pairs; eps_plus = -1
    eps_minus_translations: str = "trivial"
    notes: str = ""

    def pair(self, u, v) -> Fraction:
        return _dot_gram(self.gram, u, v)

    def norm2(self, v) -> Fraction:
        return self.pair(v, v)

    def to_json(self) -> str:
        import json

        doc = {
            "name": self.name,
            "params": list(self.params),
            "h_dual": str(self.h_dual),
            "orthogonal_subalgebra": self.g_shriek,
            "defect": self.defect,
            "gram": [[str(x) for x in row] for row in self.gram],
            "simple_roots": [
                {"coords": [str(x) for x in root], "odd": bool(par)}
                for root, par in self.simple_roots
            ],
            "rho": [str(x) for x in self.rho],
            "gamma_basis": [[str(x) for x in g] for g in self.gamma_basis],
            "isotropic_set": [[str(x) for x in b] for b in self.isotropic_t],
            "eps_minus_translations": self.eps_minus_translations,
        }
        return json.dumps(doc, sort_keys=True)

    def check_rho(self):
        """2(rho|alpha_i) = (alpha_i|alpha_i) on every simple root."""
        bad = []
        for root, _ in self.simple_roots:
            lhs = 2 * self.pair(self.rho, root)
            rhs = self.norm2(root)
            if lhs != rhs:
                bad.append((root, lhs, rhs))
        return bad

    def reflection_matrix(self, root):
        """r_alpha(v) = v - 2 (v|alpha)/(alpha|alpha) alpha, exact."""
        dim = len(self.gram)
        n2 = self.norm2(root)
        if n2 == 0:
            raise ValueError("cannot reflect in an isotropic root")
        cols = []
        for j in range(dim):
            e = tuple(F(int(i == j)) for i in range(dim))
            coef = 2 * self.pair(e, root) / n2
            cols.append(tuple(e[i] - coef * root[i] for i in range(dim)))
        # cols[j] is the image of e_j; matrix rows from columns
        return tuple(
            tuple(cols[j][i] for j in range(dim)) for i in range(dim)
        )


def _weyl_group(preset: SuperalgebraPreset, cap: int = 4000):
    """BFS closure of the generator reflections with both sign characters."""
    dim = len(preset.gram)
    ident = tuple(tuple(F(int(i == j)) for j in range(dim)) for i in range(dim))
    gens = []
    for root, eps_m in preset.weyl_gens:
        gens.append((preset.reflection_matrix(root), -1, eps_m))
    seen = {ident: WeylElement(ident, 1, 1)}
    frontier = [seen[ident]]
    while frontier:
        new = []
        for el in frontier:
            for gi, (gm, ep, em) in enumerate(gens):
                mat = tuple(
                    tuple(
                        sum(gm[i][l] * el.matrix[l][j] for l in range(dim))
                        for j in range(dim)
                    )
                    for i in range(dim)
                )
                if mat not in seen:
                    cand = WeylElement(
                        mat, el.eps_plus * ep, el.eps_minus * em, (gi,) + el.word
                    )
                    seen[mat] = cand
                    new.append(cand)
                    if len(seen) > cap:
                        raise UnsupportedCase("Weyl group exceeds cap")
        frontier = new
    return list(seen.values())


def weyl_sharp_orbit(preset: SuperalgebraPreset, bound: int = 0):
    """Finite Weyl part with sign characters; optionally the translation
    signs eps(t_gamma) on lattice points with coordinates up to ``bound``."""
    elements = _weyl_group(preset)
    translations = []
    if bound:
        rank = len(preset.gamma_basis)
        for combo in itertools.product(range(-bound, bound + 1), repeat=rank):
            gamma = tuple(
                sum(as_fraction(c) * g[i] for c, g in zip(combo, preset.gamma_basis))
                for i in range(len(preset.gram))
            )
            n2 = preset.norm2(gamma)
            if preset.eps_minus_translations == "parity_of_halfnorm":
                e = n2 / 2
                if e.denominator != 1:
                    raise UnsupportedCase("half-norm not integral on lattice")
                em = -1 if e.numerator % 2 else 1
            else:
                em = 1
            translations.append((combo, 1, em))
    return elements, translations


# ---------------------------------------------------------------------------
# preset constructors


def _preset_sl(m: int, n: int) -> SuperalgebraPreset:
    """sl(m+1|n), m >= n >= 1; supertrace form on eps_1..eps_{m+1},
    delta_1..delta_n."""
    if not (m >= n >= 1):
        raise UnsupportedCase("sl(m+1|n) needs m >= n >= 1")
    dim = m + 1 + n
    gram = tuple(
        tuple(
            F(int(i == j)) if i < m + 1 else F(-int(i == j))
            for j in range(dim)
        )
        for i in range(dim)
    )

    def eps(i):  # 1-based
        return tuple(F(int(r == i - 1)) for r in range(dim))

    def delta(j):
        return tuple(F(int(r == m + j)) for r in range(dim))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    simple = []
    for i in range(1, n + 1):
        simple.append((sub(eps(i), delta(i)), 1))
        simple.append((sub(delta(i), eps(i + 1)), 1))
    for i in range(2 * n + 1, m + n + 1):
        simple.append((sub(eps(i - n), eps(i - n + 1)), 0))
    gammas = tuple(sub(eps(m + 1), eps(i)) for i in range(1, m + 1))
    ts = tuple(sub(eps(i), delta(i)) for i in range(1, n + 1))
    rho = tuple(
        sum(
            (F(m - n) * t[r] for t in ts),
            start=F(0),
        )
        + sum((F(m + 1 - i) * eps(i)[r] for i in range(n + 1, m + 1)), start=F(0))
        for r in range(dim)
    )
    gens = tuple(
        (sub(eps(i), eps(i + 1)), -1) for i in range(1, m + 1)
    )
    return SuperalgebraPreset(
        name=f"sl({m+1}|{n})",
        params=(m, n),
        gram=gram,
        simple_roots=tuple(simple),
        rho=rho,
        h_dual=F(m + 1 - n),
        g_shriek=f"sl({m+1-n})" if m + 1 - n > 1 else "0",
        g_shriek_h_dual=F(m + 1 - n),
        defect=n,
        gamma_basis=gammas,
        isotropic_t=ts,
        weyl_gens=gens,
        eps_minus_translations="trivial",
    )


def _osp_basis(m: int, n: int, eps_norm: Fraction):
    """Orthogonal basis data: eps_1..eps_m of square eps_norm, then
    delta_1..delta_n of square -eps_norm."""
    dim = m + n
    gram = tuple(
        tuple(
            (eps_norm if i < m else -eps_norm) * int(i == j) for j in range(dim)
        )
        for i in range(dim)
    )

    def eps(i):
        return tuple(F(int(r == i - 1)) for r in range(dim))

    def delta(j):
        return tuple(F(int(r == m + j - 1)) for r in range(dim))

    return gram, eps, delta


def _preset_osp_even_low(n: int, m: int) -> SuperalgebraPreset:
    """osp(2n|2m), m >= n >= 1: sp side eps_1..eps_m of square 1/2."""
    if not (m >= n >= 1):
        raise UnsupportedCase("osp(2n|2m) preset needs m >= n >= 1")
    gram, eps, delta = _osp_basis(m, n, F(1, 2))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    gammas = tuple(tuple(-2 * x for x in eps(i)) for i in range(1, m + 1))
    ts = tuple(sub(eps(i), delta(i)) for i in range(1, n + 1))
    rho = tuple(
        sum((F(i - n) * eps(i)[r] for i in range(n + 1, m + 1)), start=F(0))
        for r in range(m + n)
    )
    simple = []
    for i in range(1, m - n + 1):
        simple.append((sub(eps(m - i + 1), eps(m - i)), 0))
    # alternating odd tail down to eps_1 +- delta_1
    for j in range(n, 1, -1):
        simple.append((sub(eps(j), delta(j)), 1))
        simple.append((sub(delta(j), eps(j - 1)), 1))
    simple.append((sub(eps(1), delta(1)), 1))
    simple.append((tuple(a + b for a, b in zip(eps(1), delta(1))), 1))
    gens = [(sub(eps(i), eps(i + 1)), -1) for i in range(1, m)]
    gens.append((tuple(2 * x for x in eps(m)), -1))
    return SuperalgebraPreset(
        name=f"osp({2*n}|{2*m})",
        params=(n, m),
        gram=gram,
        simple_roots=tuple(simple),
        rho=rho,
        h_dual=F(m + 1 - n),
        g_shriek=f"sp({2*(m-n)})" if m > n else "0",
        g_shriek_h_dual=F(m - n + 1),
        defect=n,
        gamma_basis=gammas,
        isotropic_t=ts,
        weyl_gens=tuple(gens),
        eps_minus_translations="trivial",
    )


def _preset_osp_odd_low(n: int, m: int) -> SuperalgebraPreset:
    """osp(2n+1|2m), m >= n >= 1: adds short even deltas and odd epsilons."""
    if not (m >= n >= 1):
        raise UnsupportedCase("osp(2n+1|2m) preset needs m >= n >= 1")
    base = _preset_osp_even_low(n, m)
    gram, eps, delta = _osp_basis(m, n, F(1, 2))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    # simple roots per the alternating chain ending at the short odd eps_1
    simple = []
    for i in range(1, m - n):
        simple.append((sub(eps(m - i + 1), eps(m - i)), 0))
    if m > n:
        simple.append((sub(eps(n + 1), delta(n)), 1))
    for j in range(n, 0, -1):
        simple.append((sub(delta(j), eps(j)), 1))
        if j > 1:
            simple.append((sub(eps(j), delta(j - 1)), 1))
    simple.append((eps(1), 1))
    rho = tuple(
        F(1, 2) * sum((t[r] for t in base.isotropic_t), start=F(0))
        + sum(
            ((F(i) - F(1, 2)) * eps(n + i)[r] for i in range(1, m - n + 1)),
            start=F(0),
        )
        for r in range(m + n)
    )
    gens = [(sub(eps(i), eps(i + 1)), -1) for i in range(1, m)]
    gens.append((tuple(2 * x for x in eps(m)), 1))  # half 2eps is the odd eps
    return SuperalgebraPreset(
        name=f"osp({2*n+1}|{2*m})",
        params=(n, m),
        gram=gram,
        simple_roots=tuple(simple),
        rho=rho,
        h_dual=F(2 * (m - n) + 1, 2),
        g_shriek=f"osp(1|{2*(m-n)})" if m > n else "0",
        g_shriek_h_dual=F(2 * (m - n) + 1, 2),
        defect=n,
        gamma_basis=base.gamma_basis,
        isotropic_t=base.isotropic_t,
        weyl_gens=tuple(gens),
        eps_minus_translations="parity_of_halfnorm",
    )


def _preset_osp_odd_high(m: int, n: int) -> SuperalgebraPreset:
    """osp(2m+1|2n), m > n >= 1: so side eps_1..eps_m of square 1."""
    if not (m > n >= 1):
        raise UnsupportedCase("osp(2m+1|2n) preset needs m > n >= 1")
    gram, eps, delta = _osp_basis(m, n, F(1))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    gammas = [sub(eps(n + 1), eps(i)) for i in range(1, n + 1)]
    gammas.append(tuple(2 * x for x in eps(n + 1)))
    gammas.extend(sub(eps(i), eps(i - 1)) for i in range(n + 2, m + 1))
    ts = tuple(sub(eps(i), delta(i)) for i in range(1, n + 1))
    rho = tuple(
        sum(((F(i - n) - F(1, 2)) * eps(i)[r] for i in range(n + 1, m + 1)), start=F(0))
        - F(1, 2) * sum((t[r] for t in ts), start=F(0))
        for r in range(m + n)
    )
    simple = [(sub(eps(m - i + 1), eps(m - i)), 0) for i in range(1, m - n + 1)]
    for j in range(n, 1, -1):
        simple.append((sub(eps(j), delta(j)), 1))
        simple.append((sub(delta(j), eps(j - 1)), 1))
    simple.append((sub(eps(1), delta(1)), 1))
    simple.append((delta(1), 1))
    gens = [(sub(eps(i), eps(i + 1)), -1) for i in range(1, m)]
    gens.append((eps(m), -1))
    return SuperalgebraPreset(
        name=f"osp({2*m+1}|{2*n})",
        params=(m, n),
        gram=gram,
        simple_roots=tuple(simple),
        rho=rho,
        h_dual=F(2 * (m - n) - 1),
        g_shriek=f"so({2*(m-n)+1})",
        g_shriek_h_dual=F(2 * (m - n) - 1),
        defect=n,
        gamma_basis=tuple(gammas),
        isotropic_t=ts,
        weyl_gens=tuple(gens),
        eps_minus_translations="parity_of_halfnorm",
    )


def _preset_osp_even_high(m: int, n: int) -> SuperalgebraPreset:
    """osp(2m|2n), m > n + 2, with the two isotropic sets T, T'."""
    if not (m > n + 2):
        raise UnsupportedCase("osp(2m|2n) preset needs m > n + 2")
    gram, eps, delta = _osp_basis(m, n, F(1))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    gammas = [sub(eps(i), eps(m)) for i in range(1, n + 1)]
    gammas.append(tuple(a + b for a, b in zip(eps(n + 2), eps(n + 1))))
    gammas.extend(sub(eps(i), eps(i - 1)) for i in range(n + 2, m + 1))
    ts = tuple(sub(delta(i), eps(i)) for i in range(1, n + 1))
    # sigma0 flips eps_1 and eps_{n+1}
    def sigma0(v):
        w = list(v)
        w[0] = -w[0]
        w[n] = -w[n]
        return tuple(w)
    ts_prime = tuple(sigma0(t) for t in ts)
    rho = tuple(
        sum((F(i - n - 1) * eps(i)[r] for i in range(n + 2, m + 1)), start=F(0))
        for r in range(m + n)
    )
    simple = [(sub(eps(m - i + 1), eps(m - i)), 0) for i in range(1, m - n - 1)]
    simple.append((sub(eps(n + 1), delta(n)), 1))
    for j in range(n, 1, -1):
        simple.append((sub(delta(j), eps(j)), 1))
        simple.append((sub(eps(j), delta(j - 1)), 1))
    simple.append((sub(delta(1), eps(1)), 1))
    simple.append((tuple(a + b for a, b in zip(delta(1), eps(1))), 1))
    gens = [(sub(eps(i), eps(i + 1)), -1) for i in range(1, m)]
    gens.append((tuple(a + b for a, b in zip(eps(m - 1), eps(m))), -1))
    return SuperalgebraPreset(
        name=f"osp({2*m}|{2*n})",
        params=(m, n),
        gram=gram,
        simple_roots=tuple(simple),
        rho=rho,
        h_dual=F(2 * (m - n - 1)),
        g_shriek=f"so({2*(m-n)})",
        g_shriek_h_dual=F(2 * (m - n) - 2),
        defect=n,
        gamma_basis=tuple(gammas),
        isotropic_t=ts,
        isotropic_t_prime=ts_prime,
        weyl_gens=tuple(gens),
        eps_minus_translations="trivial",
    )


def _preset_osp_h0(n: int) -> SuperalgebraPreset:
    """osp(2n+2|2n): the h_dual = 0 orthosymplectic family."""
    if n < 1:
        raise UnsupportedCase("osp(2n+2|2n) needs n >= 1")
    m = n + 1
    gram, eps, delta = _osp_basis(m, n, F(1))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    gammas = [sub(eps(n + 1), eps(i)) for i in range(1, n + 1)]
    gammas.append(tuple(2 * x for x in eps(n + 1)))
    ts = tuple(sub(eps(i), delta(i)) for i in range(1, n + 1))

    def sigma0(v):
        w = list(v)
        w[0] = -w[0]
        w[n] = -w[n]
        return tuple(w)

    ts_prime = tuple(sigma0(t) for t in ts)
    rho = tuple(F(0) for _ in range(m + n))
    simple = []
    simple.append((sub(eps(1), delta(1)), 1))
    for j in range(1, n):
        simple.append((sub(delta(j), eps(j + 1)), 1))
        simple.append((sub(eps(j + 1), delta(j + 1)), 1))
    simple.append((sub(delta(n), eps(n + 1)), 1))
    simple.append((tuple(a + b for a, b in zip(delta(n), eps(n + 1))), 1))
    gens = [(sub(eps(i), eps(i + 1)), -1) for i in range(1, m)]
    gens.append((tuple(a + b for a, b in zip(eps(m - 1), eps(m))), -1))
    return SuperalgebraPreset(
        name=f"osp({2*n+2}|{2*n})",
        params=(n,),
        gram=gram,
        simple_roots=tuple(simple),
        rho=rho,
        h_dual=F(0),
        g_shriek="0",
        g_shriek_h_dual=F(0),
        defect=n,
        gamma_basis=tuple(gammas),
        isotropic_t=ts,
        isotropic_t_prime=ts_prime,
        weyl_gens=tuple(gens),
        eps_minus_translations="trivial",
    )


def _preset_d21a(p: int, q: int) -> SuperalgebraPreset:
    """D(2,1;a) with a = -p/(p+q) for coprime positive p, q."""
    from math import gcd

    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise UnsupportedCase("D(2,1;a) needs coprime positive p, q")
    a = F(-p, p + q)
    gram = (
        (F(0), a, -(a + 1)),
        (a, F(0), F(1)),
        (-(a + 1), F(1), F(0)),
    )
    a1, a2, a3 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    simple = ((a1, 1), (a2, 1), (a3, 1))
    g1 = tuple((x + y) / (a + 1) for x, y in zip(a1, a3))
    g2 = tuple(
        (x + y) / a + (x2 + y2) / (a + 1)
        for (x, y), (x2, y2) in zip(zip(a1, a2), zip(a1, a3))
    )
    even1 = tuple(x + y for x, y in zip(a1, a2))
    even2 = tuple(x + y for x, y in zip(a1, a3))
    return SuperalgebraPreset(
        name=f"D(2,1;{a})",
        params=(p, q),
        gram=gram,
        simple_roots=simple,
        rho=(F(0), F(0), F(0)),
        h_dual=F(0),
        g_shriek="0",
        g_shriek_h_dual=F(0),
        defect=1,
        gamma_basis=(g1, g2),
        isotropic_t=(a1,),
        isotropic_t_prime=None,  # T' = {alpha_0}, an affine root
        weyl_gens=((even1, -1), (even2, -1)),
        eps_minus_translations="trivial",
    )


def _preset_f4() -> SuperalgebraPreset:
    gram = (
        (F(2), F(-1), F(0), F(0)),
        (F(-1), F(0), F(1), F(1, 2)),
        (F(0), F(1), F(0), F(-3, 2)),
        (F(0), F(1, 2), F(-3, 2), F(0)),
    )
    a1 = (F(1), F(0), F(0), F(0))
    a2 = (F(0), F(1), F(0), F(0))
    a3 = (F(0), F(0), F(1), F(0))
    a4 = (F(0), F(0), F(0), F(1))
    simple = ((a1, 0), (a2, 1), (a3, 1), (a4, 1))
    g1 = a1
    g2 = tuple(x + y + z for x, y, z in zip(a1, a2, a3))
    g3 = tuple(x + 2 * y + 2 * w for x, y, w in zip(a1, a2, a4))
    rho = tuple(x + y for x, y in zip(g2, g3))
    # so(7) simple roots: a2+a3, a1, a2+a4
    r1 = tuple(x + y for x, y in zip(a2, a3))
    r2 = a1
    r3 = tuple(x + y for x, y in zip(a2, a4))
    return SuperalgebraPreset(
        name="F(4)",
        params=(),
        gram=gram,
        simple_roots=simple,
        rho=rho,
        h_dual=F(3),
        g_shriek="sl(3)",
        g_shriek_h_dual=F(3),
        defect=1,
        gamma_basis=(g1, g2, g3),
        isotropic_t=(a2,),
        weyl_gens=((r1, -1), (r2, -1), (r3, -1)),
        eps_minus_translations="trivial",
    )


def _preset_g3() -> SuperalgebraPreset:
    gram = (
        (F(2), F(-1), F(0)),
        (F(-1), F(0), F(2, 3)),
        (F(0), F(2, 3), F(-2, 3)),
    )
    a1 = (F(1), F(0), F(0))
    a2 = (F(0), F(1), F(0))
    a3 = (F(0), F(0), F(1))
    simple = ((a1, 0), (a2, 1), (a3, 1))
    theta = tuple(2 * x + 3 * y + 3 * z for x, y, z in zip(a1, a2, a3))
    rho = tuple(-F(1, 2) * b + F(1, 2) * t for b, t in zip(a2, theta))
    g2_root = tuple(x + y for x, y in zip(a2, a3))  # G2 short simple root
    return SuperalgebraPreset(
        name="G(3)",
        params=(),
        gram=gram,
        simple_roots=simple,
        rho=rho,
        h_dual=F(2),
        g_shriek="sl(2)",
        g_shriek_h_dual=F(2),
        defect=1,
        gamma_basis=(a1, theta),
        isotropic_t=(a2,),
        weyl_gens=((a1, -1), (g2_root, -1)),
        eps_minus_translations="trivial",
    )


def _preset_osp32_sub() -> SuperalgebraPreset:
    """osp(3|2) with the subprincipal sl(2) inside the even part."""
    gram, eps, delta = _osp_basis(1, 1, F(1, 2))
    a1 = tuple(d - e for d, e in zip(delta(1), eps(1)))
    a2 = eps(1)
    delta1 = delta(1)
    return SuperalgebraPreset(
        name="osp(3|2)-subprincipal",
        params=(),
        gram=gram,
        simple_roots=((a1, 1), (a2, 1)),
        rho=tuple(-F(1, 2) * x for x in a1),
        h_dual=F(1, 2),
        g_shriek="0",
        g_shriek_h_dual=F(0),
        defect=1,
        gamma_basis=(tuple(4 * x for x in delta1),),
        isotropic_t=(a1,),
        weyl_gens=((delta1, -1),),
        eps_minus_translations="parity_of_halfnorm",
        notes="negative definite subprincipal lattice; characters go "
        "through the half-modulus rank-1 functions",
    )


_ALIASES = {
    "sl21": ("sl", (1, 1)),
    "sl32": ("sl", (2, 1)),
    "osp32": ("osp_odd_low", (1, 1)),
    "osp32_sub": ("osp32_sub", ()),
    "osp42": ("osp_h0", (1,)),
    "d21a": ("d21a", (1, 1)),
    "f4": ("f4", ()),
    "g3": ("g3", ()),
}

_FAMILIES = {
    "sl": _preset_sl,
    "osp_even_low": _preset_osp_even_low,
    "osp_odd_low": _preset_osp_odd_low,
    "osp_odd_high": _preset_osp_odd_high,
    "osp_even_high": _preset_osp_even_high,
    "osp_h0": _preset_osp_h0,
    "d21a": _preset_d21a,
    "f4": _preset_f4,
    "g3": _preset_g3,
    "osp32_sub": _preset_osp32_sub,
}


def preset(name: str, params: tuple = None) -> SuperalgebraPreset:
    """Construct a preset by family name (or an alias like 'sl21')."""
    if name in _ALIASES and params is None:
        fam, params = _ALIASES[name]
        return _FAMILIES[fam](*params)
    if name not in _FAMILIES:
        raise UnsupportedCase(f"unknown case {name!r}")
    return _FAMILIES[name](*(params or ()))


# ---------------------------------------------------------------------------
# integrability predicates


def _is_nonneg_int(x) -> bool:
    x = as_fraction(x)
    return x.denominator == 1 and x >= 0


def integrable(pre: SuperalgebraPreset, w: WeightSpec) -> bool:
    """Case-by-case exact integrability test for level-k highest weights
    orthogonal to the isotropic set."""
    name = pre.name
    k = w.k
    labels = w.labels
    if name.startswith("sl("):
        if not (k.denominator == 1 and k > 0):
            return False
        ks = list(labels)
        if len(ks) != len(pre.gamma_basis):
            raise ValueError("label count must equal rank")
        if any(not _is_nonneg_int(x) for x in ks):
            return False
        chain = [k] + ks
        return all(a >= b for a, b in zip(chain, chain[1:]))
    if name.startswith("osp(") and pre.h_dual == F(0):
        # osp(2n+2|2n)
        n = pre.params[0]
        if not (k.denominator == 1 and k > 0):
            return False
        *ks, klast = labels
        if len(ks) != n:
            raise ValueError("need n+1 labels")
        if (2 * klast).denominator != 1:
            return False
        if any((x - klast).denominator != 1 for x in ks):
            return False
        if any(x < 0 for x in ks):
            return False
        if sorted(ks, reverse=True) != list(ks):
            return False
        if ks and ks[-1] < abs(klast):
            return False
        second = ks[1] if n >= 2 else klast
        if k < ks[0] + second:
            return False
        if k == ks[0] + second and ks[0] != second:
            return False
        return True
    if "subprincipal" in name:
        if labels and len(labels) == 1:
            mlab = labels[0]
            if (4 * k).denominator != 1 or mlab.denominator != 1:
                return False
            if k == F(-1, 2) and mlab == 1:
                return True
            return k <= F(-1, 2) and 0 <= mlab <= -(4 * k + 2)
        return False
    if name.startswith("osp("):
        mm, nn = [int(x) for x in name[4:-1].split("|")]
        if mm % 2 == 0 and mm <= nn + 2:
            # osp(2n|2m): the chain runs from the last label up to k
            if not (k.denominator == 1 and k > 0):
                return False
            ks = list(labels)
            if any(not _is_nonneg_int(x) for x in ks):
                return False
            chain = [k] + ks[::-1]
            return all(a >= b for a, b in zip(chain, chain[1:]))
        if mm % 2 == 1 and mm <= nn + 2:
            # osp(2n+1|2m): same inequalities as the sl chain
            if not (k.denominator == 1 and k > 0):
                return False
            ks = list(labels)
            if any(not _is_nonneg_int(x) for x in ks):
                return False
            chain = [k] + ks
            return all(a >= b for a, b in zip(chain, chain[1:]))
        if mm % 2 == 1:
            # osp(2m+1|2n), m > n
            if not (k.denominator == 1 and k > 0):
                return False
            ks = list(labels)
            k1 = ks[0]
            if (2 * k1).denominator != 1 or k1 < 0:
                return False
            if any((x - k1).denominator != 1 or x - k1 < 0 for x in ks[1:]):
                return False
            if sorted(ks) != ks:
                return False
            if len(ks) >= 2 and k < ks[-1] + ks[-2]:
                return False
            return True
        # osp(2m|2n), m > n + 2
        if not (k.denominator == 1 and k > 0):
            return False
        ks = list(labels)
        k1 = ks[0]
        if (2 * k1).denominator != 1:
            return False
        if any((x - k1).denominator != 1 for x in ks[1:]):
            return False
        rest = ks[1:]
        if sorted(rest) != rest:
            return False
        if rest and rest[0] < abs(k1):
            return False
        if len(ks) >= 2 and k < ks[-1] + (ks[-2] if len(ks) >= 3 else abs(k1)):
            return False
        if len(ks) >= 2 and ks[1] == -k1 and k1 != 0:
            return False
        return True
    if name.startswith("D(2,1"):
        p, q = pre.params
        if len(labels) == 4:
            m0, m1, m2, m3 = labels
        else:
            k1, k2 = labels
            n = -k * (p + q) / (p * q)
            if n.denominator != 1:
                return False
            if w.side != "T":
                # mirror-side labels correspond to sigma0 of the weight
                # with labels (k1 - qn, (p+q)n - k2)
                k1, k2 = k1 - q * n, (p + q) * n - k2
            m0 = (-p * q * n + p * k2 + (p + q) * k1) / (p + q)
            m1 = F(0)
            m2 = -p * (k1 + k2) / (p + q)
            m3 = -q * k1 / (p + q)
            if w.side != "T":
                m0, m1, m2, m3 = m1, m0, m3, m2
        a = F(-p, p + q)
        c1 = (m1 + m2) / a
        c2 = (m0 + m3) / a
        c3 = -(m1 + m3) / (a + 1)
        c4 = -(m0 + m2) / (a + 1)
        if not all(_is_nonneg_int(c) for c in (c1, c2, c3, c4)):
            return False
        for mi in (m0, m1):
            for mj in (m2, m3):
                if mi + mj == 0 and not (mi == 0 and mj == 0):
                    return False
        return True
    if name == "F(4)":
        k1, k2, k3 = labels
        a0 = k - k2 - k3
        a1 = k2 - k1
        a2 = k1 + k2 - k3
        a3 = k1 - 2 * k2 + 2 * k3
        return all(_is_nonneg_int(x) for x in (a0, a1, a2, a3))
    if name == "G(3)":
        k1, k2 = labels
        return all(
            _is_nonneg_int(x) for x in (k - 2 * k2, 2 * k1, 2 * k2, k2 - k1)
        )
    raise UnsupportedCase(name)


def enumerate_omega(pre: SuperalgebraPreset, k) -> list:
    """Complete list of admissible label vectors at level k, sorted."""
    k = as_fraction(k)
    name = pre.name
    out = []
    if name.startswith("sl(") or (
        name.startswith("osp(") and "subprincipal" not in name and pre.h_dual != 0
    ):
        if k.denominator != 1 or k <= 0:
            raise InfiniteSet(f"level {k} admits no finite enumeration here")
        rank = len(pre.gamma_basis)
        mm_nn = None
        half_first = False
        signed_first = False
        if name.startswith("osp("):
            mm, nn = [int(x) for x in name[4:-1].split("|")]
            if mm % 2 == 1 and mm > nn:
                half_first = True
            if mm % 2 == 0 and mm > nn + 2:
                half_first = True
                signed_first = True
        max_label = int(k)
        if half_first:
            base_vals = [F(i, 2) for i in range(0, 4 * max_label + 5)]
            if signed_first:
                base_vals = [F(i, 2) for i in range(-4 * max_label - 4, 4 * max_label + 5)]
        else:
            base_vals = [F(i) for i in range(0, max_label + 1)]
        for combo in itertools.product(base_vals, repeat=rank):
            wspec = WeightSpec(k, combo)
            try:
                ok = integrable(pre, wspec)
            except ValueError:
                continue
            if ok:
                out.append(wspec)
        return sorted(out, key=lambda w: w.labels)
    if name.startswith("D(2,1"):
        p, q = pre.params
        n = -k * (p + q) / (p * q)
        if n.denominator != 1 or n <= 0:
            raise UnsupportedCase(f"level {k} is not -pqn/(p+q) for integer n")
        n = int(n)
        for side in ("T", "Tp"):
            span = (p + q) * n * 3 + 3
            for k1 in range(-span, span + 1):
                for k2 in range(-span, span + 1):
                    wspec = WeightSpec(k, (k1, k2), side=side)
                    if integrable(pre, wspec):
                        out.append(wspec)
        return sorted(out, key=lambda w: (w.side, w.labels))
    if "subprincipal" in name:
        if (4 * k).denominator != 1 or k > F(-1, 2):
            raise UnsupportedCase("subprincipal needs k in (1/4)Z, k <= -1/2")
        top = -(4 * k + 2)
        for side in ("T", "Tp"):
            for mlab in range(0, int(top) + 1):
                out.append(WeightSpec(k, (mlab,), side=side))
        return out
    if name == "F(4)":
        if k.denominator != 1 or k <= 0:
            raise InfiniteSet("F(4) enumeration needs positive integer k")
        for a1 in range(0, int(k) // 2 + 1):
            for a2 in range(0, int(k) + 1):
                for a3 in range(0, int(k) + 1):
                    if 2 * a1 + a2 + a3 > k:
                        continue
                    k1 = F(2 * a2 + a3, 3)
                    k2 = F(3 * a1 + 2 * a2 + a3, 3)
                    k3 = F(3 * a1 + a2 + 2 * a3, 3)
                    out.append(WeightSpec(k, (k1, k2, k3)))
        return sorted(out, key=lambda w: w.labels)
    if name == "G(3)":
        if k.denominator != 1 or k <= 0:
            raise InfiniteSet("G(3) enumeration needs positive integer k")
        vals = [F(i, 2) for i in range(0, 2 * int(k) + 1)]
        for k1 in vals:
            for k2 in vals:
                wspec = WeightSpec(k, (k1, k2))
                if integrable(pre, wspec):
                    out.append(wspec)
        return sorted(out, key=lambda w: w.labels)
    if name.startswith("osp(") and pre.h_dual == 0:
        if k.denominator != 1 or k <= 0:
            raise InfiniteSet("need positive integer k")
        n = pre.params[0]
        vals = [F(i) for i in range(0, int(k) + 1)]
        half_vals = [F(i, 2) for i in range(-2 * int(k), 2 * int(k) + 1)]
        for combo in itertools.product(vals, repeat=n):
            for klast in half_vals:
                wspec = WeightSpec(k, combo + (klast,))
                if integrable(pre, wspec):
                    out.append(wspec)
        return sorted(out, key=lambda w: w.labels)
    raise UnsupportedCase(name)
