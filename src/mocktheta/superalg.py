"""Static data and exact-arithmetic predicates for the basic Lie
superalgebra cases: root systems, normalized forms, dual Coxeter numbers,
the defect-zero orthogonal subalgebra, Weyl-group generators with their
two sign characters, integrability predicates, and the finite weight
enumerations that index the modular families.

One table, ``_FAMILIES``, holds each family's three parts side by side:
the preset constructor, the integrability predicate and the candidate
labels for the finite weight set Omega.  ``preset()`` records the family
key on the preset it builds, and ``integrable`` and ``enumerate_omega``
look that key up; the display name ``SuperalgebraPreset.name`` is only
shown, never parsed.

All label arithmetic is exact (fractions.Fraction); floats appear only
once series get evaluated elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import _dot_gram, as_fraction
from .errors import InfiniteSet, UnsupportedCase

F = Fraction


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
    word: tuple = ()  # generator indices in the order they act


@dataclass(frozen=True)
class SuperalgebraPreset:
    name: str
    gram: tuple  # ambient Gram matrix (rational)
    simple_roots: tuple  # (vector, parity) pairs
    rho: tuple
    h_dual: Fraction
    g_shriek: str
    gamma_basis: tuple
    isotropic_t: tuple
    weyl_gens: tuple = ()  # (root vector, eps_minus) pairs; eps_plus = -1
    pos_roots: tuple = ()  # (vector, parity) pairs; every family but f4 and g3
    eps_minus_translations: str = "trivial"
    family: str = ""  # the _FAMILIES key preset() built this from
    params: tuple = ()  # the family parameters preset() built this with

    @property
    def defect(self) -> int:
        """The size of the maximal isotropic set T."""
        return len(self.isotropic_t)

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

    def reflection_matrix(self, root):
        """r_alpha(v) = v - 2 (v|alpha)/(alpha|alpha) alpha, exact."""
        dim = len(self.gram)
        n2 = self.norm2(root)
        if n2 == 0:
            raise ValueError("cannot reflect in an isotropic root")
        cols = []
        for j in range(dim):
            e = _unit(dim, j)
            coef = 2 * self.pair(e, root) / n2
            cols.append(tuple(e[i] - coef * root[i] for i in range(dim)))
        # cols[j] is the image of e_j; matrix rows from columns
        return tuple(
            tuple(cols[j][i] for j in range(dim)) for i in range(dim)
        )


_WEYL_CAP = 4000  # the largest finite Weyl group weyl_sharp_orbit builds


def weyl_sharp_orbit(preset: SuperalgebraPreset) -> list:
    """The finite Weyl group with both sign characters: the BFS closure of
    the generator reflections."""
    dim = len(preset.gram)
    ident = tuple(_unit(dim, i) for i in range(dim))
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
                        mat, el.eps_plus * ep, el.eps_minus * em, el.word + (gi,)
                    )
                    seen[mat] = cand
                    new.append(cand)
                    if len(seen) > _WEYL_CAP:
                        raise UnsupportedCase("Weyl group exceeds cap")
        frontier = new
    return list(seen.values())


# ---------------------------------------------------------------------------
# preset constructors


def _unit(dim: int, i: int):
    """The standard basis vector e_i (0-based) of Q^dim."""
    return tuple(F(int(r == i)) for r in range(dim))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _chain(chain, sp, tail=""):
    """Simple roots, positive roots (both as (vector, parity) pairs) and rho
    of a chain u_1, ..., u_r.  The simple roots are the u_a - u_{a+1},
    closed by u_r (tail "B"), by u_{r-1} + u_r ("D") or by nothing.  The
    positive roots are the u_a - u_b (a < b) by height; in B the u_a from
    u_r up; in B and D the u_a + u_b and the 2 u_a of the u_a in sp.  The
    u's lie on two sides, sp one of them (the symplectic one in B and D):
    a root is odd where its u's lie on different sides, and u_a where u_a
    lies in sp.  rho is half the even positive roots minus half the odd."""
    side = [u in sp for u in chain]
    r = len(chain)
    pairs = [(a, a + h) for h in range(1, r) for a in range(r - h)]
    roots = [(_sub(chain[a], chain[b]), int(side[a] != side[b])) for a, b in pairs]
    simple = roots[: r - 1]
    if tail == "B":
        simple.append((chain[-1], int(side[-1])))
        roots += [(u, int(s)) for u, s in zip(chain[::-1], side[::-1])]
    if tail == "D":
        simple.append((_add(chain[-2], chain[-1]), int(side[-2] != side[-1])))
    if tail:
        roots += [(_add(chain[a], chain[b]), int(side[a] != side[b])) for a, b in sorted(pairs)]
        roots += [(tuple(2 * x for x in u), 0) for u, s in zip(chain, side) if s]
    rho = tuple(sum(F(1 - 2 * odd, 2) * v[i] for v, odd in roots) for i in range(len(chain[0])))
    return tuple(simple), tuple(roots), rho


def _osp_basis(m: int, n: int, eps_norm: Fraction):
    """Orthogonal basis data: eps_1..eps_m of square eps_norm, then
    delta_1..delta_n of square -eps_norm (both 1-based)."""
    dim = m + n
    gram = tuple(
        tuple(
            (eps_norm if i < m else -eps_norm) * int(i == j) for j in range(dim)
        )
        for i in range(dim)
    )
    return gram, (lambda i: _unit(dim, i - 1)), (lambda j: _unit(dim, m + j - 1))


def _preset_sl(m: int, n: int) -> SuperalgebraPreset:
    """sl(m+1|n), m >= n >= 1; supertrace form on eps_1..eps_{m+1},
    delta_1..delta_n."""
    if not (m >= n >= 1):
        raise UnsupportedCase("sl(m+1|n) needs m >= n >= 1")
    gram, eps, delta = _osp_basis(m + 1, n, F(1))
    chain = [v for i in range(1, n + 1) for v in (eps(i), delta(i))]
    chain += [eps(i) for i in range(n + 1, m + 2)]
    simple, pos, rho = _chain(chain, [delta(i) for i in range(1, n + 1)])
    # rho is fixed up to the form's radical (1, ..., 1, -1, ..., -1), the
    # Gram diagonal: take the representative with eps_{m+1} coordinate 0
    rho = tuple(x - rho[m] * gram[r][r] for r, x in enumerate(rho))
    return SuperalgebraPreset(
        name=f"sl({m+1}|{n})",
        gram=gram,
        simple_roots=simple,
        rho=rho,
        h_dual=F(m + 1 - n),
        g_shriek=f"sl({m+1-n})" if m + 1 - n > 1 else "0",
        gamma_basis=tuple(_sub(eps(m + 1), eps(i)) for i in range(1, m + 1)),
        isotropic_t=tuple(_sub(eps(i), delta(i)) for i in range(1, n + 1)),
        weyl_gens=tuple((_sub(eps(i), eps(i + 1)), -1) for i in range(1, m + 1)),
        pos_roots=pos,
    )


def _preset_osp_even_low(n: int, m: int) -> SuperalgebraPreset:
    """osp(2n|2m), m >= n >= 1: sp side eps_1..eps_m of square 1/2."""
    if not (m >= n >= 1):
        raise UnsupportedCase("osp(2n|2m) preset needs m >= n >= 1")
    gram, eps, delta = _osp_basis(m, n, F(1, 2))
    chain = [eps(i) for i in range(m, n, -1)]
    chain += [v for j in range(n, 0, -1) for v in (eps(j), delta(j))]
    simple, pos, rho = _chain(chain, [eps(i) for i in range(1, m + 1)], "D")
    gens = [(_sub(eps(i), eps(i + 1)), -1) for i in range(1, m)]
    gens.append((tuple(2 * x for x in eps(m)), -1))
    return SuperalgebraPreset(
        name=f"osp({2*n}|{2*m})",
        gram=gram,
        simple_roots=simple,
        rho=rho,
        h_dual=F(m + 1 - n),
        g_shriek=f"sp({2*(m-n)})" if m > n else "0",
        gamma_basis=tuple(tuple(-2 * x for x in eps(i)) for i in range(1, m + 1)),
        isotropic_t=tuple(_sub(eps(i), delta(i)) for i in range(1, n + 1)),
        weyl_gens=tuple(gens),
        pos_roots=pos,
    )


def _preset_osp_odd_low(n: int, m: int) -> SuperalgebraPreset:
    """osp(2n+1|2m), m >= n >= 1: adds short even deltas and odd epsilons."""
    if not (m >= n >= 1):
        raise UnsupportedCase("osp(2n+1|2m) preset needs m >= n >= 1")
    base = _preset_osp_even_low(n, m)
    gram, eps, delta = _osp_basis(m, n, F(1, 2))
    chain = [eps(i) for i in range(m, n, -1)]
    chain += [v for j in range(n, 0, -1) for v in (delta(j), eps(j))]
    simple, pos, rho = _chain(chain, [eps(i) for i in range(1, m + 1)], "B")
    gens = [(_sub(eps(i), eps(i + 1)), -1) for i in range(1, m)]
    gens.append((tuple(2 * x for x in eps(m)), 1))  # half 2eps is the odd eps
    return SuperalgebraPreset(
        name=f"osp({2*n+1}|{2*m})",
        gram=gram,
        simple_roots=simple,
        rho=rho,
        h_dual=F(2 * (m - n) + 1, 2),
        g_shriek=f"osp(1|{2*(m-n)})" if m > n else "0",
        gamma_basis=base.gamma_basis,
        isotropic_t=base.isotropic_t,
        weyl_gens=tuple(gens),
        eps_minus_translations="parity_of_halfnorm",
        pos_roots=pos,
    )


def _preset_osp_odd_high(m: int, n: int) -> SuperalgebraPreset:
    """osp(2m+1|2n), m > n >= 1: so side eps_1..eps_m of square 1."""
    if not (m > n >= 1):
        raise UnsupportedCase("osp(2m+1|2n) preset needs m > n >= 1")
    gram, eps, delta = _osp_basis(m, n, F(1))
    gammas = [_sub(eps(n + 1), eps(i)) for i in range(1, n + 1)]
    gammas.append(tuple(2 * x for x in eps(n + 1)))
    gammas.extend(_sub(eps(i), eps(i - 1)) for i in range(n + 2, m + 1))
    chain = [eps(i) for i in range(m, n, -1)]
    chain += [v for j in range(n, 0, -1) for v in (eps(j), delta(j))]
    simple, pos, rho = _chain(chain, [delta(j) for j in range(1, n + 1)], "B")
    gens = [(_sub(eps(i), eps(i + 1)), -1) for i in range(1, m)]
    gens.append((eps(m), -1))
    return SuperalgebraPreset(
        name=f"osp({2*m+1}|{2*n})",
        gram=gram,
        simple_roots=simple,
        rho=rho,
        h_dual=F(2 * (m - n) - 1),
        g_shriek=f"so({2*(m-n)+1})",
        gamma_basis=tuple(gammas),
        isotropic_t=tuple(_sub(eps(i), delta(i)) for i in range(1, n + 1)),
        weyl_gens=tuple(gens),
        eps_minus_translations="parity_of_halfnorm",
        pos_roots=pos,
    )


def _preset_osp_even_high(m: int, n: int) -> SuperalgebraPreset:
    """osp(2m|2n), m > n + 2, with the isotropic set T."""
    if not (m > n + 2):
        raise UnsupportedCase("osp(2m|2n) preset needs m > n + 2")
    gram, eps, delta = _osp_basis(m, n, F(1))
    gammas = [_sub(eps(i), eps(m)) for i in range(1, n + 1)]
    gammas.append(_add(eps(n + 2), eps(n + 1)))
    gammas.extend(_sub(eps(i), eps(i - 1)) for i in range(n + 2, m + 1))
    chain = [eps(i) for i in range(m, n, -1)]
    chain += [v for j in range(n, 0, -1) for v in (delta(j), eps(j))]
    simple, pos, rho = _chain(chain, [delta(j) for j in range(1, n + 1)], "D")
    gens = [(_sub(eps(i), eps(i + 1)), -1) for i in range(1, m)]
    gens.append((_add(eps(m - 1), eps(m)), -1))
    return SuperalgebraPreset(
        name=f"osp({2*m}|{2*n})",
        gram=gram,
        simple_roots=simple,
        rho=rho,
        h_dual=F(2 * (m - n - 1)),
        g_shriek=f"so({2*(m-n)})",
        gamma_basis=tuple(gammas),
        isotropic_t=tuple(_sub(delta(i), eps(i)) for i in range(1, n + 1)),
        weyl_gens=tuple(gens),
        pos_roots=pos,
    )


def _preset_osp_h0(n: int) -> SuperalgebraPreset:
    """osp(2n+2|2n): the h_dual = 0 orthosymplectic family."""
    if n < 1:
        raise UnsupportedCase("osp(2n+2|2n) needs n >= 1")
    m = n + 1
    gram, eps, delta = _osp_basis(m, n, F(1))
    gammas = [_sub(eps(n + 1), eps(i)) for i in range(1, n + 1)]
    gammas.append(tuple(2 * x for x in eps(n + 1)))
    chain = [v for j in range(1, n + 1) for v in (eps(j), delta(j))] + [eps(n + 1)]
    simple, pos, rho = _chain(chain, [delta(j) for j in range(1, n + 1)], "D")
    gens = [(_sub(eps(i), eps(i + 1)), -1) for i in range(1, m)]
    gens.append((_add(eps(m - 1), eps(m)), -1))
    return SuperalgebraPreset(
        name=f"osp({2*n+2}|{2*n})",
        gram=gram,
        simple_roots=simple,
        rho=rho,
        h_dual=F(0),
        g_shriek="0",
        gamma_basis=tuple(gammas),
        isotropic_t=tuple(_sub(eps(i), delta(i)) for i in range(1, n + 1)),
        weyl_gens=tuple(gens),
        pos_roots=pos,
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
    a1, a2, a3 = (_unit(3, i) for i in range(3))
    simple = ((a1, 1), (a2, 1), (a3, 1))
    g1 = tuple((x + y) / (a + 1) for x, y in zip(a1, a3))
    g2 = tuple(
        (x + y) / a + (x2 + y2) / (a + 1)
        for (x, y), (x2, y2) in zip(zip(a1, a2), zip(a1, a3))
    )
    even1 = _add(a1, a2)
    even2 = _add(a1, a3)
    return SuperalgebraPreset(
        name=f"D(2,1;{a})",
        gram=gram,
        simple_roots=simple,
        rho=(F(0), F(0), F(0)),
        h_dual=F(0),
        g_shriek="0",
        gamma_basis=(g1, g2),
        isotropic_t=(a1,),
        weyl_gens=((even1, -1), (even2, -1)),
        pos_roots=simple + ((_add(even1, a3), 1), (even1, 0), (even2, 0), (_add(a2, a3), 0)),
    )


def _preset_f4() -> SuperalgebraPreset:
    gram = (
        (F(2), F(-1), F(0), F(0)),
        (F(-1), F(0), F(1), F(1, 2)),
        (F(0), F(1), F(0), F(-3, 2)),
        (F(0), F(1, 2), F(-3, 2), F(0)),
    )
    a1, a2, a3, a4 = (_unit(4, i) for i in range(4))
    simple = ((a1, 0), (a2, 1), (a3, 1), (a4, 1))
    g1 = a1
    g2 = tuple(x + y + z for x, y, z in zip(a1, a2, a3))
    g3 = tuple(x + 2 * y + 2 * w for x, y, w in zip(a1, a2, a4))
    rho = _add(g2, g3)
    # so(7) simple roots: a2+a3, a1, a2+a4
    r1 = _add(a2, a3)
    r2 = a1
    r3 = _add(a2, a4)
    return SuperalgebraPreset(
        name="F(4)",
        gram=gram,
        simple_roots=simple,
        rho=rho,
        h_dual=F(3),
        g_shriek="sl(3)",
        gamma_basis=(g1, g2, g3),
        isotropic_t=(a2,),
        weyl_gens=((r1, -1), (r2, -1), (r3, -1)),
    )


def _preset_g3() -> SuperalgebraPreset:
    gram = (
        (F(2), F(-1), F(0)),
        (F(-1), F(0), F(2, 3)),
        (F(0), F(2, 3), F(-2, 3)),
    )
    a1, a2, a3 = (_unit(3, i) for i in range(3))
    simple = ((a1, 0), (a2, 1), (a3, 1))
    theta = tuple(2 * x + 3 * y + 3 * z for x, y, z in zip(a1, a2, a3))
    rho = tuple(-F(1, 2) * b + F(1, 2) * t for b, t in zip(a2, theta))
    g2_root = _add(a2, a3)  # G2 short simple root
    return SuperalgebraPreset(
        name="G(3)",
        gram=gram,
        simple_roots=simple,
        rho=rho,
        h_dual=F(2),
        g_shriek="sl(2)",
        gamma_basis=(a1, theta),
        isotropic_t=(a2,),
        weyl_gens=((a1, -1), (g2_root, -1)),
    )


def _preset_osp32_sub() -> SuperalgebraPreset:
    """osp(3|2) with the subprincipal sl(2) inside the even part: the form,
    roots and rho of osp(3|2), with its own Weyl group, T and gamma."""
    # negative definite subprincipal lattice; characters go through the
    # half-modulus rank-1 functions
    _, eps, delta = _osp_basis(1, 1, F(1, 2))
    return replace(
        _preset_osp_odd_low(1, 1),
        name="osp(3|2)-subprincipal",
        gamma_basis=(tuple(4 * x for x in delta(1)),),
        isotropic_t=(_sub(delta(1), eps(1)),),
        weyl_gens=((delta(1), -1),),
    )


# ---------------------------------------------------------------------------
# integrability predicates: (preset, WeightSpec) -> bool, one per family


def _is_nonneg_int(x) -> bool:
    x = as_fraction(x)
    return x.denominator == 1 and x >= 0


def _integrable_chain(pre, w):
    """osp(2n+1|2m) and sl(m+1|n): integers k > 0 and k >= k_1 >= ... >= 0."""
    chain = (w.k, *w.labels)
    return w.k > 0 and all(_is_nonneg_int(x) for x in chain) and all(
        a >= b for a, b in zip(chain, chain[1:])
    )


def _integrable_sl(pre, w):
    if w.k.denominator == 1 and w.k > 0 and len(w.labels) != len(pre.gamma_basis):
        raise ValueError("label count must equal rank")
    return _integrable_chain(pre, w)


def _integrable_osp_even_low(pre, w):
    # osp(2n|2m): the chain runs from the last label up to k
    return _integrable_chain(pre, replace(w, labels=w.labels[::-1]))


def _integrable_osp_odd_high(pre, w):
    k = w.k
    if not (k.denominator == 1 and k > 0):
        return False
    ks = list(w.labels)
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


def _integrable_osp_even_high(pre, w):
    k = w.k
    if not (k.denominator == 1 and k > 0):
        return False
    ks = list(w.labels)
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


def _integrable_osp_h0(pre, w):
    n = pre.params[0]
    k = w.k
    if not (k.denominator == 1 and k > 0):
        return False
    *ks, klast = w.labels
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


def _integrable_d21a(pre, w):
    # With the marks m1 = 0, m0, m2, m3 of the weight, the T-side
    # conditions c1..c4 >= 0 read c1 = k1 + k2, c2 = qn - k1 - k2, c3 = k1,
    # c4 = pn - k1, all integers; of the pair conditions (mi + mj = 0 only
    # if mi = mj = 0) just two can fire: c4 = 0 with c1 != 0 (m0 + m2) and
    # c2 = 0 with c3 != 0 (m0 + m3).  Tp labels are sigma0 of the weight
    # with labels (k1 - qn, (p+q)n - k2), where the c's only swap in pairs.
    if len(w.labels) != 2:
        raise ValueError("D(2,1;a) weights take two labels (k1, k2)")
    p, q = pre.params
    try:
        n = d21a_level(p, q, w.k)
    except UnsupportedCase:
        return False
    k1, k2 = w.labels
    if k1.denominator != 1 or k2.denominator != 1:
        return False
    k1, k2 = int(k1), int(k2)
    if w.side != "T":
        k1, k2 = k1 - q * n, (p + q) * n - k2
    c1, c2, c3, c4 = k1 + k2, q * n - k1 - k2, k1, p * n - k1
    if min(c1, c2, c3, c4) < 0:
        return False
    return not (c4 == 0 and c1 != 0) and not (c2 == 0 and c3 != 0)


def _integrable_f4(pre, w):
    # F(4) and G(3) take the level rule of _positive_level: k a positive integer
    k1, k2, k3 = w.labels
    marks = (w.k - k2 - k3, k2 - k1, k1 + k2 - k3, k1 - 2 * k2 + 2 * k3)
    return _is_nonneg_int(w.k) and w.k > 0 and all(_is_nonneg_int(x) for x in marks)


def _integrable_g3(pre, w):
    k1, k2 = w.labels
    marks = (w.k - 2 * k2, 2 * k1, 2 * k2, k2 - k1)
    return _is_nonneg_int(w.k) and w.k > 0 and all(_is_nonneg_int(x) for x in marks)


def _integrable_osp32_sub(pre, w):
    k, labels = w.k, w.labels
    if len(labels) != 1:
        return False
    mlab = labels[0]
    if (4 * k).denominator != 1 or mlab.denominator != 1:
        return False
    if k == F(-1, 2) and mlab == 1:
        return True
    return k <= F(-1, 2) and 0 <= mlab <= -(4 * k + 2)


# ---------------------------------------------------------------------------
# Omega candidates: (preset, k) -> a finite list of WeightSpecs holding every
# integrable weight at level k, or InfiniteSet/UnsupportedCase for a level
# the family does not enumerate


def d21a_level(p: int, q: int, k) -> int:
    """The positive integer n with k = -pqn/(p+q) on D(2,1;-p/(p+q))."""
    if p <= 0 or q <= 0:
        raise UnsupportedCase(f"D(2,1;a) needs positive p, q, got ({p}, {q})")
    k = as_fraction(k)
    n = -k * (p + q) / (p * q)
    if n.denominator != 1 or n <= 0:
        raise UnsupportedCase(f"level {k} is not -pqn/(p+q) for integer n")
    return int(n)


def d21a_nu_range(p: int, q: int, n: int) -> list:
    """The classes nu of the level-n span on D(2,1;-p/(p+q)): a complete
    set of residues mod 2(p+q)n, q n - 2(p+q) n < nu <= q n."""
    return list(range(q * n - 2 * (p + q) * n + 1, q * n + 1))


def _positive_level(k, message: str) -> int:
    if k.denominator != 1 or k <= 0:
        raise InfiniteSet(message)
    return int(k)


def _grid(k, *axes, sides=("T",)):
    return [
        WeightSpec(k, labels, side=side)
        for side in sides
        for labels in itertools.product(*axes)
    ]


def _halves(lo: int, hi: int):
    """lo, lo + 1/2, ..., hi."""
    return [F(i, 2) for i in range(2 * lo, 2 * hi + 1)]


def _chain_grid(pre, k, values):
    top = _positive_level(k, f"level {k} admits no finite enumeration here")
    return _grid(k, *[values(top)] * len(pre.gamma_basis))


def _omega_chain(pre, k):
    # sl(m+1|n), osp(2n|2m), osp(2n+1|2m): integers 0 <= k_i <= k
    return _chain_grid(pre, k, lambda top: range(top + 1))


def _omega_osp_odd_high(pre, k):
    # half-integers 0 <= k_1 <= ... <= k_m, and k_m <= k - k_{m-1} <= k
    return _chain_grid(pre, k, lambda top: _halves(0, top))


def _omega_osp_even_high(pre, k):
    # half-integers |k_1| <= k_2 <= ... <= k_m, and k_m <= k - k_{m-1} <= k
    return _chain_grid(pre, k, lambda top: _halves(-top, top))


def _omega_osp_h0(pre, k):
    top = _positive_level(k, "need positive integer k")
    return _grid(k, *[range(top + 1)] * pre.params[0], _halves(-top, top))


def _omega_d21a(pre, k):
    # On the T side c1..c4 of _integrable_d21a are k1 + k2, qn - k1 - k2,
    # k1 and pn - k1: the box 0 <= k1 <= pn, 0 <= k1 + k2 <= qn.  The Tp
    # labels (k1, k2) are read there as (k1 - qn, (p+q)n - k2), with the
    # same four conditions, so the Tp box is the image of the T box.
    p, q = pre.params
    n = d21a_level(p, q, k)
    box = [(k1, k2) for k1 in range(p * n + 1) for k2 in range(-k1, q * n - k1 + 1)]
    return [WeightSpec(k, labels) for labels in box] + [
        WeightSpec(k, (k1 + q * n, (p + q) * n - k2), side="Tp") for k1, k2 in box
    ]


def _omega_f4(pre, k):
    top = _positive_level(k, "F(4) enumeration needs positive integer k")
    # the marks a1, a2, a3 of the so(7) part, with a0 = k - 2a1 - a2 - a3
    return [
        WeightSpec(k, (F(2 * a2 + a3, 3), F(3 * a1 + 2 * a2 + a3, 3),
                       F(3 * a1 + a2 + 2 * a3, 3)))
        for a1, a2, a3 in itertools.product(
            range(top // 2 + 1), range(top + 1), range(top + 1)
        )
        if 2 * a1 + a2 + a3 <= top
    ]


def _omega_g3(pre, k):
    top = _positive_level(k, "G(3) enumeration needs positive integer k")
    return _grid(k, _halves(0, top), _halves(0, top))


def _omega_osp32_sub(pre, k):
    if (4 * k).denominator != 1 or k > F(-1, 2):
        raise UnsupportedCase("subprincipal needs k in (1/4)Z, k <= -1/2")
    return _grid(k, range(int(-(4 * k + 2)) + 1), sides=("T", "Tp"))


# ---------------------------------------------------------------------------
# the family table


class _Family(NamedTuple):
    build: Callable  # (*params) -> SuperalgebraPreset
    integrable: Callable  # (preset, WeightSpec) -> bool
    candidates: Callable  # (preset, k) -> list of WeightSpec


_FAMILIES = {
    "sl": _Family(_preset_sl, _integrable_sl, _omega_chain),
    "osp_even_low": _Family(_preset_osp_even_low, _integrable_osp_even_low, _omega_chain),
    "osp_odd_low": _Family(_preset_osp_odd_low, _integrable_chain, _omega_chain),
    "osp_odd_high": _Family(_preset_osp_odd_high, _integrable_osp_odd_high, _omega_osp_odd_high),
    "osp_even_high": _Family(_preset_osp_even_high, _integrable_osp_even_high, _omega_osp_even_high),
    "osp_h0": _Family(_preset_osp_h0, _integrable_osp_h0, _omega_osp_h0),
    "d21a": _Family(_preset_d21a, _integrable_d21a, _omega_d21a),
    "f4": _Family(_preset_f4, _integrable_f4, _omega_f4),
    "g3": _Family(_preset_g3, _integrable_g3, _omega_g3),
    "osp32_sub": _Family(_preset_osp32_sub, _integrable_osp32_sub, _omega_osp32_sub),
}

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


def preset(name: str, params: tuple = None) -> SuperalgebraPreset:
    """Construct a preset by family name, or by an alias like 'sl21' with no
    parameters or its own; an alias that names a family takes the family's."""
    if name in _ALIASES:
        family, own = _ALIASES[name]
        if params is None or tuple(params) == own:
            name, params = family, own
        elif name not in _FAMILIES:
            raise UnsupportedCase(f"case {name} does not take the parameters {params}")
    if name not in _FAMILIES:
        raise UnsupportedCase(f"unknown case {name!r}")
    try:
        pre = _FAMILIES[name].build(*(params or ()))
    except TypeError as exc:  # a parameter count the family does not take
        raise UnsupportedCase(f"case {name} does not take the parameters {params}") from exc
    return replace(pre, family=name, params=tuple(params or ()))


def _family(pre: SuperalgebraPreset) -> _Family:
    if pre.family not in _FAMILIES:
        raise UnsupportedCase(f"unknown family {pre.family!r}")
    return _FAMILIES[pre.family]


def integrable(pre: SuperalgebraPreset, w: WeightSpec) -> bool:
    """Exact integrability test for a level-k highest weight orthogonal to
    the isotropic set, by the predicate of the preset's family."""
    return _family(pre).integrable(pre, w)


def enumerate_omega(pre: SuperalgebraPreset, k) -> list:
    """Complete list of integrable weights at level k: the family's
    candidates its predicate accepts, sorted by side, then labels."""
    k = as_fraction(k)
    return sorted(
        (w for w in _family(pre).candidates(pre, k) if integrable(pre, w)),
        key=lambda w: (w.side, w.labels),
    )
