"""Assembly of normalized (super)denominators, (modified) supercharacter
numerators, closed-form level-1 supercharacters, and twisted variants for
the wired algebra cases.

Coordinate frames.  A point is (tau, z, t), and z stands for the vector
F z of the preset's ambient space, F the case's frame matrix, whose
columns are given in the preset's basis:

  sl(2|1)    F = (0, 1, -1), (-1, 0, 1) in (eps1, eps2, delta1):
             z = -z1 a2 - z2 a1, (z|z) = 2 z1 z2
  osp(3|2)   F = (1, 1), (-1, 1) in (eps1, delta1): z = z1 (a1 + 2 a2) + z2 a1,
             (z|z) = -2 z1 z2 (the principal and the subprincipal system)
  osp(4|2)   F = identity in (eps1, eps2, delta1): z = (x1, x2, y1),
             (z|z) = x1^2 + x2^2 - y1^2
  D(2,1;a)   F = identity in the simple roots: z = u1 a1 + u2 a2 + u3 a3
  level-1 osp (no system): z = (x_1..x_m, y_1..y_n), (z|z) = sum x^2 - sum y^2

One table, ``_CASES``, maps each wired case name to its system class.  A
class declares its preset, its frame F and the ch_tilde variants it
wires; its roots, Weyl images, lattice context, level rule and
denominator constants are derived from the preset and F.
``check_request`` reads them before any series is evaluated, and every
system answers the one ``numerator(w, point)`` interface, so ``ch_tilde``
never branches on a case name.  Only sl(2|1), the one case that wires the
unmodified and plus-type supercharacters, takes the ``modified`` and
``plus`` flags.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

from .core import VARIANTS, ModularPoint, SeriesValue, as_fraction, cexp
from .errors import UnsupportedCase, ZeroDivisorProximity
from .lattice import (
    LatticeContext, Weight, _eliminate, build_modification, eval_modified, lattice_mock_theta,
    validate_context,
)
from .mock import MockIndex, phi
from .modifier import phi_tilde
from .superalg import WeightSpec, d21a_level, preset, weyl_sharp_orbit
from .theta import eta, theta_ab, theta_jm

F = Fraction
_2PI_I = 2j * math.pi


def _num(x: Fraction):
    """x as an int where it is integral, else as a float."""
    return int(x) if x.denominator == 1 else float(x)


def _coords(pre, basis, vectors) -> tuple:
    """Rows of the matrix (B^T G B)^-1 B^T G V, B the basis and V the
    vectors as columns, G the preset's Gram: the coordinates in the basis
    of each vector's projection onto its span, exact, then by _num."""
    gram = [[pre.pair(u, v) for v in basis] for u in basis]
    _, cols = _eliminate(gram, [[pre.pair(u, v) for u in basis] for v in vectors])
    return tuple(tuple(_num(col[i]) for col in cols) for i in range(len(basis)))


def _apply(matrix, z) -> tuple:
    """matrix . z, skipping the zero entries (exact where both are)."""
    return tuple(sum(c * x for c, x in zip(row, z) if c) for row in matrix)


def gram_quad(gram):
    """Quadratic form from a full Gram matrix on the coordinate frame."""
    g = np.asarray(gram, dtype=complex)

    def quad(za, zb):
        va = np.asarray(za, dtype=complex)
        vb = np.asarray(zb, dtype=complex)
        return complex(va @ g @ vb)

    return quad


class CharacterSystem:
    """One wired algebra case.

    A subclass declares only what is its own: ``name``, the case whose
    preset ``preset(name, params)`` it realises for the ``params`` it is
    built with; its ``frame`` F, whose columns are the ambient vectors of
    the frame coordinates (None: the identity); and its numerator rule.
    With G the preset's Gram and B its gamma basis then T, the rest is
    derived once: ``frame_gram`` F^T G F; ``pos_roots``, each positive
    root alpha as the functional alpha^T G F of point.z; ``weyl_images``,
    (F^T G F)^-1 F^T G W F with eps^-(W) and eps^+(W) for each W of W#;
    ``to_ctx``, the map (B^T G B)^-1 B^T G F to the lattice context's
    frame; h_dual, the lattice context and with it the level rule; and,
    with d0 even and d1 odd positive roots (eq 4.6), sdim = n_z + 2(d0 -
    d1), the eta power n_z - d0 + d1 and the i-powers d0 - d1
    (superdenominator) and d0 (denominator).

    VARIANTS lists the ch_tilde variants the case wires and n_labels, the
    rank of the preset's lattice, the length of its WeightSpec.labels;
    check_request reads both, and the level rule check_level, before any
    series is evaluated.
    """

    name: str
    frame = None  # columns: the ambient vectors of the frame coordinates
    MODE = "unsigned"  # the sign mode of the lattice context
    VARIANTS = ("ch_minus_modified", "numerator_only", "denominator_only")
    SIDES = ("T",)  # the isotropic sets whose weights numerator() wires

    def __init__(self, params: tuple = None):
        self.pre = pre = preset(self.name, params)
        self.h_dual = pre.h_dual
        self.n_labels = len(pre.gamma_basis)
        dim = len(pre.gram)
        self.frame = cols = self.frame or tuple(
            tuple(int(i == j) for i in range(dim)) for j in range(dim))
        self.frame_gram = np.array([[float(pre.pair(u, v)) for v in cols] for u in cols])
        self.quad = gram_quad(self.frame_gram)  # callable (za, zb) -> (za|zb)
        self.pos_roots = tuple(
            (tuple(_num(pre.pair(root, c)) for c in cols), parity)
            for root, parity in pre.pos_roots
        )
        self.weyl_images = tuple(
            (_coords(pre, cols, [_apply(el.matrix, c) for c in cols]), el.eps_minus, el.eps_plus)
            for el in sorted(weyl_sharp_orbit(pre), key=lambda el: el.word)
        )
        self.to_ctx = _coords(pre, pre.gamma_basis + pre.isotropic_t, cols)
        d1 = sum(parity for _, parity in self.pos_roots)
        d0 = len(self.pos_roots) - d1
        self.n_z = len(cols)
        self.sdim = self.n_z + 2 * (d0 - d1)
        self.eta_power = self.n_z - d0 + d1
        self.i_power_minus = d0 - d1
        self.i_power_plus = d0
        self._gamma_gram = tuple(
            tuple(pre.pair(u, v) for v in pre.gamma_basis) for u in pre.gamma_basis
        )

    def context(self, k) -> LatticeContext:
        """The lattice context of the level-k numerators, at level k + h_dual."""
        return LatticeContext(self._gamma_gram, self.pre.defect, k + self.h_dual, self.MODE)

    @functools.cache
    def check_level(self, k) -> None:
        """Raise UnsupportedCase for a level the case's lattice does not take;
        a level that passes is remembered, so a repeat costs a lookup."""
        ctx = self.context(k)
        bad = validate_context(ctx)
        if bad:
            raise UnsupportedCase(
                f"case {self.name} takes no level {k} (lattice level k + h_dual = {ctx.k}: "
                + "; ".join(bad) + ")"
            )

    def _refuse(self, w: WeightSpec) -> None:
        """Raise UnsupportedCase for a numerator this system does not wire."""
        if "numerator_only" not in self.VARIANTS:
            raise UnsupportedCase(f"case {self.name} wires no numerator")
        if w.side not in self.SIDES:
            raise UnsupportedCase(f"{self.name} wires no {w.side}-side numerator")

    def numerators(self, ws, point: ModularPoint) -> list:
        """The modified numerator at each weight of ws; a system whose rows
        share factors overrides it to compute them once."""
        return [self.numerator(w, point) for w in ws]

    def normalized(self, ws, point: ModularPoint) -> list:
        """ch_tilde at each weight of ws: the numerators, then one
        superdenominator, with ch_tilde's guard and division per row."""
        nums = self.numerators(ws, point)
        den = self.denominator(-1, point)
        return [_quotient(num, den) for num in nums]

    def images(self, z) -> list:
        """(w z, eps^-(w)) for each w of W#, in the lexicographic order of
        the words of w (its generators in the order they act)."""
        return [(_apply(m, z), eps) for m, eps, _ in self.weyl_images]

    def _weyl_sum(self, point: ModularPoint, evaluate) -> SeriesValue:
        """Sum of eps * evaluate(pz) over the Weyl images (z, eps) of
        point.z, each carried to the lattice frame as pz."""
        total = SeriesValue(0.0, 0.0, 0)
        for zi, eps in self.images(point.z):
            pz = ModularPoint(point.tau, _apply(self.to_ctx, zi), point.t)
            total = total + eps * evaluate(pz)
        return total

    def denominator(self, sign, point: ModularPoint) -> SeriesValue:
        """Weyl (super)denominator as eta power times a theta quotient.

        For the superdenominator (sign = -1) every root contributes a
        theta11; the denominator (sign = +1) puts theta10 at the odd roots
        and uses i^{d0} in place of i^{d0-d1}.
        """
        tau = point.tau
        i_power = self.i_power_minus if sign == -1 else self.i_power_plus
        e = eta(tau)
        value = SeriesValue(
            (1j) ** (i_power % 4) * cexp(_2PI_I * float(self.h_dual) * point.t), 0.0, 0
        )
        value = value * e
        for _ in range(self.eta_power - 1):
            value = value * e
        for coeffs, parity in self.pos_roots:
            arg = sum(c * w for c, w in zip(coeffs, point.z))
            if parity == 0:
                value = value * theta_ab(1, 1, tau, arg)
            else:
                th = theta_ab(1, 1 if sign == -1 else 0, tau, arg)
                if abs(th.value) < 1e-10:
                    raise ZeroDivisorProximity(f"theta factor vanishes at {arg}")
                value = value / th
        return value


# ---------------------------------------------------------------------------
# sl(2|1)


class Sl21System(CharacterSystem):
    """sl(2|1): frame z = -z1 a2 - z2 a1; weights k Lambda_0 + k1 beta."""

    name = "sl21"
    VARIANTS = VARIANTS  # the only case with the unmodified and twisted ones
    frame = ((0, 1, -1), (-1, 0, 1))  # z1, z2 in (eps1, eps2, delta1)
    # xi = (a1 + a2)/2 has alpha(xi) in p(alpha)/2 + Z for all roots: the
    # frame shift (z1, z2) -> (z1 - 1/2, z2 - 1/2), |xi|^2, and the pairing
    # (beta1|xi) of each label of lambda-bar = k1 beta1
    xi = (-0.5, -0.5)
    xi_norm = 0.5
    xi_pairing = (0.5,)

    def numerator(
        self,
        w: WeightSpec,
        point: ModularPoint,
        modified: bool = True,
        plus: bool = False,
    ) -> SeriesValue:
        """The modified numerator, or with ``modified=False`` the unmodified
        one, whose (1 - ...) denominator factors ``plus`` turns to (1 + ...)."""
        self._refuse(w)
        if plus and modified:
            raise UnsupportedCase("the plus-type numerator is wired only unmodified")
        (k1,) = w.labels
        ctx = self.context(w.k)
        lam = Weight(ctx.k, (F(0), as_fraction(k1)))
        if modified:
            res = build_modification(ctx, lam)
            return self._weyl_sum(point, lambda pz: eval_modified(res, pz))
        # eps_plus = eps_minus here
        return self._weyl_sum(
            point, lambda pz: lattice_mock_theta(ctx, lam, pz, denominator_plus=plus)
        )


# ---------------------------------------------------------------------------
# osp(3|2), principal system (positive definite lattice, signed route)


class Osp32System(CharacterSystem):
    """osp(3|2): frame z = z1 (a1 + 2 a2) + z2 a1 (a1 = d1-e1, a2 = e1)."""

    name = "osp32"
    MODE = "minus"
    frame = ((1, 1), (-1, 1))  # z1, z2 in (eps1, delta1)

    def numerator(self, w: WeightSpec, point: ModularPoint) -> SeriesValue:
        """Signed-route numerator: the shifted weight lands on the lattice
        weight class (lambda + xi0 is the physical highest weight plus the
        Weyl vector, with lambda integral against the lattice)."""
        self._refuse(w)
        (k1,) = w.labels
        ctx = self.context(w.k)
        lam = Weight(ctx.k, (F(0), as_fraction(k1) + 1))
        res = build_modification(ctx, lam)
        return self._weyl_sum(point, lambda pz: eval_modified(res, pz, xi_shift=True))


# ---------------------------------------------------------------------------
# osp(4|2) = osp(2n+2|2n), n = 1


class Osp42System(CharacterSystem):
    """osp(4|2): the preset's orthogonal frame (x1, x2, y1)."""

    name = "osp42"
    SIDES = ("T", "Tp")

    def numerator(self, w: WeightSpec, point: ModularPoint) -> SeriesValue:
        """Modified numerator; a mirror-side (Tp) class, the other half of
        the eq 6.6 span, takes the theta of index 2 k2 + 2k at the same z
        arguments (with no lattice context to refuse an off-rule level,
        it checks the level itself)."""
        self._refuse(w)
        k1, k2 = w.labels  # beta label, eps2 label
        if w.side == "Tp":
            self.check_level(w.k)
            k = int(w.k)
            tot = SeriesValue(0.0, 0.0, 0)
            for zi, eps in self.images(point.z):
                x1, x2, y1 = zi
                th = theta_jm(int(2 * k2) + 2 * k, 2 * k, point.tau, x1 + x2 + y1)
                ph = phi_tilde(MockIndex(k, 0), point.tau, -x1 - y1, x2 + y1)
                tot = tot + eps * (th * ph)
            return tot * cmath.exp(2j * cmath.pi * k * complex(point.t))
        ctx = self.context(w.k)
        lam = Weight(ctx.k, (F(0), as_fraction(k2) / 2, as_fraction(k1)))
        res = build_modification(ctx, lam)
        return self._weyl_sum(point, lambda pz: eval_modified(res, pz))


# ---------------------------------------------------------------------------
# D(2,1;a): closed two-term form


class D21aSystem(CharacterSystem):
    """D(2,1;a), a = -p/(p+q): frame z = u1 a1 + u2 a2 + u3 a3, the
    preset's simple-root coordinates."""

    name = "d21a"
    SIDES = ("T", "Tp")

    def __init__(self, params: tuple = None):
        super().__init__(params)  # the preset refuses p, q that are not coprime and positive
        self.p, self.q = self.pre.params
        self.a = F(-self.p, self.p + self.q)

    def functional(self, coeffs, z):
        return complex(np.asarray(coeffs, dtype=float) @ self.frame_gram @ np.asarray(z))

    def check_level(self, k) -> None:
        d21a_level(self.p, self.q, k)

    def numerator(self, w: WeightSpec, point: ModularPoint) -> SeriesValue:
        """The class nu = k2 (T side) or -k2 (Tp side) at level n."""
        self._refuse(w)
        return self.numerator_nu(self._nu(w), d21a_level(self.p, self.q, w.k), point)

    def numerators(self, ws, point: ModularPoint) -> list:
        """numerator at each weight of ws, the nu-free factors once per level."""
        for w in ws:
            self._refuse(w)
        levels = [d21a_level(self.p, self.q, w.k) for w in ws]
        shared = {n: self._nu_free(n, point) for n in set(levels)}
        return [self._two_term(self._nu(w), point.tau, shared[n]) for w, n in zip(ws, levels)]

    @staticmethod
    def _nu(w: WeightSpec) -> int:
        return int(w.labels[1]) if w.side == "T" else int(-w.labels[1])

    def numerator_nu(self, nu: int, n: int, point: ModularPoint) -> SeriesValue:
        """Two-term closed form of the modified numerator for class nu."""
        return self._two_term(nu, point.tau, self._nu_free(n, point))

    def _nu_free(self, n: int, point: ModularPoint) -> tuple:
        """numerator_nu's factors that do not depend on nu: the theta index,
        the two theta arguments, the two phi_tilde and the t-prefactor."""
        p, q = self.p, self.q
        a = float(self.a)
        tau, z, f = point.tau, point.z, self.functional
        idx = MockIndex(p * n, 0)
        pref = cexp(_2PI_I * float(F(-p * q * n, p + q)) * complex(point.t))
        return ((p + q) * n, f((1, a + 1, a), z), f((-1, a - 1, a), z),
                phi_tilde(idx, tau, f((-1, 0, 0), z), f((0, 0, -1), z)),
                phi_tilde(idx, tau, f((1, 1, 1), z), f((0, -1, 0), z)), pref)

    @staticmethod
    def _two_term(nu: int, tau, shared: tuple) -> SeriesValue:
        N, argA, argA2, phi1, phi2, pref = shared
        term1 = theta_jm(nu, N, tau, argA) * phi1
        term2 = theta_jm(nu, N, tau, argA2) * phi2
        return pref * (term1 + term2)


# ---------------------------------------------------------------------------
# osp(3|2) subprincipal: the four spanning functions f1..f4


def psi_fn(
    M,
    s,
    tau: complex,
    z1: complex,
    z2: complex,
    t: complex,
    modified: bool = True,
) -> SeriesValue:
    """e^{-2 pi i M t} (F(tau,z1,z2) - F(tau,-z2,-z1)) with F the plus-signed
    (modified) rank-1 mock theta function of degree M and shift s."""
    idx = MockIndex(as_fraction(M), as_fraction(s), "plus")
    f = phi_tilde if modified else phi
    one = f(idx, tau, z1, z2)
    two = f(idx, tau, -z2, -z1)
    return cexp(-_2PI_I * float(M) * complex(t)) * (one - two)


# i -> (a, b, prefactor): R^- f_i = prefactor e^{-pi i t/2} eta^3
# theta11((z1+z2)/2) / (theta_ab(z1/2) theta_ab(z2/2))
_F_CLOSED = {1: (1, 1, -1j), 2: (1, 0, 1j), 3: (0, 1, -1j), 4: (0, 0, -1j)}


class Osp32SubSystem(Osp32System):
    """osp(3|2) with the subprincipal sl(2); reuses the osp(3|2) frame F.
    Its supercharacters are spanned by f_function, not by ch_tilde."""

    name = "osp32_sub"
    VARIANTS = ("denominator_only",)

    def check_level(self, k) -> None:
        """Every level: only the k-free denominator is wired."""

    def f_function(self, i: int, k, point: ModularPoint) -> SeriesValue:
        """f_i, one of the four functions spanning the level-k modified
        supercharacters."""
        return self._f_quotients(k, point, (i,))[0]

    def f_functions(self, k, point: ModularPoint) -> list:
        """f_1..f_4 over one superdenominator."""
        return self._f_quotients(k, point, (1, 2, 3, 4))

    def _f_quotients(self, k, point: ModularPoint, rows) -> list:
        k = as_fraction(k)
        M = -4 * k - 2
        if M <= 0:
            raise UnsupportedCase("need k < -1/2")
        if not set(rows) <= {1, 2, 3, 4}:
            raise ValueError("i must be 1..4")
        tau, (z1, z2), t = point.tau, point.z, point.t
        den = self.denominator(-1, point)
        if abs(den.value) < 1e-12:
            raise ZeroDivisorProximity("superdenominator vanishes")
        out = []
        for i in rows:
            a, b = divmod(i - 1, 2)  # f_i reads psi at z + a tau + b
            num = psi_fn(M, 0, tau, (z1 + a * tau + b) / 2, (z2 + a * tau + b) / 2, t / 4)
            if a:
                num = cexp(-1j * math.pi * float(2 * k + 1) * (z1 + z2 + tau)) * num
            out.append(num / den)
        return out

    def f_closed_quotient(self, i: int, point: ModularPoint) -> SeriesValue:
        """Theta-quotient closed forms of R^- f_i at k = -3/4.

        The fourth one carries theta11 in the numerator; a theta00 there
        would contradict the tau -> tau+1 relation, which swaps f3 and f4.
        """
        if i not in _F_CLOSED:
            raise ValueError("i must be 1..4")
        a, b, pref = _F_CLOSED[i]
        tau, (z1, z2), t = point.tau, point.z, point.t
        e3 = eta(tau)
        e3 = e3 * e3 * e3
        tphase = cexp(-1j * math.pi * t / 2)
        t11 = theta_ab(1, 1, tau, (z1 + z2) / 2)
        den = theta_ab(a, b, tau, z1 / 2) * theta_ab(a, b, tau, z2 / 2)
        num = pref * tphase * (e3 * t11)
        return num / den


# ---------------------------------------------------------------------------
# level-1 osp(M|N) closed forms


# combo -> the theta_ab index of every x and y factor
_LEVEL1_THETA = {"sum01": (0, 0), "diff01": (0, 1), "twisted": (1, 0), "diff_top": (1, 1)}


def level1_osp_supercharacter(M: int, N: int, combo: str):
    """Closed eta/theta forms of the level-1 orthosymplectic supercharacters,
    as a function of the point.

    combo: 'sum01' | 'diff01' | 'twisted' | 'diff_top' (the last only for
    even M).  Frame: (tau, x_1..x_m, y_1..y_n, t).
    """
    if N % 2:
        raise UnsupportedCase("N must be even")
    n = N // 2
    m = M // 2
    odd = M % 2 == 1
    if combo not in _LEVEL1_THETA:
        raise UnsupportedCase(f"unknown combo {combo!r}")
    if combo == "diff_top" and odd:
        raise UnsupportedCase("diff_top exists only for even M")
    ab = _LEVEL1_THETA[combo]
    units = {"twisted": (-1j) ** (n % 4), "diff_top": (-1) ** (n % 2) * 1j ** (m % 4)}
    unit = units.get(combo, 1)

    def character(point: ModularPoint) -> SeriesValue:
        tau, t = point.tau, point.t
        xs = point.z[:m]
        ys = point.z[m:]
        e = eta(tau)
        val = SeriesValue(cexp(_2PI_I * complex(t)), 0.0, 0)
        if odd and combo == "sum01":
            val = val * e * e / (eta(tau / 2) * eta(2 * tau))
        elif odd:
            val = val * eta(tau / 2 if combo == "diff01" else 2 * tau) / e
        val = val * unit
        power = n - m
        for _ in range(abs(power)):
            val = val * e if power > 0 else val / e
        for x in xs:
            val = val * theta_ab(*ab, tau, x)
        for y in ys:
            th = theta_ab(*ab, tau, y)
            if abs(th.value) < 1e-12:
                raise ZeroDivisorProximity("theta factor vanishes")
            val = val / th
        return val

    return character


def level1_quad(M: int, N: int):
    return gram_quad(np.diag([1.0] * (M // 2) + [-1.0] * (N // 2)))


# ---------------------------------------------------------------------------
# high-level evaluation


_CASES = {
    "sl21": Sl21System,
    "osp32": Osp32System,
    "osp32_sub": Osp32SubSystem,
    "osp42": Osp42System,
    "d21a": D21aSystem,  # params (p, q)
}


@functools.cache
def system(name: str, params: tuple = None) -> CharacterSystem:
    """The character system of a wired case, built once per (name, params)."""
    if name not in _CASES:
        raise UnsupportedCase(f"no wired character system for {name!r}")
    return _CASES[name](params)


def check_request(
    case: str, w: WeightSpec, variant: str = "ch_minus_modified", params: tuple = None
) -> CharacterSystem:
    """The system of a case, once the case wires the variant, w has the
    case's label count and w.k is one of its levels; raises before any
    series is evaluated (ValueError for an unknown variant or a wrong
    label count, UnsupportedCase for the rest)."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    sys = system(case, params)
    if variant not in sys.VARIANTS:
        raise UnsupportedCase(
            f"case {case} wires no {variant}; it wires {', '.join(sys.VARIANTS)}"
        )
    if len(w.labels) != sys.n_labels:
        raise ValueError(
            f"case {case} takes {sys.n_labels} weight label(s), got {len(w.labels)}"
        )
    sys.check_level(w.k)
    return sys


def ch_tilde(
    case: str,
    w: WeightSpec,
    point: ModularPoint,
    variant: str = "ch_minus_modified",
    params: tuple = None,
) -> SeriesValue:
    """Modified normalized supercharacter (and variants) for a wired case."""
    sys = check_request(case, w, variant, params)
    if variant == "denominator_only":
        return sys.denominator(-1, point)
    phase = None
    if variant in ("ch_plus_modified", "tw_minus_modified", "tw_plus_modified"):
        point, phase = _twist(sys, w, point, variant)
    if variant == "ch_minus":  # check_request lets it through for sl21 only
        num = sys.numerator(w, point, modified=False)
    else:
        num = sys.numerator(w, point)
    if variant == "numerator_only":
        return num
    quot = _quotient(num, sys.denominator(-1, point))
    return quot if phase is None else phase * quot


def _quotient(num: SeriesValue, den: SeriesValue) -> SeriesValue:
    """num / den, refused where the superdenominator is too small against num."""
    if abs(den.value) < 1e-10 * max(1.0, abs(num.value)):
        raise ZeroDivisorProximity("superdenominator too small")
    return num / den


def _twist(sys, w, point, variant):
    """The xi-shifted point at which ch~^+ and the twisted variants take
    ch~^-, and the phase e^{-2 pi i (lambda|xi)} of the plus-type ones."""
    tau, z, t = point.tau, point.z, point.t
    xi = sys.xi
    phase = cmath.exp(-_2PI_I * sum(float(x) * c for x, c in zip(w.labels, sys.xi_pairing)))
    if variant == "ch_plus_modified":
        return ModularPoint(tau, tuple(a + b for a, b in zip(z, xi)), t), phase
    t_shift = t + sys.quad(z, xi) + tau * sys.xi_norm / 2.0
    if variant == "tw_minus_modified":
        return ModularPoint(tau, tuple(a + tau * b for a, b in zip(z, xi)), t_shift), None
    # tw_plus_modified
    return ModularPoint(tau, tuple(a + tau * b + b for a, b in zip(z, xi)), t_shift), phase
