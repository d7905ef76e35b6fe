"""Assembly of normalized (super)denominators, (modified) supercharacter
numerators, closed-form level-1 supercharacters, and twisted variants for
the wired algebra cases.

Coordinate frames (documented per case; z is always the tuple point.z):

  sl(2|1)       (tau, z1, z2, t),  z = -z1 a2 - z2 a1,   (z|z) = 2 z1 z2
  osp(3|2)      (tau, z1, z2, t),  z = z1 (a1+2a2) + z2 a1, (z|z) = -2 z1 z2
                (both the principal and the subprincipal system)
  osp(4|2)      (tau, x1, x2, y1, t) in the orthogonal eps/delta basis,
                (z|z) = x1^2 + x2^2 - y1^2
  D(2,1;a)      (tau, u1, u2, u3, t), z = sum u_i alpha_i, Gram pairing
  level-1 osp   (tau, x_1..x_m, y_1..y_n, t), (z|z) = sum x^2 - sum y^2

One table, ``_CASES``, maps each wired case name to its system class.  A
class declares its preset, its frame and roots, the ch_tilde variants it
wires and its label count; h_dual, the lattice context, the level rule and
the denominator constants are derived from the preset and the roots.
``check_request`` reads them before any series is evaluated, and every
system answers the one ``numerator`` interface, so ``ch_tilde`` never
branches on a case name.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_POLICY,
    VARIANTS,
    ModularPoint,
    SeriesValue,
    TruncationPolicy,
    as_fraction,
    cexp,
)
from .errors import UnsupportedCase, ZeroDivisorProximity
from .lattice import (
    LatticeContext, Weight, build_modification, eval_modified, lattice_mock_theta, validate_context,
)
from .mock import MockIndex, phi
from .modifier import phi_tilde
from .superalg import WeightSpec, d21a_level, preset
from .theta import eta, theta_ab, theta_jm

F = Fraction
_2PI_I = 2j * math.pi


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

    A subclass declares only what is its own: ``name`` (and, for a
    family, ``params``), the case whose preset ``preset(name, params)``
    it realises; its frame (``frame_gram``, the positive roots
    ``pos_roots`` as functionals of point.z, ``_frame_to_ctx`` and
    ``weyl_images``); and its numerator rule.  The
    rest is read off the preset or the roots: h_dual, the lattice context
    and with it the level rule, and, with d0 even and d1 odd positive
    roots (eq 4.6), sdim = n_z + 2(d0 - d1), the eta power n_z - d0 + d1
    and the i-powers d0 - d1 (superdenominator) and d0 (denominator).

    VARIANTS lists the ch_tilde variants the case wires and n_labels the
    length of its WeightSpec.labels; check_request reads both, and the
    level rule check_level, before any series is evaluated.
    """

    name: str
    params = None  # the family parameters of the preset, if any
    pos_roots: tuple  # ((coeffs, parity), ...)
    MODE = "unsigned"  # the sign mode of the lattice context
    VARIANTS = ("ch_minus_modified", "numerator_only", "denominator_only")
    SIDES = ("T",)  # the isotropic sets whose weights numerator() wires

    def __init__(self):
        self.pre = pre = preset(self.name, self.params)
        self.h_dual = pre.h_dual
        self.quad = gram_quad(self.frame_gram)  # callable (za, zb) -> (za|zb)
        d1 = sum(parity for _, parity in self.pos_roots)
        d0 = len(self.pos_roots) - d1
        self.n_z = len(self.pos_roots[0][0])
        self.sdim = self.n_z + 2 * (d0 - d1)
        self.eta_power = self.n_z - d0 + d1
        self.i_power_minus = d0 - d1
        self.i_power_plus = d0
        self._gamma_gram = tuple(
            tuple(pre.pair(u, v) for v in pre.gamma_basis) for u in pre.gamma_basis
        )

    @functools.cached_property
    def frame_gram(self) -> np.ndarray:
        """Gram matrix of the frame: the preset's own, unless the frame
        takes other coordinates than the preset's ambient ones."""
        return np.array(self.pre.gram, dtype=float)

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

    def _refuse(self, w: WeightSpec, modified: bool, plus: bool) -> None:
        """Raise UnsupportedCase for a numerator this system does not wire."""
        if "numerator_only" not in self.VARIANTS:
            raise UnsupportedCase(f"case {self.name} wires no numerator")
        if w.side not in self.SIDES:
            raise UnsupportedCase(f"{self.name} wires no {w.side}-side numerator")
        if not modified and "ch_minus" not in self.VARIANTS:
            raise UnsupportedCase(
                f"unmodified supercharacters are wired only for sl21, not {self.name!r}"
            )
        if plus and modified:
            raise UnsupportedCase("the plus-type numerator is wired only unmodified")

    def _weyl_sum(self, point: ModularPoint, evaluate) -> SeriesValue:
        """Sum of eps * evaluate(pz) over the Weyl images (z, eps) of
        point.z, each carried to the lattice frame as pz."""
        total = SeriesValue(0.0, 0.0, 0)
        for zi, eps in self.weyl_images(point.z):
            pz = ModularPoint(point.tau, self._frame_to_ctx(zi), point.t)
            total = total + eps * evaluate(pz)
        return total

    def denominator(self, sign, point: ModularPoint, policy=DEFAULT_POLICY) -> SeriesValue:
        """Weyl (super)denominator as eta power times a theta quotient.

        For the superdenominator (sign = -1) every root contributes a
        theta11; the denominator (sign = +1) puts theta10 at the odd roots
        and uses i^{d0} in place of i^{d0-d1}.
        """
        tau = point.tau
        i_power = self.i_power_minus if sign == -1 else self.i_power_plus
        e = eta(tau, policy)
        value = SeriesValue(
            (1j) ** (i_power % 4) * cexp(_2PI_I * float(self.h_dual) * point.t), 0.0, 0
        )
        value = value * e
        for _ in range(self.eta_power - 1):
            value = value * e
        for coeffs, parity in self.pos_roots:
            arg = sum(c * w for c, w in zip(coeffs, point.z))
            if parity == 0:
                value = value * theta_ab(1, 1, tau, arg, policy)
            else:
                th = theta_ab(1, 1 if sign == -1 else 0, tau, arg, policy)
                if abs(th.value) < 1e-10:
                    raise ZeroDivisorProximity(f"theta factor vanishes at {arg}")
                value = value / th
        return value


# ---------------------------------------------------------------------------
# sl(2|1)


class Sl21System(CharacterSystem):
    """sl(2|1): frame z = -z1 a2 - z2 a1; weights k Lambda_0 + k1 beta."""

    name = "sl21"
    n_labels = 1
    VARIANTS = VARIANTS  # the only case with the unmodified and twisted ones
    frame_gram = ((0, 1), (1, 0))
    pos_roots = (
        ((-1, 0), 1),  # alpha1
        ((0, -1), 1),  # alpha2
        ((-1, -1), 0),  # alpha1 + alpha2
    )
    # xi = (a1 + a2)/2 has alpha(xi) in p(alpha)/2 + Z for all roots: the
    # frame shift (z1, z2) -> (z1 - 1/2, z2 - 1/2), |xi|^2, and the pairing
    # (beta1|xi) of each label of lambda-bar = k1 beta1
    xi = (-0.5, -0.5)
    xi_norm = 0.5
    xi_pairing = (0.5,)

    @staticmethod
    def _frame_to_ctx(z):
        z1, z2 = z
        return (z1, z1 - z2)

    @staticmethod
    def weyl_images(z):
        """(z, eps) pairs for the two Weyl elements."""
        z1, z2 = z
        return (((z1, z2), 1), ((-z2, -z1), -1))

    def numerator(
        self,
        w: WeightSpec,
        point: ModularPoint,
        policy=DEFAULT_POLICY,
        modified: bool = True,
        plus: bool = False,
    ) -> SeriesValue:
        self._refuse(w, modified, plus)
        (k1,) = w.labels
        ctx = self.context(w.k)
        lam = Weight(ctx.k, (F(0), as_fraction(k1)))
        if modified:
            res = build_modification(ctx, lam)
            return self._weyl_sum(point, lambda pz: eval_modified(res, pz, policy))
        # eps_plus = eps_minus here
        return self._weyl_sum(
            point,
            lambda pz: lattice_mock_theta(ctx, lam, pz, policy, denominator_plus=plus),
        )


# ---------------------------------------------------------------------------
# osp(3|2), principal system (positive definite lattice, signed route)


class Osp32System(CharacterSystem):
    """osp(3|2): frame z = z1 (a1 + 2 a2) + z2 a1 (a1 = d1-e1, a2 = e1)."""

    name = "osp32"
    n_labels = 1
    MODE = "minus"
    frame_gram = ((0, -1), (-1, 0))
    pos_roots = (
        ((-1, 0), 1),  # a1
        ((F(1, 2), F(-1, 2)), 1),  # a2 = eps1
        ((F(-1, 2), F(-1, 2)), 0),  # a1 + a2 = delta1
        ((0, -1), 1),  # a1 + 2 a2
        ((1, -1), 0),  # 2 a2
    )

    @staticmethod
    def _frame_to_ctx(z):
        z1, z2 = z
        return (-z1, -(z1 + z2))

    @staticmethod
    def weyl_images(z):
        z1, z2 = z
        # reflection in 2 eps1 swaps z1 and z2; its eps_minus is +1 since
        # eps1 itself is an odd root
        return ((z1, z2), 1), ((z2, z1), 1)

    def numerator(
        self,
        w: WeightSpec,
        point: ModularPoint,
        policy=DEFAULT_POLICY,
        modified: bool = True,
        plus: bool = False,
    ) -> SeriesValue:
        """Signed-route numerator: the shifted weight lands on the lattice
        weight class (lambda + xi0 is the physical highest weight plus the
        Weyl vector, with lambda integral against the lattice)."""
        self._refuse(w, modified, plus)
        (k1,) = w.labels
        ctx = self.context(w.k)
        lam = Weight(ctx.k, (F(0), as_fraction(k1) + 1))
        res = build_modification(ctx, lam)
        return self._weyl_sum(
            point, lambda pz: eval_modified(res, pz, policy, xi_shift=True)
        )


# ---------------------------------------------------------------------------
# osp(4|2) = osp(2n+2|2n), n = 1


class Osp42System(CharacterSystem):
    """osp(4|2): the preset's orthogonal frame (x1, x2, y1)."""

    name = "osp42"
    n_labels = 2
    SIDES = ("T", "Tp")
    # odd a1 = e1-d1, a2 = d1-e2, a3 = d1+e2, theta-like e1+d1;
    # even e1-e2, e1+e2, 2d1
    pos_roots = (
        ((1, 0, -1), 1),
        ((0, -1, 1), 1),
        ((0, 1, 1), 1),
        ((1, 0, 1), 1),
        ((1, -1, 0), 0),
        ((1, 1, 0), 0),
        ((0, 0, 2), 0),
    )

    @staticmethod
    def _frame_to_ctx(z):
        x1, x2, y1 = z
        c3 = -y1
        c1 = -y1 - x1
        c2 = (x2 + x1 + y1) / 2.0
        return (c1, c2, c3)

    @staticmethod
    def weyl_images(z):
        x1, x2, y1 = z
        return (
            ((x1, x2, y1), 1),
            ((x2, x1, y1), -1),
            ((-x1, -x2, y1), 1),
            ((-x2, -x1, y1), -1),
        )

    def numerator(
        self,
        w: WeightSpec,
        point: ModularPoint,
        policy=DEFAULT_POLICY,
        modified: bool = True,
        plus: bool = False,
    ) -> SeriesValue:
        """Modified numerator; a mirror-side (Tp) class, the other half of
        the eq 6.6 span, takes the theta of index 2 k2 + 2k at the same z
        arguments (with no lattice context to refuse an off-rule level,
        it checks the level itself)."""
        self._refuse(w, modified, plus)
        k1, k2 = w.labels  # beta label, eps2 label
        if w.side == "Tp":
            self.check_level(w.k)
            k = int(w.k)
            tot = SeriesValue(0.0, 0.0, 0)
            for zi, eps in self.weyl_images(point.z):
                x1, x2, y1 = zi
                th = theta_jm(int(2 * k2) + 2 * k, 2 * k, point.tau, x1 + x2 + y1, policy)
                ph = phi_tilde(MockIndex(k, 0), point.tau, -x1 - y1, x2 + y1, policy)
                tot = tot + eps * (th * ph)
            return tot * cmath.exp(2j * cmath.pi * k * complex(point.t))
        ctx = self.context(w.k)
        lam = Weight(ctx.k, (F(0), as_fraction(k2) / 2, as_fraction(k1)))
        res = build_modification(ctx, lam)
        return self._weyl_sum(point, lambda pz: eval_modified(res, pz, policy))


# ---------------------------------------------------------------------------
# D(2,1;a): closed two-term form


class D21aSystem(CharacterSystem):
    """D(2,1;a), a = -p/(p+q): frame z = u1 a1 + u2 a2 + u3 a3, the
    preset's simple-root coordinates."""

    name = "d21a"
    n_labels = 2
    SIDES = ("T", "Tp")
    pos_roots = (
        ((1, 0, 0), 1),
        ((0, 1, 0), 1),
        ((0, 0, 1), 1),
        ((1, 1, 1), 1),
        ((1, 1, 0), 0),
        ((1, 0, 1), 0),
        ((0, 1, 1), 0),
    )

    def __init__(self, p: int = 1, q: int = 1):
        self.p, self.q = p, q
        self.a = F(-p, p + q)
        self.params = (p, q)
        super().__init__()

    def functional(self, coeffs, z):
        return complex(np.asarray(coeffs, dtype=float) @ self.frame_gram @ np.asarray(z))

    def check_level(self, k) -> None:
        d21a_level(self.p, self.q, k)

    def nu_range(self, n: int):
        p, q = self.p, self.q
        lo = q * n - 2 * (p + q) * n
        return list(range(lo + 1, q * n + 1))

    def numerator(
        self,
        w: WeightSpec,
        point: ModularPoint,
        policy=DEFAULT_POLICY,
        modified: bool = True,
        plus: bool = False,
    ) -> SeriesValue:
        """The class nu = k2 (T side) or -k2 (Tp side) at level n."""
        self._refuse(w, modified, plus)
        n = d21a_level(self.p, self.q, w.k)
        k2 = w.labels[1]
        nu = int(k2) if w.side == "T" else int(-k2)
        return self.numerator_nu(nu, n, point, policy)

    def numerator_nu(
        self, nu: int, n: int, point: ModularPoint, policy=DEFAULT_POLICY
    ) -> SeriesValue:
        """Two-term closed form of the modified numerator for class nu."""
        p, q = self.p, self.q
        a = float(self.a)
        N = (p + q) * n
        k = F(-p * q * n, p + q)
        tau = point.tau
        z = point.z
        argA = self.functional((1, a + 1, a), z)
        argA2 = self.functional((-1, a - 1, a), z)
        w1 = self.functional((-1, 0, 0), z)
        w2 = self.functional((0, 0, -1), z)
        w1b = self.functional((1, 1, 1), z)
        w2b = self.functional((0, -1, 0), z)
        idx = MockIndex(p * n, 0)
        term1 = theta_jm(nu, N, tau, argA, policy) * phi_tilde(idx, tau, w1, w2, policy)
        term2 = theta_jm(nu, N, tau, argA2, policy) * phi_tilde(idx, tau, w1b, w2b, policy)
        pref = cexp(_2PI_I * float(k) * complex(point.t))
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
    policy=DEFAULT_POLICY,
    modified: bool = True,
) -> SeriesValue:
    """e^{-2 pi i M t} (F(tau,z1,z2) - F(tau,-z2,-z1)) with F the plus-signed
    (modified) rank-1 mock theta function of degree M and shift s."""
    idx = MockIndex(as_fraction(M), as_fraction(s), "plus")
    f = phi_tilde if modified else phi
    one = f(idx, tau, z1, z2, policy)
    two = f(idx, tau, -z2, -z1, policy)
    return cexp(-_2PI_I * float(M) * complex(t)) * (one - two)


# i -> (a, b, prefactor): R^- f_i = prefactor e^{-pi i t/2} eta^3
# theta11((z1+z2)/2) / (theta_ab(z1/2) theta_ab(z2/2))
_F_CLOSED = {1: (1, 1, -1j), 2: (1, 0, 1j), 3: (0, 1, -1j), 4: (0, 0, -1j)}


class Osp32SubSystem(Osp32System):
    """osp(3|2) with the subprincipal sl(2); reuses the osp(3|2) frame.
    Its supercharacters are spanned by f_function, not by ch_tilde."""

    name = "osp32_sub"
    VARIANTS = ("denominator_only",)

    def check_level(self, k) -> None:
        """Every level: only the k-free denominator is wired."""

    def f_function(
        self, i: int, k, point: ModularPoint, policy=DEFAULT_POLICY
    ) -> SeriesValue:
        """f_1..f_4 spanning the level-k modified supercharacters."""
        k = as_fraction(k)
        M = -4 * k - 2
        if M <= 0:
            raise UnsupportedCase("need k < -1/2")
        if i not in (1, 2, 3, 4):
            raise ValueError("i must be 1..4")
        tau, (z1, z2), t = point.tau, point.z, point.t
        den = self.denominator(-1, point, policy)
        if abs(den.value) < 1e-12:
            raise ZeroDivisorProximity("superdenominator vanishes")
        a, b = divmod(i - 1, 2)  # f_i reads psi at z + a tau + b
        num = psi_fn(
            M, 0, tau, (z1 + a * tau + b) / 2, (z2 + a * tau + b) / 2, t / 4, policy
        )
        if a:
            num = cexp(-1j * math.pi * float(2 * k + 1) * (z1 + z2 + tau)) * num
        return num / den

    def f_closed_quotient(
        self, i: int, point: ModularPoint, policy=DEFAULT_POLICY
    ) -> SeriesValue:
        """Theta-quotient closed forms of R^- f_i at k = -3/4.

        The fourth one carries theta11 in the numerator; a theta00 there
        would contradict the tau -> tau+1 relation, which swaps f3 and f4.
        """
        if i not in _F_CLOSED:
            raise ValueError("i must be 1..4")
        a, b, pref = _F_CLOSED[i]
        tau, (z1, z2), t = point.tau, point.z, point.t
        e3 = eta(tau, policy)
        e3 = e3 * e3 * e3
        tphase = cexp(-1j * math.pi * t / 2)
        t11 = theta_ab(1, 1, tau, (z1 + z2) / 2, policy)
        den = theta_ab(a, b, tau, z1 / 2, policy) * theta_ab(a, b, tau, z2 / 2, policy)
        num = pref * tphase * (e3 * t11)
        return num / den


# ---------------------------------------------------------------------------
# level-1 osp(M|N) closed forms


# combo -> the theta_ab index of every x and y factor
_LEVEL1_THETA = {"sum01": (0, 0), "diff01": (0, 1), "twisted": (1, 0), "diff_top": (1, 1)}


def level1_osp_supercharacter(M: int, N: int, combo: str):
    """Closed eta/theta forms of the level-1 orthosymplectic supercharacters,
    as a function of (point, policy=DEFAULT_POLICY).

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

    def character(point: ModularPoint, policy=DEFAULT_POLICY) -> SeriesValue:
        tau, t = point.tau, point.t
        xs = point.z[:m]
        ys = point.z[m:]
        e = eta(tau, policy)
        val = SeriesValue(cexp(_2PI_I * complex(t)), 0.0, 0)
        if odd and combo == "sum01":
            val = val * e * e / (eta(tau / 2, policy) * eta(2 * tau, policy))
        elif odd:
            val = val * eta(tau / 2 if combo == "diff01" else 2 * tau, policy) / e
        val = val * unit
        power = n - m
        for _ in range(abs(power)):
            val = val * e if power > 0 else val / e
        for x in xs:
            val = val * theta_ab(*ab, tau, x, policy)
        for y in ys:
            th = theta_ab(*ab, tau, y, policy)
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
    "d21a": D21aSystem,  # params (p, q), default (1, 1)
}


@functools.cache
def system(name: str, params: tuple = None) -> CharacterSystem:
    """The character system of a wired case, built once per (name, params)."""
    if name not in _CASES:
        raise UnsupportedCase(f"no wired character system for {name!r}")
    try:
        return _CASES[name](*(params or ()))
    except TypeError as exc:  # more parameters than the case takes
        raise UnsupportedCase(f"case {name} does not take the parameters {params}") from exc


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
    policy: TruncationPolicy = DEFAULT_POLICY,
    variant: str = "ch_minus_modified",
    params: tuple = None,
) -> SeriesValue:
    """Modified normalized supercharacter (and variants) for a wired case."""
    sys = check_request(case, w, variant, params)
    if variant == "denominator_only":
        return sys.denominator(-1, point, policy)
    phase = None
    if variant in ("ch_plus_modified", "tw_minus_modified", "tw_plus_modified"):
        point, phase = _twist(sys, w, point, variant)
    num = sys.numerator(w, point, policy, modified=variant != "ch_minus")
    if variant == "numerator_only":
        return num
    den = sys.denominator(-1, point, policy)
    if abs(den.value) < 1e-10 * max(1.0, abs(num.value)):
        raise ZeroDivisorProximity("superdenominator too small")
    return num / den if phase is None else phase * (num / den)


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
