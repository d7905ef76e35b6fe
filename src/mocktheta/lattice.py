"""Positive definite lattice theta sums; multivariable (signed) mock theta
functions over a lattice with an isotropic set, and the step-by-step
modification that factors them into a residual lattice theta times
modified rank-1 factors.

Packaging of the data: a context fixes a basis gamma_1..gamma_m of the
lattice and isotropic vectors beta_1..beta_n with (gamma_i|beta_j) =
-delta_ij.  All vectors (weights, elliptic shifts, the z argument) are
carried as coordinate tuples in the combined {gamma_1..gamma_m,
beta_1..beta_n} frame, with every pairing going through the full Gram
matrix, which keeps the arithmetic exact until series evaluation.

Plain Python runs here: the exact validation, Phi route and modification
per (context, weight), the factored evaluator's plans and M*/kM classes
per modification, and the sums a rank-1 ladder takes: a rank-1
``lattice_theta`` whose sign is a character of Z, and a
``lattice_mock_theta`` of one gamma and one beta (Phi, eq 3.5).  Every
other sum, and one its ladder refuses, runs over ``lattice_window``, plain
Python too, imported by the first such sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

from .core import ABS_TOL, ModularPoint, SeriesValue, _dot_gram, as_fraction, cexp, require_tau
from .errors import ConditionViolation, NonConvergent, PoleAtZ1, SingularDecomposition
from .mock import SIGNS, MockIndex, phi
from .modifier import phi_tilde
from .theta import _theta_ladder

_I_PI = 1j * math.pi
_2PI_I = 2j * math.pi

MODES = ("unsigned", "plus", "minus")


@dataclass(frozen=True)
class LatticeData:
    """A free abelian group with real Gram data in some ambient space, the
    Gram kept as a tuple of float rows."""

    gram: tuple

    def __post_init__(self):
        try:
            g = tuple(tuple(map(float, row)) for row in self.gram)
        except TypeError:
            raise ValueError("gram must be a square matrix") from None
        if any(len(row) != len(g) for row in g):
            raise ValueError("gram must be a square matrix")
        # np.allclose(G, G^T, atol=1e-12): |a - b| <= 1e-12 + 1e-5 |b|
        if g != tuple(zip(*g)) and not all(a == b or abs(a - b) <= 1e-12 + 1e-5 * abs(b)
                                           for r, c in zip(g, zip(*g)) for a, b in zip(r, c)):
            raise ValueError("gram must be symmetric")
        object.__setattr__(self, "gram", g)

    @property
    def rank(self) -> int:
        return len(self.gram)


@dataclass(frozen=True)
class SignCharacter:
    """A homomorphism eps: L -> {+-1}.

    kind 'trivial'        : eps == 1
    kind 'parity_of_norm' : eps(gamma) = (-1)^(mult * |gamma|^2); requires
                            mult * |gamma|^2 integral on the lattice
    kind 'custom_vector'  : eps(gamma) = (-1)^(c . coords(gamma))
    """

    kind: str = "trivial"
    mult: Fraction = Fraction(0)
    vector: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(self.vector))

    def __call__(self, coords, norm2) -> int:
        if self.kind == "trivial":
            return 1
        if self.kind == "parity_of_norm":
            return self.parity(*as_fraction(norm2).as_integer_ratio())
        if self.kind == "custom_vector":
            dot = sum(int(c) * int(x) for c, x in zip(self.vector, coords))
            return -1 if dot % 2 else 1
        raise ValueError(f"unknown sign character kind {self.kind!r}")

    def parity(self, num: int, den: int) -> int:
        """(-1)^(mult * num / den), the parity character at |gamma|^2 = num / den."""
        mult = as_fraction(self.mult)
        e, r = divmod(mult.numerator * num, mult.denominator * den)
        if r:
            raise ValueError(f"parity_of_norm exponent {mult * Fraction(num, den)} is not an integer")
        return -1 if e % 2 else 1


@lru_cache(maxsize=64)
def _ladder_sign(eps: SignCharacter, g: float) -> int:
    """eps(1) at |1|^2 = g, read to 9 places as the window reads it; a ValueError is not kept."""
    return eps((1,), round(g, 9))


def lattice_theta(
    lambda_bar,
    k,
    lattice: LatticeData,
    eps: SignCharacter,
    point,
) -> SeriesValue:
    """Theta function of a positive definite lattice, degree k > 0.

    ``lambda_bar`` holds coordinates of the shifted weight in the lattice
    basis; ``point.z`` holds coordinates of z in the same basis, so that
    all pairings go through the Gram matrix.
    """
    gram = lattice.gram
    if len(gram) == len(lambda_bar) == len(point.z) == 1 and k > 0 and gram[0][0] > 0:
        tau = require_tau(point.tau)
        try:  # eps(n) = eps(1)^n
            sign = _ladder_sign(eps, gram[0][0])
        except ValueError:  # eps is no character of Z: a non-integral parity, an unknown kind
            sign = None
        if sign is not None:
            # sum_n eps(n) e^(pi i tau g v^2 / k + 2 pi i g v z), v = lam + k n, is
            # the rank-1 theta of degree g k / 2 at c0 = lam / k and 2 z
            kf = float(k)
            try:
                value, err, used = _theta_ladder(
                    sign, float(lambda_bar[0]) / kf, gram[0][0] * kf / 2.0, tau, 2.0 * point.z[0]
                )
            except NonConvergent:
                pass  # the lattice window refuses it with its own error, or sums it
            else:
                out = SeriesValue(value, max(err, ABS_TOL * 0.01), used)
                return cexp(_2PI_I * kf * complex(point.t)) * out
    return _window_theta(lambda_bar, k, lattice, eps, point)


def _window_theta(*args):
    """``lattice_window.window_theta``, which this name is rebound to on the
    first call: a ladder's caller never imports the window, and after that
    first call no call pays for the import."""
    global _window_theta
    from .lattice_window import window_theta as _window_theta

    return _window_theta(*args)


def _eliminate(A, columns=()):
    """(det A, [A^-1 b for b in columns]) over the rationals, by one
    Gauss-Jordan pass; a zero determinant raises ``SingularDecomposition``
    when there are columns to solve for."""
    n = len(A)
    M = [[as_fraction(x) for x in row] + [as_fraction(b[i]) for b in columns]
         for i, row in enumerate(A)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            if columns:
                raise SingularDecomposition("rational system is singular")
            return Fraction(0), []
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return det, [[M[r][n + c] for r in range(n)] for c in range(len(columns))]


@dataclass(frozen=True)
class Weight:
    """Level k plus coordinates of the finite part in the gamma/beta frame."""

    k: Fraction
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "k", as_fraction(self.k))
        object.__setattr__(self, "coords", tuple(as_fraction(c) for c in self.coords))

    def __hash__(self):
        return hash(_ints((self.k, *self.coords)))


def _ints(fracs) -> tuple:
    """Fractions as integer pairs, ten times cheaper to hash than Fractions."""
    return tuple((x.numerator, x.denominator) for x in fracs)


def _frame_pairings(m: int, n: int):
    """The fixed pairings (gamma_i|beta_j) = -delta_ij, (beta_i|beta_j) = 0."""
    gb = tuple(tuple(Fraction(-int(i == j)) for j in range(n)) for i in range(m))
    bb = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    return gb, bb


@dataclass(frozen=True)
class LatticeContext:
    """Gram data for gamma_1..gamma_m, isotropic beta_1..beta_n, level k.

    The frame pairings are fixed: (gamma_i|beta_j) = -delta_ij and
    (beta_i|beta_j) = 0."""

    gamma_gram: tuple  # m x m rational entries
    n_isotropic: int
    k: Fraction
    mode: str = "unsigned"

    def __post_init__(self):
        gg = tuple(tuple(as_fraction(x) for x in row) for row in self.gamma_gram)
        object.__setattr__(self, "gamma_gram", gg)
        object.__setattr__(self, "k", as_fraction(self.k))
        m, n = self.rank, self.n_isotropic
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if n > m:
            raise ValueError("need n <= m isotropic directions")

    def __hash__(self):
        return hash((_ints((self.k, *sum(self.gamma_gram, ()))), self.n_isotropic, self.mode))

    @property
    def rank(self) -> int:
        return len(self.gamma_gram)

    @property
    def ambient_dim(self) -> int:
        return self.rank + self.n_isotropic

    @cached_property
    def full_gram(self) -> tuple:
        """Exact Gram of the combined frame, built once per context."""
        gb, bb = _frame_pairings(self.rank, self.n_isotropic)
        return tuple(g + b for g, b in zip(self.gamma_gram, gb)) + tuple(
            col + row for col, row in zip(zip(*gb), bb)
        )

    def full_gram_float(self):
        import numpy as np  # a float ndarray, for numpy callers: loads numpy

        return np.asarray(
            [[float(x) for x in row] for row in self.full_gram], dtype=float
        )

    def pair(self, u, v) -> Fraction:
        """Exact pairing of two rational frame vectors."""
        u = [as_fraction(x) for x in u]
        v = [as_fraction(x) for x in v]
        return _dot_gram(self.full_gram, u, v)

    def gamma_vec(self, i: int):
        e = [Fraction(0)] * self.ambient_dim
        e[i - 1] = Fraction(1)
        return e

    def beta_vec(self, j: int):
        e = [Fraction(0)] * self.ambient_dim
        e[self.rank + j - 1] = Fraction(1)
        return e

    def gamma_tilde(self, p: int):
        """gamma_p plus its isotropic corrections (frame coordinates)."""
        v = self.gamma_vec(p)
        for j in range(1, min(self.n_isotropic, p - 1) + 1):
            c = self.gamma_gram[p - 1][j - 1]
            bj = self.beta_vec(j)
            v = [a + c * b for a, b in zip(v, bj)]
        return v


def validate_context(ctx: LatticeContext, weight: Weight = None):
    """Check the structural conditions in the context's sign mode; returns a
    fresh list of violations, copied from the one check made per (context, weight)."""
    return list(_violations(ctx, weight))


@lru_cache(maxsize=256)
def _violations(ctx: LatticeContext, weight: Weight) -> tuple:
    out = []
    m, n = ctx.rank, ctx.n_isotropic
    # exact: elimination's pivots, the ratios of leading minors, are positive
    if not all(_eliminate([row[:i] for row in ctx.gamma_gram[:i]])[0] > 0 for i in range(1, m + 1)):
        out.append("gamma Gram is not positive definite")
    for i in range(1, n + 1):
        norm2 = ctx.gamma_gram[i - 1][i - 1]
        for j in range(i, m + 1):
            val = 2 * ctx.gamma_gram[i - 1][j - 1] / norm2
            if val.denominator != 1:
                out.append(f"(gamma_{i}^v|gamma_{j}) = {val} not integral")
    k = ctx.k
    for i in range(1, n + 1):
        norm2 = ctx.gamma_gram[i - 1][i - 1]
        val, name = (k * norm2 / 2, "(k/2)") if ctx.mode == "unsigned" else (k * norm2, "k")
        if val.denominator != 1 or val <= 0:
            out.append(f"{name}|gamma_{i}|^2 = {val} not a positive integer")
    for i in range(m):
        for j in range(m):
            if (k * ctx.gamma_gram[i][j]).denominator != 1:
                out.append(f"k(gamma_{i+1}|gamma_{j+1}) = {k * ctx.gamma_gram[i][j]} not integral")
    if weight is not None:
        for j in range(1, n + 1):
            if ctx.pair(weight.coords, ctx.beta_vec(j)) != 0:
                out.append(f"(lambda|beta_{j}) != 0")
        for i in range(1, n + 1):
            val = ctx.pair(weight.coords, ctx.gamma_vec(i))
            if ctx.mode == "unsigned" and val.denominator != 1:
                out.append(f"(lambda|gamma_{i}) = {val} not integral")
    return tuple(out)


def translation_sign(ctx: LatticeContext) -> SignCharacter:
    """The sign of the minus-mode sum on L, trivial in the other modes.

    The sign of gamma = sum c_i gamma_i is (-1)^e with
    e = sum_{i<=n} (gamma|beta_i) + k|gamma'|^2 and
    gamma' = gamma + sum_{i<=n} (gamma|beta_i) gamma_i.  With the fixed
    frame pairings (gamma_i|beta_j) = -delta_ij and the condition
    ``validate_context`` checks (k(gamma_i|gamma_j) integral), gamma' is
    gamma without its first n coordinates, and e = v . c mod 2 with
    v_i = 1 for i <= n and v_l = k|gamma_l|^2 mod 2 for l > n.
    """
    if ctx.mode != "minus":
        return SignCharacter()
    n = ctx.n_isotropic
    tail = (int(ctx.k * ctx.gamma_gram[l][l]) % 2 for l in range(n, ctx.rank))
    return SignCharacter("custom_vector", vector=(1,) * n + tuple(tail))


@lru_cache(maxsize=128)
def _phi_route(ctx: LatticeContext, weight: Weight):
    """Validate a (context, weight) of one gamma and one beta, once per pair;
    eq 3.5's Phi index [k|gamma|^2/2; (lambda|gamma)] and 2/|gamma|^2, or None."""
    bad = validate_context(ctx, weight=weight)
    if bad:
        raise ConditionViolation(bad)
    ((g,),), s = ctx.gamma_gram, ctx.pair(weight.coords, ctx.gamma_vec(1))
    if (2 * s).denominator != 1:  # a shift no Phi index takes
        return None
    return MockIndex(ctx.k * g / 2, s, ctx.mode), float(2 / g)


def lattice_mock_theta(
    ctx: LatticeContext,
    weight: Weight,
    point: ModularPoint,
    denominator_plus: bool = False,
) -> SeriesValue:
    """Direct evaluation of the (signed) mock theta sum over the lattice.

    ``point.z`` holds frame coordinates of z.  ``denominator_plus``
    replaces the (1 - ...) factors by (1 + ...), the shape the character
    (rather than supercharacter) numerators use.  One gamma and one beta
    give e^(2 pi i k t) Phi(tau, z_gamma, z_gamma - 2 z_beta / |gamma|^2).
    """
    route = _phi_route(ctx, weight) if (ctx.rank, ctx.n_isotropic) == (1, 1) else None
    if route and not denominator_plus:
        tau = require_tau(point.tau)
        if len(point.z) != ctx.ambient_dim:
            raise ValueError("z needs one coordinate per frame vector")
        idx, two_over_g = route
        z1 = point.z[0]
        try:
            value, err, used = phi(idx, tau, z1, z1 - two_over_g * point.z[1])
        except (PoleAtZ1, NonConvergent):
            pass  # the lattice window refuses it with its own error, or sums it
        else:
            out = SeriesValue(value, max(err, ABS_TOL * 0.01), used)  # the window's floor
            return cexp(_2PI_I * float(ctx.k) * complex(point.t)) * out
    return _window_mock_theta(ctx, weight, point, denominator_plus)


def _window_mock_theta(*args):
    """``lattice_window.window_mock_theta``, bound as ``_window_theta`` is."""
    global _window_mock_theta
    from .lattice_window import window_mock_theta as _window_mock_theta

    return _window_mock_theta(*args)


@dataclass(frozen=True)
class PhiFactor:
    p: int  # which isotropic step produced this factor (1-based)
    degree: Fraction
    shift: Fraction
    arg1: tuple  # frame covector applied to z
    arg2: tuple


@dataclass(frozen=True)
class ModificationResult:
    ctx: LatticeContext
    weight: Weight
    m_basis: tuple  # frame coordinates of the residual lattice basis
    m_gram: tuple
    lambda_n: tuple  # frame coordinates of the shifted weight
    phi_factors: tuple
    xi0: tuple = None

    @property
    def k(self) -> Fraction:
        return self.ctx.k

    @cached_property
    def _plans(self) -> dict:
        """``eval_modified``'s plans, one per xi_shift, kept on the result."""
        return {}

    @cached_property
    def _mu_classes(self) -> tuple:
        """``mu_class_representatives``, found once per result."""
        return tuple(_find_mu_classes(self))

    def mu_group_order(self) -> int:
        """|M*/kM| for the residual lattice."""
        if not self.m_basis:
            return 1
        det, _ = _eliminate(self.m_gram)
        val = det * self.k ** len(self.m_basis)
        if val.denominator != 1:
            raise ConditionViolation([f"|M*/kM| = {val} is not an integer"])
        return int(val)


def _xi0_for(ctx: LatticeContext):
    """Shift vector with (xi0|gamma_i) in Z + [k|gamma_i|^2 odd]/2 and
    (xi0|T) = 0; gamma-components only where the congruences force them."""
    m, n = ctx.rank, ctx.n_isotropic
    targets = []
    for i in range(1, m + 1):
        norm2 = ctx.gamma_gram[i - 1][i - 1]
        odd = (ctx.k * norm2).denominator == 1 and (ctx.k * norm2).numerator % 2 == 1
        targets.append(Fraction(1, 2) if odd else Fraction(0))
    tail = list(range(n, m))  # 0-based indices of gamma_{n+1}..gamma_m
    A = [[ctx.gamma_gram[l][i] for l in tail] for i in tail]
    _, (xs,) = _eliminate(A, [[targets[i] for i in tail]])
    coords = [Fraction(0)] * ctx.ambient_dim
    for pos, l in enumerate(tail):
        coords[l] = xs[pos]
    # (xi0|gamma_i) for i <= n: sum_l x_l (gamma_l|gamma_i) - y_i = target_i
    for i in range(n):
        acc = sum(xs[pos] * ctx.gamma_gram[tail[pos]][i] for pos in range(len(tail)))
        coords[m + i] = acc - targets[i]
    return tuple(coords)


@lru_cache(maxsize=128)
def build_modification(ctx: LatticeContext, weight: Weight) -> ModificationResult:
    """Symbolic n-step factorization of the (signed) mock theta function in
    the context's sign mode, built once per (context, weight): a repeat
    returns the same result, with the plans ``eval_modified`` keeps on it."""
    bad = validate_context(ctx, weight=weight)
    if bad:
        raise ConditionViolation(bad)
    m, n = ctx.rank, ctx.n_isotropic

    m_basis = tuple(tuple(ctx.gamma_tilde(p)) for p in range(n + 1, m + 1))
    m_gram = tuple(tuple(ctx.pair(u, v) for v in m_basis) for u in m_basis)

    lam_n = [as_fraction(c) for c in weight.coords]
    for i in range(1, n + 1):
        li = ctx.pair(weight.coords, ctx.gamma_vec(i))
        bi = ctx.beta_vec(i)
        lam_n = [a + li * b for a, b in zip(lam_n, bi)]

    factors = []
    for p in range(1, n + 1):
        norm2 = ctx.gamma_gram[p - 1][p - 1]
        degree = ctx.k * norm2 / 2
        shift = ctx.pair(weight.coords, ctx.gamma_vec(p))
        a1 = tuple(-x for x in ctx.beta_vec(p))
        gt = ctx.gamma_tilde(p)
        a2 = tuple(bp + 2 * g / norm2 for bp, g in zip(ctx.beta_vec(p), gt))
        factors.append(PhiFactor(p, degree, shift, a1, a2))

    xi0 = None if ctx.mode == "unsigned" else _xi0_for(ctx)
    return ModificationResult(ctx, weight, m_basis, m_gram, tuple(lam_n), tuple(factors), xi0)


def _apply(matrix, z) -> tuple:
    """matrix . z, skipping the zero entries (exact where both are)."""
    return tuple(sum(c * x for c, x in zip(row, z) if c) for row in matrix)


def _eval_plan(res: ModificationResult, xi_shift: bool):
    """``eval_modified``'s constants for one xi_shift, exact until each is
    rounded once: eps, |lambda_perp|^2, the M-side (lambda_M, the
    projection Gram^-1 basis.G of z onto M, lattice) and each factor's
    a.G, index."""
    ctx = res.ctx
    G = ctx.full_gram
    if xi_shift and res.xi0 is None:
        raise ValueError("context has no xi0 shift (unsigned mode)")
    lam = [a + b for a, b in zip(res.lambda_n, res.xi0)] if xi_shift else res.lambda_n
    eps = SignCharacter("parity_of_norm", ctx.k) if SIGNS[ctx.mode] == -1 else SignCharacter()
    perp2 = ctx.pair(lam, lam)
    m_part = None
    if res.m_basis:
        basis_g = [_apply(G, b) for b in res.m_basis]  # rows b.G; G is symmetric
        bg_lam = _apply(basis_g, lam)
        _, (lam_m, *proj) = _eliminate(res.m_gram, [bg_lam, *zip(*basis_g)])
        perp2 -= sum(a * b for a, b in zip(lam_m, bg_lam))
        m_part = (tuple(map(float, lam_m)), tuple(tuple(map(float, row)) for row in zip(*proj)),
                  LatticeData(res.m_gram))
    factors = []
    for fac in res.phi_factors:
        s = fac.shift + ctx.pair(res.xi0, ctx.gamma_vec(fac.p)) if xi_shift else fac.shift
        a1, a2 = (tuple(map(float, _apply(G, a))) for a in (fac.arg1, fac.arg2))
        factors.append((a1, a2, MockIndex(fac.degree, s, ctx.mode)))
    return eps, float(perp2), m_part, factors


def eval_modified(
    res: ModificationResult,
    point: ModularPoint,
    xi_shift: bool = False,
) -> SeriesValue:
    """Evaluate the factored modified (signed) mock theta function: the
    (signed) theta of the residual lattice M at the parts of lambda and z
    in M (a xi0 shift need not lie in M) times e^(pi i tau |lambda_perp|^2 / k),
    times the phi_tilde factors."""
    tau = require_tau(point.tau)
    if len(point.z) != res.ctx.ambient_dim:
        raise ValueError("z needs one coordinate per frame vector")
    if xi_shift not in res._plans:
        res._plans[xi_shift] = _eval_plan(res, xi_shift)
    eps, perp2, m_part, factors = res._plans[xi_shift]
    k = float(res.k)
    if m_part:
        lam_m, proj, lattice = m_part
        pt_m = ModularPoint(tau, _apply(proj, point.z), point.t)
        theta = lattice_theta(lam_m, res.k, lattice, eps, pt_m)
    else:
        # z^(1) = 0 when the residual lattice is trivial
        theta = SeriesValue(cexp(_2PI_I * k * complex(point.t)), 0.0, 1)
    out = cexp(_I_PI * tau * perp2 / k) * theta
    for a1, a2, idx in factors:
        out = out * phi_tilde(idx, tau, *_apply((a1, a2), point.z))
    return out


def mu_class_representatives(res: ModificationResult):
    """Frame-coordinate representatives of the weight classes modulo
    (k M + C T + C delta), i.e. of M*/kM pushed into the frame; a fresh
    list per call, copied from the classes kept on ``res``."""
    return list(res._mu_classes)


def _find_mu_classes(res: ModificationResult):
    ctx = res.ctx
    rank = len(res.m_basis)
    if rank == 0:
        return [Weight(ctx.k, (0,) * ctx.ambient_dim)]
    _, inv_cols = _eliminate(res.m_gram, [[int(i == j) for i in range(rank)] for j in range(rank)])
    order = res.mu_group_order()
    k = ctx.k
    reps = []
    seen = set()
    span = int(2 * order + 4)
    combos = sorted(
        product(range(-span, span + 1), repeat=rank),
        key=lambda c: (sum(abs(x) for x in c), c),
    )
    for combo in combos:
        # dual vector sum_j combo_j * (gram^-1 e_j) in m-basis coordinates
        coeff = [
            sum(as_fraction(combo[j]) * inv_cols[j][i] for j in range(rank))
            for i in range(rank)
        ]
        # canonical form modulo k * (integer m-basis combinations)
        canon = tuple((c / k) % 1 for c in coeff)
        if canon in seen:
            continue
        seen.add(canon)
        frame = [Fraction(0)] * ctx.ambient_dim
        for i, basis_vec in enumerate(res.m_basis):
            frame = [f + coeff[i] * b for f, b in zip(frame, basis_vec)]
        reps.append(Weight(k, tuple(frame)))
        if len(reps) == order:
            break
    if len(reps) != order:
        raise ConditionViolation(
            [f"found {len(reps)} weight classes, expected {order}"]
        )
    return reps
