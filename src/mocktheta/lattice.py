"""Positive definite lattice theta sums; multivariable (signed) mock theta
functions over a lattice with an isotropic set, and the step-by-step
modification that factors them into a residual lattice theta times
modified rank-1 factors.  The library's numpy code lives here.

Packaging of the data: a context fixes a basis gamma_1..gamma_m of the
lattice and isotropic vectors beta_1..beta_n with (gamma_i|beta_j) =
-delta_ij.  All vectors (weights, elliptic shifts, the z argument) are
carried as coordinate tuples in the combined {gamma_1..gamma_m,
beta_1..beta_n} frame, with every pairing going through the full Gram
matrix, which keeps the arithmetic exact until series evaluation.

Every lattice series runs over one window, ``_lattice_sum``, which fixes
its radius, term cap and error bound: ``lattice_theta``, the direct sum
over gamma, and the residual-lattice theta factor of the modification,
which is ``lattice_theta`` on M at the parts of lambda and z that lie in
M.  What a Gram, context and weight fix is planned once per key: the
Gram's symmetry, definiteness and smallest eigenvalue per Gram, the
validation and the modification per (context, weight), the direct
sum's constants per (context, weight), the factored evaluator's and the
M*/kM classes per modification.  Per point remain z's pairings and each
summand's reductions (v @ G @ z), which a batch would round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .core import (
    _LOG_WINDOW_TOL,
    ABS_TOL,
    MAX_TERMS,
    ModularPoint,
    SeriesValue,
    _dot_gram,
    as_fraction,
    cexp,
    require_tau,
)
from .errors import (
    ConditionViolation,
    NonConvergent,
    NotPositiveDefinite,
    PoleProximity,
    SingularDecomposition,
)
from .mock import SIGNS, MockIndex
from .modifier import phi_tilde

_I_PI = 1j * math.pi
_2PI_I = 2j * math.pi

MODES = ("unsigned", "plus", "minus")


class GramPlan:
    """What a Gram fixes for every lattice sum over it, kept per shape and
    bytes by ``_gram_plan``: a Gram edited in place gets a plan of its own."""

    def __init__(self, gram: np.ndarray):
        self.gram = gram
        self.symmetric = bool(np.allclose(gram, gram.T, atol=1e-12))

    # on demand, so that a symmetry check asks for no factorization
    @cached_property
    def positive_definite(self) -> bool:
        try:
            np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError:
            return False
        return True

    @cached_property
    def lam_min(self) -> float:
        return float(np.linalg.eigvalsh(self.gram)[0])

    @cached_property
    def scaled(self):
        """(G, d), G integral, G / d the Gram to 9 places: |c|^2 = c.G.c / d."""
        exact = [[as_fraction(round(float(x), 9)) for x in row] for row in self.gram]
        d = math.lcm(*(x.denominator for row in exact for x in row))
        return [[int(x * d) for x in row] for row in exact], d


@lru_cache(maxsize=64)
def _gram_plan(shape, data: bytes) -> GramPlan:
    return GramPlan(np.frombuffer(data).reshape(shape))


@dataclass(frozen=True)
class LatticeData:
    """A free abelian group with real Gram data in some ambient space."""

    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gram must be a square matrix")
        if not _gram_plan(g.shape, g.tobytes()).symmetric:
            raise ValueError("gram must be symmetric")
        object.__setattr__(self, "gram", g)

    @property
    def rank(self) -> int:
        return self.gram.shape[0]


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


@lru_cache(maxsize=32)
def _box(rank: int, n_max: int) -> np.ndarray:
    """The integer vectors of [-n_max, n_max]^rank, in meshgrid order."""
    grids = np.meshgrid(*[range(-n_max, n_max + 1)] * rank, indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=1)
    box.flags.writeable = False
    return box


def enumerate_ellipsoid(gram: np.ndarray, center: np.ndarray, radius2: float):
    """Integer vectors c with |center + c|^2 <= radius2 in the Gram metric.

    Box-bounds the coordinates through the smallest Gram eigenvalue, then
    filters; adequate for the small ranks this library works at.  Only
    the filter is per call: the eigenvalue and the box are kept.
    """
    gram = np.asarray(gram, dtype=float)
    lam_min = _gram_plan(gram.shape, gram.tobytes()).lam_min
    if lam_min <= 0:
        raise NotPositiveDefinite("ellipsoid enumeration needs a definite Gram")
    # |c| <= |c + center| + |center| in the Gram norm, and coordinate-wise
    # |c_i| <= |c|_gram / sqrt(lam_min).
    center_norm = math.sqrt(max(0.0, float(center @ gram @ center)))
    bound = (math.sqrt(max(radius2, 0.0)) + center_norm) / math.sqrt(lam_min)
    coords = _box(gram.shape[0], int(math.floor(bound + 1e-9)))
    shifted = coords + center
    norms = np.einsum("ij,jk,ik->i", shifted, gram, shifted)
    keep = norms <= radius2 + 1e-9
    return coords[keep], norms[keep]


def _lattice_sum(gram, centre, k: float, tau: complex, growth: float, terms):
    """Sum the summands ``terms(coords, norms)`` yields, one per integer
    vector c of one lattice window, in the window's order.

    ``norms`` holds |centre + c|^2 in the Gram metric.  The summands must
    be bounded by exp(-pi y r^2 / k + growth * r) in r = k |centre + c|;
    the window radius r* makes that bound ABS_TOL / _WINDOW_MARGIN.  The
    err_bound is eight times the largest summand in the outer shell
    r^2 >= 0.7 r*^2, and at least ABS_TOL / 100.

    ``terms`` may do elementwise work on the whole window at once, but
    each summand's reductions (its v @ gram @ z) stay per vector: a
    batched product rounds differently in the last bits.
    """
    a_coef = math.pi * tau.imag / k
    r_star = (growth + math.sqrt(growth * growth - 4.0 * a_coef * _LOG_WINDOW_TOL)) / (
        2.0 * a_coef
    )
    radius2 = r_star * r_star
    coords, norms = enumerate_ellipsoid(gram, centre, radius2 / (k * k))
    if coords.shape[0] == 0:
        coords = np.zeros((1, gram.shape[0]), dtype=int)
        norms = np.array([float(centre @ gram @ centre)])
    if coords.shape[0] > MAX_TERMS:
        raise NonConvergent("lattice enumeration exceeds max_terms")
    total = 0.0 + 0.0j
    boundary = 0.0
    for t, n2 in zip(terms(coords, norms), norms.tolist()):
        total += t
        if n2 * k * k >= 0.7 * radius2:
            boundary = max(boundary, abs(t))
    err = max(boundary * 8.0, ABS_TOL * 0.01)
    return SeriesValue(total, err, coords.shape[0])


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
    if k <= 0:
        raise ValueError("degree k must be positive")
    plan = _gram_plan(lattice.gram.shape, lattice.gram.tobytes())
    if not plan.positive_definite:
        raise NotPositiveDefinite("lattice_theta requires positive definite Gram")
    tau = require_tau(point.tau)
    gram = lattice.gram
    lam = np.asarray([float(x) for x in lambda_bar], dtype=float)
    z = np.asarray(point.z, dtype=complex)
    kf = float(k)
    im_norm = math.sqrt(max(float(z.imag @ gram @ z.imag), 0.0))
    i_pi_tau = _I_PI * tau
    # only the parity character reads |c|^2, and it needs it exactly
    g, d = plan.scaled if eps.kind == "parity_of_norm" else (None, 1)

    def terms(coords, norms):
        # |term| = exp(-pi y |v|^2 / k - 2 pi Im (v|z)), v = lam + k c
        for c, v, n2 in zip(coords.tolist(), lam + kf * coords, (norms * kf * kf).tolist()):
            if g is None:
                s = eps(c, None)
            else:  # |c|^2 = c.g.c / d
                s = eps.parity(sum(a * x * b for r, a in zip(g, c) for x, b in zip(r, c)), d)
            yield s * cexp(i_pi_tau * n2 / kf + _2PI_I * complex(v @ gram @ z))

    out = _lattice_sum(gram, lam / kf, kf, tau, 2.0 * math.pi * im_norm, terms)
    return cexp(_2PI_I * kf * complex(point.t)) * out


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

    def full_gram_float(self) -> np.ndarray:
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
    gf = np.asarray([[float(x) for x in row] for row in ctx.gamma_gram])
    if m and np.linalg.eigvalsh(gf)[0] <= 0:
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
def _mock_plan(ctx: LatticeContext, weight: Weight):
    """``lattice_mock_theta``'s constants, once per validated (context, weight)."""
    bad = validate_context(ctx, weight=weight)
    if bad:
        raise ConditionViolation(bad)
    m, n = ctx.rank, ctx.n_isotropic
    G = ctx.full_gram_float()
    lam = np.asarray([float(x) for x in weight.coords], dtype=float)
    lam_min = float(np.linalg.eigvalsh(G[:m, :m])[0])
    centre = np.linalg.solve(G[:m, :m], lam @ G[:, :m]) / float(ctx.k)
    return G, lam, lam_min, centre, [G[:m, m + j] for j in range(n)], translation_sign(ctx)


def lattice_mock_theta(
    ctx: LatticeContext,
    weight: Weight,
    point: ModularPoint,
    denominator_plus: bool = False,
) -> SeriesValue:
    """Direct evaluation of the (signed) mock theta sum over the lattice.

    ``point.z`` holds frame coordinates of z.  ``denominator_plus``
    replaces the (1 - ...) factors by (1 + ...), the shape the character
    (rather than supercharacter) numerators use.
    """
    G, lam, lam_min, centre, beta_cols, sign = _mock_plan(ctx, weight)
    tau = require_tau(point.tau)
    m, n = ctx.rank, ctx.n_isotropic
    if len(point.z) != ctx.ambient_dim:
        raise ValueError("z needs one coordinate per frame vector")
    k = float(ctx.k)
    z = np.asarray(point.z, dtype=complex)

    im_n2 = float(z.imag @ G @ z.imag)
    im_norm = math.sqrt(im_n2) if im_n2 > 0 else 0.0
    # denominator growth per unit of |lam + k gamma|: each factor can
    # amplify by exp(2 pi y |c_j|) and |c_j| <= r / (k sqrt(lam_min)).
    growth = 2.0 * math.pi * im_norm + 2.0 * math.pi * n * tau.imag / math.sqrt(lam_min)
    beta_z = [complex(G[m + j] @ z) for j in range(n)]
    i_pi_tau = _I_PI * tau

    def terms(coords, norms):
        pad = np.zeros((coords.shape[0], n))
        for c, v in zip(coords, lam + k * np.concatenate([coords.astype(float), pad], axis=1)):
            w = i_pi_tau * float(v @ G @ v) / k + _2PI_I * complex(v @ G @ z)
            den = 1.0 + 0.0j
            for j, (col, bz) in enumerate(zip(beta_cols, beta_z)):
                d = _2PI_I * (-float(c @ col) * tau - bz)
                # 1 -+ e^d = -+e^d (1 -+ e^-d): once e^d is large, e^-d folds into w
                fold = d.real > 40.0
                e = cexp(-d if fold else d)
                dj = (1.0 + e) if denominator_plus else (1.0 - e)
                if fold:
                    w, dj = w - d, (dj if denominator_plus else -dj)
                if abs(dj) < 1e-8:
                    raise PoleProximity(f"denominator factor {j+1} vanishes")
                den *= dj
            yield sign(c.tolist(), None) * cexp(w) / den

    out = _lattice_sum(G[:m, :m], centre, k, tau, growth, terms)
    return cexp(_2PI_I * k * complex(point.t)) * out


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


def _eval_plan(res: ModificationResult, xi_shift: bool):
    """``eval_modified``'s constants for one xi_shift: eps, |lambda_perp|^2,
    the M-side (lambda_M, basis.G, Gram, lattice) and each factor's a.G, index."""
    ctx = res.ctx
    G = ctx.full_gram_float()
    if xi_shift and res.xi0 is None:
        raise ValueError("context has no xi0 shift (unsigned mode)")
    lam_frame = [a + b for a, b in zip(res.lambda_n, res.xi0)] if xi_shift else res.lambda_n
    eps = SignCharacter("parity_of_norm", ctx.k) if SIGNS[ctx.mode] == -1 else SignCharacter()
    lamf = np.asarray([float(x) for x in lam_frame])
    perp2 = float(lamf @ G @ lamf)
    m_part = None
    if res.m_basis:
        basis_g = np.asarray([[float(x) for x in vec] for vec in res.m_basis]) @ G
        gram_m = np.asarray([[float(x) for x in row] for row in res.m_gram])
        lam_m = np.linalg.solve(gram_m, basis_g @ lamf)
        perp2 -= float(lam_m @ gram_m @ lam_m)
        m_part = lam_m, basis_g, gram_m, LatticeData(gram_m)
    factors = []
    for fac in res.phi_factors:
        s = fac.shift + ctx.pair(res.xi0, ctx.gamma_vec(fac.p)) if xi_shift else fac.shift
        a1, a2 = (np.asarray([float(x) for x in a]) @ G for a in (fac.arg1, fac.arg2))
        factors.append((a1, a2, MockIndex(fac.degree, s, ctx.mode)))
    return eps, perp2, m_part, factors


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
    if xi_shift not in res._plans:
        res._plans[xi_shift] = _eval_plan(res, xi_shift)
    eps, perp2, m_part, factors = res._plans[xi_shift]
    k = float(res.k)
    z = np.asarray(point.z, dtype=complex)
    if m_part:
        lam_m, basis_g, gram_m, lattice = m_part
        pt_m = ModularPoint(tau, np.linalg.solve(gram_m, basis_g @ z), point.t)
        theta = lattice_theta(lam_m, res.k, lattice, eps, pt_m)
    else:
        # z^(1) = 0 when the residual lattice is trivial
        theta = SeriesValue(cexp(_2PI_I * k * complex(point.t)), 0.0, 1)
    out = cexp(_I_PI * tau * perp2 / k) * theta
    for a1, a2, idx in factors:
        out = out * phi_tilde(idx, tau, complex(a1 @ z), complex(a2 @ z))
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
