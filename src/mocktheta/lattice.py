"""Multivariable (signed) mock theta functions over a lattice with an
isotropic set, and the step-by-step modification that factors them into a
residual lattice theta times modified rank-1 factors.

Packaging of the data: a context fixes a basis gamma_1..gamma_m of the
lattice and isotropic vectors beta_1..beta_n with (gamma_i|beta_j) =
-delta_ij.  All vectors (weights, elliptic shifts, the z argument) are
carried as coordinate tuples in the combined {gamma_1..gamma_m,
beta_1..beta_n} frame, with every pairing going through the full Gram
matrix, which keeps the arithmetic exact until series evaluation.

Both series here run over the lattice window of ``theta._lattice_sum``:
the direct sum over gamma, and the residual-lattice theta factor of the
modification, which is ``lattice_theta`` on M at the parts of lambda and
z that lie in M.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_POLICY,
    ModularPoint,
    SeriesValue,
    TruncationPolicy,
    as_fraction,
    cexp,
    fold_pole_factor,
)
from .errors import (
    ConditionViolation,
    PoleProximity,
    SingularDecomposition,
)
from .mock import SIGNS, MockIndex
from .modifier import phi_tilde
from .theta import LatticeData, SignCharacter, _lattice_sum, lattice_theta

_I_PI = 1j * math.pi
_2PI_I = 2j * math.pi

MODES = ("unsigned", "plus", "minus")


def _solve_rational(A, b):
    """Solve A x = b over the rationals by Gaussian elimination."""
    n = len(A)
    M = [[as_fraction(x) for x in row] + [as_fraction(bv)] for row, bv in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise SingularDecomposition("rational system is singular")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


@dataclass(frozen=True)
class Weight:
    """Level k plus coordinates of the finite part in the gamma/beta frame."""

    k: Fraction
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "k", as_fraction(self.k))
        object.__setattr__(self, "coords", tuple(as_fraction(c) for c in self.coords))


@dataclass(frozen=True)
class LatticeContext:
    """Gram data for gamma_1..gamma_m, isotropic beta_1..beta_n, level k."""

    gamma_gram: tuple  # m x m rational entries
    n_isotropic: int
    k: Fraction
    mode: str = "unsigned"
    gamma_beta: tuple = None  # m x n pairings, defaults to -delta_ij
    beta_beta: tuple = None  # n x n pairings, defaults to 0

    def __post_init__(self):
        gg = tuple(tuple(as_fraction(x) for x in row) for row in self.gamma_gram)
        object.__setattr__(self, "gamma_gram", gg)
        object.__setattr__(self, "k", as_fraction(self.k))
        m, n = self.rank, self.n_isotropic
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if n > m:
            raise ValueError("need n <= m isotropic directions")
        if self.gamma_beta is None:
            gb = tuple(
                tuple(Fraction(-int(i == j)) for j in range(n)) for i in range(m)
            )
        else:
            gb = tuple(
                tuple(as_fraction(x) for x in row) for row in self.gamma_beta
            )
        object.__setattr__(self, "gamma_beta", gb)
        if self.beta_beta is None:
            bb = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
        else:
            bb = tuple(
                tuple(as_fraction(x) for x in row) for row in self.beta_beta
            )
        object.__setattr__(self, "beta_beta", bb)

    @property
    def rank(self) -> int:
        return len(self.gamma_gram)

    @property
    def ambient_dim(self) -> int:
        return self.rank + self.n_isotropic

    def full_gram(self):
        m, n = self.rank, self.n_isotropic
        dim = m + n
        G = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(m):
            for j in range(m):
                G[i][j] = self.gamma_gram[i][j]
        for i in range(m):
            for j in range(n):
                G[i][m + j] = self.gamma_beta[i][j]
                G[m + j][i] = self.gamma_beta[i][j]
        for i in range(n):
            for j in range(n):
                G[m + i][m + j] = self.beta_beta[i][j]
        return G

    def full_gram_float(self) -> np.ndarray:
        return np.asarray(
            [[float(x) for x in row] for row in self.full_gram()], dtype=float
        )

    def pair(self, u, v) -> Fraction:
        """Exact pairing of two rational frame vectors."""
        G = self.full_gram()
        u = [as_fraction(x) for x in u]
        v = [as_fraction(x) for x in v]
        return sum(
            u[i] * G[i][j] * v[j]
            for i in range(len(u))
            for j in range(len(v))
            if u[i] and v[j]
        ) or Fraction(0)

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

    def to_json(self) -> str:
        doc = {
            "gram": [[str(x) for x in row] for row in self.gamma_gram],
            "beta_pairings": [[str(x) for x in row] for row in self.gamma_beta],
            "beta_gram": [[str(x) for x in row] for row in self.beta_beta],
            "k": str(self.k),
            "mode": self.mode,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LatticeContext":
        doc = json.loads(text)
        gram = [[Fraction(x) for x in row] for row in doc["gram"]]
        gb = [[Fraction(x) for x in row] for row in doc["beta_pairings"]]
        bb = [[Fraction(x) for x in row] for row in doc.get("beta_gram", [])]
        n = len(gb[0]) if gb else 0
        return cls(
            gamma_gram=gram,
            n_isotropic=n,
            k=Fraction(doc["k"]),
            mode=doc.get("mode", "unsigned"),
            gamma_beta=gb,
            beta_beta=bb or None,
        )


def validate_context(ctx: LatticeContext, mode: str = None, weight: Weight = None):
    """Check the structural conditions; returns a list of violations."""
    mode = mode or ctx.mode
    out = []
    m, n = ctx.rank, ctx.n_isotropic
    for i in range(n):
        for j in range(n):
            if ctx.beta_beta[i][j] != 0:
                out.append(f"(beta_{i+1}|beta_{j+1}) = {ctx.beta_beta[i][j]} != 0")
    for i in range(m):
        for j in range(n):
            want = Fraction(-int(i == j))
            if ctx.gamma_beta[i][j] != want:
                out.append(
                    f"(gamma_{i+1}|beta_{j+1}) = {ctx.gamma_beta[i][j]} != {want}"
                )
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
        if mode == "unsigned":
            val = k * norm2 / 2
            if val.denominator != 1 or val <= 0:
                out.append(f"(k/2)|gamma_{i}|^2 = {val} not a positive integer")
        else:
            val = k * norm2
            if val.denominator != 1 or val <= 0:
                out.append(f"k|gamma_{i}|^2 = {val} not a positive integer")
    for i in range(m):
        for j in range(m):
            if (k * ctx.gamma_gram[i][j]).denominator != 1:
                out.append(
                    f"k(gamma_{i+1}|gamma_{j+1}) = {k * ctx.gamma_gram[i][j]}"
                    " not integral"
                )
    if weight is not None:
        for j in range(1, n + 1):
            if ctx.pair(weight.coords, ctx.beta_vec(j)) != 0:
                out.append(f"(lambda|beta_{j}) != 0")
        for i in range(1, n + 1):
            val = ctx.pair(weight.coords, ctx.gamma_vec(i))
            if mode == "unsigned" and val.denominator != 1:
                out.append(f"(lambda|gamma_{i}) = {val} not integral")
    return out


def eps_lattice_sign(ctx: LatticeContext, sign: int, coords) -> int:
    """Translation sign character on L; exponent is exactly integral."""
    if sign == 1:
        return 1
    n = ctx.n_isotropic
    gamma = [as_fraction(c) for c in coords] + [Fraction(0)] * n
    expo = Fraction(0)
    shifted = list(gamma)
    for i in range(1, n + 1):
        gb = ctx.pair(gamma, ctx.beta_vec(i))
        expo += gb
        gi = ctx.gamma_vec(i)
        shifted = [a + gb * b for a, b in zip(shifted, gi)]
    expo += ctx.k * ctx.pair(shifted, shifted)
    if expo.denominator != 1:
        raise ConditionViolation([f"sign exponent {expo} is not an integer"])
    return -1 if expo.numerator % 2 else 1


def lattice_mock_theta(
    ctx: LatticeContext,
    weight: Weight,
    point: ModularPoint,
    policy: TruncationPolicy = DEFAULT_POLICY,
    denominator_plus: bool = False,
) -> SeriesValue:
    """Direct evaluation of the (signed) mock theta sum over the lattice.

    ``point.z`` holds frame coordinates of z.  ``denominator_plus``
    replaces the (1 - ...) factors by (1 + ...), the shape the character
    (rather than supercharacter) numerators use.
    """
    bad = validate_context(ctx, weight=weight)
    if bad:
        raise ConditionViolation(bad)
    tau = policy.require_tau(point.tau)
    m, n = ctx.rank, ctx.n_isotropic
    if len(point.z) != ctx.ambient_dim:
        raise ValueError("z needs one coordinate per frame vector")
    G = ctx.full_gram_float()
    gamma_gram = G[:m, :m]
    k = float(ctx.k)
    lam = np.asarray([float(x) for x in weight.coords], dtype=float)
    z = np.asarray(point.z, dtype=complex)

    im_n2 = float(z.imag @ G @ z.imag)
    im_norm = math.sqrt(im_n2) if im_n2 > 0 else 0.0
    lam_min = float(np.linalg.eigvalsh(gamma_gram)[0])
    # denominator growth per unit of |lam + k gamma|: each factor can
    # amplify by exp(2 pi y |c_j|) and |c_j| <= r / (k sqrt(lam_min)).
    growth = 2.0 * math.pi * im_norm + 2.0 * math.pi * n * tau.imag / math.sqrt(lam_min)
    lam_gamma_coords = np.linalg.solve(gamma_gram, lam @ G[:, :m])
    sgn = SIGNS[ctx.mode]

    def term(c, n2):
        v = lam + k * np.concatenate([c.astype(float), np.zeros(n)])
        w = _I_PI * tau * float(v @ G @ v) / k + _2PI_I * complex(v @ G @ z)
        den = 1.0 + 0.0j
        for j in range(n):
            gb = float(c @ G[:m, m + j])
            bz = complex(G[m + j] @ z)
            w, dj = fold_pole_factor(w, _2PI_I * (-gb * tau - bz), denominator_plus)
            if abs(dj) < 1e-8:
                raise PoleProximity(f"denominator factor {j+1} vanishes")
            den *= dj
        return eps_lattice_sign(ctx, sgn, c.tolist()) * cexp(w) / den

    out = _lattice_sum(gamma_gram, lam_gamma_coords / k, k, tau, growth, term, policy)
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
    sign_mode: str
    m_basis: tuple  # frame coordinates of the residual lattice basis
    m_gram: tuple
    lambda_n: tuple  # frame coordinates of the shifted weight
    lambda_n_m_coords: tuple
    phi_factors: tuple
    xi0: tuple = None

    @property
    def k(self) -> Fraction:
        return self.ctx.k

    def mu_group_order(self) -> int:
        """|M*/kM| for the residual lattice."""
        if not self.m_basis:
            return 1
        det = _det_rational([list(r) for r in self.m_gram])
        val = det * self.k ** len(self.m_basis)
        if val.denominator != 1:
            raise ConditionViolation([f"|M*/kM| = {val} is not an integer"])
        return int(val)


def _det_rational(M):
    n = len(M)
    M = [[as_fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            if M[r][col] != 0:
                f = M[r][col] * inv
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return det


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
    if tail:
        A = [[ctx.gamma_gram[l][i] for l in tail] for i in tail]
        b = [targets[i] for i in tail]
        xs = _solve_rational(A, b)
    else:
        xs = []
    coords = [Fraction(0)] * ctx.ambient_dim
    for pos, l in enumerate(tail):
        coords[l] = xs[pos]
    # (xi0|gamma_i) for i <= n: sum_l x_l (gamma_l|gamma_i) - y_i = target_i
    for i in range(n):
        acc = sum(xs[pos] * ctx.gamma_gram[tail[pos]][i] for pos in range(len(tail)))
        coords[m + i] = acc - targets[i]
    return tuple(coords)


def build_modification(
    ctx: LatticeContext, weight: Weight, mode: str = None
) -> ModificationResult:
    """Symbolic n-step factorization of the (signed) mock theta function."""
    mode = mode or ctx.mode
    bad = validate_context(ctx, mode=mode, weight=weight)
    if bad:
        raise ConditionViolation(bad)
    m, n = ctx.rank, ctx.n_isotropic
    dim = ctx.ambient_dim

    m_basis = tuple(tuple(ctx.gamma_tilde(p)) for p in range(n + 1, m + 1))
    m_gram = tuple(tuple(ctx.pair(u, v) for v in m_basis) for u in m_basis)

    lam_n = [as_fraction(c) for c in weight.coords]
    for i in range(1, n + 1):
        li = ctx.pair(weight.coords, ctx.gamma_vec(i))
        bi = ctx.beta_vec(i)
        lam_n = [a + li * b for a, b in zip(lam_n, bi)]

    if m_basis:
        A = [[ctx.pair(b1, b2) for b2 in m_basis] for b1 in m_basis]
        b = [ctx.pair(b1, lam_n) for b1 in m_basis]
        lam_m = _solve_rational(A, b)
    else:
        lam_m = []

    factors = []
    for p in range(1, n + 1):
        norm2 = ctx.gamma_gram[p - 1][p - 1]
        degree = ctx.k * norm2 / 2
        shift = ctx.pair(weight.coords, ctx.gamma_vec(p))
        a1 = tuple(-x for x in ctx.beta_vec(p))
        gt = ctx.gamma_tilde(p)
        a2 = tuple(
            bp + 2 * g / norm2 for bp, g in zip(ctx.beta_vec(p), gt)
        )
        factors.append(PhiFactor(p, degree, shift, a1, a2))

    xi0 = _xi0_for(ctx) if mode in ("plus", "minus") else None
    return ModificationResult(
        ctx=ctx,
        weight=weight,
        sign_mode=mode,
        m_basis=m_basis,
        m_gram=m_gram,
        lambda_n=tuple(lam_n),
        lambda_n_m_coords=tuple(lam_m),
        phi_factors=tuple(factors),
        xi0=xi0,
    )


def _theta_factor(
    res: ModificationResult,
    lam_frame,
    point: ModularPoint,
    policy: TruncationPolicy,
    eps: SignCharacter,
) -> SeriesValue:
    """(Signed) theta of the residual lattice M, evaluated at the full z.

    The frame vectors lambda and z split orthogonally into parts in M and
    parts orthogonal to M; lambda_n lies in M, but a xi0 shift generally
    does not.  The factor is lattice_theta on M at the M-coordinates of the
    parts in M, times e^(pi i tau |lambda_perp|^2 / k).
    """
    ctx = res.ctx
    tau = policy.require_tau(point.tau)
    k = float(ctx.k)
    G = ctx.full_gram_float()
    lamf = np.asarray([float(x) for x in lam_frame])
    perp2 = float(lamf @ G @ lamf)
    if res.m_basis:
        basis = np.asarray([[float(x) for x in vec] for vec in res.m_basis])
        gram_m = np.asarray([[float(x) for x in row] for row in res.m_gram])
        lam_m = np.linalg.solve(gram_m, basis @ G @ lamf)
        z_m = np.linalg.solve(gram_m, basis @ G @ np.asarray(point.z, dtype=complex))
        perp2 -= float(lam_m @ gram_m @ lam_m)
        pt_m = ModularPoint(tau, z_m, point.t)
        theta = lattice_theta(lam_m, ctx.k, LatticeData(gram_m), eps, pt_m, policy)
    else:
        # z^(1) = 0 when the residual lattice is trivial
        theta = SeriesValue(cexp(_2PI_I * k * complex(point.t)), 0.0, 1)
    return cexp(_I_PI * tau * perp2 / k) * theta


def eval_modified(
    res: ModificationResult,
    point: ModularPoint,
    policy: TruncationPolicy = DEFAULT_POLICY,
    xi_shift: bool = False,
) -> SeriesValue:
    """Evaluate the factored modified (signed) mock theta function."""
    ctx = res.ctx
    tau = policy.require_tau(point.tau)
    G = ctx.full_gram_float()
    z = np.asarray(point.z, dtype=complex)

    lam_frame = list(res.lambda_n)
    if xi_shift:
        if res.xi0 is None:
            raise ValueError("context has no xi0 shift (unsigned mode)")
        lam_frame = [a + b for a, b in zip(lam_frame, res.xi0)]

    if SIGNS[res.sign_mode] == -1:
        eps = SignCharacter("parity_of_norm", ctx.k)
    else:
        eps = SignCharacter()
    out = _theta_factor(res, lam_frame, point, policy, eps)

    for fac in res.phi_factors:
        a1 = np.asarray([float(x) for x in fac.arg1])
        a2 = np.asarray([float(x) for x in fac.arg2])
        w1 = complex(a1 @ G @ z)
        w2 = complex(a2 @ G @ z)
        if res.sign_mode == "unsigned":
            idx = MockIndex(fac.degree, fac.shift, "unsigned")
        else:
            s = fac.shift
            if xi_shift:
                s = s + ctx.pair(res.xi0, ctx.gamma_vec(fac.p))
            idx = MockIndex(fac.degree, s, res.sign_mode)
        out = out * phi_tilde(idx, tau, w1, w2, policy)
    return out


def mu_class_representatives(res: ModificationResult):
    """Frame-coordinate representatives of the weight classes modulo
    (k M + C T + C delta), i.e. of M*/kM pushed into the frame."""
    ctx = res.ctx
    rank = len(res.m_basis)
    if rank == 0:
        return [Weight(ctx.k, (0,) * ctx.ambient_dim)]
    gram = [list(r) for r in res.m_gram]
    inv_cols = []
    for j in range(rank):
        e = [Fraction(int(i == j)) for i in range(rank)]
        inv_cols.append(_solve_rational(gram, e))
    order = res.mu_group_order()
    k = ctx.k
    reps = []
    seen = set()
    span = int(2 * order + 4)
    from itertools import product

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


def projection_split(ctx: LatticeContext, h):
    """Split a frame vector into residual-lattice and V_p components."""
    m, n = ctx.rank, ctx.n_isotropic
    dim = ctx.ambient_dim
    basis = [list(ctx.gamma_tilde(p)) for p in range(n + 1, m + 1)]
    for p in range(1, n + 1):
        basis.append(list(ctx.beta_vec(p)))
        basis.append(list(ctx.gamma_tilde(p)))
    if len(basis) != dim:
        raise SingularDecomposition("rank + |T| does not match the ambient dim")
    B = np.asarray([[float(x) for x in col] for col in basis], dtype=float).T
    try:
        coeff = np.linalg.solve(B, np.asarray(h, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SingularDecomposition(str(exc)) from exc
    n_m = m - n
    h1 = B[:, :n_m] @ coeff[:n_m] if n_m else np.zeros(dim, dtype=complex)
    parts = []
    for p in range(n):
        cols = slice(n_m + 2 * p, n_m + 2 * p + 2)
        parts.append(B[:, cols] @ coeff[cols])
    return h1, parts
