"""Classical building blocks: eta, the four level-2 Jacobi thetas,
rank-1 theta ladders, and positive-definite lattice theta sums.

Convention for the level-2 thetas (fixed so that the denominator-identity
pin tests in the verification suite hold; see tests/test_characters.py):

    theta11(tau, z) =  i * sum_n (-1)^n q^((n+1/2)^2/2) e^(2 pi i (n+1/2) z)
    theta10(tau, z) =      sum_n        q^((n+1/2)^2/2) e^(2 pi i (n+1/2) z)
    theta01(tau, z) =      sum_n (-1)^n q^(n^2/2)       e^(2 pi i n z)
    theta00(tau, z) =      sum_n        q^(n^2/2)       e^(2 pi i n z)

With these choices theta11 is odd in z and theta11(tau, z + 1/2) equals
-theta10(tau, z).

One ladder, ``_theta_ladder``, sums every rank-1 theta
Theta^(sign)_(j,m)(tau, z) = sum_n sign^n e^(2 pi i m (z c + tau c^2)),
c = n + j/2m; theta_ab(tau, z) is i^(ab) Theta^((-1)^b)_(a/2, 1/2)(tau, 2z).
One window, ``_lattice_sum``, fixes the radius, the term cap and the error
bound of every positive definite lattice sum, here and in ``lattice``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_POLICY,
    SeriesValue,
    TruncationPolicy,
    as_fraction,
    cexp,
    sum_ladder,
)
from .errors import NonConvergent, NotPositiveDefinite

_I_PI = 1j * math.pi
_2PI_I = 2j * math.pi


def eta(tau: complex, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Dedekind eta q^(1/24) prod_(n>=1) (1 - q^n)."""
    tau = policy.require_tau(tau)
    q = cexp(_2PI_I * tau)
    absq = abs(q)
    value = cexp(_2PI_I * tau / 24.0)
    qn = 1.0 + 0j
    n = 0
    while True:
        n += 1
        if n > policy.max_terms:
            raise NonConvergent("eta product hit max_terms")
        qn *= q
        value *= 1.0 - qn
        # relative tail of log-product is sum_{m>n} |q|^m / (1-|q|)
        tail = absq ** (n + 1) / (1.0 - absq) ** 2
        if tail < policy.abs_tol:
            return SeriesValue(value, abs(value) * tail * 2.0, n)


def theta_ab(
    a: int,
    b: int,
    tau: complex,
    z: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Jacobi theta theta_{ab}(tau, z) in the module-level convention."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("theta_ab indices must be 0 or 1")
    tau = policy.require_tau(tau)
    # theta_ab(tau, z) = Theta^((-1)^b)_(a/2, 1/2)(tau, 2z)
    out = _theta_ladder(-1 if b else 1, 0.5 * a, 0.5, tau, 2.0 * complex(z), policy)
    if (a, b) == (1, 1):
        out = SeriesValue(1j * out.value, out.err_bound, out.terms_used)
    return out


def theta_jm(
    j: int,
    m: int,
    tau: complex,
    z: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Rank-1 theta sum_n e^(2 pi i m z (n + j/2m)) q^(m (n + j/2m)^2)."""
    if m < 1:
        raise ValueError("theta_jm needs m >= 1")
    tau = policy.require_tau(tau)
    return _theta_ladder(1, j / (2.0 * m), float(m), tau, complex(z), policy)


def theta_jm_signed(
    sign: int,
    j,
    m,
    tau: complex,
    z: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Signed rank-1 theta with a (sign)^n factor; m in (1/4)Z_{>0}, j in (1/2)Z."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    mf = as_fraction(m)
    jf = as_fraction(j)
    if mf <= 0 or (4 * mf).denominator != 1:
        raise ValueError("degree m must lie in (1/4)Z_{>0}")
    if (2 * jf).denominator != 1:
        raise ValueError("index j must lie in (1/2)Z")
    tau = policy.require_tau(tau)
    return _theta_ladder(sign, float(jf / (2 * mf)), float(mf), tau, complex(z), policy)


def _theta_ladder(
    sign: int, c0: float, m: float, tau: complex, z: complex, policy: TruncationPolicy
) -> SeriesValue:
    """sum_n sign^n e^(2 pi i m (z c + tau c^2)), c = n + c0, for checked
    arguments: m > 0, sign = +-1, tau already through ``policy``."""

    def term(n: int) -> complex:
        c = n + c0
        val = cexp(_2PI_I * (m * z * c + tau * m * c * c))
        if sign == -1 and n % 2:
            val = -val
        return val

    return sum_ladder(term, policy)


@dataclass(frozen=True)
class LatticeData:
    """A free abelian group with real Gram data in some ambient space."""

    gram: np.ndarray
    basis_labels: tuple = ()

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gram must be a square matrix")
        if not np.allclose(g, g.T, atol=1e-12):
            raise ValueError("gram must be symmetric")
        object.__setattr__(self, "gram", g)
        if not self.basis_labels:
            object.__setattr__(
                self, "basis_labels", tuple(f"g{i+1}" for i in range(g.shape[0]))
            )

    @property
    def rank(self) -> int:
        return self.gram.shape[0]

    def is_positive_definite(self) -> bool:
        try:
            np.linalg.cholesky(self.gram)
            return True
        except np.linalg.LinAlgError:
            return False


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
            e = as_fraction(self.mult) * as_fraction(norm2)
            if e.denominator != 1:
                raise ValueError(
                    f"parity_of_norm exponent {e} is not an integer"
                )
            return -1 if e.numerator % 2 else 1
        if self.kind == "custom_vector":
            dot = sum(int(c) * int(x) for c, x in zip(self.vector, coords))
            return -1 if dot % 2 else 1
        raise ValueError(f"unknown sign character kind {self.kind!r}")


def enumerate_ellipsoid(gram: np.ndarray, center: np.ndarray, radius2: float):
    """Integer vectors c with |center + c|^2 <= radius2 in the Gram metric.

    Box-bounds the coordinates through the smallest Gram eigenvalue, then
    filters; adequate for the small ranks this library works at.
    """
    gram = np.asarray(gram, dtype=float)
    rank = gram.shape[0]
    lam_min = float(np.linalg.eigvalsh(gram)[0])
    if lam_min <= 0:
        raise NotPositiveDefinite("ellipsoid enumeration needs a definite Gram")
    # |c| <= |c + center| + |center| in the Gram norm, and coordinate-wise
    # |c_i| <= |c|_gram / sqrt(lam_min).
    center_norm = math.sqrt(max(0.0, float(center @ gram @ center)))
    bound = (math.sqrt(max(radius2, 0.0)) + center_norm) / math.sqrt(lam_min)
    n_max = int(math.floor(bound + 1e-9))
    ranges = [range(-n_max, n_max + 1)] * rank
    grids = np.meshgrid(*ranges, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    shifted = coords + center
    norms = np.einsum("ij,jk,ik->i", shifted, gram, shifted)
    keep = norms <= radius2 + 1e-9
    return coords[keep], norms[keep]


# At the window's edge the summands are pushed this far below abs_tol.
_WINDOW_MARGIN = 1e6


def _lattice_sum(gram, centre, k: float, tau: complex, growth: float, term, policy):
    """Sum ``term(c, n2)`` over the integer vectors c of one lattice window.

    ``n2`` is |centre + c|^2 in the Gram metric.  The summands must be
    bounded by exp(-pi y r^2 / k + growth * r) in r = k |centre + c|; the
    window radius r* makes that bound abs_tol / _WINDOW_MARGIN.  The
    err_bound is eight times the largest summand in the outer shell
    r^2 >= 0.7 r*^2, and at least abs_tol / 100.
    """
    log_tol = math.log(policy.abs_tol) - math.log(_WINDOW_MARGIN)
    a_coef = math.pi * tau.imag / k
    r_star = (growth + math.sqrt(growth * growth - 4.0 * a_coef * log_tol)) / (
        2.0 * a_coef
    )
    radius2 = r_star * r_star
    coords, norms = enumerate_ellipsoid(gram, centre, radius2 / (k * k))
    if coords.shape[0] == 0:
        coords = np.zeros((1, gram.shape[0]), dtype=int)
        norms = np.array([float(centre @ gram @ centre)])
    if coords.shape[0] > policy.max_terms:
        raise NonConvergent("lattice enumeration exceeds max_terms")
    total = 0.0 + 0.0j
    boundary = 0.0
    for c, n2 in zip(coords, norms):
        t = term(c, n2)
        total += t
        if n2 * k * k >= 0.7 * radius2:
            boundary = max(boundary, abs(t))
    err = max(boundary * 8.0, policy.abs_tol * 0.01)
    return SeriesValue(total, err, coords.shape[0])


def lattice_theta(
    lambda_bar,
    k,
    lattice: LatticeData,
    eps: SignCharacter,
    point,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Theta function of a positive definite lattice, degree k > 0.

    ``lambda_bar`` holds coordinates of the shifted weight in the lattice
    basis; ``point.z`` holds coordinates of z in the same basis, so that
    all pairings go through the Gram matrix.
    """
    if k <= 0:
        raise ValueError("degree k must be positive")
    if not lattice.is_positive_definite():
        raise NotPositiveDefinite("lattice_theta requires positive definite Gram")
    tau = policy.require_tau(point.tau)
    gram = lattice.gram
    lam = np.asarray([float(x) for x in lambda_bar], dtype=float)
    z = np.asarray(point.z, dtype=complex)
    kf = float(k)
    im_norm = math.sqrt(max(float(z.imag @ gram @ z.imag), 0.0))
    # only the parity character reads |gamma|^2, and it needs it exactly
    exact = None
    if eps.kind == "parity_of_norm":
        exact = [[as_fraction(round(float(x), 9)) for x in row] for row in gram]

    def term(c, n2):
        # |term| = exp(-pi y |v|^2 / k - 2 pi Im (v|z)), v = lam + k c
        v = lam + kf * c
        w = _I_PI * tau * (n2 * kf * kf) / kf + _2PI_I * complex(v @ gram @ z)
        norm = None
        if exact is not None:
            ci = c.tolist()
            norm = sum(
                exact[i][j] * ci[i] * ci[j] for i in range(len(ci)) for j in range(len(ci))
            )
        return eps(c, norm) * cexp(w)

    out = _lattice_sum(gram, lam / kf, kf, tau, 2.0 * math.pi * im_norm, term, policy)
    return cexp(_2PI_I * kf * complex(point.t)) * out
