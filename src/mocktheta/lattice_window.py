"""The lattice window, the numpy half of ``lattice``, imported on first use
by a lattice sum no rank-1 ladder takes.  ``_lattice_sum`` fixes the
window's radius, term cap and error bound; the window is summed as one
batch, its exponents from one (V @ G) @ z product, its signs in exact
integer arithmetic, and its refusals (a vanishing denominator factor, an
exponent past the overflow guard, a sign the lattice does not carry)
raised for the first offending summand in window order.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    _EXP_GUARD, _LOG_WINDOW_TOL, ABS_TOL, MAX_TERMS, SeriesValue, as_fraction, cexp, exp_overflow,
    require_tau,
)
from .errors import ConditionViolation, NonConvergent, NotPositiveDefinite, PoleProximity
from .lattice import _2PI_I, _I_PI, translation_sign, validate_context


class GramPlan:
    """What a Gram fixes for every lattice sum over it, kept per shape and
    bytes by ``_gram_plan``: a Gram edited in place gets a plan of its own."""

    def __init__(self, gram: np.ndarray):
        self.gram = gram

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
    def inv_diag(self) -> list:
        """(G^-1)_ii: the ellipsoid |x|^2 <= R^2 reaches |x_i| <= R sqrt((G^-1)_ii)."""
        return np.linalg.inv(self.gram).diagonal().tolist()

    @cached_property
    def scaled(self):
        """(G, d), G integral, G / d the Gram to 9 places: |c|^2 = c.G.c / d."""
        exact = [[as_fraction(round(float(x), 9)) for x in row] for row in self.gram]
        d = math.lcm(*(x.denominator for row in exact for x in row))
        return [[int(x * d) for x in row] for row in exact], d


@lru_cache(maxsize=64)
def _gram_plan(shape, data: bytes) -> GramPlan:
    return GramPlan(np.frombuffer(data).reshape(shape))


@lru_cache(maxsize=64)
def _box(lo: tuple, hi: tuple) -> np.ndarray:
    """The integer vectors c with lo <= c <= hi, in lexicographic order."""
    grids = np.meshgrid(*(range(a, b + 1) for a, b in zip(lo, hi)), indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=1)
    box.flags.writeable = False
    return box


def enumerate_ellipsoid(gram: np.ndarray, center: np.ndarray, radius2: float):
    """Integer vectors c with |center + c|^2 <= radius2 in the Gram metric,
    in lexicographic order.

    Bounds each coordinate by the ellipsoid's extent along it, then
    filters; adequate for the small ranks this library works at.  Only
    the filter is per call: the Gram's inverse and the boxes are kept.
    """
    gram = np.asarray(gram, dtype=float)
    plan = _gram_plan(gram.shape, gram.tobytes())
    if plan.lam_min <= 0:
        raise NotPositiveDefinite("ellipsoid enumeration needs a definite Gram")
    # |c_i + center_i| <= sqrt(radius2 (G^-1)_ii) on the ellipsoid; the
    # margin keeps the filter's 1e-9 slack and the rounding inside the box
    r2 = max(radius2, 0.0) + 1e-9
    reach = [math.sqrt(r2 * d) + 1e-6 for d in plan.inv_diag]
    cen = center.tolist()
    coords = _box(
        tuple(math.ceil(-c - e) for c, e in zip(cen, reach)),
        tuple(math.floor(-c + e) for c, e in zip(cen, reach)),
    )
    shifted = coords + center
    norms = np.einsum("ij,jk,ik->i", shifted, gram, shifted)
    keep = norms <= radius2 + 1e-9
    return coords[keep], norms[keep]


def _lattice_sum(gram, centre, k: float, tau: complex, growth: float, terms):
    """Sum the summands of one lattice window, added one at a time in the
    window's order.

    ``terms(coords, norms)`` returns them as one complex array, one per
    row c of ``coords``, with ``norms`` holding |centre + c|^2 in the Gram
    metric.  The summands must be bounded by exp(-pi y r^2 / k + growth * r)
    in r = k |centre + c|; the window radius r* makes that bound
    ABS_TOL / _WINDOW_MARGIN.  The err_bound is eight times the largest
    summand in the outer shell r^2 >= 0.7 r*^2, and at least ABS_TOL / 100.
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
    summands = terms(coords, norms)
    total = 0.0 + 0.0j
    for t in summands.tolist():
        total += t
    shell = norms * (k * k) >= 0.7 * radius2
    boundary = float(np.max(np.abs(summands), where=shell, initial=0.0))
    err = max(boundary * 8.0, ABS_TOL * 0.01)
    return SeriesValue(total, err, coords.shape[0])


def _first_refusal(*checks):
    """(row, column) of the first refused summand in window order, or None.

    Each check is a bool array with one row per summand (and one column
    per sub-check); a summand's checks run in the order of their columns
    across ``checks``."""
    if not any(c.any() for c in checks):
        return None
    table = np.concatenate([c.reshape(len(c), -1) for c in checks], axis=1)
    return divmod(int(np.argmax(table)), table.shape[1])


def _signs(eps, plan: GramPlan, coords):
    """eps at every row of ``coords`` in exact integer arithmetic, as
    (signs, refused, refuse): ``refused`` masks the rows eps cannot sign
    and ``refuse(row)`` raises eps's error there."""
    if eps.kind == "trivial":
        return 1, np.zeros(len(coords), dtype=bool), None
    if eps.kind == "custom_vector":
        vec = [int(x) for x in eps.vector][: coords.shape[1]]
        dot = coords[:, : len(vec)] @ np.array(vec, dtype=np.int64)
        return 1 - 2 * (dot % 2), np.zeros(len(coords), dtype=bool), None
    if eps.kind != "parity_of_norm":
        return 1, np.ones(len(coords), dtype=bool), lambda i: eps(coords[i].tolist(), None)
    g, d = plan.scaled
    mult = as_fraction(eps.mult)
    # mult |c|^2 = mult.numerator c.g.c / (mult.denominator d), in int64
    # while every product fits, in Python integers past that
    reach = int(np.abs(coords).max()) * coords.shape[1]
    big = max(abs(x) for row in g for x in row) * reach * reach * abs(mult.numerator)
    dtype = np.int64 if max(big, mult.denominator * d) < 2**62 else object
    c = coords.astype(dtype)
    num = ((c @ np.array(g, dtype=dtype)) * c).sum(axis=1)
    top, den = mult.numerator * num, mult.denominator * d
    signs = np.asarray(1 - 2 * (top // den % 2), dtype=np.int64)
    return signs, np.asarray(top % den != 0, dtype=bool), lambda i: eps.parity(int(num[i]), d)


def window_theta(lambda_bar, k, lattice, eps, point) -> SeriesValue:
    """``lattice.lattice_theta`` summed over its lattice window."""
    if k <= 0:
        raise ValueError("degree k must be positive")
    gram = np.asarray(lattice.gram, dtype=float)
    plan = _gram_plan(gram.shape, gram.tobytes())
    if not plan.positive_definite:
        raise NotPositiveDefinite("lattice_theta requires positive definite Gram")
    tau = require_tau(point.tau)
    lam = np.asarray([float(x) for x in lambda_bar], dtype=float)
    kf = float(k)
    z = np.asarray(point.z, dtype=complex)
    im_norm = math.sqrt(max(float(z.imag @ gram @ z.imag), 0.0))
    i_pi_k = _I_PI * tau * kf  # pi i tau |v|^2 / k = pi i tau k |c + lam / k|^2

    def terms(coords, norms):
        # |term| = exp(-pi y |v|^2 / k - 2 pi Im (v|z)), v = lam + k c
        w = i_pi_k * norms + _2PI_I * (((lam + kf * coords) @ gram) @ z)
        signs, refused, refuse = _signs(eps, plan, coords)
        hit = _first_refusal(refused, w.real > _EXP_GUARD)
        if hit is not None:
            i, check = hit
            if check == 0:
                refuse(i)
            raise exp_overflow(complex(w[i]))
        return signs * np.exp(w)

    out = _lattice_sum(gram, lam / kf, kf, tau, 2.0 * math.pi * im_norm, terms)
    return cexp(_2PI_I * kf * complex(point.t)) * out


@lru_cache(maxsize=128)
def _mock_plan(ctx, weight):
    """``window_mock_theta``'s constants, once per (context, weight), validated."""
    bad = validate_context(ctx, weight=weight)
    if bad:
        raise ConditionViolation(bad)
    m, n = ctx.rank, ctx.n_isotropic
    G = ctx.full_gram_float()
    lam = np.asarray([float(x) for x in weight.coords], dtype=float)
    lam_min = float(np.linalg.eigvalsh(G[:m, :m])[0])
    if lam_min <= 0:  # a Gram that is definite only past double precision
        raise NotPositiveDefinite("lattice_mock_theta requires a positive definite gamma Gram")
    centre = np.linalg.solve(G[:m, :m], lam @ G[:, :m]) / float(ctx.k)
    embed = np.eye(m, m + n) * float(ctx.k)  # c -> k c in the frame
    return G, lam, lam_min, centre, embed, G[:m, m:], translation_sign(ctx)


def window_mock_theta(ctx, weight, point, denominator_plus: bool) -> SeriesValue:
    """``lattice.lattice_mock_theta`` summed over its lattice window."""
    G, lam, lam_min, centre, embed, beta_cols, sign = _mock_plan(ctx, weight)
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
    i_pi_k = _I_PI * tau / k
    # d_j = 2 pi i (-(c|beta_j) tau - (beta_j|z)), the exponent of factor j
    d_c = beta_cols * (-_2PI_I * tau)
    d_0 = _2PI_I * (G[m:] @ z)

    def terms(coords, norms):
        v = coords @ embed + lam  # lam + k c, c padded with zeros
        vg = v @ G
        w = i_pi_k * (vg * v).sum(axis=1) + _2PI_I * (vg @ z)
        d = coords @ d_c - d_0
        # 1 -+ e^d = -+e^d (1 -+ e^-d): once e^d is large, e^-d folds into w
        fold = d.real > 40.0
        folded = fold.any()
        if folded:
            for j in range(n):
                w = np.where(fold[:, j], w - d[:, j], w)
            d = np.where(fold, -d, d)
        e = np.exp(d)
        dj = (1.0 + e) if denominator_plus else (1.0 - e)
        if folded and not denominator_plus:
            dj = np.where(fold, -dj, dj)
        hit = _first_refusal(np.abs(dj) < 1e-8, w.real > _EXP_GUARD)
        if hit is not None:
            i, check = hit
            if check < n:
                raise PoleProximity(f"denominator factor {check + 1} vanishes")
            raise exp_overflow(complex(w[i]))
        signs, _, _ = _signs(sign, None, coords)
        return signs * np.exp(w) / dj.prod(axis=1)

    out = _lattice_sum(G[:m, :m], centre, k, tau, growth, terms)
    return cexp(_2PI_I * k * complex(point.t)) * out
