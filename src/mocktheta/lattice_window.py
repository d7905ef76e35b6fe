"""The lattice window, in plain Python, imported on first use by a lattice
sum no rank-1 ladder takes.  ``_lattice_sum`` fixes the window's radius,
term cap and error bound; ``enumerate_ellipsoid`` walks it by Fincke-Pohst
enumeration, in runs along the last coordinate.  Signs are exact integer
arithmetic, and each refusal (a vanishing denominator factor, an exponent
past the overflow guard, a sign the lattice does not carry) is raised for
the first offending summand in window order.
"""

from __future__ import annotations

from cmath import exp
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, floor, lcm, pi, sqrt
from operator import mul

from .core import (_EXP_GUARD, _LOG_WINDOW_TOL, ABS_TOL, MAX_TERMS, SeriesValue, as_fraction,
                   cexp, exp_overflow, require_tau)
from .errors import ConditionViolation, NonConvergent, NotPositiveDefinite, PoleProximity
from .lattice import _2PI_I, _I_PI, _eliminate, translation_sign, validate_context


def _ldl(gram):
    """(pivots, rows) with |x|^2 = sum_i pivots[i] (x_i + sum_(j<i) rows[i][j] x_j)^2,
    eliminating the last coordinate first; None at the first pivot that is
    not positive, that is, for a Gram that is not positive definite."""
    a = [list(row) for row in gram]
    pivots, rows = [0.0] * len(a), [None] * len(a)
    for i in reversed(range(len(a))):
        p = a[i][i]
        if not p > 0.0:
            return None
        pivots[i], rows[i] = p, [x / p for x in a[i][:i]]
        for r in range(i):
            for c in range(i):
                a[r][c] -= rows[i][r] * a[i][c]
    return pivots, rows


class GramPlan:
    """What a Gram (a tuple of float rows) fixes for the sums over it, kept by ``_gram_plan``."""

    def __init__(self, gram: tuple):
        self.gram = gram
        self.ldl = _ldl(gram)
        self.positive_definite = self.ldl is not None

    @cached_property
    def lam_min(self) -> float:
        """The smallest eigenvalue of a positive definite Gram, by bisection:
        by Sylvester's law of inertia G - s I has as many negative pivots as
        G has eigenvalues below s.  The pivots are exact rationals, so this
        is the least double s at which G - s I is not definite."""
        g = [[Fraction(x) for x in row] for row in self.gram]
        lo, hi = 0.0, min(row[i] for i, row in enumerate(self.gram))
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            shifted = [[x - Fraction(mid) * (i == j) for j, x in enumerate(row)]
                       for i, row in enumerate(g)]
            lo, hi = (mid, hi) if _ldl(shifted) else (lo, mid)
        return hi

    @cached_property
    def scaled(self):
        """(G, d), G integral, G / d the Gram to 9 places: |c|^2 = c.G.c / d."""
        exact = [[as_fraction(round(float(x), 9)) for x in row] for row in self.gram]
        d = lcm(*(x.denominator for row in exact for x in row))
        return [[int(x * d) for x in row] for row in exact], d


@lru_cache(maxsize=64)
def _gram_plan(gram: tuple) -> GramPlan:
    return GramPlan(gram)


def enumerate_ellipsoid(gram: tuple, center, radius2: float) -> list:
    """Integer vectors c with |center + c|^2 <= radius2 in the Gram metric,
    in lexicographic order, as runs (prefix, first, norms): the vectors
    (*prefix, first + i), whose |center + c|^2 is norms[i].  Fincke-Pohst:
    with |y|^2 = sum_i p_i (y_i + sum_(j<i) l_ij y_j)^2, the first coordinates
    of y = center + c fix the first terms, and what they leave of radius2
    bounds the next coordinate, padded by 1e-6; the norms keep 1e-9 of slack.
    Along a run the float norm falls, then rises, so a run keeps consecutive
    vectors.  More than MAX_TERMS vectors are refused."""
    plan = _gram_plan(gram)
    if not plan.positive_definite:
        raise NotPositiveDefinite("ellipsoid enumeration needs a definite Gram")
    pivots, rows = plan.ldl
    last, limit = len(pivots) - 1, radius2 + 1e-9
    runs, found = [], 0

    def walk(i, prefix, ys, used):
        nonlocal found
        p, s = pivots[i], sum(map(mul, rows[i], ys), center[i])
        reach = sqrt((limit - used) / p) + 1e-6
        lo, hi = ceil(-s - reach), floor(-s + reach)
        if i < last:
            for x in range(lo, hi + 1):
                if (used_x := used + p * (x + s) * (x + s)) <= limit:  # later terms add to it
                    walk(i + 1, prefix + (x,), ys + (center[i] + x,), used_x)
            return
        norms = [used + p * (x + s) * (x + s) for x in range(lo, min(hi, lo + MAX_TERMS + 1) + 1)]
        while norms and norms[-1] > limit:
            norms.pop()
        while norms and norms[0] > limit:
            del norms[0]
            lo += 1
        found += len(norms)  # a run cut at MAX_TERMS + 2 candidates keeps more than MAX_TERMS
        if found > MAX_TERMS:
            raise NonConvergent("lattice enumeration exceeds max_terms")
        if norms:
            runs.append((prefix, lo, norms))

    walk(0, (), (), 0.0)
    return runs


def _lattice_sum(gram: tuple, centre, k: float, tau: complex, growth: float, terms):
    """Sum one lattice window's summands, added one at a time in its order:
    ``terms(runs)`` lists them, one per vector of ``enumerate_ellipsoid``'s
    runs.  They must be bounded by exp(-pi y r^2 / k + growth * r) in
    r = k |centre + c|; the window radius r* makes that bound ABS_TOL /
    _WINDOW_MARGIN.  The err_bound is eight times the largest summand in the
    outer shell r^2 >= 0.7 r*^2, and at least ABS_TOL / 100."""
    a_coef = pi * tau.imag / k
    r_star = (growth + sqrt(growth * growth - 4.0 * a_coef * _LOG_WINDOW_TOL)) / (2.0 * a_coef)
    radius2 = r_star * r_star
    runs = enumerate_ellipsoid(gram, centre, radius2 / (k * k))
    if not runs:
        norm = sum(sum(map(mul, row, centre)) * c for row, c in zip(gram, centre))
        runs = [((0,) * (len(centre) - 1), 0, [norm])]
    summands = terms(runs)
    kk, shell = k * k, 0.7 * radius2
    norms = [norm for _, _, run in runs for norm in run]
    boundary = max(map(abs, [t for t, n in zip(summands, norms) if n * kk >= shell]), default=0.0)
    return SeriesValue(sum(summands, 0j), max(boundary * 8.0, ABS_TOL * 0.01), len(summands))


def _signs(eps, plan: GramPlan, runs):
    """eps at every vector of ``runs`` in exact integer arithmetic, as
    (signs, refuse): ``signs`` (None where every sign is 1) holds 0 where
    eps signs no vector, and ``refuse(i)`` raises eps's error at the i-th."""
    if eps.kind == "trivial":
        return None, None
    lines = [(prefix, range(x, x + len(run))) for prefix, x, run in runs]
    if eps.kind == "custom_vector":
        vec = [int(x) for x in eps.vector] + [0] * len(runs[0][0])
        return [-1 if (sum(map(mul, prefix, vec)) + x * vec[len(prefix)]) % 2 else 1
                for prefix, line in lines for x in line], None
    if eps.kind != "parity_of_norm":
        eps((*runs[0][0], runs[0][1]), None)  # an unknown kind: eps refuses every vector
    g, d = plan.scaled
    mult = as_fraction(eps.mult)
    top, den = mult.numerator, mult.denominator * d
    nums = []
    for prefix, line in lines:
        # c.g.c = q + x (2 b + g_ll x) along the run, c = (*prefix, x)
        b = [sum(map(mul, row, prefix)) for row in g]
        q, b2, gll = sum(map(mul, prefix, b)), 2 * b[-1], g[-1][-1]
        nums += [q + x * (b2 + gll * x) for x in line]
    # (-1)^(mult c.g.c / d), where the division leaves no remainder
    return ([0 if (t := top * num) % den else 1 - 2 * (t // den % 2) for num in nums],
            lambda i: eps.parity(nums[i], d))


def _summands(runs, quad, w0, steps, dens, plus, signs, refuse):
    """sign(c) e^w / prod_j (1 -+ e^(d_j)) at the vectors c of ``runs``: w = quad
    |centre + c|^2 + w0 + c.steps, d_j = c.col_j - d0_j for each (col_j, d0_j)
    of ``dens`` (+ where ``plus``), and ``signs``, ``refuse`` from ``_signs``."""
    first = signs.index(0) if signs and 0 in signs else None
    out, step = [], steps[-1]
    for prefix, x0, run in runs:
        base = sum(map(mul, prefix, steps), w0)
        factors = dens and [(j, sum(map(mul, prefix, col), -d0), col[-1])
                            for j, (col, d0) in enumerate(dens, 1)]
        for x, norm in enumerate(run, x0):
            w, den = quad * norm + base + x * step, 1.0
            for j, d_run, d_x in factors:
                d = d_run + x * d_x
                if fold := d.real > 40.0:  # 1 -+ e^d = -+e^d (1 -+ e^-d): e^-d folds into w
                    w -= d
                e = exp(-d if fold else d)
                f = 1.0 + e if plus else e - 1.0 if fold else 1.0 - e
                if abs(f) < 1e-8:  # a sum with factors has no sign it refuses
                    raise PoleProximity(f"denominator factor {j} vanishes")
                den *= f
            if w.real > _EXP_GUARD:
                if first is not None and first <= len(out):
                    refuse(first)
                raise exp_overflow(w)
            out.append(exp(w) / den if factors else exp(w))
    if first is not None:
        refuse(first)
    return out if signs is None else list(map(mul, signs, out))


def _pairings(gram, z):
    """((e_i|z) for each basis vector e_i, |Im z|)."""
    gz = [sum(map(mul, row, z), 0j) for row in gram]
    return gz, sqrt(max(sum(x.imag * y.imag for x, y in zip(gz, z)), 0.0))


def window_theta(lambda_bar, k, lattice, eps, point) -> SeriesValue:
    """``lattice.lattice_theta`` summed over its lattice window."""
    if k <= 0:
        raise ValueError("degree k must be positive")
    gram, kf = lattice.gram, float(k)
    plan = _gram_plan(gram)
    if not plan.positive_definite:
        raise NotPositiveDefinite("lattice_theta requires positive definite Gram")
    tau = require_tau(point.tau)
    if not len(lambda_bar) == len(point.z) == len(gram):
        raise ValueError("lambda_bar and z need one coordinate per basis vector")
    lam = [float(x) for x in lambda_bar]
    gz, im_norm = _pairings(gram, [complex(x) for x in point.z])
    # pi i tau |v|^2 / k + 2 pi i (v|z), v = lam + k c: |v|^2 / k = k |c + lam / k|^2
    quad, w0 = _I_PI * tau * kf, _2PI_I * sum(map(mul, lam, gz))
    steps = [_2PI_I * kf * x for x in gz]
    out = _lattice_sum(gram, [x / kf for x in lam], kf, tau, 2.0 * pi * im_norm, lambda runs:
                       _summands(runs, quad, w0, steps, (), False, *_signs(eps, plan, runs)))
    return cexp(_2PI_I * kf * complex(point.t)) * out


@lru_cache(maxsize=128)
def _mock_plan(ctx, weight):
    """``window_mock_theta``'s constants per (context, weight), validated, each
    exact until rounded once: the frame and gamma Grams, lam_min, the window
    centre, the weight, (|lam|^2 - k^2 |centre|^2) / k and the sign."""
    if bad := validate_context(ctx, weight=weight):
        raise ConditionViolation(bad)
    gamma = tuple(tuple(map(float, row)) for row in ctx.gamma_gram)
    plan = _gram_plan(gamma)
    if not plan.positive_definite:  # a Gram that is definite only past double precision
        raise NotPositiveDefinite("lattice_mock_theta requires a positive definite gamma Gram")
    lam_gamma = [ctx.pair(weight.coords, ctx.gamma_vec(i)) for i in range(1, ctx.rank + 1)]
    _, (x,) = _eliminate(ctx.gamma_gram, [lam_gamma])  # x = k centre: k^2 |centre|^2 = x.lam_gamma
    perp = ctx.pair(weight.coords, weight.coords) - sum(map(mul, x, lam_gamma))
    return (tuple(tuple(map(float, row)) for row in ctx.full_gram), gamma, plan.lam_min,
            [float(c / ctx.k) for c in x], [float(c) for c in weight.coords],
            float(perp / ctx.k), translation_sign(ctx))


def window_mock_theta(ctx, weight, point, denominator_plus: bool) -> SeriesValue:
    """``lattice.lattice_mock_theta`` summed over its lattice window."""
    G, gamma, lam_min, centre, lam, perp_k, sign = _mock_plan(ctx, weight)
    tau = require_tau(point.tau)
    m, n, k = ctx.rank, ctx.n_isotropic, float(ctx.k)
    if len(point.z) != ctx.ambient_dim:
        raise ValueError("z needs one coordinate per frame vector")
    gz, im_norm = _pairings(G, [complex(x) for x in point.z])
    # denominator growth per unit of |lam + k gamma|: each factor can
    # amplify by exp(2 pi y |c_j|) and |c_j| <= r / (k sqrt(lam_min)).
    growth = 2.0 * pi * im_norm + 2.0 * pi * n * tau.imag / sqrt(lam_min)
    # pi i tau |v|^2 / k + 2 pi i (v|z), v = lam + k c: |v|^2 = k^2 |centre + c|^2 + k perp_k
    quad, w0 = _I_PI * tau * k, _I_PI * tau * perp_k + _2PI_I * sum(map(mul, lam, gz))
    steps = [_2PI_I * k * x for x in gz[:m]]
    # d_j = 2 pi i (-(c|beta_j) tau - (beta_j|z)), the exponent of factor j
    dens = [([-_2PI_I * tau * row[m + j] for row in G[:m]], _2PI_I * gz[m + j]) for j in range(n)]
    out = _lattice_sum(gamma, centre, k, tau, growth, lambda runs: _summands(
        runs, quad, w0, steps, dens, denominator_plus, *_signs(sign, None, runs)))
    return cexp(_2PI_I * k * complex(point.t)) * out
