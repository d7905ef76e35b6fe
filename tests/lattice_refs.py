"""40-digit references for the lattice sums, by direct enumeration.

``theta_ref`` sums the lattice theta function

    e^(2 pi i k t) sum_c eps(c) e^(pi i tau |lam + k c|^2 / k + 2 pi i (lam + k c | z))

and ``mock_ref`` the (signed) lattice mock theta function of a context,

    e^(2 pi i k t) sum_c eps(c) e^(pi i tau |v|^2 / k + 2 pi i (v | z))
                   / prod_j (1 - e^(-2 pi i (beta_j | z)) q^(-(gamma | beta_j))),

v = lam + k gamma, gamma = sum_i c_i gamma_i, in 40-digit ``mpmath``
arithmetic over every integer vector c whose numerator can come within
e^-110 of the largest one.  In the minus mode eps(gamma) is
(-1)^(sum_(i<=n) (gamma|beta_i) + k |gamma'|^2), gamma' = gamma + sum_(i<=n)
(gamma|beta_i) gamma_i, computed in exact rationals; the mock sum is widened
until a wider window moves it by less than 1e-35.  Nothing here calls
``mocktheta``'s lattice layer: the enumeration is a Fincke-Pohst walk of
its own, and along the innermost coordinate the exponentials are advanced
by their exact first and second differences.

    PYTHONPATH=src python tests/lattice_refs.py [--points N] [--seed S]

prints each function's worst and median error against these references
in the mixed metric |value - ref| / max(1, |ref|), and how often the
reported ``err_bound`` is below |value - ref|.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
from fractions import Fraction as F

import mpmath
import numpy as np

DPS = 40
# numerators below e^-REACH of the largest are left out
REACH = 110.0

GRAMS = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "A1A1": ((2, 0), (0, 2)),
}
# (Gram, lambda, k, sign): each Gram with the trivial and the parity sign
THETA_ROWS = tuple(
    (gram, lam, k, sign)
    for gram, lam in (("A1", (0.5,)), ("A2", (0.5, 0.0)), ("A3", (0.5, 0.0, 0.5)),
                      ("A1A1", (0.5, 0.0)))
    for sign, k in (("trivial", 1), ("parity_of_norm", 1), ("parity_of_norm", 2))
)
PARITY_MULT = F(1, 2)
# (gamma Gram, n isotropic, k, mode, weight): the contexts of
# bench/workloads.CONTEXTS, and a minus-mode context of level 1/2
CONTEXTS = {
    "sl2": (((2,),), 1, 1, "unsigned", (0, -1)),
    "sl2_k2": (((2,),), 1, 2, "unsigned", (0, -1)),
    "sl3": (((2, -1), (-1, 2)), 1, 1, "unsigned", (0, 0, -1)),
    "odd": (((2,),), 1, F(3, 2), "minus", (0, 1)),
    "half": (((2,),), 1, F(1, 2), "minus", (0, F(3, 2))),
}
LOW_BAND = (0.06, 0.15)
MODERATE_BAND = (0.8, 2.0)


def _mpc(z):
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def _mpf(x):
    """An exact Fraction (or int) as an mpf."""
    x = F(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _frac(x):
    return x if isinstance(x, F) else F(x)


def _lattice_distance(z, tau):
    n0 = round(z.imag / tau.imag)
    return min(
        abs(z - n * tau - round((z - n * tau).real)) for n in (n0 - 1, n0, n0 + 1)
    )


def points(seed, count):
    """(tau, z, t), z three coordinates: alternately Im tau in the moderate
    and the low band, |Re z| <= 0.45, |Im z| <= 0.08, every coordinate at
    least 0.05 from Z + Z tau (the poles of the mock sums)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        band = LOW_BAND if len(out) % 2 else MODERATE_BAND
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(*band))
        z = tuple(complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.08, 0.08)) for _ in "123")
        if all(_lattice_distance(w, tau) >= 0.05 for w in z):
            out.append((tau, z, round(rng.uniform(0.0, 0.1), 6)))
    return out


def _lines(A, c0, reach):
    """(outer, lo, hi): every integer c = (n, *outer), lo <= n <= hi, with
    (c - c0) A (c - c0) <= reach lies on one line; A positive definite."""
    r = len(A)
    # A = R^T R, R upper triangular: the form is sum_i (sum_(j>=i) R_ij (c_j - c0_j))^2
    R = np.linalg.cholesky(np.asarray(A, dtype=float)).T

    def walk(i, tail, left):
        s = sum(R[i][j] * (tail[j - i - 1] - c0[j]) for j in range(i + 1, r)) / R[i][i]
        half = math.sqrt(max(left, 0.0)) / R[i][i]
        lo = math.floor(c0[i] - s - half) - 1
        hi = math.ceil(c0[i] - s + half) + 1
        if i == 0:
            yield tuple(tail), lo, hi
            return
        for n in range(lo, hi + 1):
            used = (R[i][i] * (n - c0[i] + s)) ** 2
            if used <= left + 1e-9:
                yield from walk(i - 1, (n,) + tail, left - used)

    yield from walk(r - 1, (), reach)


def _line_sum(exponent, d2, lo, hi, weight=None):
    """sum_(lo<=n<=hi) weight(n) e^(exponent(n)), exponent quadratic in n
    with second difference d2, advanced by exact multiplications; no
    ``weight`` is weight 1."""
    term = mpmath.exp(exponent(lo))
    ratio = mpmath.exp(exponent(lo + 1) - exponent(lo))
    step = mpmath.exp(d2)
    total = mpmath.mpc(0)
    for n in range(lo, hi + 1):
        total += term if weight is None else weight(n) * term
        term *= ratio
        ratio *= step
    return total


def _norm(gram):
    """c -> c.G.c as an exact Fraction."""
    return lambda c: sum(gram[i][j] * c[i] * c[j] for i in range(len(c)) for j in range(len(c)))


def _parity(gram_name, c):
    """(-1)^(PARITY_MULT |c|^2), exact."""
    e = PARITY_MULT * _norm(GRAMS[gram_name])(c)
    if e.denominator != 1:
        raise ValueError(f"parity exponent {e} is not an integer")
    return -1 if e.numerator % 2 else 1


def _theta_exponent(gram_name, lam, k, tau, z):
    """c -> pi i tau |lam + k c|^2 / k + 2 pi i (lam + k c | z); call it
    at DPS digits."""
    gram = [[F(x) for x in row] for row in GRAMS[gram_name]]
    r = len(gram)
    norm = _norm(gram)
    ipt = 1j * mpmath.pi * _mpc(tau)
    zz = [_mpc(w) for w in z[:r]]
    lam_q = [_frac(x) for x in lam]

    def exponent(c):
        v = [lam_q[i] + k * c[i] for i in range(r)]
        vz = sum(_mpf(gram[i][j]) * _mpf(v[i]) * zz[j] for i in range(r) for j in range(r))
        return ipt * _mpf(norm(v)) / k + 2j * mpmath.pi * vz

    return exponent


def theta_summand(gram_name, lam, k, sign, tau, z):
    """c -> (t, w): the lattice theta's summand t at c, without
    e^(2 pi i k t), and the exponent w of its exponential."""
    with mpmath.workdps(DPS):
        exponent = _theta_exponent(gram_name, lam, k, tau, z)

    def summand(c):
        with mpmath.workdps(DPS):
            eps = 1 if sign == "trivial" else _parity(gram_name, c)
            w = exponent(c)
            return eps * mpmath.exp(w), w

    return summand


def theta_ref(gram_name, lam, k, sign, tau, z, t):
    """The lattice theta of ``GRAMS[gram_name]`` at (tau, z, t), z in lattice coordinates."""
    gram = GRAMS[gram_name]
    r = len(gram)
    g = np.asarray(gram, dtype=float)
    lamf = np.asarray(lam, dtype=float)
    zi = np.asarray([complex(w).imag for w in z[:r]])
    y = tau.imag
    # |numerator| = exp(-pi y k |c + lam/k + Im z / y|^2 + const)
    c0 = -(lamf / k + zi / y)
    with mpmath.workdps(DPS):
        exponent = _theta_exponent(gram_name, lam, k, tau, z)

        def line_eps(outer):
            """n -> eps(n, *outer); None for the trivial sign."""
            if sign == "trivial":
                return None
            # |c|^2 = g00 n^2 + 2 b n + a on the line, in integers
            b = sum(gram[0][j] * outer[j - 1] for j in range(1, r))
            a = sum(gram[i][j] * outer[i - 1] * outer[j - 1]
                    for i in range(1, r) for j in range(1, r))

            def eps(n):
                e = PARITY_MULT * (gram[0][0] * n * n + 2 * b * n + a)
                if e.denominator != 1:
                    raise ValueError(f"parity exponent {e} is not an integer")
                return -1 if e.numerator % 2 else 1

            return eps

        total = mpmath.mpc(0)
        for outer, lo, hi in _lines(math.pi * y * k * g, c0, REACH):
            total += _line_sum(
                lambda n: exponent((n,) + outer),
                2j * mpmath.pi * _mpc(tau) * k * gram[0][0],
                lo, hi,
                line_eps(outer),
            )
        return complex(total * mpmath.exp(2j * mpmath.pi * k * _mpc(t)))


def _frame(ctx_name):
    """(full Gram, m, n, k, mode, weight) of a context, exact."""
    gg, n, k, mode, weight = CONTEXTS[ctx_name]
    m = len(gg)
    k = _frac(k)
    full = [[F(0)] * (m + n) for _ in range(m + n)]
    for i in range(m):
        for j in range(m):
            full[i][j] = F(gg[i][j])
    for j in range(n):  # (gamma_i | beta_j) = -delta_ij, (beta_i | beta_j) = 0
        full[j][m + j] = full[m + j][j] = F(-1)
    return full, m, n, k, mode, tuple(_frac(x) for x in weight)


def _minus_sign(full, m, n, k, c):
    """(-1)^(sum_(i<=n) (gamma|beta_i) + k |gamma'|^2) of gamma = sum c_i gamma_i."""
    gb = [-c[i] for i in range(n)]  # (gamma | beta_i)
    prime = [c[i] + (gb[i] if i < n else 0) for i in range(m)]
    e = sum(gb) + k * sum(full[i][j] * prime[i] * prime[j] for i in range(m) for j in range(m))
    if e.denominator != 1:
        raise ValueError(f"minus-mode sign exponent {e} is not an integer")
    return -1 if e.numerator % 2 else 1


def _mock_parts(ctx_name, tau, z):
    """(exponent, weight) of a context's summands at c: the numerator's
    exponent pi i tau |v|^2 / k + 2 pi i (v|z) and eps(c) over the
    denominator; call them at DPS digits."""
    full, m, n, k, mode, lam = _frame(ctx_name)
    dim = m + n
    ipt = 1j * mpmath.pi * _mpc(tau)
    q = mpmath.exp(2j * mpmath.pi * _mpc(tau))
    zz = [_mpc(w) for w in z[:dim]]
    # e^(-2 pi i (beta_j|z)), (beta_j|z) = sum_i (beta_j|e_i) z_i
    bz = [mpmath.exp(-2j * mpmath.pi * sum(_mpf(full[m + j][i]) * zz[i] for i in range(dim)))
          for j in range(n)]

    def exponent(c):
        v = [lam[i] + (k * c[i] if i < m else 0) for i in range(dim)]
        norm = sum(full[i][j] * v[i] * v[j] for i in range(dim) for j in range(dim))
        vz = sum(_mpf(full[i][j]) * _mpf(v[i]) * zz[j] for i in range(dim) for j in range(dim))
        return ipt * _mpf(norm) / _mpf(k) + 2j * mpmath.pi * vz

    def weight(c):
        s = _minus_sign(full, m, n, k, c) if mode == "minus" else 1
        den = mpmath.mpc(1)
        for j in range(n):  # (gamma | beta_j) = -c_j
            den *= 1 - bz[j] * q ** c[j]
        return s / den

    return exponent, weight


def mock_summand(ctx_name, tau, z):
    """c -> (t, w): the lattice mock theta's summand t at c, without
    e^(2 pi i k t), and the exponent w of its numerator."""
    with mpmath.workdps(DPS):
        exponent, weight = _mock_parts(ctx_name, tau, z)

    def summand(c):
        with mpmath.workdps(DPS):
            w = exponent(c)
            return weight(c) * mpmath.exp(w), w

    return summand


def mock_ref(ctx_name, tau, z, t):
    """The lattice mock theta function of ``CONTEXTS[ctx_name]`` at its weight."""
    full, m, n, k, mode, lam = _frame(ctx_name)
    z = z[: m + n]
    g = np.asarray(full, dtype=float)
    y = tau.imag
    kf = float(k)
    # -Re(exponent) = pi y |v|^2 / k + 2 pi Im(v|z), v = lam + k c in the
    # gamma coordinates: a quadratic in c with Hessian 2 pi y k G_mm
    lin = (math.pi * y * 2 * (g @ np.asarray(lam, dtype=float))
           + 2 * math.pi * kf * (g @ np.asarray([complex(w).imag for w in z])))[:m]
    A = math.pi * y * kf * g[:m, :m]
    c0 = np.linalg.solve(2 * A, -lin)
    with mpmath.workdps(DPS):
        exponent, weight = _mock_parts(ctx_name, tau, z)
        d2 = 2j * mpmath.pi * _mpc(tau) * _mpf(k) * _mpf(full[0][0])

        def total(reach):
            out = mpmath.mpc(0)
            for outer, lo, hi in _lines(A, c0, reach):
                out += _line_sum(
                    lambda nn: exponent((nn,) + outer), d2, lo, hi,
                    lambda nn: weight((nn,) + outer),
                )
            return out

        reach = REACH
        value = total(reach)
        while True:
            reach += 40.0
            wider = total(reach)
            if abs(wider - value) < _mpf(10) ** -35 * max(1, abs(wider)):
                break
            value = wider
        return complex(wider * mpmath.exp(2j * mpmath.pi * k * _mpc(t)))


def library_theta(mt, gram_name, lam, k, sign, tau, z, t):
    lat = mt.LatticeData(gram=[[float(x) for x in row] for row in GRAMS[gram_name]])
    eps = mt.SignCharacter(sign, PARITY_MULT if sign == "parity_of_norm" else F(0))
    return mt.lattice_theta(lam, k, lat, eps, mt.ModularPoint(tau, z[: len(lam)], t))


def library_mock(mt, ctx_name, tau, z, t):
    gg, n, k, mode, weight = CONTEXTS[ctx_name]
    ctx = mt.LatticeContext(gg, n, k, mode)
    pt = mt.ModularPoint(tau, z[: len(gg) + n], t)
    return mt.lattice_mock_theta(ctx, mt.Weight(k, weight), pt)


def error(value, ref):
    """The mixed metric |value - ref| / max(1, |ref|)."""
    return abs(value - ref) / max(1.0, abs(ref))


def cases(pts):
    """(function, label, library evaluator, reference) at every point."""
    for tau, z, t in pts:
        for row in THETA_ROWS:
            yield ("lattice_theta", f"{row[0]} {row[3]} k={row[2]}",
                   lambda mt, row=row, p=(tau, z, t): library_theta(mt, *row, *p),
                   lambda row=row, p=(tau, z, t): theta_ref(*row, *p))
        for name in CONTEXTS:
            yield ("lattice_mock_theta", name,
                   lambda mt, name=name, p=(tau, z, t): library_mock(mt, name, *p),
                   lambda name=name, p=(tau, z, t): mock_ref(name, *p))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1505)
    args = ap.parse_args(argv)
    import mocktheta as mt

    errs, misses, worst = {}, {}, {}
    for fn, label, lib, ref in cases(points(args.seed, args.points)):
        out = lib(mt)
        want = ref()
        e = error(out.value, want)
        errs.setdefault(fn, []).append(e)
        misses[fn] = misses.get(fn, 0) + (abs(out.value - want) > out.err_bound)
        if e >= worst.get(fn, (-1.0,))[0]:
            worst[fn] = (e, label)
    for fn, es in errs.items():
        print(f"{fn}: {len(es)} values, worst {max(es):.3g} ({worst[fn][1]}), "
              f"median {statistics.median(es):.3g}, |value - ref| > err_bound at {misses[fn]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
