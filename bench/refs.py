"""Independent references for the benchmark's output checks.

The rank-1 series (eta, the rank-1 thetas, Phi, R and the modifier) are
summed again here in 40-digit ``mpmath`` arithmetic, term by term from
their defining formulas, sharing no code with the library.  The
closed-form routes for the lattice and character rows (superdenominators,
the osp(3|2) subprincipal quotients, the eq3.5 route for lattice mock
thetas, A1 (+) A1 lattice thetas) go through other public functions of the
library, so a defect in one evaluator does not cancel against itself.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath

DPS = 40
# A ladder direction stops once two successive, shrinking terms fall
# below this share of the largest term seen.
_STOP = mpmath.mpf(10) ** -45
_MAX_STEPS = 20000


def _mpf(x):
    """Exact conversion of ints, Fractions and floats."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _mpc(z):
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def _ladder(term, start=0):
    """Sum term(n) over all integers n, walking outward from ``start``."""
    total = term(start)
    peak = abs(total)
    for step in (1, -1):
        n = start
        small = 0
        prev = None
        while True:
            n += step
            t = term(n)
            total += t
            mag = abs(t)
            peak = max(peak, mag)
            if prev is not None and mag <= prev and mag < _STOP * max(peak, 1):
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
            prev = mag
            if abs(n - start) > _MAX_STEPS:
                raise ArithmeticError("reference ladder did not converge")
    return total


def eta(tau):
    """q^(1/24) prod_(n>=1) (1 - q^n)."""
    with mpmath.workdps(DPS):
        tau = _mpc(tau)
        q = mpmath.exp(2j * mpmath.pi * tau)
        value = mpmath.exp(2j * mpmath.pi * tau / 24)
        qn = mpmath.mpf(1)
        while True:
            qn *= q
            value *= 1 - qn
            if abs(qn) < _STOP:
                return complex(value)


def _theta(sign, j, m, tau, z):
    j, m = _mpf(j), _mpf(m)
    c0 = j / (2 * m)
    tpi = 2j * mpmath.pi

    def term(n):
        c = n + c0
        val = mpmath.exp(tpi * (m * z * c + tau * m * c * c))
        return -val if sign == -1 and n % 2 else val

    return _ladder(term, -int(round(float(c0))))


def _r(sign, j, m, tau, z):
    """The correction ladder n = j + 2 m l with weight sign(l) - E(psi)."""
    j, m = _mpf(j), _mpf(m)
    y = tau.imag
    centre = 2 * m * z.imag / y
    scale = mpmath.sqrt(y / m)
    rpi = mpmath.sqrt(mpmath.pi)

    def term(ell):
        n = j + 2 * m * ell
        s = 1 if ell >= 0 else -1
        psi = (n - centre) * scale
        # s - erf(sqrt(pi) psi) == s * erfc(sqrt(pi) s psi), exact in sign
        weight = s * mpmath.erfc(rpi * s * psi)
        val = weight * mpmath.exp(
            -1j * mpmath.pi * n * n * tau / (2 * m) + 2j * mpmath.pi * n * z
        )
        return -val if sign == -1 and ell % 2 else val

    return _ladder(term)


def _phi(m, s, sgn, tau, z1, z2):
    m, s = _mpf(m), _mpf(s)
    tpi = 2j * mpmath.pi
    e1 = mpmath.exp(tpi * z1)

    def term(n):
        num = mpmath.exp(tpi * (m * n * (z1 + z2) + s * z1 + tau * (m * n * n + s * n)))
        val = num / (1 - e1 * mpmath.exp(tpi * n * tau))
        return -val if sgn == -1 and n % 2 else val

    return _ladder(term)


def rank1_index(tau, z1, z2, m, s, sign):
    """40-digit (theta, R, Phi, Phi_add, Phi~) for one rank-1 index.

    theta and R are taken at j = s, on u = z1 + z2 and v = (z1 - z2) / 2,
    the arguments Phi_add pairs them on.
    """
    with mpmath.workdps(DPS):
        t, a, b = _mpc(tau), _mpc(z1), _mpc(z2)
        u = a + b
        v = (a - b) / 2
        sgn = -1 if sign == "minus" else 1
        ph = _phi(m, s, sgn, t, a, b)
        terms = []
        for kk in range(int(2 * m)):
            j = Fraction(s) + kk
            terms.append((_r(sgn, j, m, t, v), _theta(sgn, j, m, t, u)))
        add = sum((r * th for r, th in terms), mpmath.mpc(0))
        tilde = ph - add / 2
        r0, th0 = terms[0]
        return tuple(complex(x) for x in (th0, r0, ph, add, tilde))


def rank1_point(tau, z1, z2, indices):
    """40-digit values of everything one ``rank1_grid`` op evaluates, in
    the order the workload produces them: eta, then (theta, R, Phi,
    Phi_add, Phi~) per index."""
    out = [eta(tau)]
    for m, s, sign in indices:
        out.extend(rank1_index(tau, z1, z2, m, s, sign))
    return out


# ---------------------------------------------------------------------------
# closed-form routes through other public functions of the library


def denominator_sl21(mt, pt):
    """i e^(2 pi i t) eta^3 theta11(z1+z2) / (theta11(z1) theta11(z2))."""
    tau, (z1, z2), t = pt.tau, pt.z, pt.t
    e3 = mt.eta(tau).value ** 3
    th = lambda x: mt.theta_ab(1, 1, tau, x).value
    return 1j * cmath.exp(2j * math.pi * t) * e3 * th(z1 + z2) / (th(z1) * th(z2))


def denominator_osp32(mt, pt):
    """The osp(3|2) superdenominator as an eta/theta11 quotient."""
    tau, (z1, z2), t = pt.tau, pt.z, pt.t
    e3 = mt.eta(tau).value ** 3
    th = lambda x: mt.theta_ab(1, 1, tau, x).value
    quot = th(z1 - z2) * th((z1 + z2) / 2) / (th(z1) * th(z2) * th((z1 - z2) / 2))
    return 1j * cmath.exp(1j * math.pi * t) * e3 * quot


def f_quotient(mt, i, pt):
    """R^- f_i at k = -3/4 from its theta-quotient closed form."""
    sub = mt.system("osp32_sub")
    return sub.f_closed_quotient(i, pt).value / sub.denominator(-1, pt).value


def lattice_mock_sl2(mt, k, coords, pt):
    """eq3.5: the rank-1 lattice mock theta function as e^(2 pi i k t) Phi.

    For the sl2 context the frame Gram is [[2, -1], [-1, 0]], so
    (beta|z) = -z1, (gamma|z) = 2 z1 - z2 and the shift is (lambda|gamma).
    """
    z1, z2 = pt.z
    beta_z = -z1
    gamma_z = 2 * z1 - z2
    a, b = coords
    s = 2 * a - b
    val = mt.phi(mt.MockIndex(k, s), pt.tau, -beta_z, beta_z + gamma_z).value
    return cmath.exp(2j * math.pi * k * pt.t) * val


def lattice_theta_a1_sum(mt, lam, k, sign, pt):
    """Theta of A1 (+) ... (+) A1 as a product of rank-1 signed thetas.

    With Gram 2 on each summand, v = lam + k c has |v|^2 = 2 v^2 and
    (v|z) = 2 v z, so each factor is theta_jm_signed(sign, 2 lam, k, tau,
    2 z); parity_of_norm with mult 1/2 gives (-1)^c per summand.
    """
    val = cmath.exp(2j * math.pi * k * pt.t)
    for lam_i, z_i in zip(lam, pt.z):
        val *= mt.theta_jm_signed(sign, 2 * lam_i, k, pt.tau, 2 * z_i).value
    return val


# The expected D(2,1;a), (p, q) = (1, 1), level -1/2 label sets (the
# paper's Cor. 6.5-6.7, as pinned by the d21a-omega suite).
OMEGA_D21A_11 = (
    frozenset({(0, 0), (0, 1), (1, -1)}),
    frozenset({(1, 2), (2, 3), (1, 1)}),
)
