"""Independent reference evaluations used only to cross-check the fast
evaluators.  Everything here is deliberately plain: fixed symmetric
windows, no tail bounds, and the error integral obtained by fixed
Gauss-Legendre quadrature rather than through erf.  Keep these
unoptimized; they are the second route of every dual-route check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

# exp(-pi u^2) < 1e-49 past |u| = 6, and the complement's scaled integrand
# exp(-pi (v^2 + 2 x v)) < e^-46 past v^2 + 2 x v = 46 / pi.
_E_CLIP = 6.0
_TAIL_EXPONENT = 46.0 / math.pi


def _gauss_legendre(f, a: float, b: float) -> float:
    """int_a^b f(u) du by the 64-node Gauss-Legendre rule; f maps arrays."""
    half = 0.5 * (b - a)
    return half * float(_GL_WEIGHTS @ f(0.5 * (a + b) + half * _GL_NODES))


def gauss_E_quad(x: float) -> float:
    """2 int_0^x exp(-pi u^2) du by Gauss-Legendre quadrature."""
    end = max(-_E_CLIP, min(_E_CLIP, x))
    return 2.0 * _gauss_legendre(lambda u: np.exp(-math.pi * u * u), 0.0, end)


def gauss_E_complement_quad(x: float) -> float:
    """2 int_x^inf exp(-pi u^2) du by Gauss-Legendre quadrature.

    Substituting u = x + v scales the integrand to O(1), which keeps the
    quadrature relatively accurate however small the tail is.
    """
    if x <= 0:
        return 1.0 - gauss_E_quad(x)
    v_max = math.sqrt(x * x + _TAIL_EXPONENT) - x
    val = _gauss_legendre(
        lambda v: np.exp(-math.pi * (v * v + 2.0 * x * v)), 0.0, v_max
    )
    return 2.0 * val * math.exp(-math.pi * x * x)


def eta_product(tau: complex) -> complex:
    """q^(1/24) times the first 80 factors of prod (1 - q^n)."""
    q = cmath.exp(2j * math.pi * tau)
    out = cmath.exp(2j * math.pi * tau / 24)
    for n in range(1, 81):
        out *= 1 - q**n
    return out


def theta_ab_naive(a, b, tau, z) -> complex:
    tot = 0j
    shift = 0.5 if a else 0.0
    for n in range(-200, 201):
        c = n + shift
        term = cmath.exp(1j * math.pi * tau * c * c + 2j * math.pi * c * z)
        if b and n % 2:
            term = -term
        tot += term
    return 1j * tot if (a, b) == (1, 1) else tot


def theta_jm_naive(sign, j, m, tau, z) -> complex:
    j = float(j)
    m = float(m)
    tot = 0j
    for n in range(-80, 81):
        c = n + j / (2 * m)
        term = cmath.exp(2j * math.pi * (m * z * c + tau * m * c * c))
        if sign == -1 and n % 2:
            term = -term
        tot += term
    return tot


def phi_naive(sign, m, s, tau, z1, z2) -> complex:
    m = float(m)
    s = float(s)
    tot = 0j
    for n in range(-60, 61):
        den_exp = 2j * math.pi * (z1 + n * tau)
        if den_exp.real > 650:
            continue  # the Gaussian numerator is far below any tolerance here
        num = cmath.exp(
            2j * math.pi * (m * n * (z1 + z2) + s * z1 + tau * (m * n * n + s * n))
        )
        den = 1 - cmath.exp(den_exp)
        term = num / den
        if sign == -1 and n % 2:
            term = -term
        tot += term
    return tot


def r_naive(sign, j, m, tau, z) -> complex:
    """Ladder sum with the quadrature error integral.

    The weight and the growing phase are combined in exponent form, since
    that is forced by double precision; the weight itself comes from
    quadrature, which keeps this route independent of erf/erfcx.
    """
    j = float(j)
    m = float(m)
    y = tau.imag
    scale = math.sqrt(y / m)
    centre = 2.0 * m * z.imag / y
    tot = 0j
    for ell in range(-40, 41):
        n = j + 2 * m * ell
        sgn_step = 1.0 if ell >= 0 else -1.0
        psi = (n - centre) * scale
        w_exp = -1j * math.pi * n * n * tau / (2 * m) + 2j * math.pi * n * z
        sp = sgn_step * psi
        decay = w_exp.real - math.pi * psi * psi
        if decay < -120.0 or w_exp.real > 700.0:
            continue  # term below 1e-50, and the factors would overflow
        if sp > 1.5:
            term = sgn_step * gauss_E_complement_quad(sp) * cmath.exp(w_exp)
        else:
            weight = sgn_step - gauss_E_quad(psi)
            term = weight * cmath.exp(w_exp)
        if sign == -1 and ell % 2:
            term = -term
        tot += term
    return tot
