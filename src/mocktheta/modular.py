"""SL2 action on the domain, point sampling, the law table, and the law
engine that every verification suite reports through."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import ModularPoint, cexp

PI = math.pi


@dataclass(frozen=True)
class SL2Element:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def __matmul__(self, other: "SL2Element") -> "SL2Element":
        return SL2Element(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


S = SL2Element(0, -1, 1, 0)
T = SL2Element(1, 1, 0, 1)
IDENTITY = SL2Element(1, 0, 0, 1)


def act(A: SL2Element, p: ModularPoint, quad) -> ModularPoint:
    """Transform (tau, z, t); ``quad(z, z)`` supplies the bilinear form (z|z)."""
    den = A.c * p.tau + A.d
    tau2 = (A.a * p.tau + A.b) / den
    z2 = tuple(w / den for w in p.z)
    t2 = p.t - A.c * quad(p.z, p.z) / (2.0 * den)
    return ModularPoint(tau2, z2, t2)


def _stream(seed: int):
    """The MT19937 stream of ``numpy.random.RandomState(seed)``: Python's own
    generator is MT19937 too, set here to the state init_genrand(seed) of
    Matsumoto and Nishimura (ACM TOMACS 8(1), 1998) as RandomState seeds it,
    so ``.uniform(a, b)`` draws the same doubles bit for bit."""
    import random  # here, not at the top: eval loads this module and draws no points

    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be between 0 and 2**32 - 1, got {seed}")
    x = seed
    state = [x]
    for i in range(1, 624):
        x = (1812433253 * (x ^ (x >> 30)) + i) & 0xFFFFFFFF
        state.append(x)
    rng = random.Random(0)
    rng.setstate((3, (*state, 624), None))  # 624: the next draw regenerates
    return rng


def sample_points(n_points: int = 12, n_z: int = 2, seed: int = 20240):
    """Deterministic pseudo-random sample points away from poles."""
    rng = _stream(seed)
    pts = []
    while len(pts) < n_points:
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 2.0))
        z = tuple(
            complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.1, 0.1))
            for _ in range(n_z)
        )
        if any(abs(w) < 0.05 for w in z):
            continue
        pts.append(ModularPoint(tau, z, 0.0))
    return pts


def check_pair(label, lhs, rhs, point=None):
    """One check of a law: both sides and their residual."""
    # mixed metric: absolute while the values are O(1), relative once an
    # elliptic prefactor pushes them to exponential scale
    scale = max(1.0, abs(lhs), abs(rhs))
    return {
        "check": label,
        "residual": abs(lhs - rhs) / scale,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "point": str(point) if point is not None else None,
    }


def check_residual(label, residual):
    """A check whose residual comes from an apply-check, not a value pair."""
    return {"check": label, "residual": residual, "lhs": "", "rhs": "", "point": None}


def verify_law(tol, checks, notes=""):
    """Report on a list of checks: the law holds when the largest residual
    that is not None is below ``tol``."""
    finite = [c["residual"] for c in checks if c["residual"] is not None]
    max_res = max(finite) if finite else 0.0
    return {
        "tol": tol,
        "max_residual": max_res,
        "pass": bool(max_res < tol),
        "n_checks": len(checks),
        "checks": checks,
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# the law table: each transformation law written once.  LAWS[family, move](idx,
# tau, z, *args), z the tuple of coordinates, gives the other side of
#     f[idx](move . (tau, z)) = prefactor * sum of phase * f[target](tau, z).
# Moves: S, T, "tau" (z + (a, b) tau, or z + tau v) and "int" (z + (a, b), or z + v).
# Indices: a MockIndex, a theta (j, m), or (res, xi), a build_modification result
# evaluated xi0-shifted or not.


class Law(NamedTuple):
    """prefactor * sum of phase * f[target] over the (phase, target) terms."""
    prefactor: complex
    terms: tuple

    def apply(self, value):
        """The other side, value(target) giving f at each target."""
        return self.prefactor * sum(phase * value(target) for phase, target in self.terms)


def _single(prefactor, target) -> Law:
    return Law(prefactor, ((1, target),))


def _tau_factor(m, a, b, tau, z):
    """e(-m (b z1 + a z2)) q^(-m a b), e(x) = e^(2 pi i x)."""
    (z1, z2), m = z, float(m)
    return cexp(-2j * PI * m * (b * z1 + a * z2)) * cexp(-2j * PI * tau * m * a * b)


# thm1.1a, thm1.3a: (sign, denominator of s) -> (shift of s, whether the sign flips)
_S_TARGET = {("unsigned", 1): (0, False), ("plus", 1): (1, False),
             ("minus", 1): (Fraction(1, 2), True), ("plus", 2): (Fraction(-1, 2), True),
             ("minus", 2): (1, False)}


def _phi_tilde_S(idx, tau, z):
    """thm1.1a, thm1.3a: Phi~(-1/tau, z/tau) = tau e(m z1 z2 / tau) Phi~[target]; Phi~
    is 1-periodic in s (cor1.2, cor1.4a), so the target's s is one representative."""
    z1, z2 = z
    pref = tau * cexp(2j * PI * float(idx.m) * z1 * z2 / tau)
    ds, flips = _S_TARGET[idx.sign, idx.s.denominator]
    target = idx.with_s(idx.s + ds)
    return _single(pref, target.flipped() if flips else target)


def _phi_tilde_T(idx, tau, z):
    """thm1.1a, thm1.3b: Phi~(tau + 1) = Phi~, the sign swapped if m + s is not integral
    (2m and 2s are integers, so if m and s have different denominators)."""
    return _single(1, idx.flipped() if idx.m.denominator != idx.s.denominator else idx)


def _phi_tilde_tau(idx, tau, z, a, b):
    """thm1.1b, thm1.3c, thm1.3d: Phi~(z1 + a tau, z2 + b tau) = (-1)^a (minus only)
    e(-m (b z1 + a z2)) q^(-m a b) Phi~[s + m (a + b) mod 1](z); 2m is an integer."""
    pref = _tau_factor(idx.m, a, b, tau, z)
    if idx.sign == "minus" and a % 2:
        pref = -pref
    half = idx.m.denominator == 2 and (a + b) % 2
    return _single(pref, idx.with_s(idx.s + Fraction(1, 2)) if half else idx)


def _phi_tau(idx, tau, z, a, b):
    """lem2.4: Phi shifts as Phi~ does on the diagonal a = b only."""
    if a != b:
        raise ValueError("off the diagonal Phi shifts with the lemma 2.3 window")
    return _phi_tilde_tau(idx, tau, z, a, b)


def _phi_int(idx, tau, z, a, b):
    """lem2.2(b)(c), thm1.3c, thm1.3d: Phi(z1 + a, z2 + b) = e(s a) Phi[target], and
    so for Phi~; the sign swaps where m (a + b) is not integral."""
    target = idx.flipped() if idx.m.denominator == 2 and (a + b) % 2 else idx
    return _single(cexp(2j * PI * float(idx.s) * a), target)


def _phi_window(idx, tau, z, a, b):
    """lem2.3, (a, b) = (0, 2) or (-2, 0), of another shape: Phi(z) - prefactor
    Phi(z1 + a tau, z2 + b tau) = sum of phase * Theta[target](tau, z1 + z2),
    a target (sign, c, m) of theta_jm_signed, c = k + s for 0 <= k < 2m."""
    if (a, b) not in ((0, 2), (-2, 0)) or (2 * idx.m).denominator != 1:
        raise ValueError("the window needs (a, b) = (0, 2) or (-2, 0) and 2m integral")
    z1, z2 = z
    terms = []
    for k in range(int(2 * idx.m)):
        c = float(k + idx.s)
        phase = cexp(1j * PI * c * (z1 - z2)) * cexp(-2j * PI * tau * c * c / (4 * float(idx.m)))
        terms.append((phase, (idx.sign_value, k + idx.s, idx.m)))
    return Law(_tau_factor(idx.m, -a, -b, tau, z), tuple(terms))


def _theta_S(idx, tau, z):
    """theta-S: theta_(j,m)(-1/tau, z/tau) = sqrt(-i tau / 2m) e^(pi i m z^2 / 2 tau)
    sum over 0 <= k < 2m of e^(-pi i j k / m) theta_(k,m)(tau, z)."""
    (j, m), (z,) = idx, z
    pref = cmath.sqrt(-1j * tau / (2 * m)) * cexp(1j * PI * m * z * z / (2 * tau))
    return Law(pref, tuple((cexp(-1j * PI * j * k / m), (k, m)) for k in range(2 * m)))


def _theta_tau(idx, tau, z, a):
    """theta-quasi: theta_(j,m)(z + 2 a tau) = q^(-m a^2) e(-m a z) theta_(j,m)(z)."""
    (_, m), (z,) = idx, z
    return _single(cexp(-2j * PI * tau * m * a * a) * cexp(-2j * PI * m * a * z), idx)


def _theta_int(idx, tau, z, b):
    """theta-quasi: theta_(j,m)(z + 2 b) = theta_(j,m)(z) for integer j, m."""
    return _single(1, idx)


# prop3.3b, prop3.3c: a signed (mode, xi)'s partner under S and T; unsigned: itself
_LATTICE_S = {("plus", False): ("plus", False), ("minus", False): ("plus", True),
              ("plus", True): ("minus", False), ("minus", True): ("minus", True)}
_LATTICE_T = {("plus", False): ("minus", False), ("minus", True): ("minus", True)}


def _lam(res, coords, xi):
    return [a + b for a, b in zip(coords, res.xi0)] if xi else coords


def _lattice_S(idx, tau, z, mus):
    """prop3.2b, prop3.3b: f[lam](S . p) = i^n (-i tau)^(dim/2) |M*/kM|^(-1/2)
    sum over the representatives mu of e(-(lam|mu) / k) f[mu, label](p)."""
    res, xi = idx
    ctx = res.ctx
    label = _LATTICE_S.get((ctx.mode, xi), (ctx.mode, xi))
    pref = 1j ** ctx.n_isotropic * (-1j * tau) ** (ctx.ambient_dim / 2) * res.mu_group_order() ** -0.5
    lam = _lam(res, res.weight.coords, xi)
    pairs = [float(ctx.pair(lam, _lam(res, mu.coords, label[1]))) for mu in mus]
    return Law(pref, tuple((cexp(-2j * PI * x / float(ctx.k)), (mu, label))
                           for x, mu in zip(pairs, mus)))


def _lattice_T(idx, tau, z):
    """prop3.2b, prop3.3c: f[lam](T . p) = e^(pi i |lam|^2 / k) f[label](p)."""
    res, xi = idx
    lam = _lam(res, res.weight.coords, xi)
    label = _LATTICE_T.get((res.ctx.mode, xi), (res.ctx.mode, xi))
    return _single(cexp(1j * PI * float(res.ctx.pair(lam, lam)) / float(res.ctx.k)), label)


def _lattice_int(idx, tau, z, v):
    """prop3.7(i), prop3.8(i): f(z + v) = e((lam|v)) f(z), 1 on an integer pairing."""
    res, xi = idx
    x = res.ctx.pair(_lam(res, res.weight.coords, xi), [Fraction(c) for c in v])
    return _single(1 if x.denominator == 1 else cexp(2j * PI * float(x)), idx)


def _lattice_tau(idx, tau, z, v):
    """prop3.7(ii), prop3.8(ii): f(z + tau v) = (-1)^((beta|v)) (minus mode
    only) e(-k (z|v)) e^(-pi i tau k |v|^2) f(z)."""
    ctx = idx[0].ctx
    G = ctx.full_gram_float()
    kf = float(ctx.k)
    # G is an ndarray, so z @ G converts z as np.asarray(z) would
    zv = complex(z @ G @ v)
    v2 = float(v @ G @ v)
    sgn = (-1) ** abs(int(round(float(G[ctx.rank] @ v)))) if ctx.mode == "minus" else 1
    return _single(sgn * cexp(-2j * PI * kf * zv) * cexp(-1j * PI * tau * kf * v2), idx)


LAWS = {
    ("phi~", "S"): _phi_tilde_S, ("phi~", "T"): _phi_tilde_T,
    ("phi~", "tau"): _phi_tilde_tau, ("phi~", "int"): _phi_int,
    ("phi", "tau"): _phi_tau, ("phi", "int"): _phi_int, ("phi", "window"): _phi_window,
    ("theta", "S"): _theta_S, ("theta", "tau"): _theta_tau, ("theta", "int"): _theta_int,
    ("lattice", "S"): _lattice_S, ("lattice", "T"): _lattice_T,
    ("lattice", "int"): _lattice_int, ("lattice", "tau"): _lattice_tau,
}
