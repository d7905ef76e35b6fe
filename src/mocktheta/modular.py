"""SL2 action on the domain, point sampling, and the law engine that every
verification suite reports through."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ModularPoint


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


def gram_quad(gram):
    """Quadratic form from a full Gram matrix on the coordinate frame."""
    g = np.asarray(gram, dtype=complex)

    def quad(za, zb):
        va = np.asarray(za, dtype=complex)
        vb = np.asarray(zb, dtype=complex)
        return complex(va @ g @ vb)

    return quad


def sample_points(n_points: int = 12, n_z: int = 2, seed: int = 20240):
    """Deterministic pseudo-random sample points away from poles."""
    rng = np.random.RandomState(seed)
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
