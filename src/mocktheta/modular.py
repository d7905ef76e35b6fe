"""SL2 action on the domain, slash actions, and a generic law verifier."""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ModularPoint

_2PI_I = 2j * math.pi


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


def slash(F, w, k, A: SL2Element, tau: complex, z, quad) -> complex:
    """Weight-w degree-k right slash of a function F(tau, z) of z-tuple z."""
    den = A.c * tau + A.d
    tau2 = (A.a * tau + A.b) / den
    z2 = tuple(x / den for x in z)
    pref = cmath.exp(-w * cmath.log(den))
    pref *= cmath.exp(-1j * math.pi * k * A.c * quad(z, z) / den)
    return pref * F(tau2, z2)


def diag_quad(signature):
    """Quadratic form (z|z) = sum_i s_i z_i^2 for a diagonal signature."""
    return gram_quad(np.diag([float(s) for s in signature]))


def gram_quad(gram):
    """Quadratic form from a full Gram matrix on the coordinate frame."""
    g = np.asarray(gram, dtype=complex)

    def quad(za, zb):
        va = np.asarray(za, dtype=complex)
        vb = np.asarray(zb, dtype=complex)
        return complex(va @ g @ vb)

    return quad


def sample_points(
    n_points: int = 12,
    n_z: int = 2,
    seed: int = 20240,
    im_tau=(0.8, 2.0),
    re_tau=(-0.4, 0.4),
    z_bound: float = 0.45,
):
    """Deterministic pseudo-random sample points away from poles."""
    rng = np.random.RandomState(seed)
    pts = []
    while len(pts) < n_points:
        tau = complex(rng.uniform(*re_tau), rng.uniform(*im_tau))
        z = tuple(
            complex(rng.uniform(-z_bound, z_bound), rng.uniform(-0.1, 0.1))
            for _ in range(n_z)
        )
        if any(abs(w) < 0.05 for w in z):
            continue
        pts.append(ModularPoint(tau, z, 0.0))
    return pts


@dataclass
class TransformLaw:
    """Two evaluable sides of a transformation law plus sample points."""

    law_id: str
    lhs: callable
    rhs: callable
    points: list
    tol: float = 1e-8
    note: str = ""


@dataclass
class LawReport:
    law_id: str
    records: list
    max_residual: float
    tol: float
    passed: bool
    failures: list = field(default_factory=list)
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "law_id": self.law_id,
            "points": self.records,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "pass": bool(self.passed),
            "errors": self.failures,
            "note": self.note,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


def verify_law(law: TransformLaw) -> LawReport:
    """Evaluate both sides at every point; report residuals, never raise."""
    records = []
    failures = []
    max_res = 0.0
    for i, p in enumerate(law.points):
        try:
            lv = complex(law.lhs(p))
            rv = complex(law.rhs(p))
        except Exception as exc:  # reported, not raised
            failures.append({"point": i, "error": f"{type(exc).__name__}: {exc}"})
            continue
        res = abs(lv - rv)
        max_res = max(max_res, res)
        records.append(
            {
                "point": i,
                "tau": str(p.tau),
                "z": [str(w) for w in p.z],
                "lhs": str(lv),
                "rhs": str(rv),
                "residual": res,
            }
        )
    passed = (not failures) and max_res < law.tol
    return LawReport(law.law_id, records, max_res, law.tol, passed, failures, law.note)
