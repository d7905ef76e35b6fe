"""Pinned values of the theta layers, for refactors that must not move them.

Evaluates about 120 values (rank-1 and level-2 thetas, Phi and its
modifier, lattice thetas, lattice mock thetas, the factored modification
and the superdenominators) at seeded points with Im tau in [0.3, 2] and
|Im z| <= 0.3 Im tau, and compares them with ``tests/data/golden.json``.

    PYTHONPATH=src python tests/golden.py           # report the worst deviation
    PYTHONPATH=src python tests/golden.py --write   # re-pin the values

Re-pin only when a change is meant to move these numbers, and say so.
``tests/test_golden.py`` holds every value to 1e-13 in the mixed metric
|new - old| / max(1, |old|).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import mocktheta as mt

DATA = Path(__file__).with_name("data") / "golden.json"
SEED = 1505_01047

RANK1 = (
    (1, 0, "unsigned"),
    (2, 1, "unsigned"),
    (3, 0, "unsigned"),
    (F(1, 2), 0, "plus"),
    (F(3, 2), F(1, 2), "plus"),
    (F(1, 2), F(1, 2), "minus"),
    (F(3, 2), 0, "minus"),
)
GRAMS = {
    "A1": ((2.0,),),
    "A2": ((2.0, -1.0), (-1.0, 2.0)),
    "A3": ((2.0, -1.0, 0.0), (-1.0, 2.0, -1.0), (0.0, -1.0, 2.0)),
    "A1A1": ((2.0, 0.0), (0.0, 2.0)),
}
LATTICE_ROWS = (
    ("A1", (0.5,), 1),
    ("A2", (0.5, 0.0), 1),
    ("A3", (0.5, 0.0, 0.5), 2),
    ("A1A1", (0.0, 0.5), 2),
)
# name -> (gamma Gram, isotropic count, level, mode, weight coordinates)
CONTEXTS = {
    "sl2": (((2,),), 1, 1, "unsigned", (0, -1)),
    "sl2_k2": (((2,),), 1, 2, "unsigned", (0, -1)),
    "sl3": (((2, -1), (-1, 2)), 1, 1, "unsigned", (0, 0, -1)),
    "odd_minus": (((2,),), 1, F(3, 2), "minus", (0, 1)),
    "odd_plus": (((2,),), 1, F(3, 2), "plus", (0, 1)),
}
DENOMINATORS = (("sl21", 2), ("osp32", 2), ("osp42", 3), ("d21a", 3))


class _Points:
    """Seeded (tau, z, t) draws; z components keep clear of 0 and of each
    other's sums and differences, where Phi has its poles."""

    def __init__(self, seed):
        self.rng = np.random.RandomState(seed)

    def __call__(self, n_z):
        r = self.rng
        y = r.uniform(0.3, 2.0)
        tau = complex(r.uniform(-0.5, 0.5), y)
        while True:
            zs = tuple(
                complex(r.uniform(-0.45, 0.45), r.uniform(-0.3, 0.3) * y)
                for _ in range(max(n_z, 2))
            )
            a, b = zs[0], zs[1]
            if min(abs(a), abs(b), abs(a + b), abs(a - b)) > 0.05:
                break
        t = r.uniform(0.0, 0.1)
        return tau, zs[:n_z], t


def cases():
    """(id, thunk) pairs; each thunk returns a SeriesValue."""
    pt = _Points(SEED)
    out = []

    def add(name, fn):
        out.append((name, fn))

    for rep in range(4):
        tau, (z,), _ = pt(1)
        for a in (0, 1):
            for b in (0, 1):
                add(f"theta_ab({a},{b})#{rep}",
                    lambda a=a, b=b, tau=tau, z=z: mt.theta_ab(a, b, tau, z))
    for rep in range(2):
        tau, (z,), _ = pt(1)
        for j, m in ((0, 1), (1, 2), (5, 3)):
            add(f"theta_jm({j},{m})#{rep}",
                lambda j=j, m=m, tau=tau, z=z: mt.theta_jm(j, m, tau, z))
        for sign in (1, -1):
            for j, m in ((0, F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 2), F(3, 2)), (1, F(3, 4))):
                add(f"theta_jm_signed({sign},{j},{m})#{rep}",
                    lambda s=sign, j=j, m=m, tau=tau, z=z:
                    mt.theta_jm_signed(s, j, m, tau, z))
    for rep in range(2):
        tau, (z,), _ = pt(1)
        for j, m in ((0, 1), (1, 2), (2, 3)):
            add(f"r_jm({j},{m})#{rep}",
                lambda j=j, m=m, tau=tau, z=z: mt.r_jm(j, m, tau, z))
    for rep in range(2):
        tau, (z1, z2), _ = pt(2)
        for m, s, sign in RANK1:
            idx = mt.MockIndex(m, s, sign)
            add(f"phi({m},{s},{sign})#{rep}",
                lambda i=idx, tau=tau, z1=z1, z2=z2: mt.phi(i, tau, z1, z2))
    tau, (z1, z2), _ = pt(2)
    for m, s, sign in RANK1:
        idx = mt.MockIndex(m, s, sign)
        add(f"phi_add({m},{s},{sign})",
            lambda i=idx, tau=tau, z1=z1, z2=z2: mt.phi_add(i, tau, z1, z2))
        add(f"phi_tilde({m},{s},{sign})",
            lambda i=idx, tau=tau, z1=z1, z2=z2: mt.phi_tilde(i, tau, z1, z2))
    for rep in range(2):
        tau, zs, t = pt(3)
        for gram, lam, k in LATTICE_ROWS:
            lat = mt.LatticeData(gram=np.array(GRAMS[gram]))
            point = mt.ModularPoint(tau, zs[: lat.rank], t)
            for eps in (mt.SignCharacter(), mt.SignCharacter("parity_of_norm", F(1, 2))):
                add(f"lattice_theta({gram},{eps.kind})#{rep}",
                    lambda lam=lam, k=k, lat=lat, eps=eps, p=point:
                    mt.lattice_theta(lam, k, lat, eps, p))
    for rep in range(2):
        tau, zs, t = pt(3)
        for name, (gram, n_iso, k, mode, coords) in CONTEXTS.items():
            ctx = mt.LatticeContext(gram, n_iso, k, mode)
            w = mt.Weight(k, coords)
            point = mt.ModularPoint(tau, zs[: ctx.ambient_dim], t)
            add(f"lattice_mock_theta({name})#{rep}",
                lambda c=ctx, w=w, p=point: mt.lattice_mock_theta(c, w, p))
            res = mt.build_modification(ctx, w)
            add(f"eval_modified({name})#{rep}",
                lambda r=res, p=point: mt.eval_modified(r, p))
            if mode != "unsigned":
                add(f"eval_modified({name},xi)#{rep}",
                    lambda r=res, p=point: mt.eval_modified(r, p, xi_shift=True))
    for rep in range(2):
        tau, zs, t = pt(3)
        for case, nz in DENOMINATORS:
            w = mt.WeightSpec(1, (0,))
            point = mt.ModularPoint(tau, zs[:nz], t)
            add(f"ch_tilde({case},denominator_only)#{rep}",
                lambda c=case, w=w, p=point:
                mt.ch_tilde(c, w, p, variant="denominator_only"))
    return out


def evaluate():
    return {name: complex(fn().value) for name, fn in cases()}


def deviation(new: complex, old: complex) -> float:
    return abs(new - old) / max(1.0, abs(old))


def load():
    doc = json.loads(DATA.read_text())
    return {row["id"]: complex(row["re"], row["im"]) for row in doc}


def main(argv):
    values = evaluate()
    if "--write" in argv:
        DATA.parent.mkdir(exist_ok=True)
        rows = [{"id": k, "re": v.real, "im": v.imag} for k, v in values.items()]
        DATA.write_text(json.dumps(rows, indent=1) + "\n")
        print(f"wrote {len(rows)} values to {DATA}")
        return 0
    pinned = load()
    worst = max(pinned, key=lambda k: deviation(values[k], pinned[k]))
    moved = sum(values[k] != pinned[k] for k in pinned)
    print(f"{len(pinned)} values, {moved} not bit-identical, worst {worst}: "
          f"{deviation(values[worst], pinned[worst]):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
