"""Pinned values of the theta layers, for refactors that must not move them.

Evaluates about 180 values (rank-1 and level-2 thetas, Phi and its
modifier, lattice thetas, lattice mock thetas, the factored modification,
the superdenominators, and the character layer built on them: the
normalized supercharacters, the subprincipal spanning functions and the
level-1 closed forms) at seeded points with Im tau in [0.3, 2] and
|Im z| <= 0.3 Im tau, and compares them with ``tests/data/golden.json``.

    PYTHONPATH=src python tests/golden.py           # report the worst deviation
    PYTHONPATH=src python tests/golden.py --write   # re-pin the values

Re-pin only when a change is meant to move these numbers, and say so.
``tests/test_golden.py`` holds every value to 1e-13 in the mixed metric
|new - old| / max(1, |old|).

Each case is evaluated cold, with the memos of ``phi`` and ``phi_add``
emptied, and at once again warm, when they hold its rank-1 values; the
report counts the warm values whose bits (value, err_bound, terms_used)
differ from the cold ones.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import mocktheta as mt
from mocktheta.characters import VARIANTS
from mocktheta.mock import _phi
from mocktheta.modifier import _phi_add

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
# (case, n_z, level, labels): the denominator reads no weight, but ch_tilde
# takes only a weight of the case's label count and level
DENOMINATORS = (
    ("sl21", 2, 1, (0,)),
    ("osp32", 2, 1, (0,)),
    ("osp42", 3, 1, (0, 0)),
    ("d21a", 3, F(-1, 2), (0, 0)),
)
# (case, params, level, labels) of the supercharacters pinned next to sl21's
CHARACTERS = (
    ("osp32", None, 1, (0,)),
    ("osp32", None, 1, (1,)),
    ("osp42", None, 1, (F(1, 2), F(1, 2))),
    ("osp42", None, 1, (1, 0)),
    ("d21a", (1, 1), F(-1, 2), (0, 1)),
    ("d21a", (1, 1), F(-1, 2), (0, 0)),
    ("d21a", (1, 2), F(-2, 3), (0, 1)),
)
LEVEL1 = {(3, 2): ("sum01", "diff01", "twisted"),
          (4, 2): ("sum01", "diff01", "twisted", "diff_top")}


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
        for case, nz, k, labels in DENOMINATORS:
            w = mt.WeightSpec(k, labels)
            point = mt.ModularPoint(tau, zs[:nz], t)
            add(f"ch_tilde({case},denominator_only)#{rep}",
                lambda c=case, w=w, p=point:
                mt.ch_tilde(c, w, p, variant="denominator_only"))
    for rep in range(2):
        tau, zs, t = pt(3)
        point = mt.ModularPoint(tau, zs[:2], t)
        w = mt.WeightSpec(1, (0,))
        for variant in VARIANTS:
            add(f"ch_tilde(sl21,None,0,{variant})#{rep}",
                lambda v=variant, w=w, p=point: mt.ch_tilde("sl21", w, p, variant=v))
        for case, params, k, labels in CHARACTERS:
            w = mt.WeightSpec(k, labels)
            p = mt.ModularPoint(tau, zs[: mt.system(case, params).n_z], t)
            add(f"ch_tilde({case},{params},{','.join(map(str, labels))})#{rep}",
                lambda c=case, w=w, p=p, params=params:
                mt.ch_tilde(c, w, p, params=params))
        sub = mt.system("osp32_sub")
        for i in (1, 2, 3, 4):
            add(f"f_function({i})#{rep}",
                lambda i=i, p=point: sub.f_function(i, F(-3, 4), p))
            add(f"f_closed_quotient({i})#{rep}",
                lambda i=i, p=point: sub.f_closed_quotient(i, p))
        for (M, N), combos in LEVEL1.items():
            p = mt.ModularPoint(tau, zs[: M // 2 + N // 2], t)
            for combo in combos:
                add(f"level1({M}|{N},{combo})#{rep}",
                    lambda f=mt.level1_osp_supercharacter(M, N, combo), p=p: f(p))
    return out


def bits(sv):
    """A SeriesValue as the exact bits of its fields."""
    v = complex(sv.value)
    return v.real.hex(), v.imag.hex(), float(sv.err_bound).hex(), sv.terms_used


def evaluate():
    """{id: (cold, warm)} SeriesValues of every case."""
    out = {}
    for name, fn in cases():
        _phi.cache_clear()
        _phi_add.cache_clear()
        cold = fn()
        out[name] = cold, fn()
    return out


def deviation(new: complex, old: complex) -> float:
    return abs(new - old) / max(1.0, abs(old))


def load():
    doc = json.loads(DATA.read_text())
    return {row["id"]: complex(row["re"], row["im"]) for row in doc}


def main(argv):
    evaluated = evaluate()
    values = {k: complex(cold.value) for k, (cold, _) in evaluated.items()}
    warm_moved = sum(bits(cold) != bits(warm) for cold, warm in evaluated.values())
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
    print(f"{warm_moved} warm values not bit-identical to cold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
