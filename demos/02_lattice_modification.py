"""The several-step modification of a lattice mock theta function.

A rank-2 lattice with one isotropic direction factors, after one
modification step, into a rank-1 theta times one modified rank-1 factor.
The script builds that factorization, confirms it against direct
summation, and then verifies the S-transformation, whose right-hand side
runs over the finite set of weight classes of the residual lattice.

Run:  python demos/02_lattice_modification.py
"""

import cmath
import math

from mocktheta import (
    LatticeContext,
    ModularPoint,
    Weight,
    build_modification,
    eval_modified,
    lattice_mock_theta,
    mu_class_representatives,
    validate_context,
)
from mocktheta.characters import gram_quad
from mocktheta.modular import S, T, act

tau = 0.13 + 0.92j

print("== context: Cartan-matrix Gram, one isotropic direction ==")
ctx = LatticeContext(gamma_gram=((2, -1), (-1, 2)), n_isotropic=1, k=1)
print("violations:", validate_context(ctx) or "none")
print(ctx.to_json())

w = Weight(1, (0, 0, 1))
pt = ModularPoint(tau, (0.21, -0.17, 0.33), 0.06)

print()
print("== factorization ==")
res = build_modification(ctx, w)
print("residual lattice basis:", [tuple(map(str, b)) for b in res.m_basis])
fac = res.phi_factors[0]
print(f"one modified factor of degree {fac.degree}, shift {fac.shift}")

direct = lattice_mock_theta(ctx, w, pt)
factored = eval_modified(res, pt)
print(f"direct sum     = {direct.value:.12f}")
print(f"factored value = {factored.value:.12f}   (these differ: the")
print("factored one is the *modified* function; the raw one is not modular)")

print()
print("== weight classes of the residual lattice ==")
reps = mu_class_representatives(res)
print(f"|M*/kM| = {res.mu_group_order()}; representatives:")
for r in reps:
    print("  ", tuple(str(x) for x in r.coords))

print()
print("== S-law with both sides evaluated independently ==")
quad = gram_quad(ctx.full_gram_float())
lhs = eval_modified(res, act(S, pt, quad)).value
pref = 1j * (-1j * tau) ** 1.5 * res.mu_group_order() ** -0.5
rhs = 0j
for rep in reps:
    rr = build_modification(ctx, rep)
    pairing = float(ctx.pair(w.coords, rep.coords))
    rhs += cmath.exp(-2j * math.pi * pairing) * eval_modified(rr, pt).value
rhs *= pref
print(f"residual = {abs(lhs - rhs):.3e}")

print()
print("== and the T-law ==")
lhsT = eval_modified(res, act(T, pt, quad)).value
lam2 = float(ctx.pair(w.coords, w.coords))
rhsT = cmath.exp(1j * math.pi * lam2) * factored.value
print(f"residual = {abs(lhsT - rhsT):.3e}")
