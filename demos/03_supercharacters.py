"""From mock theta functions to modular-invariant supercharacters.

The running example is the smallest nontrivial superalgebra case: its
normalized supercharacter numerator is a difference of two rank-1 mock
theta functions, and after modification the quotient by the Weyl-type
superdenominator becomes honestly modular invariant.  The second half
visits the subprincipal series, whose four spanning functions reduce to
classical theta quotients at the top admissible level.

Run:  python demos/03_supercharacters.py
"""

import cmath
from fractions import Fraction as F

from mocktheta import ModularPoint, WeightSpec, ch_tilde, system
from mocktheta.modular import S, T, act
from mocktheta.superalg import enumerate_omega, preset

tau = 0.13 + 0.92j
pt = ModularPoint(tau, (0.23, 0.41), 0.07)

print("== sl(2|1): denominator, numerator, invariance ==")
sl = system("sl21")
den = sl.denominator(-1, pt)
print(f"superdenominator = {den.value:.10f}")
w = WeightSpec(1, (0,))
num = sl.numerator(w, pt)
print(f"modified numerator (level 1) = {num.value:.10f}")
ch = ch_tilde("sl21", w, pt)
print(f"modified normalized supercharacter = {ch.value:.10f}")

ptS = act(S, pt, sl.quad)
print(f"S-invariance residual: {abs(ch_tilde('sl21', w, ptS).value - ch.value):.3e}")
ptT = act(T, pt, sl.quad)
print(f"T-invariance residual: {abs(ch_tilde('sl21', w, ptT).value - ch.value):.3e}")

print()
print("== the same weight class, different labels ==")
print("labels in the isotropic direction do not change the function:")
for k1 in (0, 1):
    v = ch_tilde("sl21", WeightSpec(1, (k1,)), pt).value
    print(f"  label {k1}: {v:.12f}")

print()
print("== twisted companions ==")
for variant in ("ch_plus_modified", "tw_minus_modified", "tw_plus_modified"):
    v = ch_tilde("sl21", w, pt, variant=variant).value
    print(f"  {variant:18s} = {v:.10f}")

print()
print("== subprincipal series: four functions spanning the level ==")
sub = system("osp32_sub")
k = F(-3, 4)
for i in (1, 2, 3, 4):
    fi = sub.f_function(i, k, pt).value
    quot = sub.f_closed_quotient(i, pt).value / sub.denominator(-1, pt).value
    print(f"  f{i} = {fi:.10f}   closed-quotient residual {abs(fi - quot):.1e}")

print()
print("== enumeration behind the span ==")
om = enumerate_omega(preset("osp32_sub"), k)
print("admissible classes:", [(x.side, int(x.labels[0])) for x in om])
