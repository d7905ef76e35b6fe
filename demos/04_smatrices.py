"""S-matrices on the wired spans, their unitarity, and apply-checks.

Each case has a finite family of modified normalized supercharacters whose
span is closed under tau -> -1/tau.  The matrices below are the exact
closed forms; apply_smatrix_check then re-derives each row numerically by
evaluating the characters on both sides of the transformation.

Run:  python demos/04_smatrices.py
"""

from fractions import Fraction as F

from mocktheta import ModularPoint, apply_smatrix_check, apply_tmatrix_check, smatrix


def entry(z, digits=4):
    """One complex entry, rounded, with no negative zeros."""
    return f"{round(z.real, digits) + 0.0:+.{digits}f}{round(z.imag, digits) + 0.0:+.{digits}f}j"


def show(rows):
    """A matrix, one row a line."""
    for row in rows:
        print("  ".join(entry(z) for z in row))


tau = 0.13 + 0.92j

print("== the exceptional one-parameter family at (p, q, n) = (1, 1, 1) ==")
sm = smatrix("d21a", F(-1, 2), (1, 1))
print("labels:", sm.labels)
print("S:")
show(sm.entries)
print(f"unitarity defect: {sm.unitarity_defect():.3e}")
print("T-phases:", "  ".join(entry(row[i], 6) for i, row in enumerate(sm.t_matrix)))
pts = [ModularPoint(tau, (0.21, 0.17, 0.33), 0.07)]
rep = apply_smatrix_check("d21a", F(-1, 2), pts, (1, 1))
print(f"apply-check max residual: {rep['max_residual']:.3e}")
print("(labels are conjecture-dependent; the span transformation is exact)")

print()
print("== the zero-dual-Coxeter orthosymplectic case at level 1 ==")
sm = smatrix("osp42", 1)
print("labels:", sm.labels)
print(f"unitarity defect: {sm.unitarity_defect():.3e}")
pts = [ModularPoint(tau, (0.19, 0.32, 0.27), 0.05)]
print("apply-check:", f"{apply_smatrix_check('osp42', 1, pts)['max_residual']:.3e}")

print()
print("== subprincipal span: a permutation with phases ==")
sm = smatrix("osp32_sub", F(-3, 4))
print("S:")
show(sm.entries)
print("T:")
show(sm.t_matrix)
pts = [ModularPoint(tau, (0.27, 0.43), 0.11)]
print("S apply:", f"{apply_smatrix_check('osp32_sub', F(-3,4), pts)['max_residual']:.3e}")
print("T apply:", f"{apply_tmatrix_check('osp32_sub', F(-3,4), pts)['max_residual']:.3e}")

print()
print("== level-1 fermionic spans, both parities ==")
for M, N in ((3, 2), (4, 2)):
    sm = smatrix("osp_level1", 1, (M, N))
    m, n = M // 2, N // 2
    zs = tuple([0.21 + 0.01 * i for i in range(m)] + [0.37] * n)
    pts = [ModularPoint(tau, zs, 0.05)]
    s_res = apply_smatrix_check("osp_level1", 1, pts, (M, N))["max_residual"]
    t_res = apply_tmatrix_check("osp_level1", 1, pts, (M, N))["max_residual"]
    print(f"(M|N) = ({M}|{N}): labels {sm.labels}; S {s_res:.2e}, T {t_res:.2e}")
