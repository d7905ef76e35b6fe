"""The verification suites of sections 3-6.

These suites reach the lattice, character, S-matrix and superalgebra
layers, which the rank-1 suites never need.  ``suites`` registers them in
its one ``SUITES`` table and imports this module the first time one of
them runs.
"""

from __future__ import annotations

import cmath
from dataclasses import replace

from .characters import ch_tilde, gram_quad, psi_fn, system
from .core import ModularPoint
from .lattice import (
    LatticeContext, Weight, build_modification, eval_modified, mu_class_representatives,
    window_mock_theta,
)
from .mock import MockIndex, phi
from .modular import LAWS, S, T, act, check_pair, check_residual, verify_law
from .smatrix import _apply_residuals, apply_smatrix_check, apply_tmatrix_check
from .suites import PI, F, _points
from .superalg import WeightSpec, d21a_nu_range, enumerate_omega, preset
from .theta import eta, theta_ab


# ---------------------------------------------------------------------------
# section 3 pipeline


def _ctx_sl2(k):
    return LatticeContext(gamma_gram=((2,),), n_isotropic=1, k=k)


def _ctx_sl3(k):
    return LatticeContext(gamma_gram=((2, -1), (-1, 2)), n_isotropic=1, k=k)


def _ctx_odd(k):
    return LatticeContext(gamma_gram=((2,),), n_isotropic=1, k=k, mode="minus")


def suite_eq35(seed=31, tol=1e-9):
    checks = []
    for tau, z1, z2 in _points(seed, 6):
        for k in (1, 2):
            ctx = _ctx_sl2(k)
            w = Weight(k, (0, F(-1)))
            pt = ModularPoint(tau, (z1, z2), 0.05)
            # the lattice window's direct sum, not the Phi route eq 3.5 gives
            direct = window_mock_theta(ctx, w, pt, False).value
            quad = gram_quad(ctx.full_gram)
            beta_z, gam_z = quad(ctx.beta_vec(1), pt.z), quad(ctx.gamma_vec(1), pt.z)
            s = ctx.pair(w.coords, ctx.gamma_vec(1))
            orc = cmath.exp(2j * PI * k * pt.t) * phi(
                MockIndex(k, s), tau, -beta_z, beta_z + gam_z
            ).value
            checks.append(check_pair(f"k={k}", direct, orc, tau))
    return verify_law(tol, checks)


def suite_prop32b(seed=32, tol=1e-7):
    checks = []
    for tau, z1, z2 in _points(seed, 4):
        for ctx, zc, label in (
            (_ctx_sl2(1), (z1, z2), "rank1 k=1"),
            (_ctx_sl2(2), (z1, z2), "rank1 k=2"),
            (_ctx_sl3(1), (z1, -0.7 * z2, z2), "rank2 k=1"),
        ):
            w = Weight(ctx.k, (0,) * ctx.rank + (F(-1),))
            res = build_modification(ctx, w)
            pt = ModularPoint(tau, zc, 0.06)
            quad = gram_quad(ctx.full_gram)
            lhs = eval_modified(res, act(S, pt, quad)).value
            law = LAWS["lattice", "S"]((res, False), tau, pt.z, mu_class_representatives(res))
            rhs = law.apply(lambda t: eval_modified(build_modification(ctx, t[0]), pt).value)
            checks.append(check_pair(f"S {label}", lhs, rhs, tau))
            lhs = eval_modified(res, act(T, pt, quad)).value
            # an unsigned function is its own T partner
            law = LAWS["lattice", "T"]((res, False), tau, pt.z)
            rhs = law.apply(lambda _: eval_modified(res, pt).value)
            checks.append(check_pair(f"T {label}", lhs, rhs, tau))
    return verify_law(tol, checks)


def _signed_pair(k):
    """The minus and plus contexts of the signed rank-1 lattice, and their
    modifications."""
    minus = _ctx_odd(k)
    ctxs = {"minus": minus, "plus": replace(minus, mode="plus")}
    w = Weight(k, (0, F(1)))
    return ctxs, {mode: build_modification(ctx, w) for mode, ctx in ctxs.items()}


def suite_prop33b(seed=33, tol=1e-7):
    checks = []
    ctxs, res = _signed_pair(F(3, 2))
    quad = gram_quad(ctxs["minus"].full_gram)
    reps = mu_class_representatives(res["minus"])
    for tau, z1, z2 in _points(seed, 4):
        pt = ModularPoint(tau, (z1, z2), 0.04)
        ptS = act(S, pt, quad)
        for xi in (False, True):
            for mode in ("plus", "minus"):
                law = LAWS["lattice", "S"]((res[mode], xi), tau, pt.z, reps)
                to = law.terms[0][1][1]
                rhs = law.apply(lambda t: eval_modified(
                    build_modification(ctxs[t[1][0]], t[0]), pt, xi_shift=t[1][1]
                ).value)
                lhs = eval_modified(res[mode], ptS, xi_shift=xi).value
                label = f"{mode}{'(xi)' * xi}->{to[0]}{'(xi)' * to[1]}"
                checks.append(check_pair(label, lhs, rhs, tau))
    return verify_law(tol, checks)


def suite_prop33c(seed=34, tol=1e-7):
    checks = []
    ctxs, res = _signed_pair(F(3, 2))
    quad = gram_quad(ctxs["minus"].full_gram)
    for tau, z1, z2 in _points(seed, 5):
        pt = ModularPoint(tau, (z1, z2), 0.04)
        ptT = act(T, pt, quad)
        for mode, xi, label in (("plus", False, "T plus->minus"),
                                ("minus", True, "T minus(xi) fixed")):
            lhs = eval_modified(res[mode], ptT, xi_shift=xi).value
            rhs = LAWS["lattice", "T"]((res[mode], xi), tau, pt.z).apply(
                lambda to: eval_modified(res[to[0]], pt, xi_shift=to[1]).value
            )
            checks.append(check_pair(label, lhs, rhs, tau))
    return verify_law(tol, checks)


def _lattice_shifts(checks, idx, pt, vectors):
    """prop3.7/3.8 (i) and (ii): f(z + v) and f(z + tau v) for each vector v."""
    res, xi = idx
    tau = pt.tau
    z = pt.z
    base = eval_modified(res, pt, xi_shift=xi).value
    for vname, v in vectors:
        for kind, move, zv in (("(i)", "int", [a + b for a, b in zip(z, v)]),
                               ("(ii)", "tau", [a + tau * b for a, b in zip(z, v)])):
            lhs = eval_modified(res, ModularPoint(tau, zv, pt.t), xi_shift=xi).value
            rhs = LAWS["lattice", move](idx, tau, z, v).apply(lambda _: base)
            checks.append(check_pair(f"{kind} v={vname}", lhs, rhs, tau))


def suite_prop37(seed=35, tol=1e-8):
    checks = []
    vectors = (("|g|^2 beta", (0.0, 2.0)), ("gamma~", (1.0, 0.0)))
    for tau, z1, z2 in _points(seed, 4):
        res = build_modification(_ctx_odd(F(3, 2)), Weight(F(3, 2), (0, F(1))))
        _lattice_shifts(checks, (res, True), ModularPoint(tau, (z1, z2), 0.04), vectors)
    return verify_law(tol, checks)


def suite_prop38(seed=36, tol=1e-8):
    checks = []
    vectors = (
        ("m-basis", (0.0, 1.0, -1.0)),
        ("(|g|^2/2) beta", (0.0, 0.0, 1.0)),
        ("gamma~_1", (1.0, 0.0, 0.0)),
    )
    for tau, z1, z2 in _points(seed, 4):
        res = build_modification(_ctx_sl3(1), Weight(1, (0, 0, F(-1))))
        pt = ModularPoint(tau, (z1, -0.7 * z2, z2), 0.06)
        _lattice_shifts(checks, (res, False), pt, vectors)
    return verify_law(tol, checks)


# ---------------------------------------------------------------------------
# denominators and sl(2|1)


def suite_eq56(seed=41, tol=1e-8):
    checks = []
    for tau, z1, z2 in _points(seed, 6):
        for case in ("sl21", "osp32_sub"):
            sys = system(case)
            pt = ModularPoint(tau, (z1, z2), 0.05)
            den = sys.denominator(-1, pt).value
            lhs = sys.denominator(-1, act(S, pt, sys.quad)).value
            rhs = 1j ** (-sys.i_power_minus % 4) * (-1j * tau) * den
            checks.append(check_pair(f"S {case}", lhs, rhs, tau))
            lhsT = sys.denominator(-1, act(T, pt, sys.quad)).value
            rhsT = cmath.exp(1j * PI * sys.sdim / 12) * den
            checks.append(check_pair(f"T {case}", lhsT, rhsT, tau))
    return verify_law(tol, checks)


def suite_denom_sl21(seed=42, tol=1e-10):
    checks = []
    sys = system("sl21")
    for tau, z1, z2 in _points(seed, 6):
        pt = ModularPoint(tau, (z1, z2), 0.07)
        den = sys.denominator(-1, pt).value
        e3 = eta(tau).value ** 3
        closed = (
            1j
            * cmath.exp(2j * PI * pt.t)
            * e3
            * theta_ab(1, 1, tau, z1 + z2).value
            / (theta_ab(1, 1, tau, z1).value * theta_ab(1, 1, tau, z2).value)
        )
        checks.append(check_pair("closed form", den, closed, tau))
    return verify_law(tol, checks)


def suite_denom_osp32(seed=43, tol=1e-10):
    checks = []
    sys = system("osp32_sub")
    for tau, z1, z2 in _points(seed, 6):
        pt = ModularPoint(tau, (z1, z2), 0.07)
        den = sys.denominator(-1, pt).value
        e3 = eta(tau).value ** 3
        quot = (
            theta_ab(1, 1, tau, z1 - z2).value
            * theta_ab(1, 1, tau, (z1 + z2) / 2).value
            / (
                theta_ab(1, 1, tau, z1).value
                * theta_ab(1, 1, tau, z2).value
                * theta_ab(1, 1, tau, (z1 - z2) / 2).value
            )
        )
        closed = 1j * cmath.exp(1j * PI * pt.t) * e3 * quot
        checks.append(check_pair("closed form", den, closed, tau))
    notes = (
        "under the pinned theta convention the closed form carries +i; a "
        "-i prefactor pairs with the opposite (classical) normalization "
        "of theta11, which the convention-pin tests reject"
    )
    return verify_law(tol, checks, notes)


def suite_eq013(seed=44, tol=1e-9):
    checks = []
    sys = system("sl21")
    for tau, z1, z2 in _points(seed, 5):
        pt = ModularPoint(tau, (z1, z2), 0.06)
        for m, s in ((1, 0), (1, 1), (2, 1)):
            w = WeightSpec(m - 1, (-s,))
            num = sys.numerator(w, pt, modified=False).value
            target = cmath.exp(2j * PI * m * pt.t) * (
                phi(MockIndex(m, s), tau, z1, z2).value
                - phi(MockIndex(m, s), tau, -z2, -z1).value
            )
            checks.append(check_pair(f"(m,s)=({m},{s})", num, target, tau))
    return verify_law(tol, checks)


def suite_sl21_modular(seed=45, tol=1e-7):
    checks = []
    sys = system("sl21")
    w = WeightSpec(1, (0,))
    for tau, z1, z2 in _points(seed, 5):
        pt = ModularPoint(tau, (z1, z2), 0.06)
        base = ch_tilde("sl21", w, pt).value
        ptS = act(S, pt, sys.quad)
        checks.append(check_pair("S-invariance", ch_tilde("sl21", w, ptS).value, base, tau))
        ptT = act(T, pt, sys.quad)
        checks.append(check_pair("T-invariance", ch_tilde("sl21", w, ptT).value, base, tau))
        other = ch_tilde("sl21", WeightSpec(1, (1,)), pt).value
        checks.append(check_pair("label-independence", other, base, tau))
    return verify_law(tol, checks)


def suite_psi_pin(seed=46, tol=1e-9):
    checks = []
    for tau, z1, z2 in _points(seed, 10):
        psi = psi_fn(1, 0, tau, z1, z2, 0.0, modified=False).value
        quot = (
            eta(tau).value ** 3
            * theta_ab(1, 1, tau, z1 + z2).value
            / (theta_ab(1, 1, tau, z1).value * theta_ab(1, 1, tau, z2).value)
        )
        checks.append(check_pair("denominator identity", psi, -1j * quot, tau))
    return verify_law(tol, checks)


def suite_eq44(seed=47, tol=1e-8):
    checks = []
    sys = system("sl21")
    w = WeightSpec(1, (0,))
    for tau, z1, z2 in _points(seed, 5):
        pt = ModularPoint(tau, (z1, z2), 0.06)
        nplus = sys.numerator(w, pt, modified=False, plus=True).value
        dplus = sys.denominator(+1, pt).value
        shifted = ModularPoint(tau, (z1 - 0.5, z2 - 0.5), pt.t)
        nminus = sys.numerator(w, shifted, modified=False).value
        dminus = sys.denominator(-1, shifted).value
        checks.append(check_pair("ch+ vs shifted ch-", nplus / dplus, nminus / dminus, tau))
    return verify_law(tol, checks)


# ---------------------------------------------------------------------------
# section 6


def _span_checks(case, k, params, seed):
    """Unitarity and the S/T apply-checks of a three-coordinate span, on shared values."""
    pts = [
        ModularPoint(tau, (z1, 0.8 * z2, z2), 0.05)
        for tau, z1, z2 in _points(seed, 3)
    ]
    sm, [(_, s_res), (_, t_res)] = _apply_residuals(case, k, pts, params, (S, T))
    return [
        check_residual("unitarity", sm.unitarity_defect()),
        check_residual("S apply", s_res),
        check_residual("T apply", t_res),
    ]


def suite_thm614(seed=51, tol=1e-7, p=1, q=1, n=1):
    checks = _span_checks("d21a", F(-p * q * n, p + q), (p, q), seed)
    notes = (
        "character labels rely on the conjectural two-term supercharacter "
        "formula; the span transformation itself is unconditional"
    )
    out = verify_law(tol, checks, notes)
    out["conjectural"] = True
    return out


def suite_d21a_omega(tol=0.5):
    pre = preset("d21a", (1, 1))
    om = enumerate_omega(pre, F(-1, 2))
    got_T = {tuple(int(x) for x in w.labels) for w in om if w.side == "T"}
    got_Tp = {tuple(int(x) for x in w.labels) for w in om if w.side != "T"}
    exp_T = {(0, 0), (0, 1), (1, -1)}
    exp_Tp = {(1, 2), (2, 3), (1, 1)}
    nus = set(d21a_nu_range(1, 1, 1))
    checks = [
        {"check": "T-side labels", "residual": 0.0 if got_T == exp_T else 1.0,
         "lhs": str(sorted(got_T)), "rhs": str(sorted(exp_T)), "point": None},
        {"check": "T'-side labels", "residual": 0.0 if got_Tp == exp_Tp else 1.0,
         "lhs": str(sorted(got_Tp)), "rhs": str(sorted(exp_Tp)), "point": None},
        {"check": "nu range", "residual": 0.0 if nus == {-2, -1, 0, 1} else 1.0,
         "lhs": str(sorted(nus)), "rhs": "[-2, -1, 0, 1]", "point": None},
    ]
    return verify_law(tol, checks)


def suite_osp32_sub_f(seed=52, tol=1e-9):
    checks = []
    sub = system("osp32_sub")
    k = F(-3, 4)
    for tau, z1, z2 in _points(seed, 5):
        pt = ModularPoint(tau, (z1, z2), 0.05)
        den = sub.denominator(-1, pt).value
        for i, fi in enumerate(sub.f_functions(k, pt), 1):
            ci = sub.f_closed_quotient(i, pt).value / den
            checks.append(check_pair(f"f{i}", fi.value, ci, tau))
    notes = (
        "f4's closed form carries theta11 upstairs; a theta00 numerator "
        "would contradict the tau+1 swap with f3"
    )
    return verify_law(tol, checks, notes)


def _subprincipal_span(which, seed, tol, notes=""):
    """The S or T relations of the subprincipal span at k = -3/4 and -1."""
    check = apply_smatrix_check if which == "S" else apply_tmatrix_check
    pts = [ModularPoint(tau, (z1, z2), 0.04) for tau, z1, z2 in _points(seed, 3)]
    checks = []
    for k in (F(-3, 4), F(-1)):
        rep = check("osp32_sub", k, pts)
        checks.append(check_residual(f"{which} span k={k}", rep["max_residual"]))
    return verify_law(tol, checks, notes)


def suite_eq620(seed=53, tol=1e-7):
    notes = (
        "the quotients transform with no weight factor: the numerator's "
        "tau cancels against the superdenominator's"
    )
    return _subprincipal_span("S", seed, tol, notes)


def suite_eq621(seed=54, tol=1e-7):
    return _subprincipal_span("T", seed, tol)


def suite_lem619(seed=55, tol=1e-9):
    checks = []
    for tau, z1, z2 in _points(seed, 5, im=(0.5, 0.9)):
        t = 0.07
        for M, s in ((F(1, 2), F(1, 2)), (F(1, 2), 0), (1, F(1, 2)), (1, 0)):
            lhs = 2 * psi_fn(M, s, 2 * tau, z1, z2, t).value
            rhs = (
                psi_fn(2 * M, 2 * s, tau, z1 / 2, z2 / 2, t / 2).value
                + cmath.exp(-2j * PI * float(s))
                * psi_fn(2 * M, 2 * s, tau, (z1 + 1) / 2, (z2 - 1) / 2, t / 2).value
            )
            checks.append(check_pair(f"M={M} s={s}", lhs, rhs, tau))
    return verify_law(tol, checks)


def _level1_relations(which, label, seed):
    """S or T apply-checks of the level-1 spans osp(2m+p|2n)."""
    check = apply_smatrix_check if which == "S" else apply_tmatrix_check
    checks = []
    for m, n in ((1, 1), (2, 1)):
        for parity in (1, 0):
            M, N = 2 * m + parity, 2 * n
            zs = tuple(
                [0.21 + 0.013 * i for i in range(M // 2)]
                + [0.37 - 0.02 * j for j in range(n)]
            )
            pts = [ModularPoint(tau, zs, 0.05) for tau, _, _ in _points(seed, 2)]
            rep = check("osp_level1", 1, pts, (M, N))
            checks.append(check_residual(f"{which} {label} M={M} N={N}", rep["max_residual"]))
    return checks


def suite_level1_S(seed=56, tol=1e-9):
    checks = _level1_relations("S", "relations", seed)
    return verify_law(tol, checks)


def suite_level1_T(seed=57, tol=1e-9):
    notes = (
        "odd-M third eigenvalue is exp(i pi (m-n+1/2)/6); the variant "
        "with -1/2 in the exponent fails (ST)^3 = S^2 and direct "
        "evaluation"
    )
    checks = _level1_relations("T", "eigenvalues", seed)
    return verify_law(tol, checks, notes)


def suite_prop622(seed=58, tol=1e-7):
    checks = []
    sys = system("sl21")
    w = WeightSpec(1, (0,))
    chp = lambda p: ch_tilde("sl21", w, p, variant="ch_plus_modified").value
    twm = lambda p: ch_tilde("sl21", w, p, variant="tw_minus_modified").value
    twp = lambda p: ch_tilde("sl21", w, p, variant="tw_plus_modified").value
    for tau, z1, z2 in _points(seed, 4):
        pt = ModularPoint(tau, (z1, z2), 0.05)
        ptS = act(S, pt, sys.quad)
        ptT = act(T, pt, sys.quad)
        chp0, twm0, twp0 = chp(pt), twm(pt), twp(pt)
        checks.append(check_pair("(a) ch+|S = tw-", chp(ptS), twm0, tau))
        checks.append(check_pair("(a) tw-|S = ch+", twm(ptS), chp0, tau))
        checks.append(check_pair("(a) tw+|S = -tw+", twp(ptS), -twp0, tau))
        checks.append(check_pair("(b) ch+|T = ch+", chp(ptT), chp0, tau))
        checks.append(check_pair("(b) tw-|T = i tw+", twm(ptT), 1j * twp0, tau))
        checks.append(check_pair("(b) tw+|T = i tw-", twp(ptT), 1j * twm0, tau))
    return verify_law(tol, checks)


def suite_eq66(seed=59, tol=1e-7):
    return verify_law(tol, _span_checks("osp42", 1, None, seed))
