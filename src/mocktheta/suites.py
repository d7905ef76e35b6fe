"""Named verification suites.

Each suite pins one transformation law or closed-form identity, evaluates
both sides independently at seeded sample points, and reports the maximum
residual against its registered tolerance through ``modular.verify_law``.
``SUITES`` holds each suite's function, paper anchor and description;
:func:`run_suite` stamps the id and anchor on the report.  The CLI
``verify`` command and the acceptance tests both dispatch through
:func:`run_suite`, so there is a single source of truth for every check.

Only the rank-1 layers load with this module; a suite that reaches the
lattice, character, S-matrix or superalgebra layers (or the naive oracles)
imports them itself, so ``verify`` of a rank-1 suite loads no numpy.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cache

from .core import DEFAULT_POLICY, ModularPoint
from .mock import MockIndex, phi, phi_elliptic_residual, phi_shift_residual_a
from .modifier import phi_tilde, r_jm, r_jm_signed
from .modular import LAWS, S, T, _stream, act, check_pair, check_residual, verify_law
from .theta import eta, theta_ab, theta_jm, theta_jm_signed

F = Fraction
PI = math.pi


def _law_checks(checks, f, family, point, policy):
    """(check, value) at (tau, z1, z2): value(idx) is f there, once per index;
    check(label, move, idx, *args) checks f[idx] at the moved point against its law."""
    tau, z1, z2 = point
    value = cache(lambda idx: f(idx, tau, z1, z2, policy).value)

    def check(label, move, idx, *args):
        w = tau if move == "tau" else 1
        moved = {"S": (-1 / tau, z1 / tau, z2 / tau), "T": (tau + 1, z1, z2)}.get(move)
        lhs = f(idx, *(moved or (tau, z1 + args[0] * w, z2 + args[1] * w)), policy).value
        rhs = LAWS[family, move](idx, tau, (z1, z2), *args).apply(value)
        checks.append(check_pair(label, lhs, rhs, tau))
        return lhs

    return check, value


def _points(seed, n, im=(0.8, 2.0)):
    rng = _stream(seed)
    pts = []
    while len(pts) < n:
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(*im))
        z1 = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.08, 0.08))
        z2 = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.08, 0.08))
        if min(abs(z1), abs(z2), abs(z1 - z2), abs(z1 + z2)) < 0.05:
            continue
        pts.append((tau, z1, z2))
    return pts


# ---------------------------------------------------------------------------
# section 1: modified rank-1 functions


def suite_thm11a(seed=11, tol=1e-8, n_points=10, policy=DEFAULT_POLICY, m=None):
    checks = []
    degrees = (1, 2) if m is None else (int(m),)
    for tau, z1, z2 in _points(seed, n_points):
        check, value = _law_checks(checks, phi_tilde, "phi~", (tau, z1, z2), policy)
        for m in degrees:
            for s, s1 in ((0, 0), (0, 1), (1, 0)):
                idx = MockIndex(m, s)
                lhs = phi_tilde(idx, -1 / tau, z1 / tau, z2 / tau, policy).value
                # Phi~ is 1-periodic in s (cor1.2): s1 is the target's representative
                law = LAWS["phi~", "S"](idx, tau, (z1, z2))
                rhs = law.apply(lambda t: value(t.with_s(s1)))
                checks.append(check_pair(f"S m={m} s={s} s1={s1}", lhs, rhs, tau))
            check(f"T m={m}", "T", MockIndex(m, 0))
    return verify_law(tol, checks)


def suite_thm11b(seed=12, tol=1e-8, n_points=10, policy=DEFAULT_POLICY):
    checks = []
    for pt in _points(seed, n_points):
        check, _ = _law_checks(checks, phi_tilde, "phi~", pt, policy)
        for m in (1, 2):
            idx = MockIndex(m, 0)
            for a, b in ((0, 1), (1, 0), (1, 1), (-1, 1), (0, -1)):
                check(f"tau-shift m={m} a={a} b={b}", "tau", idx, a, b)
                check(f"int-shift m={m} a={a} b={b}", "int", idx, a, b)
    return verify_law(tol, checks)


def suite_cor12(seed=13, tol=1e-9, n_points=10, policy=DEFAULT_POLICY):
    checks = []
    for tau, z1, z2 in _points(seed, n_points):
        for m in (1, 2):
            a = phi_tilde(MockIndex(m, 0), tau, z1, z2, policy).value
            b = phi_tilde(MockIndex(m, 1), tau, z1, z2, policy).value
            checks.append(check_pair(f"s-independence m={m}", a, b, tau))
    return verify_law(tol, checks)


def suite_thm13a(seed=14, tol=1e-8, n_points=10, policy=DEFAULT_POLICY):
    checks = []
    for tau, z1, z2 in _points(seed, n_points):
        check, _ = _law_checks(checks, phi_tilde, "phi~", (tau, z1, z2), policy)
        for m in (F(1, 2), F(1)):
            for sgn, s in (("plus", 0), ("minus", 0), ("plus", F(1, 2)), ("minus", F(1, 2))):
                idx = MockIndex(m, s, sgn)
                ((_, to),) = LAWS["phi~", "S"](idx, tau, (z1, z2)).terms
                check(f"S m={m} {sgn}[{s}] -> {to.sign}[{to.s}]", "S", idx)
    return verify_law(tol, checks)


def suite_thm13b(seed=15, tol=1e-9, n_points=10, policy=DEFAULT_POLICY):
    checks = []
    for pt in _points(seed, n_points):
        check, _ = _law_checks(checks, phi_tilde, "phi~", pt, policy)
        for m in (F(1, 2), F(1)):
            # m + s integral: fixed by T; m + s half-integral: sign label swaps
            fixed, swapped = (F(1, 2), F(0)) if m == F(1, 2) else (F(1), F(1, 2))
            for kind, s in (("T-fix", fixed), ("T-swap", swapped)):
                for sgn in ("plus", "minus"):
                    check(f"{kind} m={m} {sgn}[{s}]", "T", MockIndex(m, s, sgn))
    notes = (
        "the m+s integral case is plain T-invariance; a variant with an "
        "extra half shift in the label would contradict the integer "
        "s-periodicity and direct term-by-term computation"
    )
    return verify_law(tol, checks, notes)


def suite_thm13c(seed=16, tol=1e-8, n_points=8, policy=DEFAULT_POLICY):
    checks = []
    for pt in _points(seed, n_points):
        check, _ = _law_checks(checks, phi_tilde, "phi~", pt, policy)
        for m in (F(1, 2), F(1)):
            shifts = ((1, 1), (1, -1), (2, 0)) if m == F(1, 2) else ((1, 0), (1, 1), (0, 1))
            for s in (F(0), F(1, 2)):
                for sgn in ("plus", "minus"):
                    idx = MockIndex(m, s, sgn)
                    for a, b in shifts:
                        check(f"tau m={m} s={s} {sgn} (a,b)=({a},{b})", "tau", idx, a, b)
                    check(f"int m={m} s={s} {sgn}", "int", idx, 1, 1)
    return verify_law(tol, checks)


def suite_thm13d(seed=17, tol=1e-8, n_points=8, policy=DEFAULT_POLICY):
    checks = []
    for pt in _points(seed, n_points):
        check, _ = _law_checks(checks, phi_tilde, "phi~", pt, policy)
        for s in (F(0), F(1, 2)):
            for sgn in ("plus", "minus"):
                idx = MockIndex(F(1, 2), s, sgn)
                for a, b in ((1, 0), (0, 1), (1, 2)):
                    check(f"tau s={s} {sgn} (a,b)=({a},{b})", "tau", idx, a, b)
                check(f"int s={s} {sgn}", "int", idx, 1, 0)
    return verify_law(tol, checks)


def suite_cor14a(seed=18, tol=1e-9, n_points=10, policy=DEFAULT_POLICY):
    checks = []
    for tau, z1, z2 in _points(seed, n_points):
        for sgn in ("plus", "minus"):
            a = phi_tilde(MockIndex(F(1, 2), F(1, 2), sgn), tau, z1, z2, policy).value
            b = phi_tilde(MockIndex(F(1, 2), F(3, 2), sgn), tau, z1, z2, policy).value
            checks.append(check_pair(f"{sgn} s=1/2 vs 3/2", a, b, tau))
    return verify_law(tol, checks)


# ---------------------------------------------------------------------------
# section 2 lemmas


def suite_lem22(seed=21, tol=1e-9, n_points=5, policy=DEFAULT_POLICY):
    checks = []
    for tau, z1, z2 in _points(seed, n_points):
        check, value = _law_checks(checks, phi, "phi", (tau, z1, z2), policy)
        for m, s, sgn in ((F(1), F(0), "unsigned"), (F(1, 2), F(1, 2), "minus"),
                          (F(1), F(1, 2), "plus")):
            idx = MockIndex(m, s, sgn)
            # the n -> -n reindexing forces an overall minus sign
            lhs = phi(idx, tau, -z1, -z2, policy).value
            rhs = -value(idx.with_s(1 - s))
            checks.append(check_pair(f"(a) m={m} s={s} {sgn}", lhs, rhs, tau))
            for a, b in ((2, 0), (1, 1), (-1, 1)):
                check(f"(b) m={m} {sgn} (a,b)=({a},{b})", "int", idx, a, b)
        # (c)(i): integer m, any parities
        check("(c)(i)", "int", MockIndex(1, 1), 1, 0)
        # (c)(ii): non-integer m, opposite parity swaps the sign label
        check("(c)(ii)", "int", MockIndex(F(1, 2), F(1, 2), "minus"), 1, 0)
    return verify_law(tol, checks)


def suite_lem23(seed=22, tol=1e-9, n_points=5, policy=DEFAULT_POLICY):
    checks = []
    for tau, z1, z2 in _points(seed, n_points, im=(0.8, 1.4)):
        for m, s, sgn in ((F(1), F(0), "unsigned"), (F(1, 2), F(1, 2), "minus")):
            idx = MockIndex(m, s, sgn)
            res = phi_shift_residual_a(idx, tau, z1, z2, policy).value
            checks.append(check_pair(f"(a) m={m} {sgn}", res, 0.0, tau))
            # (b): z1 -> z1 - 2 tau mirror
            law = LAWS["phi", "window"](idx, tau, (z1, z2), -2, 0)
            moved = phi(idx, tau, z1 - 2 * tau, z2, policy).value
            lhs = phi(idx, tau, z1, z2, policy).value - law.prefactor * moved
            rhs = sum(p * theta_jm_signed(*t, tau, z1 + z2, policy).value for p, t in law.terms)
            checks.append(check_pair(f"(b) m={m} {sgn}", lhs, rhs, tau))
    return verify_law(tol, checks)


def suite_lem24(seed=23, tol=1e-9, n_points=5, policy=DEFAULT_POLICY):
    checks = []
    for tau, z1, z2 in _points(seed, n_points, im=(0.8, 1.4)):
        check, _ = _law_checks(checks, phi, "phi", (tau, z1, z2), policy)
        for m, s, sgn, j in (
            (F(1), F(0), "unsigned", 1),
            (F(1), F(0), "unsigned", -1),
            (F(1, 2), F(1, 2), "minus", 1),
            (F(1, 2), F(1, 2), "minus", 2),
        ):
            idx = MockIndex(m, s, sgn)
            lhs = check(f"m={m} {sgn} j={j}", "tau", idx, j, j)
            res = phi_elliptic_residual(idx, j, tau, z1, z2, policy).value
            scale = max(1.0, abs(lhs))
            checks.append(
                {"check": f"residual-op m={m} {sgn} j={j}",
                 "residual": abs(res) / scale, "lhs": str(res), "rhs": "0",
                 "point": str(tau)}
            )
    return verify_law(tol, checks)


def suite_lem210(seed=24, tol=1e-9, n_points=5, policy=DEFAULT_POLICY):
    checks = []
    for tau, z1, _ in _points(seed, n_points, im=(0.9, 1.6)):
        v = z1
        for sgn, j, m in ((1, 0, F(1)), (1, 1, F(1)), (-1, F(1, 2), F(1, 2)), (-1, 1, F(3, 2))):
            rj = lambda t_, v_: r_jm_signed(sgn, j, m, t_, v_, policy).value
            base = rj(tau, v)
            lhs = rj(tau, v + 1)
            rhs = (-1) ** int(2 * F(j)) * base
            checks.append(check_pair(f"(a) sgn={sgn} j={j} m={m}", lhs, rhs, tau))
            mf = float(m)
            jf = float(j)
            qpow = cmath.exp(-2j * PI * tau * jf * jf / (4 * mf))
            inhom = 2 * qpow * cmath.exp(2j * PI * jf * v)
            lhs = base - sgn * cmath.exp(2j * PI * mf * (2 * v - tau)) * rj(tau, v - tau)
            checks.append(check_pair(f"(b) sgn={sgn} j={j} m={m}", lhs, inhom, tau))
            lhs = base - cmath.exp(8j * PI * mf * (v - tau)) * rj(tau, v - 2 * tau)
            j2 = jf + 2 * mf
            rhs = 2 * (
                qpow * cmath.exp(2j * PI * jf * v)
                + sgn
                * cmath.exp(-2j * PI * tau * j2 * j2 / (4 * mf))
                * cmath.exp(2j * PI * j2 * v)
            )
            checks.append(check_pair(f"(c) sgn={sgn} j={j} m={m}", lhs, rhs, tau))
    return verify_law(tol, checks)


# ---------------------------------------------------------------------------
# the Zwegers bridge


def _zw_mu(tau, u, v, policy):
    """Zwegers' mu function, an independent reference implementation."""
    q = cmath.exp(2j * PI * tau)
    tot = 0j
    n = 0
    # symmetric window large enough for the tolerances in use
    for n in range(-42, 43):
        tot += (
            (-1) ** n
            * q ** (n * (n + 1) / 2)
            * cmath.exp(2j * PI * n * v)
            / (1 - cmath.exp(2j * PI * u) * q**n)
        )
    th = theta_ab(1, 1, tau, v, policy).value
    return cmath.exp(1j * PI * u) / th * tot


def _zw_R(tau, u, policy):
    """Zwegers' real-analytic R, quadrature-free reference form."""
    from .core import gauss_E_complement, gauss_E_complement_scaled

    y = tau.imag
    tot = 0j
    for kk in range(-36, 37):
        nu = kk + 0.5
        sgn = 1.0 if nu > 0 else -1.0
        psi = (nu + u.imag / y) * math.sqrt(2 * y)
        wexp = -1j * PI * nu * nu * tau - 2j * PI * nu * u
        sp = sgn * psi
        if sp >= 5.0:
            term = sgn * gauss_E_complement_scaled(sp) * cmath.exp(
                wexp - PI * psi * psi
            )
        else:
            term = sgn * gauss_E_complement(sp) * cmath.exp(wexp)
        tot += term * (-1) ** (kk % 2)
    return tot


def suite_eq120(seed=25, tol=1e-9, n_points=10, policy=DEFAULT_POLICY):
    """The completed bridge to Zwegers' mu-hat, plus mu-hat symmetry."""
    checks = []
    idx = MockIndex(F(1, 2), F(1, 2), "minus")
    for tau, z1, z2 in _points(seed, n_points):
        muh = _zw_mu(tau, z1, z2, policy) + 0.5j * _zw_R(tau, z1 - z2, policy)
        lhs = phi_tilde(idx, tau, z1, 2 * z2 - z1, policy).value
        rhs = theta_ab(1, 1, tau, z2, policy).value * muh
        checks.append(check_pair("completed bridge", lhs, rhs, tau))
        sym_l = theta_ab(1, 1, tau, z1, policy).value * phi_tilde(
            idx, tau, z1, 2 * z2 - z1, policy
        ).value
        sym_r = theta_ab(1, 1, tau, z2, policy).value * phi_tilde(
            idx, tau, z2, 2 * z1 - z2, policy
        ).value
        checks.append(check_pair("mu-hat symmetry", sym_l, sym_r, tau))
    notes = (
        "a same-modulus single-product pairing of the two functions fails "
        "an elliptic-multiplier bookkeeping check and is recorded "
        "(non-gating) by the eq1.19 suite; this suite verifies the bridge "
        "through an independent mu/R implementation instead"
    )
    return verify_law(tol, checks, notes)


def suite_eq119(seed=26, tol=1e-9, n_points=4, policy=DEFAULT_POLICY):
    """Recording suite: the unmodified bridge plus the single-product
    variant, whose residuals are kept as evidence rather than gated."""
    checks = []
    idx = MockIndex(F(1, 2), F(1, 2), "minus")
    variant = {0: [], 1: []}
    for tau, z1, z2 in _points(seed, n_points):
        mu = _zw_mu(tau, z1, z2, policy)
        lhs = phi(idx, tau, z1, 2 * z2 - z1, policy).value
        rhs = theta_ab(1, 1, tau, z2, policy).value * mu
        checks.append(check_pair("unmodified bridge (gauge)", lhs, rhs, tau))
        for s in (0, 1):
            pl = theta_ab(1, 1, tau, z1 + z2, policy).value * lhs
            pr = theta_ab(1, 1, tau, z2, policy).value * phi(
                MockIndex(1, s), tau, z1, z2, policy
            ).value
            variant[s].append(abs(pl - pr))
    notes = (
        "the single-product form holds for neither s in {0, 1} "
        f"(residuals ~{max(variant[0]):.3g}); the mu-form above is the "
        "identity that holds"
    )
    rep = verify_law(tol, checks, notes)
    rep["single_product_residuals"] = {
        "s=0": max(variant[0]),
        "s=1": max(variant[1]),
    }
    return rep


# ---------------------------------------------------------------------------
# section 3 pipeline


def _ctx_sl2(k):
    from .lattice import LatticeContext

    return LatticeContext(gamma_gram=((2,),), n_isotropic=1, k=k)


def _ctx_sl3(k):
    from .lattice import LatticeContext

    return LatticeContext(gamma_gram=((2, -1), (-1, 2)), n_isotropic=1, k=k)


def _ctx_odd(k):
    from .lattice import LatticeContext

    return LatticeContext(gamma_gram=((2,),), n_isotropic=1, k=k, mode="minus")


def suite_eq35(seed=31, tol=1e-9, n_points=6, policy=DEFAULT_POLICY):
    import numpy as np

    from .lattice import Weight, lattice_mock_theta

    checks = []
    for tau, z1, z2 in _points(seed, n_points):
        for k in (1, 2):
            ctx = _ctx_sl2(k)
            w = Weight(k, (0, F(-1)))
            pt = ModularPoint(tau, (z1, z2), 0.05)
            direct = lattice_mock_theta(ctx, w, pt, policy).value
            G = ctx.full_gram_float()
            z = np.array(pt.z)
            beta_z = complex(G[1] @ z)
            gam_z = complex(G[0] @ z)
            s = ctx.pair(w.coords, ctx.gamma_vec(1))
            orc = cmath.exp(2j * PI * k * pt.t) * phi(
                MockIndex(k, s), tau, -beta_z, beta_z + gam_z, policy
            ).value
            checks.append(check_pair(f"k={k}", direct, orc, tau))
    return verify_law(tol, checks)


def suite_prop32b(seed=32, tol=1e-7, n_points=4, policy=DEFAULT_POLICY):
    from .characters import gram_quad
    from .lattice import Weight, build_modification, eval_modified, mu_class_representatives

    checks = []
    for tau, z1, z2 in _points(seed, n_points):
        for ctx, zc, label in (
            (_ctx_sl2(1), (z1, z2), "rank1 k=1"),
            (_ctx_sl2(2), (z1, z2), "rank1 k=2"),
            (_ctx_sl3(1), (z1, -0.7 * z2, z2), "rank2 k=1"),
        ):
            w = Weight(ctx.k, (0,) * ctx.rank + (F(-1),))
            res = build_modification(ctx, w)
            pt = ModularPoint(tau, zc, 0.06)
            quad = gram_quad(ctx.full_gram_float())
            lhs = eval_modified(res, act(S, pt, quad), policy).value
            law = LAWS["lattice", "S"]((res, False), tau, pt.z, mu_class_representatives(res))
            rhs = law.apply(lambda t: eval_modified(build_modification(ctx, t[0]), pt, policy).value)
            checks.append(check_pair(f"S {label}", lhs, rhs, tau))
            lhs = eval_modified(res, act(T, pt, quad), policy).value
            # an unsigned function is its own T partner
            law = LAWS["lattice", "T"]((res, False), tau, pt.z)
            rhs = law.apply(lambda _: eval_modified(res, pt, policy).value)
            checks.append(check_pair(f"T {label}", lhs, rhs, tau))
    return verify_law(tol, checks)


def _signed_pair(k):
    """The minus and plus modifications of the signed rank-1 context."""
    from .lattice import Weight, build_modification

    ctx = _ctx_odd(k)
    w = Weight(k, (0, F(1)))
    return ctx, {mode: build_modification(ctx, w, mode=mode) for mode in ("minus", "plus")}


def suite_prop33b(seed=33, tol=1e-7, n_points=4, policy=DEFAULT_POLICY):
    from .characters import gram_quad
    from .lattice import build_modification, eval_modified, mu_class_representatives

    checks = []
    for tau, z1, z2 in _points(seed, n_points):
        ctx, res = _signed_pair(F(3, 2))
        pt = ModularPoint(tau, (z1, z2), 0.04)
        ptS = act(S, pt, gram_quad(ctx.full_gram_float()))
        reps = mu_class_representatives(res["minus"])
        for xi in (False, True):
            for mode in ("plus", "minus"):
                law = LAWS["lattice", "S"]((res[mode], xi), tau, pt.z, reps)
                to = law.terms[0][1][1]
                rhs = law.apply(lambda t: eval_modified(
                    build_modification(ctx, t[0], mode=t[1][0]), pt, policy, xi_shift=t[1][1]
                ).value)
                lhs = eval_modified(res[mode], ptS, policy, xi_shift=xi).value
                label = f"{mode}{'(xi)' * xi}->{to[0]}{'(xi)' * to[1]}"
                checks.append(check_pair(label, lhs, rhs, tau))
    return verify_law(tol, checks)


def suite_prop33c(seed=34, tol=1e-7, n_points=5, policy=DEFAULT_POLICY):
    from .characters import gram_quad
    from .lattice import eval_modified

    checks = []
    for tau, z1, z2 in _points(seed, n_points):
        ctx, res = _signed_pair(F(3, 2))
        pt = ModularPoint(tau, (z1, z2), 0.04)
        ptT = act(T, pt, gram_quad(ctx.full_gram_float()))
        for mode, xi, label in (("plus", False, "T plus->minus"),
                                ("minus", True, "T minus(xi) fixed")):
            lhs = eval_modified(res[mode], ptT, policy, xi_shift=xi).value
            rhs = LAWS["lattice", "T"]((res[mode], xi), tau, pt.z).apply(
                lambda to: eval_modified(res[to[0]], pt, policy, xi_shift=to[1]).value
            )
            checks.append(check_pair(label, lhs, rhs, tau))
    return verify_law(tol, checks)


def _lattice_shifts(checks, idx, pt, vectors, policy):
    """prop3.7/3.8 (i) and (ii): f(z + v) and f(z + tau v) for each vector v."""
    import numpy as np

    from .lattice import eval_modified

    res, xi = idx
    tau = pt.tau
    z = np.array(pt.z)
    base = eval_modified(res, pt, policy, xi_shift=xi).value
    for vname, v in vectors:
        for kind, move, zv in (("(i)", "int", z + v), ("(ii)", "tau", z + tau * v)):
            lhs = eval_modified(res, ModularPoint(tau, tuple(zv), pt.t), policy, xi_shift=xi).value
            rhs = LAWS["lattice", move](idx, tau, z, v).apply(lambda _: base)
            checks.append(check_pair(f"{kind} v={vname}", lhs, rhs, tau))


def suite_prop37(seed=35, tol=1e-8, n_points=4, policy=DEFAULT_POLICY):
    import numpy as np

    from .lattice import Weight, build_modification

    checks = []
    vectors = (("|g|^2 beta", np.array([0.0, 2.0])), ("gamma~", np.array([1.0, 0.0])))
    for tau, z1, z2 in _points(seed, n_points):
        res = build_modification(_ctx_odd(F(3, 2)), Weight(F(3, 2), (0, F(1))), mode="minus")
        _lattice_shifts(checks, (res, True), ModularPoint(tau, (z1, z2), 0.04), vectors, policy)
    return verify_law(tol, checks)


def suite_prop38(seed=36, tol=1e-8, n_points=4, policy=DEFAULT_POLICY):
    import numpy as np

    from .lattice import Weight, build_modification

    checks = []
    vectors = (
        ("m-basis", np.array([0.0, 1.0, -1.0])),
        ("(|g|^2/2) beta", np.array([0.0, 0.0, 1.0])),
        ("gamma~_1", np.array([1.0, 0.0, 0.0])),
    )
    for tau, z1, z2 in _points(seed, n_points):
        res = build_modification(_ctx_sl3(1), Weight(1, (0, 0, F(-1))))
        pt = ModularPoint(tau, (z1, -0.7 * z2, z2), 0.06)
        _lattice_shifts(checks, (res, False), pt, vectors, policy)
    return verify_law(tol, checks)


# ---------------------------------------------------------------------------
# denominators and sl(2|1)


def suite_eq56(seed=41, tol=1e-8, n_points=6, policy=DEFAULT_POLICY):
    from .characters import system

    checks = []
    for tau, z1, z2 in _points(seed, n_points):
        for case in ("sl21", "osp32_sub"):
            sys = system(case)
            pt = ModularPoint(tau, (z1, z2), 0.05)
            lhs = sys.denominator(-1, act(S, pt, sys.quad), policy).value
            d0 = sum(1 for _, par in sys.pos_roots if par == 0)
            d1 = sum(1 for _, par in sys.pos_roots if par == 1)
            rhs = (
                1j ** ((d1 - d0) % 4)
                * (-1j * tau)
                * sys.denominator(-1, pt, policy).value
            )
            checks.append(check_pair(f"S {case}", lhs, rhs, tau))
            lhsT = sys.denominator(-1, act(T, pt, sys.quad), policy).value
            rhsT = cmath.exp(1j * PI * sys.sdim / 12) * sys.denominator(-1, pt, policy).value
            checks.append(check_pair(f"T {case}", lhsT, rhsT, tau))
    return verify_law(tol, checks)


def suite_denom_sl21(seed=42, tol=1e-10, n_points=6, policy=DEFAULT_POLICY):
    from .characters import system

    checks = []
    sys = system("sl21")
    for tau, z1, z2 in _points(seed, n_points):
        pt = ModularPoint(tau, (z1, z2), 0.07)
        den = sys.denominator(-1, pt, policy).value
        e3 = eta(tau, policy).value ** 3
        closed = (
            1j
            * cmath.exp(2j * PI * pt.t)
            * e3
            * theta_ab(1, 1, tau, z1 + z2, policy).value
            / (
                theta_ab(1, 1, tau, z1, policy).value
                * theta_ab(1, 1, tau, z2, policy).value
            )
        )
        checks.append(check_pair("closed form", den, closed, tau))
    return verify_law(tol, checks)


def suite_denom_osp32(seed=43, tol=1e-10, n_points=6, policy=DEFAULT_POLICY):
    from .characters import system

    checks = []
    sys = system("osp32_sub")
    for tau, z1, z2 in _points(seed, n_points):
        pt = ModularPoint(tau, (z1, z2), 0.07)
        den = sys.denominator(-1, pt, policy).value
        e3 = eta(tau, policy).value ** 3
        quot = (
            theta_ab(1, 1, tau, z1 - z2, policy).value
            * theta_ab(1, 1, tau, (z1 + z2) / 2, policy).value
            / (
                theta_ab(1, 1, tau, z1, policy).value
                * theta_ab(1, 1, tau, z2, policy).value
                * theta_ab(1, 1, tau, (z1 - z2) / 2, policy).value
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


def suite_eq013(seed=44, tol=1e-9, n_points=5, policy=DEFAULT_POLICY):
    from .characters import system
    from .superalg import WeightSpec

    checks = []
    sys = system("sl21")
    for tau, z1, z2 in _points(seed, n_points):
        pt = ModularPoint(tau, (z1, z2), 0.06)
        for m, s in ((1, 0), (1, 1), (2, 1)):
            w = WeightSpec(m - 1, (-s,))
            num = sys.numerator(w, pt, policy, modified=False).value
            target = cmath.exp(2j * PI * m * pt.t) * (
                phi(MockIndex(m, s), tau, z1, z2, policy).value
                - phi(MockIndex(m, s), tau, -z2, -z1, policy).value
            )
            checks.append(check_pair(f"(m,s)=({m},{s})", num, target, tau))
    return verify_law(tol, checks)


def suite_sl21_modular(seed=45, tol=1e-7, n_points=5, policy=DEFAULT_POLICY):
    from .characters import ch_tilde, system
    from .superalg import WeightSpec

    checks = []
    sys = system("sl21")
    w = WeightSpec(1, (0,))
    for tau, z1, z2 in _points(seed, n_points):
        pt = ModularPoint(tau, (z1, z2), 0.06)
        base = ch_tilde("sl21", w, pt, policy).value
        ptS = act(S, pt, sys.quad)
        checks.append(check_pair("S-invariance", ch_tilde("sl21", w, ptS, policy).value, base, tau))
        ptT = act(T, pt, sys.quad)
        checks.append(check_pair("T-invariance", ch_tilde("sl21", w, ptT, policy).value, base, tau))
        other = ch_tilde("sl21", WeightSpec(1, (1,)), pt, policy).value
        checks.append(check_pair("label-independence", other, base, tau))
    return verify_law(tol, checks)


def suite_psi_pin(seed=46, tol=1e-9, n_points=10, policy=DEFAULT_POLICY):
    from .characters import psi_fn

    checks = []
    for tau, z1, z2 in _points(seed, n_points):
        psi = psi_fn(1, 0, tau, z1, z2, 0.0, policy, modified=False).value
        quot = (
            eta(tau, policy).value ** 3
            * theta_ab(1, 1, tau, z1 + z2, policy).value
            / (
                theta_ab(1, 1, tau, z1, policy).value
                * theta_ab(1, 1, tau, z2, policy).value
            )
        )
        checks.append(check_pair("denominator identity", psi, -1j * quot, tau))
    return verify_law(tol, checks)


def suite_eq44(seed=47, tol=1e-8, n_points=5, policy=DEFAULT_POLICY):
    from .characters import system
    from .superalg import WeightSpec

    checks = []
    sys = system("sl21")
    w = WeightSpec(1, (0,))
    for tau, z1, z2 in _points(seed, n_points):
        pt = ModularPoint(tau, (z1, z2), 0.06)
        nplus = sys.numerator(w, pt, policy, modified=False, plus=True).value
        dplus = sys.denominator(+1, pt, policy).value
        shifted = ModularPoint(tau, (z1 - 0.5, z2 - 0.5), pt.t)
        nminus = sys.numerator(w, shifted, policy, modified=False).value
        dminus = sys.denominator(-1, shifted, policy).value
        checks.append(check_pair("ch+ vs shifted ch-", nplus / dplus, nminus / dminus, tau))
    return verify_law(tol, checks)


# ---------------------------------------------------------------------------
# section 6


def _span_checks(case, k, params, seed, policy):
    """Unitarity and the S/T apply-checks of a three-coordinate span."""
    from .smatrix import apply_smatrix_check, apply_tmatrix_check, smatrix

    pts = [
        ModularPoint(tau, (z1, 0.8 * z2, z2), 0.05)
        for tau, z1, z2 in _points(seed, 3)
    ]
    return [
        check_residual("unitarity", smatrix(case, k, params).unitarity_defect()),
        check_residual("S apply", apply_smatrix_check(case, k, pts, params, policy)["max_residual"]),
        check_residual("T apply", apply_tmatrix_check(case, k, pts, params, policy)["max_residual"]),
    ]


def suite_thm614(seed=51, tol=1e-7, policy=DEFAULT_POLICY, p=1, q=1, n=1):
    checks = _span_checks("d21a", F(-p * q * n, p + q), (p, q), seed, policy)
    notes = (
        "character labels rely on the conjectural two-term supercharacter "
        "formula; the span transformation itself is unconditional"
    )
    out = verify_law(tol, checks, notes)
    out["conjectural"] = True
    return out


def suite_d21a_omega(tol=0.5, **_):
    from .characters import system
    from .superalg import enumerate_omega, preset

    pre = preset("d21a", (1, 1))
    om = enumerate_omega(pre, F(-1, 2))
    got_T = {tuple(int(x) for x in w.labels) for w in om if w.side == "T"}
    got_Tp = {tuple(int(x) for x in w.labels) for w in om if w.side != "T"}
    exp_T = {(0, 0), (0, 1), (1, -1)}
    exp_Tp = {(1, 2), (2, 3), (1, 1)}
    sys = system("d21a")
    nus = set(sys.nu_range(1))
    checks = [
        {"check": "T-side labels", "residual": 0.0 if got_T == exp_T else 1.0,
         "lhs": str(sorted(got_T)), "rhs": str(sorted(exp_T)), "point": None},
        {"check": "T'-side labels", "residual": 0.0 if got_Tp == exp_Tp else 1.0,
         "lhs": str(sorted(got_Tp)), "rhs": str(sorted(exp_Tp)), "point": None},
        {"check": "nu range", "residual": 0.0 if nus == {-2, -1, 0, 1} else 1.0,
         "lhs": str(sorted(nus)), "rhs": "[-2, -1, 0, 1]", "point": None},
    ]
    return verify_law(tol, checks)


def suite_osp32_sub_f(seed=52, tol=1e-9, n_points=5, policy=DEFAULT_POLICY):
    from .characters import system

    checks = []
    sub = system("osp32_sub")
    k = F(-3, 4)
    for tau, z1, z2 in _points(seed, n_points):
        pt = ModularPoint(tau, (z1, z2), 0.05)
        den = sub.denominator(-1, pt, policy).value
        for i in (1, 2, 3, 4):
            fi = sub.f_function(i, k, pt, policy).value
            ci = sub.f_closed_quotient(i, pt, policy).value / den
            checks.append(check_pair(f"f{i}", fi, ci, tau))
    notes = (
        "f4's closed form carries theta11 upstairs; a theta00 numerator "
        "would contradict the tau+1 swap with f3"
    )
    return verify_law(tol, checks, notes)


def _subprincipal_span(which, seed, tol, policy, notes=""):
    """The S or T relations of the subprincipal span at k = -3/4 and -1."""
    from .smatrix import apply_smatrix_check, apply_tmatrix_check

    check = apply_smatrix_check if which == "S" else apply_tmatrix_check
    pts = [ModularPoint(tau, (z1, z2), 0.04) for tau, z1, z2 in _points(seed, 3)]
    checks = []
    for k in (F(-3, 4), F(-1)):
        rep = check("osp32_sub", k, pts, policy=policy)
        checks.append(check_residual(f"{which} span k={k}", rep["max_residual"]))
    return verify_law(tol, checks, notes)


def suite_eq620(seed=53, tol=1e-7, policy=DEFAULT_POLICY):
    notes = (
        "the quotients transform with no weight factor: the numerator's "
        "tau cancels against the superdenominator's"
    )
    return _subprincipal_span("S", seed, tol, policy, notes)


def suite_eq621(seed=54, tol=1e-7, policy=DEFAULT_POLICY):
    return _subprincipal_span("T", seed, tol, policy)


def suite_lem619(seed=55, tol=1e-9, n_points=5, policy=DEFAULT_POLICY):
    from .characters import psi_fn

    checks = []
    for tau, z1, z2 in _points(seed, n_points, im=(0.5, 0.9)):
        t = 0.07
        for M, s in ((F(1, 2), F(1, 2)), (F(1, 2), 0), (1, F(1, 2)), (1, 0)):
            lhs = 2 * psi_fn(M, s, 2 * tau, z1, z2, t, policy).value
            rhs = (
                psi_fn(2 * M, 2 * s, tau, z1 / 2, z2 / 2, t / 2, policy).value
                + cmath.exp(-2j * PI * float(s))
                * psi_fn(2 * M, 2 * s, tau, (z1 + 1) / 2, (z2 - 1) / 2, t / 2, policy).value
            )
            checks.append(check_pair(f"M={M} s={s}", lhs, rhs, tau))
    return verify_law(tol, checks)


def _level1_relations(which, label, seed, policy):
    """S or T apply-checks of the level-1 spans osp(2m+p|2n)."""
    from .smatrix import apply_smatrix_check, apply_tmatrix_check

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
            rep = check("osp_level1", 1, pts, (M, N), policy)
            checks.append(check_residual(f"{which} {label} M={M} N={N}", rep["max_residual"]))
    return checks


def suite_level1_S(seed=56, tol=1e-9, policy=DEFAULT_POLICY):
    checks = _level1_relations("S", "relations", seed, policy)
    return verify_law(tol, checks)


def suite_level1_T(seed=57, tol=1e-9, policy=DEFAULT_POLICY):
    notes = (
        "odd-M third eigenvalue is exp(i pi (m-n+1/2)/6); the variant "
        "with -1/2 in the exponent fails (ST)^3 = S^2 and direct "
        "evaluation"
    )
    checks = _level1_relations("T", "eigenvalues", seed, policy)
    return verify_law(tol, checks, notes)


def suite_prop622(seed=58, tol=1e-7, n_points=4, policy=DEFAULT_POLICY):
    from .characters import ch_tilde, system
    from .superalg import WeightSpec

    checks = []
    sys = system("sl21")
    w = WeightSpec(1, (0,))
    chp = lambda p: ch_tilde("sl21", w, p, policy, variant="ch_plus_modified").value
    twm = lambda p: ch_tilde("sl21", w, p, policy, variant="tw_minus_modified").value
    twp = lambda p: ch_tilde("sl21", w, p, policy, variant="tw_plus_modified").value
    for tau, z1, z2 in _points(seed, n_points):
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


def suite_eq66(seed=59, tol=1e-7, policy=DEFAULT_POLICY):
    return verify_law(tol, _span_checks("osp42", 1, None, seed, policy))


# ---------------------------------------------------------------------------
# classical building blocks


def suite_theta_S(seed=61, tol=1e-9, n_points=6, policy=DEFAULT_POLICY):
    checks = []
    for tau, z, _ in _points(seed, n_points):
        value = cache(lambda idx: theta_jm(*idx, tau, z, policy).value)
        for j, m in ((0, 1), (1, 1), (1, 2), (3, 2)):
            lhs = theta_jm(j, m, -1 / tau, z / tau, policy).value
            rhs = LAWS["theta", "S"]((j, m), tau, (z,)).apply(value)
            checks.append(check_pair(f"S j={j} m={m}", lhs, rhs, tau))
    return verify_law(tol, checks)


def suite_theta_quasi(seed=62, tol=1e-11, n_points=10, policy=DEFAULT_POLICY):
    checks = []
    for tau, z, _ in _points(seed, n_points):
        value = cache(lambda idx: theta_jm(*idx, tau, z, policy).value)
        for j, m in ((0, 1), (1, 2)):
            for label, move, zs in (("z+2", "int", z + 2), ("z+2tau", "tau", z + 2 * tau)):
                lhs = theta_jm(j, m, tau, zs, policy).value
                rhs = LAWS["theta", move]((j, m), tau, (z,), 1).apply(value)
                checks.append(check_pair(f"{label} j={j} m={m}", lhs, rhs, tau))
    return verify_law(tol, checks)


def suite_oracles(seed=63, tol=1e-10, n_points=30, policy=DEFAULT_POLICY):
    from . import _oracles as oracle

    checks = []
    rng = _stream(seed)
    for i in range(n_points):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 2.0))
        z1 = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.05, 0.05))
        z2 = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.05, 0.05))
        if abs(z1) < 0.04:
            z1 += 0.1
        mine = phi(MockIndex(1, 0), tau, z1, z2, policy).value
        checks.append(check_pair("phi", mine, oracle.phi_naive(1, 1, 0, tau, z1, z2), tau))
        mine = phi(MockIndex(F(1, 2), F(1, 2), "minus"), tau, z1, z2, policy).value
        checks.append(
            check_pair("phi minus", mine, oracle.phi_naive(-1, 0.5, 0.5, tau, z1, z2), tau)
        )
        mine = theta_jm(1, 2, tau, z1, policy).value
        checks.append(check_pair("theta_jm", mine, oracle.theta_jm_naive(1, 1, 2, tau, z1), tau))
        mine = theta_jm_signed(-1, F(1, 2), F(1, 2), tau, z1, policy).value
        checks.append(
            check_pair("theta_jm signed", mine, oracle.theta_jm_naive(-1, 0.5, 0.5, tau, z1), tau)
        )
        mine = r_jm(0, 1, tau, z1, policy).value
        checks.append(check_pair("r_jm", mine, oracle.r_naive(1, 0, 1, tau, z1), tau))
        mine = r_jm_signed(-1, F(1, 2), F(1, 2), tau, z1, policy).value
        checks.append(
            check_pair("r_jm signed", mine, oracle.r_naive(-1, 0.5, 0.5, tau, z1), tau)
        )
        mine = eta(tau, policy).value
        checks.append(check_pair("eta", mine, oracle.eta_product(tau), tau))
        mine = theta_ab(1, 1, tau, z1, policy).value
        checks.append(check_pair("theta_ab", mine, oracle.theta_ab_naive(1, 1, tau, z1), tau))
    return verify_law(tol, checks)


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "thm1.1a": (suite_thm11a, "thm1.1a", "S/T laws of the modified rank-1 functions"),
    "thm1.1b": (suite_thm11b, "thm1.1b", "elliptic laws of the modified rank-1 functions"),
    "cor1.2": (suite_cor12, "cor1.2", "shift-label independence, unsigned"),
    "thm1.3a": (suite_thm13a, "thm1.3a", "signed S-law pairings"),
    "thm1.3b": (suite_thm13b, "thm1.3b", "signed T-laws"),
    "thm1.3c": (suite_thm13c, "thm1.3c", "signed elliptic laws, same parity"),
    "thm1.3d": (suite_thm13d, "thm1.3d", "signed elliptic laws, opposite parity"),
    "cor1.4a": (suite_cor14a, "cor1.4a", "shift-label independence, signed"),
    "lem2.2": (suite_lem22, "lem2.2", "argument negation and integer shifts"),
    "lem2.3": (suite_lem23, "lem2.3", "2tau-shift window identities"),
    "lem2.4": (suite_lem24, "lem2.4", "diagonal elliptic shifts"),
    "lem2.10": (suite_lem210, "lem2.10", "correction-term shift identities"),
    "eq1.19": (suite_eq119, "eq1.19", "unmodified mu bridge (recording)"),
    "eq1.20": (suite_eq120, "eq1.20", "completed mu bridge"),
    "eq3.5": (suite_eq35, "eq3.5", "one-step lattice factorization"),
    "prop3.2b": (suite_prop32b, "prop3.2b", "even-lattice modular laws"),
    "prop3.3b": (suite_prop33b, "prop3.3b", "signed modular laws"),
    "prop3.3c": (suite_prop33c, "prop3.3c", "signed T-laws at lattice level"),
    "prop3.7": (suite_prop37, "prop3.7", "signed elliptic laws at lattice level"),
    "prop3.8": (suite_prop38, "prop3.8", "even elliptic laws at lattice level"),
    "eq5.6": (suite_eq56, "eq5.6", "superdenominator S/T law"),
    "denom-sl21": (suite_denom_sl21, "eq0.13-denominator", "sl(2|1) superdenominator closed form"),
    "denom-osp32": (suite_denom_osp32, "rem6.21-denominator", "osp(3|2) superdenominator closed form"),
    "eq0.13": (suite_eq013, "eq0.13", "sl(2|1) numerator closed form"),
    "sl21-modular": (suite_sl21_modular, "cor1.2/eq0.13", "sl(2|1) modified supercharacter invariance"),
    "psi-pin": (suite_psi_pin, "rem6.21-psi", "numerator/denominator convention pin"),
    "eq4.4": (suite_eq44, "eq4.4", "character from supercharacter by half-shift"),
    "thm6.14": (suite_thm614, "thm6.14", "D(2,1;a) S-matrix"),
    "d21a-omega": (suite_d21a_omega, "cor6.5-6.7", "D(2,1;a) weight enumeration"),
    "osp32-sub-f": (suite_osp32_sub_f, "rem6.21-f", "subprincipal spanning functions"),
    "eq6.20": (suite_eq620, "eq6.20", "subprincipal S relations"),
    "eq6.21": (suite_eq621, "eq6.21", "subprincipal T relations"),
    "lem6.19": (suite_lem619, "lem6.19", "modulus-doubling identity"),
    "osp-level1-S": (suite_level1_S, "sec6.5-S", "level-1 S relations"),
    "osp-level1-T": (suite_level1_T, "sec6.5-T", "level-1 T eigenvalues"),
    "prop6.22": (suite_prop622, "prop6.22", "twisted-variant S/T relations"),
    "eq6.6": (suite_eq66, "eq6.6", "osp(4|2) S-matrix"),
    "theta-S": (suite_theta_S, "theta-S-law", "rank-1 theta S-law"),
    "theta-quasi": (suite_theta_quasi, "theta-quasiperiods", "rank-1 theta quasi-periodicity"),
    "oracles": (suite_oracles, "naive-summation", "naive-summation oracle agreement"),
}


def list_suites():
    """Catalog of suite ids with anchors and descriptions."""
    return [
        {"suite": sid, "anchor": anchor, "description": desc}
        for sid, (_, anchor, desc) in sorted(SUITES.items())
    ]


def run_suite(suite_id: str, seed: int = None, tol: float = None, **kwargs):
    import inspect

    if suite_id not in SUITES:
        raise KeyError(suite_id)
    fn, anchor, _ = SUITES[suite_id]
    call = {}
    params = inspect.signature(fn).parameters
    if seed is not None:
        call["seed"] = seed
    if tol is not None:
        call["tol"] = tol
    call.update(kwargs)
    rep = fn(**call)
    rep["suite"], rep["anchor"] = suite_id, anchor
    if "seed" in params:
        rep["seed"] = seed if seed is not None else params["seed"].default
    return rep
