"""Named verification suites.

Each suite pins one transformation law or closed-form identity, evaluates
both sides independently at seeded sample points, and reports the maximum
residual against its registered tolerance through ``modular.verify_law``.
``SUITES`` holds each suite's function name, paper anchor and description;
:func:`run_suite` stamps the id and anchor on the report.  The CLI
``verify`` command and the acceptance tests both dispatch through
:func:`run_suite`, so there is a single source of truth for every check.

This module holds the rank-1 suites and loads only the rank-1 layers, so
``list-suites`` and ``verify`` of a rank-1 suite load no numpy.  The
suites of sections 3-6 and the oracle suite live in ``suites_lattice``,
which is imported the first time one of them runs.
"""

from __future__ import annotations

import cmath
import inspect
import math
from fractions import Fraction
from functools import cache
from importlib import import_module

from .core import gauss_E_complement, gauss_E_complement_scaled
from .mock import MockIndex, phi, phi_elliptic_residual, phi_shift_residual_a
from .modifier import phi_tilde, r_jm_signed
from .modular import LAWS, _stream, check_pair, verify_law
from .theta import theta_ab, theta_jm, theta_jm_signed

F = Fraction
PI = math.pi


def _law_checks(checks, f, family, point):
    """(check, value) at (tau, z1, z2): value(idx) is f there, once per index;
    check(label, move, idx, *args) checks f[idx] at the moved point against its law."""
    tau, z1, z2 = point
    value = cache(lambda idx: f(idx, tau, z1, z2).value)

    def check(label, move, idx, *args):
        w = tau if move == "tau" else 1
        moved = {"S": (-1 / tau, z1 / tau, z2 / tau), "T": (tau + 1, z1, z2)}.get(move)
        lhs = f(idx, *(moved or (tau, z1 + args[0] * w, z2 + args[1] * w))).value
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


def suite_thm11a(seed=11, tol=1e-8, m=None):
    checks = []
    degrees = (1, 2) if m is None else (int(m),)
    for tau, z1, z2 in _points(seed, 10):
        check, value = _law_checks(checks, phi_tilde, "phi~", (tau, z1, z2))
        lhs_at = cache(lambda idx: phi_tilde(idx, -1 / tau, z1 / tau, z2 / tau).value)
        for m in degrees:
            for s, s1 in ((0, 0), (0, 1), (1, 0)):
                idx = MockIndex(m, s)
                lhs = lhs_at(idx)
                # Phi~ is 1-periodic in s (cor1.2): s1 is the target's representative
                law = LAWS["phi~", "S"](idx, tau, (z1, z2))
                rhs = law.apply(lambda t: value(t.with_s(s1)))
                checks.append(check_pair(f"S m={m} s={s} s1={s1}", lhs, rhs, tau))
            check(f"T m={m}", "T", MockIndex(m, 0))
    return verify_law(tol, checks)


def suite_thm11b(seed=12, tol=1e-8):
    checks = []
    for pt in _points(seed, 10):
        check, _ = _law_checks(checks, phi_tilde, "phi~", pt)
        for m in (1, 2):
            idx = MockIndex(m, 0)
            for a, b in ((0, 1), (1, 0), (1, 1), (-1, 1), (0, -1)):
                check(f"tau-shift m={m} a={a} b={b}", "tau", idx, a, b)
                check(f"int-shift m={m} a={a} b={b}", "int", idx, a, b)
    return verify_law(tol, checks)


def suite_cor12(seed=13, tol=1e-9):
    checks = []
    for tau, z1, z2 in _points(seed, 10):
        for m in (1, 2):
            a = phi_tilde(MockIndex(m, 0), tau, z1, z2).value
            b = phi_tilde(MockIndex(m, 1), tau, z1, z2).value
            checks.append(check_pair(f"s-independence m={m}", a, b, tau))
    return verify_law(tol, checks)


def suite_thm13a(seed=14, tol=1e-8):
    checks = []
    for tau, z1, z2 in _points(seed, 10):
        check, _ = _law_checks(checks, phi_tilde, "phi~", (tau, z1, z2))
        for m in (F(1, 2), F(1)):
            for sgn, s in (("plus", 0), ("minus", 0), ("plus", F(1, 2)), ("minus", F(1, 2))):
                idx = MockIndex(m, s, sgn)
                ((_, to),) = LAWS["phi~", "S"](idx, tau, (z1, z2)).terms
                check(f"S m={m} {sgn}[{s}] -> {to.sign}[{to.s}]", "S", idx)
    return verify_law(tol, checks)


def suite_thm13b(seed=15, tol=1e-9):
    checks = []
    for pt in _points(seed, 10):
        check, _ = _law_checks(checks, phi_tilde, "phi~", pt)
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


def suite_thm13c(seed=16, tol=1e-8):
    checks = []
    for pt in _points(seed, 8):
        check, _ = _law_checks(checks, phi_tilde, "phi~", pt)
        for m in (F(1, 2), F(1)):
            shifts = ((1, 1), (1, -1), (2, 0)) if m == F(1, 2) else ((1, 0), (1, 1), (0, 1))
            for s in (F(0), F(1, 2)):
                for sgn in ("plus", "minus"):
                    idx = MockIndex(m, s, sgn)
                    for a, b in shifts:
                        check(f"tau m={m} s={s} {sgn} (a,b)=({a},{b})", "tau", idx, a, b)
                    check(f"int m={m} s={s} {sgn}", "int", idx, 1, 1)
    return verify_law(tol, checks)


def suite_thm13d(seed=17, tol=1e-8):
    checks = []
    for pt in _points(seed, 8):
        check, _ = _law_checks(checks, phi_tilde, "phi~", pt)
        for s in (F(0), F(1, 2)):
            for sgn in ("plus", "minus"):
                idx = MockIndex(F(1, 2), s, sgn)
                for a, b in ((1, 0), (0, 1), (1, 2)):
                    check(f"tau s={s} {sgn} (a,b)=({a},{b})", "tau", idx, a, b)
                check(f"int s={s} {sgn}", "int", idx, 1, 0)
    return verify_law(tol, checks)


def suite_cor14a(seed=18, tol=1e-9):
    checks = []
    for tau, z1, z2 in _points(seed, 10):
        for sgn in ("plus", "minus"):
            a = phi_tilde(MockIndex(F(1, 2), F(1, 2), sgn), tau, z1, z2).value
            b = phi_tilde(MockIndex(F(1, 2), F(3, 2), sgn), tau, z1, z2).value
            checks.append(check_pair(f"{sgn} s=1/2 vs 3/2", a, b, tau))
    return verify_law(tol, checks)


# ---------------------------------------------------------------------------
# section 2 lemmas


def suite_lem22(seed=21, tol=1e-9):
    checks = []
    for tau, z1, z2 in _points(seed, 5):
        check, value = _law_checks(checks, phi, "phi", (tau, z1, z2))
        for m, s, sgn in ((F(1), F(0), "unsigned"), (F(1, 2), F(1, 2), "minus"),
                          (F(1), F(1, 2), "plus")):
            idx = MockIndex(m, s, sgn)
            # the n -> -n reindexing forces an overall minus sign
            lhs = phi(idx, tau, -z1, -z2).value
            rhs = -value(idx.with_s(1 - s))
            checks.append(check_pair(f"(a) m={m} s={s} {sgn}", lhs, rhs, tau))
            for a, b in ((2, 0), (1, 1), (-1, 1)):
                check(f"(b) m={m} {sgn} (a,b)=({a},{b})", "int", idx, a, b)
        # (c)(i): integer m, any parities
        check("(c)(i)", "int", MockIndex(1, 1), 1, 0)
        # (c)(ii): non-integer m, opposite parity swaps the sign label
        check("(c)(ii)", "int", MockIndex(F(1, 2), F(1, 2), "minus"), 1, 0)
    return verify_law(tol, checks)


def suite_lem23(seed=22, tol=1e-9):
    checks = []
    for tau, z1, z2 in _points(seed, 5, im=(0.8, 1.4)):
        for m, s, sgn in ((F(1), F(0), "unsigned"), (F(1, 2), F(1, 2), "minus")):
            idx = MockIndex(m, s, sgn)
            res = phi_shift_residual_a(idx, tau, z1, z2).value
            checks.append(check_pair(f"(a) m={m} {sgn}", res, 0.0, tau))
            # (b): z1 -> z1 - 2 tau mirror
            law = LAWS["phi", "window"](idx, tau, (z1, z2), -2, 0)
            moved = phi(idx, tau, z1 - 2 * tau, z2).value
            lhs = phi(idx, tau, z1, z2).value - law.prefactor * moved
            rhs = sum(p * theta_jm_signed(*t, tau, z1 + z2).value for p, t in law.terms)
            checks.append(check_pair(f"(b) m={m} {sgn}", lhs, rhs, tau))
    return verify_law(tol, checks)


def suite_lem24(seed=23, tol=1e-9):
    checks = []
    for tau, z1, z2 in _points(seed, 5, im=(0.8, 1.4)):
        check, _ = _law_checks(checks, phi, "phi", (tau, z1, z2))
        for m, s, sgn, j in (
            (F(1), F(0), "unsigned", 1),
            (F(1), F(0), "unsigned", -1),
            (F(1, 2), F(1, 2), "minus", 1),
            (F(1, 2), F(1, 2), "minus", 2),
        ):
            idx = MockIndex(m, s, sgn)
            lhs = check(f"m={m} {sgn} j={j}", "tau", idx, j, j)
            res = phi_elliptic_residual(idx, j, tau, z1, z2).value
            scale = max(1.0, abs(lhs))
            checks.append(
                {"check": f"residual-op m={m} {sgn} j={j}",
                 "residual": abs(res) / scale, "lhs": str(res), "rhs": "0",
                 "point": str(tau)}
            )
    return verify_law(tol, checks)


def suite_lem210(seed=24, tol=1e-9):
    checks = []
    for tau, z1, _ in _points(seed, 5, im=(0.9, 1.6)):
        v = z1
        for sgn, j, m in ((1, 0, F(1)), (1, 1, F(1)), (-1, F(1, 2), F(1, 2)), (-1, 1, F(3, 2))):
            rj = lambda t_, v_: r_jm_signed(sgn, j, m, t_, v_).value
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


def _zw_mu(tau, u, v):
    """Zwegers' mu function, an independent reference implementation."""
    q = cmath.exp(2j * PI * tau)
    tot = 0j
    # symmetric window large enough for the tolerances in use
    for n in range(-42, 43):
        tot += (
            (-1) ** n
            * q ** (n * (n + 1) / 2)
            * cmath.exp(2j * PI * n * v)
            / (1 - cmath.exp(2j * PI * u) * q**n)
        )
    th = theta_ab(1, 1, tau, v).value
    return cmath.exp(1j * PI * u) / th * tot


def _zw_R(tau, u):
    """Zwegers' real-analytic R, quadrature-free reference form."""
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


def suite_eq120(seed=25, tol=1e-9):
    """The completed bridge to Zwegers' mu-hat, plus mu-hat symmetry."""
    checks = []
    idx = MockIndex(F(1, 2), F(1, 2), "minus")
    for tau, z1, z2 in _points(seed, 10):
        muh = _zw_mu(tau, z1, z2) + 0.5j * _zw_R(tau, z1 - z2)
        lhs = phi_tilde(idx, tau, z1, 2 * z2 - z1).value
        rhs = theta_ab(1, 1, tau, z2).value * muh
        checks.append(check_pair("completed bridge", lhs, rhs, tau))
        sym_l = theta_ab(1, 1, tau, z1).value * phi_tilde(idx, tau, z1, 2 * z2 - z1).value
        sym_r = theta_ab(1, 1, tau, z2).value * phi_tilde(idx, tau, z2, 2 * z1 - z2).value
        checks.append(check_pair("mu-hat symmetry", sym_l, sym_r, tau))
    notes = (
        "a same-modulus single-product pairing of the two functions fails "
        "an elliptic-multiplier bookkeeping check and is recorded "
        "(non-gating) by the eq1.19 suite; this suite verifies the bridge "
        "through an independent mu/R implementation instead"
    )
    return verify_law(tol, checks, notes)


def suite_eq119(seed=26, tol=1e-9):
    """Recording suite: the unmodified bridge plus the single-product
    variant, whose residuals are kept as evidence rather than gated."""
    checks = []
    idx = MockIndex(F(1, 2), F(1, 2), "minus")
    variant = {0: [], 1: []}
    for tau, z1, z2 in _points(seed, 4):
        mu = _zw_mu(tau, z1, z2)
        lhs = phi(idx, tau, z1, 2 * z2 - z1).value
        rhs = theta_ab(1, 1, tau, z2).value * mu
        checks.append(check_pair("unmodified bridge (gauge)", lhs, rhs, tau))
        for s in (0, 1):
            pl = theta_ab(1, 1, tau, z1 + z2).value * lhs
            pr = theta_ab(1, 1, tau, z2).value * phi(MockIndex(1, s), tau, z1, z2).value
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
# classical building blocks


def suite_theta_S(seed=61, tol=1e-9):
    checks = []
    for tau, z, _ in _points(seed, 6):
        value = cache(lambda idx: theta_jm(*idx, tau, z).value)
        for j, m in ((0, 1), (1, 1), (1, 2), (3, 2)):
            lhs = theta_jm(j, m, -1 / tau, z / tau).value
            rhs = LAWS["theta", "S"]((j, m), tau, (z,)).apply(value)
            checks.append(check_pair(f"S j={j} m={m}", lhs, rhs, tau))
    return verify_law(tol, checks)


def suite_theta_quasi(seed=62, tol=1e-11):
    checks = []
    for tau, z, _ in _points(seed, 10):
        value = cache(lambda idx: theta_jm(*idx, tau, z).value)
        for j, m in ((0, 1), (1, 2)):
            for label, move, zs in (("z+2", "int", z + 2), ("z+2tau", "tau", z + 2 * tau)):
                lhs = theta_jm(j, m, tau, zs).value
                rhs = LAWS["theta", move]((j, m), tau, (z,), 1).apply(value)
                checks.append(check_pair(f"{label} j={j} m={m}", lhs, rhs, tau))
    return verify_law(tol, checks)


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "thm1.1a": ("suite_thm11a", "thm1.1a", "S/T laws of the modified rank-1 functions"),
    "thm1.1b": ("suite_thm11b", "thm1.1b", "elliptic laws of the modified rank-1 functions"),
    "cor1.2": ("suite_cor12", "cor1.2", "shift-label independence, unsigned"),
    "thm1.3a": ("suite_thm13a", "thm1.3a", "signed S-law pairings"),
    "thm1.3b": ("suite_thm13b", "thm1.3b", "signed T-laws"),
    "thm1.3c": ("suite_thm13c", "thm1.3c", "signed elliptic laws, same parity"),
    "thm1.3d": ("suite_thm13d", "thm1.3d", "signed elliptic laws, opposite parity"),
    "cor1.4a": ("suite_cor14a", "cor1.4a", "shift-label independence, signed"),
    "lem2.2": ("suite_lem22", "lem2.2", "argument negation and integer shifts"),
    "lem2.3": ("suite_lem23", "lem2.3", "2tau-shift window identities"),
    "lem2.4": ("suite_lem24", "lem2.4", "diagonal elliptic shifts"),
    "lem2.10": ("suite_lem210", "lem2.10", "correction-term shift identities"),
    "eq1.19": ("suite_eq119", "eq1.19", "unmodified mu bridge (recording)"),
    "eq1.20": ("suite_eq120", "eq1.20", "completed mu bridge"),
    "eq3.5": ("suite_eq35", "eq3.5", "one-step lattice factorization"),
    "prop3.2b": ("suite_prop32b", "prop3.2b", "even-lattice modular laws"),
    "prop3.3b": ("suite_prop33b", "prop3.3b", "signed modular laws"),
    "prop3.3c": ("suite_prop33c", "prop3.3c", "signed T-laws at lattice level"),
    "prop3.7": ("suite_prop37", "prop3.7", "signed elliptic laws at lattice level"),
    "prop3.8": ("suite_prop38", "prop3.8", "even elliptic laws at lattice level"),
    "eq5.6": ("suite_eq56", "eq5.6", "superdenominator S/T law"),
    "denom-sl21": ("suite_denom_sl21", "eq0.13-denominator", "sl(2|1) superdenominator closed form"),
    "denom-osp32": ("suite_denom_osp32", "rem6.21-denominator", "osp(3|2) superdenominator closed form"),
    "eq0.13": ("suite_eq013", "eq0.13", "sl(2|1) numerator closed form"),
    "sl21-modular": ("suite_sl21_modular", "cor1.2/eq0.13", "sl(2|1) modified supercharacter invariance"),
    "psi-pin": ("suite_psi_pin", "rem6.21-psi", "numerator/denominator convention pin"),
    "eq4.4": ("suite_eq44", "eq4.4", "character from supercharacter by half-shift"),
    "thm6.14": ("suite_thm614", "thm6.14", "D(2,1;a) S-matrix"),
    "d21a-omega": ("suite_d21a_omega", "cor6.5-6.7", "D(2,1;a) weight enumeration"),
    "osp32-sub-f": ("suite_osp32_sub_f", "rem6.21-f", "subprincipal spanning functions"),
    "eq6.20": ("suite_eq620", "eq6.20", "subprincipal S relations"),
    "eq6.21": ("suite_eq621", "eq6.21", "subprincipal T relations"),
    "lem6.19": ("suite_lem619", "lem6.19", "modulus-doubling identity"),
    "osp-level1-S": ("suite_level1_S", "sec6.5-S", "level-1 S relations"),
    "osp-level1-T": ("suite_level1_T", "sec6.5-T", "level-1 T eigenvalues"),
    "prop6.22": ("suite_prop622", "prop6.22", "twisted-variant S/T relations"),
    "eq6.6": ("suite_eq66", "eq6.6", "osp(4|2) S-matrix"),
    "theta-S": ("suite_theta_S", "theta-S-law", "rank-1 theta S-law"),
    "theta-quasi": ("suite_theta_quasi", "theta-quasiperiods", "rank-1 theta quasi-periodicity"),
    "oracles": ("suite_oracles", "naive-summation", "naive-summation oracle agreement"),
}


def list_suites():
    """Catalog of suite ids with anchors and descriptions."""
    return [
        {"suite": sid, "anchor": anchor, "description": desc}
        for sid, (_, anchor, desc) in sorted(SUITES.items())
    ]


def _suite_function(suite_id):
    """The function of a registered suite: from this module, or from
    ``suites_lattice``, imported the first time one of its suites is asked for."""
    name = SUITES[suite_id][0]
    if name in globals():
        return globals()[name]
    return getattr(import_module(".suites_lattice", __package__), name)


def run_suite(suite_id: str, seed: int = None, tol: float = None, **kwargs):
    fn = _suite_function(suite_id)
    anchor = SUITES[suite_id][1]
    params = inspect.signature(fn).parameters
    if seed is not None and "seed" in params:  # a suite without one draws no points
        kwargs["seed"] = seed
    if tol is not None:
        kwargs["tol"] = tol
    rep = fn(**kwargs)
    rep["suite"], rep["anchor"] = suite_id, anchor
    if "seed" in params:
        rep["seed"] = seed if seed is not None else params["seed"].default
    return rep
