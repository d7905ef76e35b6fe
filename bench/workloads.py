"""Seeded inputs and ops of the four benchmark workloads.

Every workload is a closed loop: one process, one thread, one op at a
time, pass after pass over the same slots.  ``make_inputs(name, seed,
pass_no=p)`` turns the workload seed into pass p's list of plain-data op
specs; ``run_op`` evaluates one spec through the public
``mocktheta`` API; ``op_ok`` is the inline failure test and
``checked_indices`` picks the outputs that checks.py compares against
independent references.  The library only ever sees the generated inputs.

Input domain, fixed before any evaluation: Im tau >= 0.06 (the policy
floor is 0.05), |Re z| <= 0.45, |Im z| <= 0.08, and the suites' 0.05 pole
margin: no coordinate, pairwise sum or difference within 0.05 of zero and
z1 at least 0.05 away from Z + Z tau.  Points are never filtered by how
their evaluation turns out.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import mocktheta as mt

WORKLOADS = ("suite_sweep", "rank1_grid", "lattice_char_table", "cli_cold")

# prop3.7 passes at its registered seed (residual 8.1e-9 against 1e-8) but
# misses its tolerance at most other seeds (residuals 1e-7 .. 7e-4, all on
# the 2 tau beta elliptic shift).  The sweep keeps that suite on its
# registered seed so the timed loop has no failing op; checks.py probes it
# at N_PROBES derived seeds outside the loop and reports the share that fail.
PROBE_SUITE = "prop3.7"
N_PROBES = 3

# rank1_grid: unsigned m = 1, 2, 3 and signed m = 1/2, 3/2 (m, s, sign).
RANK1_INDICES = (
    (1, 0, "unsigned"),
    (2, 1, "unsigned"),
    (3, 0, "unsigned"),
    (F(1, 2), 0, "plus"),
    (F(1, 2), F(1, 2), "minus"),
    (F(3, 2), F(1, 2), "plus"),
    (F(3, 2), 0, "minus"),
)
LOW_BAND = (0.06, 0.15)
MODERATE_BAND = (0.8, 2.0)
# The known err_bound defect: phi(m=3) here has error 4e-10 against a
# reported err_bound of 1.3e-130.  It is always op 0 and always checked.
ROADMAP_CASE = (1j, 0.3 + 0.9j, 0.2 + 0.8j)
# One pass: 8 tau per band, 8 z pairs sharing each tau (129 ops, ~0.4 s).
RANK1_TAUS_PER_BAND = 8
RANK1_Z_PER_TAU = 8

# One pass: one table of 6 points (234 rows, ~0.5 s).
CHAR_POINTS = 6

GRAMS = {
    "A1": ((2.0,),),
    "A2": ((2.0, -1.0), (-1.0, 2.0)),
    "A3": ((2.0, -1.0, 0.0), (-1.0, 2.0, -1.0), (0.0, -1.0, 2.0)),
    "A1A1": ((2.0, 0.0), (0.0, 2.0)),
}
LATTICE_THETA_ROWS = (
    ("A1", (0.5,), 1, "trivial"),
    ("A1", (0.5,), 2, "parity_of_norm"),
    ("A2", (0.5, 0.0), 1, "trivial"),
    ("A2", (0.5, 0.0), 1, "parity_of_norm"),
    ("A3", (0.5, 0.0, 0.5), 1, "trivial"),
    ("A3", (0.5, 0.0, 0.5), 2, "parity_of_norm"),
    ("A1A1", (0.5, 0.0), 1, "trivial"),
    ("A1A1", (0.5, 0.0), 2, "parity_of_norm"),
)
CONTEXTS = {
    "sl2": (((2,),), 1, 1, "unsigned", (0, -1)),
    "sl2_k2": (((2,),), 1, 2, "unsigned", (0, -1)),
    "sl3": (((2, -1), (-1, 2)), 1, 1, "unsigned", (0, 0, -1)),
    "odd": (((2,),), 1, F(3, 2), "minus", (0, 1)),
}
CH_ROWS = (
    ("sl21", (1, (0,)), "ch_minus_modified", None),
    ("sl21", (2, (1,)), "ch_minus_modified", None),
    ("sl21", (1, (0,)), "ch_plus_modified", None),
    ("sl21", (1, (0,)), "tw_minus_modified", None),
    ("sl21", (1, (0,)), "tw_plus_modified", None),
    ("sl21", (1, (0,)), "denominator_only", None),
    ("osp32", (1, (0,)), "ch_minus_modified", None),
    ("osp32", (1, (1,)), "ch_minus_modified", None),
    ("osp32", (1, (0,)), "denominator_only", None),
    ("osp42", (1, (F(1, 2), F(1, 2))), "ch_minus_modified", None),
    ("osp42", (1, (1, 0)), "ch_minus_modified", None),
    ("d21a", (F(-1, 2), (0, 1)), "ch_minus_modified", (1, 1)),
    ("d21a", (F(-1, 2), (0, 0)), "ch_minus_modified", (1, 1)),
    ("d21a", (F(-2, 3), (0, 1)), "ch_minus_modified", (1, 2)),
)
LEVEL1_ROWS = ((3, 2, "sum01"), (3, 2, "twisted"), (4, 2, "diff_top"), (2, 2, "diff01"))
APPLY_ROWS = (
    ("sl21", 1, None, 2),
    ("osp32_sub", F(-3, 4), None, 2),
    ("osp42", 1, None, 3),
    ("d21a", F(-1, 2), (1, 1), 3),
    ("osp_level1", 1, (3, 2), 2),
)
OMEGA_ROWS = (((1, 1), F(-1, 2)), ((1, 2), F(-2, 3)))

# Outputs of the first pass compared against references (checks.py),
# chosen from the seed alone: every suite_sweep op, op 0 plus a
# band-balanced sample of rank1_grid, every lattice_char_table row and the
# two eval commands of cli_cold.
RANK1_CHECKED = 10
# f_function's error against its closed form is set by Im tau alone, and a
# pass has only 6 Im tau: the lattice checks add the first passes of 5
# derived seeds, run after the timed loop, so the worst of 36 points is
# taken as before.
CHECK_EXTRA_TABLES = 5
CLI_CHECKED = ("eval_phi", "eval_phi_tilde")
# Apply-check tolerances as the suites register them; a residual above
# its tolerance is a failed op.
APPLY_TOL = {
    "sl21": 1e-7,
    "osp32_sub": 1e-7,
    "osp42": 1e-7,
    "d21a": 1e-7,
    "osp_level1": 1e-9,
}


# ---------------------------------------------------------------------------
# input generation


def _rng(name, seed):
    return random.Random(f"{name}/{seed}")


def _bit_reversed(n):
    """0..n-1 (n a power of two) in van der Corput order, so that every
    prefix of a stratified sweep covers its range evenly."""
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]


def _stratified(rng, n, lo, hi):
    return [lo + (hi - lo) * (i + rng.random()) / n for i in _bit_reversed(n)]


def lattice_distance(z, tau):
    """Distance from z to the nearest point of Z + Z tau."""
    n0 = round(z.imag / tau.imag)
    best = math.inf
    for n in (n0 - 1, n0, n0 + 1):
        w = z - n * tau
        for k in (math.floor(w.real), math.ceil(w.real)):
            best = min(best, abs(w - k))
    return best


def _clear(zs, tau):
    """The suites' 0.05 margin, extended to every pair, plus z1's pole."""
    for i, a in enumerate(zs):
        if abs(a) < 0.05:
            return False
        for b in zs[i + 1:]:
            if abs(a + b) < 0.05 or abs(a - b) < 0.05:
                return False
    return lattice_distance(zs[0], tau) >= 0.05


def _zs(rng, tau, n):
    while True:
        zs = tuple(
            complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.08, 0.08))
            for _ in range(n)
        )
        if _clear(zs, tau):
            return zs


def _suite_inputs(fixed, fresh, size):
    order = sorted(mt.SUITES)
    fixed.shuffle(order)
    return [
        ("suite", sid, None if sid == PROBE_SUITE else fresh.randrange(2**31))
        for sid in order
    ]


def _rank1_inputs(fixed, fresh, size):
    n_tau = max(1, int(RANK1_TAUS_PER_BAND * size))
    n_z = max(2, int(RANK1_Z_PER_TAU * size))
    strata = 1 << max(0, (n_tau - 1).bit_length())
    low = _stratified(fixed, strata, *LOW_BAND)[:n_tau]
    mod = _stratified(fixed, strata, *MODERATE_BAND)[:n_tau]
    specs = [("rank1",) + ROADMAP_CASE]
    for y_low, y_mod in zip(low, mod):
        for y in (y_low, y_mod):
            tau = complex(fresh.uniform(-0.5, 0.5), y)
            for _ in range(n_z):
                specs.append(("rank1", tau) + _zs(fresh, tau, 2))
    return specs


def _char_inputs(fixed, fresh, size):
    n_points = max(1, int(CHAR_POINTS * size))
    strata = 1 << max(0, (n_points - 1).bit_length())
    ims = _stratified(fixed, strata, *MODERATE_BAND)[:n_points]
    rows = []
    for y in ims:
        tau = complex(fresh.uniform(-0.4, 0.4), y)
        zs = _zs(fresh, tau, 3)
        t = round(fresh.uniform(0.0, 0.1), 6)
        for case, (k, labels), variant, params in CH_ROWS:
            nz = 3 if case in ("osp42", "d21a") else 2
            rows.append(("ch", case, k, labels, variant, params, tau, zs[:nz], t))
        for i in (1, 2, 3, 4):
            rows.append(("f", i, tau, zs[:2], t))
        for M, N, combo in LEVEL1_ROWS:
            rows.append(("level1", M, N, combo, tau, zs[: M // 2 + N // 2], t))
        for gram, lam, k, sign in LATTICE_THETA_ROWS:
            rank = len(GRAMS[gram])
            rows.append(("ltheta", gram, lam, k, sign, tau, zs[:rank], t))
        for ctx in CONTEXTS:
            nz = len(CONTEXTS[ctx][4])
            rows.append(("lmock", ctx, tau, zs[:nz], t))
        for ctx in ("sl2", "sl3", "odd"):
            nz = len(CONTEXTS[ctx][4])
            rows.append(("emod", ctx, tau, zs[:nz], t))
    # once per pass, on the first point
    first = rows[0]
    tau, zs, t = first[6], _zs(fresh, first[6], 3), first[8]
    for case, k, params, nz in APPLY_ROWS:
        for which in ("S", "T"):
            rows.append(("apply", which, case, k, params, tau, zs[:nz], t))
    for params, k in OMEGA_ROWS:
        rows.append(("omega", params, k))
    # the same row kinds in the same (seeded) order on every pass
    order = list(range(len(rows)))
    fixed.shuffle(order)
    return [rows[i] for i in order]


def _fmt(z):
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _cli_inputs(fixed, fresh, size):
    # every pass repeats the same commands, so stdout can be compared
    tau = complex(fixed.uniform(-0.4, 0.4), fixed.uniform(*MODERATE_BAND))
    z1, z2 = _zs(fixed, tau, 2)
    # "--opt=value": a leading minus sign would read as an option
    point = [f"--tau={_fmt(tau)}", f"--z1={_fmt(z1)}", f"--z2={_fmt(z2)}"]
    cycle = [
        ("eval_phi", ["eval", "phi", "--m=1", "--s=0"] + point),
        ("eval_phi_tilde", ["eval", "phi-tilde", "--m=2", "--s=1"] + point),
        ("smatrix", ["smatrix", "--case", "d21a", "--output", "csv"]),
        ("table_omega", ["table", "omega", "--case", "d21a", "--k=-1/2"]),
        ("chartable", ["chartable", "--case", "sl21", "--k", "1", "--points", "2",
                       "--seed", str(fixed.randrange(2**31))]),
        ("verify", ["verify", "theta-quasi", "--seed", str(fixed.randrange(2**31))]),
    ]
    return [("cli", label, tuple(args)) for label, args in cycle]


def make_inputs(name, seed, size=1.0, pass_no=0):
    """The op specs of one pass of a workload.

    Every pass has the same slots: what sets an op's cost (the suite, the
    row kind, Im tau) comes from the seed alone, while the rest (Re tau,
    z, t, suite seeds) is drawn afresh for each pass, so a later pass
    does not repeat an earlier pass's inputs (cli_cold excepted, whose
    stdout must repeat byte for byte).  The same (seed, pass) gives the
    same list.
    """
    fixed = _rng(name, seed)
    fresh = _rng(f"{name}/pass{pass_no}", seed)
    gen = {
        "suite_sweep": _suite_inputs,
        "rank1_grid": _rank1_inputs,
        "lattice_char_table": _char_inputs,
        "cli_cold": _cli_inputs,
    }[name]
    return gen(fixed, fresh, size)


# ---------------------------------------------------------------------------
# ops


def _rank1(tau, z1, z2):
    out = [mt.eta(tau)]
    u = z1 + z2
    v = (z1 - z2) / 2
    for m, s, sign in RANK1_INDICES:
        idx = mt.MockIndex(m, s, sign)
        if sign == "unsigned":
            th = mt.theta_jm(s, m, tau, u)
            r = mt.r_jm(s, m, tau, v)
        else:
            sg = -1 if sign == "minus" else 1
            th = mt.theta_jm_signed(sg, s, m, tau, u)
            r = mt.r_jm_signed(sg, s, m, tau, v)
        out += [
            th,
            r,
            mt.phi(idx, tau, z1, z2),
            mt.phi_add(idx, tau, z1, z2),
            mt.phi_tilde(idx, tau, z1, z2),
        ]
    return out


def _context(name):
    gram, n_iso, k, mode, coords = CONTEXTS[name]
    return mt.LatticeContext(gram, n_iso, k, mode), mt.Weight(k, coords)


def _ch(case, k, labels, variant, params, tau, zs, t):
    pt = mt.ModularPoint(tau, zs, t)
    return mt.ch_tilde(case, mt.WeightSpec(k, labels), pt, variant=variant, params=params)


def _f(i, tau, zs, t):
    return mt.system("osp32_sub").f_function(i, F(-3, 4), mt.ModularPoint(tau, zs, t))


def _level1(M, N, combo, tau, zs, t):
    return mt.level1_osp_supercharacter(M, N, combo)(mt.ModularPoint(tau, zs, t))


def _ltheta(gram, lam, k, sign, tau, zs, t):
    lat = mt.LatticeData(gram=GRAMS[gram])
    eps = mt.SignCharacter(sign, F(1, 2) if sign == "parity_of_norm" else F(0))
    return mt.lattice_theta(lam, k, lat, eps, mt.ModularPoint(tau, zs, t))


def _lmock(ctx, tau, zs, t):
    c, w = _context(ctx)
    return mt.lattice_mock_theta(c, w, mt.ModularPoint(tau, zs, t))


def _emod(ctx, tau, zs, t):
    c, w = _context(ctx)
    res = mt.build_modification(c, w)
    return mt.eval_modified(res, mt.ModularPoint(tau, zs, t), xi_shift=c.mode != "unsigned")


def _apply(which, case, k, params, tau, zs, t):
    pts = [mt.ModularPoint(tau, zs, t)]
    fn = mt.apply_smatrix_check if which == "S" else mt.apply_tmatrix_check
    return fn(case, k, pts, params)


def _omega(params, k):
    return mt.enumerate_omega(mt.preset("d21a", params), k)


def _suite(sid, seed):
    return mt.run_suite(sid, seed=seed)


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Runs ``python -m mocktheta`` children one at a time."""

    def __init__(self, root, importtime=False):
        self.root = root
        self.env = cli_env(root)
        self.importtime = importtime

    def __call__(self, label, args):
        cmd = [sys.executable]
        if self.importtime:
            cmd += ["-X", "importtime"]
        cmd += ["-m", "mocktheta", *args]
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, timeout=120
        )
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


RUNNERS = {
    "suite": _suite,
    "rank1": _rank1,
    "ch": _ch,
    "f": _f,
    "level1": _level1,
    "ltheta": _ltheta,
    "lmock": _lmock,
    "emod": _emod,
    "apply": _apply,
    "omega": _omega,
}


def run_op(spec, cli=None):
    if spec[0] == "cli":
        return cli(spec[1], spec[2])
    return RUNNERS[spec[0]](*spec[1:])


def op_label(spec):
    """Short label of an op, e.g. the suite id for suite_sweep."""
    if spec[0] in ("suite", "cli"):
        return spec[1]
    return spec[0]


def _finite_sv(sv):
    return cmath.isfinite(sv.value) and math.isfinite(sv.err_bound)


def op_ok(spec, out):
    """Inline failure test: non-finite values, a failing suite, a non-zero exit."""
    kind = spec[0]
    if kind == "suite":
        return bool(out["pass"]) and math.isfinite(out["max_residual"])
    if kind == "rank1":
        return all(_finite_sv(sv) for sv in out)
    if kind == "apply":
        return out["max_residual"] < APPLY_TOL[spec[2]]
    if kind == "omega":
        return len(out) > 0
    if kind == "cli":
        return out["rc"] == 0
    return _finite_sv(out)


def canon(spec, out):
    """An exact, comparable rendering of an op's output."""
    kind = spec[0]
    if kind == "rank1":
        return tuple((sv.value, sv.err_bound, sv.terms_used) for sv in out)
    if kind in ("suite", "apply"):
        return json.dumps(out, sort_keys=True, default=repr)
    if kind == "omega":
        return tuple((w.side, w.labels, w.k) for w in out)
    if kind == "cli":
        return out["rc"], out["stdout"]
    return out.value, out.err_bound, out.terms_used


def extra_checked(name, seed):
    """Ops run after the timed loop only to be checked (their outputs are
    checked in full)."""
    if name != "lattice_char_table":
        return []
    return [
        spec
        for j in range(1, CHECK_EXTRA_TABLES + 1)
        for spec in make_inputs(name, f"{seed}/check{j}")
    ]


def _rank1_sample(specs, seed, n_checked):
    """Op 0 (the ROADMAP case) plus a seeded, band-balanced subsample."""
    rng = _rng("rank1-check", seed)
    pool = range(1, len(specs))
    low = [i for i in pool if specs[i][1].imag < 0.5]
    mod = [i for i in pool if specs[i][1].imag >= 0.5]
    n_low = min((n_checked - 1) // 2, len(low))
    n_mod = min(n_checked - 1 - n_low, len(mod))
    return [0] + sorted(rng.sample(low, n_low) + rng.sample(mod, n_mod))


def checked_indices(name, specs, seed, n_checked=RANK1_CHECKED):
    """The ops whose outputs are compared against references.

    They are ops of the first pass, which every run completes; the set
    depends on the seed only, so a faster program is not checked on more
    (or fewer) outputs.
    """
    if name == "rank1_grid":
        return _rank1_sample(specs, seed, n_checked)
    if name in ("suite_sweep", "lattice_char_table"):
        return list(range(len(specs)))
    return [i for i, spec in enumerate(specs) if spec[1] in CLI_CHECKED][: len(CLI_CHECKED)]
