"""Output checks for the benchmark workloads, run outside the timed loop.

They feed ``fail_ratio`` (an op that misses its reference is a failed op),
``min_correct_digits`` and ``err_bound_miss_ratio``.  Which outputs are
checked depends on the seed only, never on how far the timed loop got.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as F

import mocktheta as mt

import refs
from workloads import (
    CONTEXTS,
    N_PROBES,
    PROBE_SUITE,
    RANK1_INDICES,
    _rng,
    op_ok,
)

# A checked value counts as missing its reference beyond this mixed error
# |v - ref| / max(1, |ref|), the tolerance most rank-1 suites register.
REF_TOL = 1e-9
DIGITS_CAP = 16.0


def digits(err, ref):
    """Correct digits of a value: -log10(|v - ref| / max(1, |ref|)), capped."""
    rel = err / max(1.0, abs(ref))
    if rel <= 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel))


class Checks:
    """Accumulates reference comparisons for one run."""

    def __init__(self):
        self.ops = 0
        self.failed_ops = 0
        self.min_digits = DIGITS_CAP
        self.sv_checked = 0
        self.sv_miss = 0
        self.probes = 0
        self.probe_failed = 0
        self.notes = []

    def op(self, compares, label):
        """One checked op: compares is a list of (value, ref, err_bound)."""
        bad = False
        for value, ref, bound in compares:
            err = abs(value - ref)
            self.min_digits = min(self.min_digits, digits(err, ref))
            if not err / max(1.0, abs(ref)) <= REF_TOL:
                bad = True
            self.sv_checked += 1
            if not err <= bound:
                self.sv_miss += 1
        self.residual_op(bad, label)

    def residual_op(self, bad, label, residual=None):
        self.ops += 1
        if residual is not None:
            self.min_digits = min(self.min_digits, digits(residual, 0.0))
        if bad:
            self.failed_ops += 1
            self.notes.append(f"reference miss: {label}")

    def to_dict(self):
        return {
            "checked_ops": self.ops,
            "failed_ops": self.failed_ops,
            "min_correct_digits": self.min_digits,
            "sv_checked": self.sv_checked,
            "sv_miss": self.sv_miss,
            "err_bound_miss_ratio": self.sv_miss / self.sv_checked if self.sv_checked else 0.0,
            "probes": self.probes,
            "probe_failed": self.probe_failed,
            "notes": self.notes[:20],
        }


def _check_suites(specs, results, checked, seed, chk):
    for i in checked:
        out = results[i]
        chk.residual_op(not out["pass"], f"suite {specs[i][1]}", out["max_residual"])
    # the registered-seed-only suite, probed at derived seeds
    rng = _rng("probe", seed)
    for _ in range(N_PROBES):
        rep = mt.run_suite(PROBE_SUITE, seed=rng.randrange(2**31))
        chk.probes += 1
        if not rep["pass"]:
            chk.probe_failed += 1
            chk.notes.append(
                f"known defect: {PROBE_SUITE} seed={rep['seed']} "
                f"max_residual={rep['max_residual']:.2e} tol={rep['tol']:.0e}"
            )


def _check_rank1(specs, results, checked, chk):
    for i in checked:
        spec = specs[i]
        ref = refs.rank1_point(spec[1], spec[2], spec[3], RANK1_INDICES)
        chk.op([(sv.value, r, sv.err_bound) for sv, r in zip(results[i], ref)], f"rank1 op {i}")


def _char_reference(spec):
    """The independent reference value of a checkable row, else None."""
    kind = spec[0]
    if kind == "ch" and spec[4] == "denominator_only":
        pt = mt.ModularPoint(spec[6], spec[7], spec[8])
        fn = refs.denominator_sl21 if spec[1] == "sl21" else refs.denominator_osp32
        return fn(mt, pt)
    if kind == "f":
        return refs.f_quotient(mt, spec[1], mt.ModularPoint(spec[2], spec[3], spec[4]))
    if kind == "lmock" and spec[1] in ("sl2", "sl2_k2"):
        _, _, k, _, coords = CONTEXTS[spec[1]]
        return refs.lattice_mock_sl2(mt, k, coords, mt.ModularPoint(spec[2], spec[3], spec[4]))
    if kind == "ltheta" and spec[1] in ("A1", "A1A1"):
        sign = -1 if spec[4] == "parity_of_norm" else 1
        pt = mt.ModularPoint(spec[5], spec[6], spec[7])
        return refs.lattice_theta_a1_sum(mt, spec[2], spec[3], sign, pt)
    return None


def _check_chars(specs, results, checked, chk):
    for i in checked:
        spec, out = specs[i], results[i]
        if spec[0] == "apply":
            # a law residual, not a value error: pass/fail only (op_ok)
            chk.residual_op(False, f"apply {spec[1]} {spec[2]}")
        elif spec[0] == "omega" and spec[1] == (1, 1):
            sides = (
                frozenset(tuple(int(x) for x in w.labels) for w in out if w.side == "T"),
                frozenset(tuple(int(x) for x in w.labels) for w in out if w.side != "T"),
            )
            chk.residual_op(sides != refs.OMEGA_D21A_11, "omega d21a (1,1)")
        else:
            ref = _char_reference(spec)
            if ref is not None:
                chk.op([(out.value, ref, out.err_bound)], f"{spec[0]} {spec[1]}")


def _parse(text):
    """The CLI's complex syntax: a+bi."""
    return complex(text.replace("i", "j"))


def _check_cli(specs, results, checked, repeats, chk):
    for slot, out in repeats:
        first = results[slot]
        if isinstance(out, Exception) or isinstance(first, Exception):
            continue  # counted as failed by the timed loop
        if out["rc"] != 0 or first["rc"] != 0:
            continue
        if out["stdout"] != first["stdout"]:
            chk.residual_op(True, f"cli {specs[slot][1]}: stdout differs from its first run")
    for i in checked:
        label, args = specs[i][1], specs[i][2]
        doc = json.loads(results[i]["stdout"])
        value = complex(doc["value"]["re"], doc["value"]["im"])
        a = dict(arg[2:].split("=", 1) for arg in args if arg.startswith("--"))
        tau, z1, z2 = _parse(a["tau"]), _parse(a["z1"]), _parse(a["z2"])
        th, r, ph, add, tilde = refs.rank1_index(tau, z1, z2, F(a["m"]), F(a["s"]), "unsigned")
        ref = ph if label == "eval_phi" else tilde
        chk.op([(value, ref, doc["err_bound"])], f"cli {label} value")


def check(name, specs, results, checked, seed, repeats=()):
    """Compare a run's outputs against independent references.

    ``results[i]`` is the first pass's output of ``specs[i]`` for every
    index in ``checked`` (cli_cold: for every index); ``repeats`` holds
    (slot, output) of cli_cold's later passes.  Ops
    that raised or failed inline are already counted as failed and are
    not compared again.
    """
    checked = [
        i for i in checked
        if not isinstance(results[i], Exception) and op_ok(specs[i], results[i])
    ]
    chk = Checks()
    if name == "suite_sweep":
        _check_suites(specs, results, checked, seed, chk)
    elif name == "rank1_grid":
        _check_rank1(specs, results, checked, chk)
    elif name == "lattice_char_table":
        _check_chars(specs, results, checked, chk)
    else:
        _check_cli(specs, results, checked, repeats, chk)
    return chk.to_dict()
