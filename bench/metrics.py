"""Metric names and units, and the arithmetic that turns spans and op
times into metrics."""

from __future__ import annotations

# (name, unit, better, bound) as recorded in BENCHMARK.json.  The timing
# bounds are the largest allowed: on a shared 2-core host the same code
# runs up to 25% slower for seconds at a time.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("min_correct_digits", "digits", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
# Printed with every run but not gated.  fail_ratio and
# err_bound_miss_ratio are 0 on a healthy run, where a bound on a share of
# the parent's value means nothing; latency_tail_ms did not repeat within
# a tenth between runs (it follows host hiccups).
DIAGNOSTIC = (
    ("latency_tail_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("err_bound_miss_ratio", "ratio"),
)

SUITE_IDS = (
    "cor1.2", "cor1.4a", "d21a-omega", "denom-osp32", "denom-sl21", "eq0.13",
    "eq1.19", "eq1.20", "eq3.5", "eq4.4", "eq5.6", "eq6.20", "eq6.21", "eq6.6",
    "lem2.10", "lem2.2", "lem2.3", "lem2.4", "lem6.19", "oracles",
    "osp-level1-S", "osp-level1-T", "osp32-sub-f", "prop3.2b", "prop3.3b",
    "prop3.3c", "prop3.7", "prop3.8", "prop6.22", "psi-pin", "sl21-modular",
    "theta-S", "theta-quasi", "thm1.1a", "thm1.1b", "thm1.3a", "thm1.3b",
    "thm1.3c", "thm1.3d", "thm6.14",
)

_UNITS = {
    "calls": "calls/op",
    "self_us": "us",
    "terms_per_call": "terms",
    "repeat_ratio": "ratio",
}

_STATS3 = ("calls", "self_us", "terms_per_call")
_STATS2 = ("calls", "self_us")
# (span name, stats) in the order BENCHMARK.json lists them
LAYER_FUNCTIONS = (
    ("core.sum_ladder", _STATS3),
    ("core.gauss_E_complement_scaled", ("calls",)),
    ("core.gauss_E_complement", ("calls",)),
    ("theta.eta", _STATS3),
    ("theta.theta_ab", _STATS3),
    ("theta.theta_jm", _STATS3),
    ("theta.theta_jm_signed", _STATS3),
    ("theta.lattice_theta", _STATS3),
    ("theta.enumerate_ellipsoid", _STATS2),
    ("mock.phi", _STATS3),
    ("mock.phi_shift_residual_a", _STATS2),
    ("mock.phi_elliptic_residual", _STATS2),
    ("modifier.r_jm", _STATS3),
    ("modifier.r_jm_signed", _STATS3),
    ("modifier.phi_add", _STATS3),
    ("modifier.phi_tilde", _STATS3),
    ("modular.sample_points", _STATS2),
    ("modular.verify_law", _STATS2),
    ("lattice.validate_context", _STATS2),
    ("lattice.lattice_mock_theta", _STATS3),
    ("lattice.build_modification", _STATS2 + ("repeat_ratio",)),
    ("lattice.eval_modified", _STATS3),
    ("lattice.mu_class_representatives", _STATS2 + ("repeat_ratio",)),
    ("superalg.preset", _STATS2 + ("repeat_ratio",)),
    ("superalg.enumerate_omega", _STATS2),
    ("superalg.integrable", _STATS2),
    ("characters.ch_tilde", _STATS2),
    ("characters.denominator", _STATS2 + ("repeat_ratio",)),
    ("characters.numerator", _STATS2),
    ("characters.psi_fn", _STATS2),
    ("smatrix.smatrix", _STATS2),
    ("smatrix.apply_smatrix_check", _STATS2),
    ("smatrix.apply_tmatrix_check", _STATS2),
)
CLI_LAYER = ("cli.import_s", "cli.import_scipy_s", "cli.run_s")
EXTRA_LAYER = (
    ("trace.overhead_ratio", "ratio"),
    ("check.err_bound_miss_ratio", "ratio"),
    ("check.prop3.7_seed_fail_ratio", "ratio"),
)


def per_layer():
    """[(name, unit)] of every per-layer metric, in a fixed order."""
    out = []
    for fn, stats in LAYER_FUNCTIONS:
        out.extend((f"{fn}.{s}", _UNITS[s]) for s in stats)
        if fn == "core.sum_ladder":
            out.append(("core.ns_per_term", "ns"))
    out.extend((f"suites.{sid}.s", "s") for sid in SUITE_IDS)
    out.extend((name, "s") for name in CLI_LAYER)
    out.extend(EXTRA_LAYER)
    return out


def layer_values(summary, n_ops):
    """Per-layer values from a Tracer summary over ``n_ops`` traced ops."""
    values = {}
    for fn, stats in LAYER_FUNCTIONS:
        s = summary.get(fn, {})
        calls = s.get("calls", 0)
        for stat in stats:
            if stat == "calls":
                v = calls / n_ops if n_ops else 0.0
            elif stat == "self_us":
                v = s["self_ns"] / calls / 1e3 if calls else 0.0
            elif stat == "terms_per_call":
                v = s["terms"] / s["term_calls"] if s.get("term_calls") else 0.0
            else:
                v = s["repeats"] / calls if calls else 0.0
            values[f"{fn}.{stat}"] = v
    ladder = summary.get("core.sum_ladder", {})
    values["core.ns_per_term"] = (
        ladder["self_ns"] / ladder["terms"] if ladder.get("terms") else 0.0
    )
    return values


def tail(samples):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 11
    samples it falls back to the maximum, with 0 samples beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10
