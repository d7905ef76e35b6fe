"""One workload run in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

Set-up (import mocktheta, generate the inputs, one warm-up op; for
cli_cold a bare import) is timed from the first line of this file.  The
untraced run then loops pass after pass over the same slots for S
seconds, checks a seeded subsample of the first pass's outputs, and
prints one JSON line.  ``ops_per_s`` and ``latency_p50_ms`` come from each
slot's fastest op, as timeit takes the fastest of its repeats: a shared
host slows some passes by up to a quarter, and the fastest of many
passes does not see that.  With --trace 1 it loops untraced for S/2
seconds, replays the first pass with the span wrappers installed,
requires the two result lists to be bitwise equal, and reports the
per-layer numbers and the tracing overhead instead.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402

_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def timed_loop(passes, results, cli, seconds=None, limit=None, tracer=None, keep=None,
               repeats=None):
    """Run ops one at a time, pass after pass, from op 0, until ``seconds``
    pass and the first pass is done, or until ``limit`` ops are done.

    ``passes(p)`` gives pass p's specs; every pass has the same slots.
    Outputs of the first pass are stored in ``results`` for the indices in
    ``keep`` (all when None), so memory does not grow with the op count;
    ``repeats``, when given, collects (slot, output) of the later passes.
    Returns (durations, fastest time of each slot, failed, elapsed, notes).
    """
    clock = time.perf_counter
    specs = passes(0)
    n = len(specs)
    fastest = [math.inf] * n
    durations = []
    failed = 0
    notes = []
    i = 0
    start = clock()
    deadline = start + seconds if seconds is not None else None
    while (i < n or clock() < deadline) if limit is None else (i < limit):
        slot = i % n
        if i and not slot:
            specs = passes(i // n)
        spec = specs[slot]
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            out = workloads.run_op(spec, cli)
        except Exception as exc:  # a raising op is a failed op; keep going
            out = exc
        d = clock() - t0
        durations.append(d)
        fastest[slot] = min(fastest[slot], d)
        if isinstance(out, Exception) or not workloads.op_ok(spec, out):
            failed += 1
            if len(notes) < 20:
                notes.append(f"op {i} {workloads.op_label(spec)} failed: {out!r}"[:300])
        if i < n and (keep is None or i in keep):
            results[i] = out
        elif i >= n and repeats is not None:
            repeats.append((slot, out))
        i += 1
    return durations, fastest, failed, clock() - start, notes


def evaluate(specs):
    """Outputs of ops run outside the timed loop, and how many failed."""
    outs, failed = [], 0
    for spec in specs:
        try:
            out = workloads.run_op(spec)
        except Exception as exc:  # a raising op is a failed op
            out = exc
        outs.append(out)
        if isinstance(out, Exception) or not workloads.op_ok(spec, out):
            failed += 1
    return outs, failed


def importtimes(stderr):
    """(mocktheta cumulative, scipy self total) in seconds from -X importtime."""
    total = scipy = 0.0
    for line in stderr.decode(errors="replace").splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "mocktheta":
            total = cum_us / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us / 1e6
    return total, scipy


def traced_replay(name, seed, specs, results, fastest):
    """Replay the first pass of the untraced loop with tracing on.

    Returns (per-layer values, ops run, ops failed, notes, outputs that
    differ from the untraced run); a differing output is a failed op.
    """
    n_ops = len(specs)
    traced = [None] * n_ops
    layer = dict.fromkeys((n for n, _ in metrics.per_layer()), 0.0)
    if name == "cli_cold":
        tcli = workloads.CliRunner(ROOT, importtime=True)
        t_dur, _, t_failed, t_elapsed, notes = timed_loop(
            lambda p: specs, traced, tcli, limit=n_ops
        )
        imports = [importtimes(r["stderr"]) for r in traced if isinstance(r, dict)]
        layer["cli.import_s"] = sum(t for t, _ in imports) / len(imports)
        layer["cli.import_scipy_s"] = sum(s for _, s in imports) / len(imports)
        layer["cli.run_s"] = sum(t_dur) / len(t_dur) - layer["cli.import_s"]
    else:
        from tracing import Tracer

        tracer = Tracer()
        with tracer:
            t_dur, _, t_failed, t_elapsed, notes = timed_loop(
                lambda p: specs, traced, None, limit=n_ops, tracer=tracer
            )
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_out", f"spans-{name}-{seed}.npz"))
        layer.update(metrics.layer_values(tracer.summary(), n_ops))
    if name == "suite_sweep":
        for spec, d in zip(specs, fastest):
            if f"suites.{spec[1]}.s" in layer:
                layer[f"suites.{spec[1]}.s"] = d
    layer["trace.overhead_ratio"] = t_elapsed / sum(fastest)
    mismatched = [
        i for i in range(n_ops)
        if workloads.canon(specs[i], results[i]) != workloads.canon(specs[i], traced[i])
    ]
    notes += [f"op {i}: traced result differs" for i in mismatched[:10]]
    return layer, len(t_dur), t_failed + len(mismatched), notes, len(mismatched)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--size", type=float, default=1.0, help="input list scale")
    args = ap.parse_args(argv)
    name = args.workload

    specs = workloads.make_inputs(name, args.seed, args.size)
    if name != "cli_cold":
        workloads.run_op(specs[-1])  # warm-up
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def passes(p):
        return specs if p == 0 else workloads.make_inputs(name, args.seed, args.size, p)

    cli = workloads.CliRunner(ROOT) if name == "cli_cold" else None
    checked = workloads.checked_indices(name, specs, args.seed)
    # the traced replay compares every output of the first pass, cli_cold
    # every stdout
    keep = None if args.trace or cli else set(checked)
    results = [None] * len(specs)
    repeats = [] if cli else None  # cli_cold compares stdouts across passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    durations, fastest, failed, elapsed, notes = timed_loop(
        passes, results, cli, seconds=seconds, keep=keep, repeats=repeats
    )
    usage = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024  # KiB on Linux
    attempted = len(durations)

    doc = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    if args.trace:
        layer, t_attempted, t_failed, t_notes, mismatched = traced_replay(
            name, args.seed, specs, results, fastest
        )
        attempted += t_attempted
        failed += t_failed
        notes += t_notes
        doc.update(per_layer=layer, traced_ops=t_attempted, trace_mismatches=mismatched)

    import checks  # mpmath loads only after the timed part

    extra = workloads.extra_checked(name, args.seed)
    extra_results, bad = evaluate(extra)
    attempted += len(extra)
    failed += bad
    checked += range(len(specs), len(specs) + len(extra))
    chk = checks.check(name, specs + extra, results + extra_results, checked, args.seed, repeats)
    failed += chk["failed_ops"]
    if args.trace:
        doc["per_layer"]["check.err_bound_miss_ratio"] = chk["err_bound_miss_ratio"]
        if chk["probes"]:
            doc["per_layer"]["check.prop3.7_seed_fail_ratio"] = chk["probe_failed"] / chk["probes"]

    value, pct, beyond = metrics.tail(durations)
    doc.update(
        ops=len(durations),
        slots=len(specs),
        elapsed_s=elapsed,
        ops_per_s=len(specs) / sum(fastest),
        latency_p50_ms=statistics.median(fastest) * 1e3,
        latency_tail_ms=value * 1e3,
        tail_percentile=pct,
        tail_beyond=beyond,
        attempted=attempted,
        failed=failed,
        checks=chk,
        notes=notes + chk["notes"],
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
