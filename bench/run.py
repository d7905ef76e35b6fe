"""The mocktheta benchmark: one seeded workload, its metrics and its checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: suite_sweep, rank1_grid, lattice_char_table, cli_cold (see
workloads.py and BENCHMARK.json for why each exists).  Each is a closed
loop: one process, one thread, one op at a time.

With --trace 0 this measures set-up in several fresh interpreters, runs
the workload for S seconds in another fresh interpreter, pass after pass
over the same slots, checks its outputs against independent references,
prints every metric with its unit, and ends with one JSON line holding
the end-to-end metrics.  With
--trace 1 the JSON line holds the per-layer metrics of a traced replay.
Run it from the repository root; it reads and writes nothing outside it
(spans of traced runs go to .bench_out/).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("suite_sweep", "rank1_grid", "lattice_char_table", "cli_cold")
SETUP_SAMPLES = 7  # the workload process's own set-up is one of them
CHILD_TIMEOUT = 150


def _worker(args):
    """Run worker.py in a fresh interpreter; return its JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _line(name, value, unit, note=""):
    print(f"  {name:22s} {value:14.6g} {unit:8s} {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mocktheta", "__init__.py")):
        print(f"error: no mocktheta sources under {ROOT}/src", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # set-up samples before and after the run, so that they span it
    before = after = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
    setups = [_worker(common + ["--setup-only"])["setup_s"] for _ in range(before)]
    run = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    setups.append(run["setup_s"])
    setups += [_worker(common + ["--setup-only"])["setup_s"] for _ in range(after)]
    chk = run["checks"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  (closed loop: 1 process, 1 thread, 1 op at a time)")
    if args.trace:
        print("  end-to-end figures below come from the untraced first half")
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": run["ops_per_s"],
        "latency_p50_ms": run["latency_p50_ms"],
        "min_correct_digits": chk["min_correct_digits"],
        "peak_rss_mb": run["peak_rss_mb"],
        "latency_tail_ms": run["latency_tail_ms"],
        "fail_ratio": run["failed"] / run["attempted"],
        "err_bound_miss_ratio": chk["err_bound_miss_ratio"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "ops_per_s": f"{run['slots']} slots at their fastest; {run['ops']} ops "
                     f"({run['ops'] / run['slots']:.1f} passes) in {run['elapsed_s']:.2f} s",
        "latency_p50_ms": f"median over {run['slots']} slots of each one's fastest op",
        "latency_tail_ms": f"p{run['tail_percentile']:.2f}, {run['tail_beyond']} of "
                           f"{run['ops']} samples beyond",
        "min_correct_digits": f"over {chk['checked_ops']} checked ops",
        "peak_rss_mb": "max over CLI children" if args.workload == "cli_cold" else "workload process",
        "fail_ratio": f"{run['failed']} of {run['attempted']} ops failed",
        "err_bound_miss_ratio": f"{chk['sv_miss']} of {chk['sv_checked']} checked SeriesValues",
    }
    for name, unit, _, _ in metrics.END_TO_END:
        _line(name, values[name], unit, notes[name])
    for name, unit in metrics.DIAGNOSTIC:
        _line(name, values[name], unit, notes[name] + " (diagnostic, not gated)")
    print(f"  checks: {chk['checked_ops']} ops compared with references, "
          f"{chk['failed_ops']} missed")
    if chk["probes"]:
        print(f"  known defect probe: prop3.7 failed at {chk['probe_failed']} of "
              f"{chk['probes']} derived seeds (registered seed passes)")
    for note in run["notes"]:
        print(f"  note: {note}")

    if args.trace:
        print(f"  traced replay of {run['traced_ops']} ops, "
              f"{run['trace_mismatches']} results differing from the untraced run")
        out = {name: {"value": run["per_layer"][name], "unit": unit}
               for name, unit in metrics.per_layer()}
        for name, m in out.items():
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    else:
        out = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in metrics.END_TO_END}
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
