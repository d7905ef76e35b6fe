"""Repeat the benchmark on several seeds and record medians and spreads.

    python3 bench/steadiness.py [--runs 10] [--workloads a,b]

For every workload it runs ``bench/run.py`` for the run_seconds of
BENCHMARK.json once per seed (1..runs) with --trace 0, and once with
--trace 1 on seed 1, then writes
``bench/baseline.json``: per end-to-end metric the median, the quartile
spread (q3 - q1) / median as ``statistics.quantiles(values, n=4)`` gives
the quartiles, and whether that spread stays under a third of the
metric's bound in BENCHMARK.json; the sample counts and tail percentiles
of every run; the per-layer numbers of the traced run; and the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    seconds = bench["run_seconds"]
    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    doc = {"seconds": seconds, "runs": args.runs, "host": host, "workloads": {}}
    for workload in args.workloads.split(","):
        values, runs = {}, []
        for seed in range(1, args.runs + 1):
            t0 = time.time()
            report, result = run(workload, seed, seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            runs.append({
                "seed": seed,
                "wall_s": round(time.time() - t0, 1),
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "report": report,
            })
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        summary = {}
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            summary[name] = {
                "median": med,
                "spread": spread,
                "steady": spread < bounds[name] / 3,
                "values": vs,
            }
            print(f"  {workload} {name}: median {med:.6g} spread {spread:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        _, traced = run(workload, 1, seconds, 1)
        doc["workloads"][workload] = {
            "why": why.get(workload, ""),
            "end_to_end": summary,
            "runs": runs,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
