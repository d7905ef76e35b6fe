"""Run the benchmark on two commits in alternating pairs; write the record.

    python3 tools/bench_pairs.py --parent REV [--change HEAD] --out BENCH_n.json

Both commits are exported with ``git archive`` into fresh temporary
directories, so each side runs its committed files only.  For every
workload of ``BENCHMARK.json`` and every seed 0 .. PAIRS-1 it runs, in
each directory,

    python3 bench/run.py --workload W --seed N --seconds S --trace 0

with S the ``run_seconds`` of ``BENCHMARK.json``, parent first on even
seeds and change first on odd ones, so drifts of the host's speed fall
on both sides alike.  The output file records, per workload and
end-to-end metric, the per-pair values, each side's median and quartile
spread (q3 - q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them, the median change and
the number of pairs the change won.  It holds this one run of both
commits only: it is written afresh, and rewritten after every pair.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev, dest):
    """The committed tree of ``rev``, unpacked into the new directory ``dest``."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return dest


def run(tree, workload, seed, seconds):
    """The final JSON line of one untraced benchmark run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else None


def summarize(pairs, better):
    """Per end-to-end metric: the pairs, both sides' medians and spreads,
    the median change and the change's wins."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        entry = {"unit": pairs[0]["parent"]["metrics"][name]["unit"],
                 "better": better[name], "parent": parent, "change": change}
        if len(pairs) >= 2:
            for side, values in (("parent", parent), ("change", change)):
                med, q1, q3, rel = spread(values)
                entry[f"{side}_median"] = med
                entry[f"{side}_quartiles"] = [q1, q3]
                entry[f"{side}_spread"] = rel
            pm = entry["parent_median"]
            entry["median_change"] = entry["change_median"] / pm - 1 if pm else None
        sign = 1 if better[name] == "higher" else -1
        entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        out[name] = entry
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    doc = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", args.change),
        "command": "python3 bench/run.py --workload W --seed N --seconds S --trace 0",
        "seconds": seconds,
        "order": "parent first on even seeds, change first on odd seeds",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "platform": platform.platform(), "python": platform.python_version()},
        "date": datetime.date.today().isoformat(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: export(rev, os.path.join(tmp, side))
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for seed in range(PAIRS):
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                pair = {"seed": seed}
                for side in order:
                    pair[side] = run(trees[side], workload, seed, seconds)
                pairs.append(pair)
                print(workload, seed, {side: round(pair[side]["metrics"]["ops_per_s"]["value"], 3)
                                       for side in ("parent", "change")}, flush=True)
                doc["workloads"][workload] = {
                    "pairs": len(pairs),
                    "correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
                    "failed_ops": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")},
                    "metrics": summarize(pairs, better),
                }
                with open(args.out, "w") as fh:
                    json.dump(doc, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
