"""Cold-start cost of CLI commands on two commits, child by child.

    python3 tools/cold_start.py --a REV --b REV [--runs N]

Both commits are exported with ``git archive``, as ``tools/bench_pairs.py``
does.  Each command of ``COMMANDS`` (the benchmark's cli_cold commands,
the ``smatrix`` level-rule cases and the ``chartable`` of every wired
case) runs N times per side as ``python3 -m mocktheta ...`` with that
tree's ``src`` first on the path and ``PYTHONDONTWRITEBYTECODE=1``, so
every child compiles from source; the sides alternate run by run, A first
and B first in turn.  Per command and side it prints the fastest wall
time, the largest ru_maxrss of the children and whether the command
imports numpy, read from one further run under ``-X importtime``.

This is a development aid: it writes nothing under ``bench/`` and backs
no claim, which comes from ``tools/bench_pairs.py`` alone.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from bench_pairs import export, git  # noqa: E402

POINT = ["--tau=0.1+1.1i", "--z1=0.3+0.05i", "--z2=0.2-0.03i"]
COMMANDS = (
    ("eval phi", ["eval", "phi", "--m=1", "--s=0"] + POINT),
    ("eval phi-tilde", ["eval", "phi-tilde", "--m=2", "--s=1"] + POINT),
    ("smatrix d21a", ["smatrix", "--case", "d21a", "--output", "csv"]),
    ("table omega", ["table", "omega", "--case", "d21a", "--k=-1/2"]),
    ("verify theta-quasi", ["verify", "theta-quasi"]),
    ("smatrix osp42", ["smatrix", "--case", "osp42", "--k", "1"]),
    ("smatrix sl21", ["smatrix", "--case", "sl21", "--k", "1"]),
    ("chartable sl21", ["chartable", "--case", "sl21", "--k", "1", "--points", "2"]),
    ("chartable sl21 ch_minus",
     ["chartable", "--case", "sl21", "--k", "1", "--points", "2", "--variant", "ch_minus"]),
    ("chartable osp32", ["chartable", "--case", "osp32", "--k", "1", "--points", "2"]),
    ("chartable osp42",
     ["chartable", "--case", "osp42", "--k", "1", "--labels", "1/2,1/2", "--points", "2"]),
    ("chartable d21a",
     ["chartable", "--case", "d21a", "--k=-1/2", "--labels", "0,1", "--points", "2"]),
)


def _env(tree):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.join(tree, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run(tree, args):
    """(wall seconds, ru_maxrss in MB) of one child."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mocktheta", *args], cwd=tree, env=_env(tree),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: mocktheta {' '.join(args)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024  # KiB on Linux


def loads_numpy(tree, args) -> bool:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "mocktheta", *args],
                          cwd=tree, env=_env(tree), capture_output=True, text=True)
    return any(line.rsplit("|", 1)[-1].strip() == "numpy" for line in proc.stderr.splitlines())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True)
    ap.add_argument("--b", required=True)
    ap.add_argument("--runs", type=int, default=7)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    revs = (git("rev-parse", "--short", args.a), git("rev-parse", "--short", args.b))
    print(f"A {revs[0]}, B {revs[1]}: fastest of {args.runs} runs, largest ru_maxrss")
    print(f"  {'command':<24}  {'A ms':>7}  {'B ms':>7}  {'A MB':>6}  {'B MB':>6}  numpy A/B")
    with tempfile.TemporaryDirectory() as tmp:
        trees = [export(rev, os.path.join(tmp, tag)) for tag, rev in zip("ab", revs)]
        for label, cmd in COMMANDS:
            walls, rss = [[], []], [[], []]
            for r in range(args.runs):
                for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                    wall, mb = run(trees[k], cmd)
                    walls[k].append(wall)
                    rss[k].append(mb)
            numpy = "/".join("yes" if loads_numpy(tree, cmd) else "no" for tree in trees)
            print(f"  {label:<24}  {min(walls[0]) * 1e3:7.1f}  {min(walls[1]) * 1e3:7.1f}  "
                  f"{max(rss[0]):6.1f}  {max(rss[1]):6.1f}  {numpy}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
