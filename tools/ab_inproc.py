"""Time one workload's ops on two commits, side by side in one interpreter.

    python3 tools/ab_inproc.py --a REV --b REV --workload W [--seed N] [--passes N]

Both commits are exported with ``git archive``, as ``tools/bench_pairs.py``
does.  Each tree's ``src/mocktheta`` is imported under its own package
name, and each side's ops are built by executing that tree's
``bench/workloads.py`` with its package bound as ``mocktheta``.  Pass
after pass, every slot runs on both sides back to back, A first and B
first in turn from slot to slot and, for each slot, from pass to pass, so
drifts of the host's speed fall on both sides alike.  It prints each
side's ops/s from its fastest time per slot, as ``bench/worker.py``
computes ``ops_per_s``, and the ratio B / A.  Then, per op kind, it
prints both sides' fastest times summed over the kind's slots and their
ratio B / A (below 1: B is faster).  The kind is the spec's first field,
with the suite id added for ``suite`` and the case, Gram or context for
``ch``, ``apply``, ``ltheta``, ``lmock`` and ``emod``.

Separate benchmark processes of one tree can differ by tens of percent on
a shared host; two sides in one process see the same host.  A run with
``--a`` and ``--b`` at the same commit should read a ratio near 1.000.
This is a development aid: it writes nothing under ``bench/`` and supports
no claim, which comes from ``tools/bench_pairs.py`` alone.  Only the
in-process workloads are offered; cli_cold times child processes.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from bench_pairs import export, git  # noqa: E402

WORKLOADS = ("suite_sweep", "rank1_grid", "lattice_char_table")
# the spec field that names the suite, case, Gram or context of an op kind
CASE_FIELD = {"suite": 1, "ch": 1, "apply": 2, "ltheta": 1, "lmock": 1, "emod": 1}


def op_kind(spec):
    """An op's kind: its first field, plus its suite, case, Gram or context."""
    field = CASE_FIELD.get(spec[0])
    return spec[0] if field is None else f"{spec[0]} {spec[field]}"


def load_side(tree, tag):
    """The tree's ``bench/workloads.py`` as a module whose ``mocktheta`` is
    the tree's own package, imported as ``mocktheta_<tag>``."""
    src = os.path.join(tree, "src", "mocktheta")
    name = f"mocktheta_{tag}"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)

    path = os.path.join(tree, "bench", "workloads.py")
    workloads = types.ModuleType(f"workloads_{tag}")
    saved = sys.modules.get("mocktheta")
    sys.modules["mocktheta"] = package
    try:
        with open(path) as fh:
            exec(compile(fh.read(), path, "exec"), workloads.__dict__)
    finally:
        if saved is None:
            del sys.modules["mocktheta"]
        else:
            sys.modules["mocktheta"] = saved
    return workloads


def race(sides, workload, seed, passes):
    """Each side's fastest time per slot over ``passes`` passes."""
    clock = time.perf_counter
    n = len(sides[0].make_inputs(workload, seed))
    fastest = [[math.inf] * n for _ in sides]
    for side in sides:  # warm-up, as bench/worker.py does
        side.run_op(side.make_inputs(workload, seed)[-1])
    for p in range(passes):
        specs = [side.make_inputs(workload, seed, pass_no=p) for side in sides]
        for slot in range(n):
            order = (0, 1) if (p + slot) % 2 == 0 else (1, 0)
            for k in order:
                t0 = clock()
                sides[k].run_op(specs[k][slot])
                fastest[k][slot] = min(fastest[k][slot], clock() - t0)
    return fastest


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True)
    ap.add_argument("--b", required=True)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=10)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    revs = (git("rev-parse", "--short", args.a), git("rev-parse", "--short", args.b))
    with tempfile.TemporaryDirectory() as tmp:
        sides = [load_side(export(rev, os.path.join(tmp, tag)), tag)
                 for tag, rev in zip("ab", revs)]
        fastest = race(sides, args.workload, args.seed, args.passes)
    rates = [len(times) / sum(times) for times in fastest]
    print(f"{args.workload} seed {args.seed}: {args.passes} passes of "
          f"{len(fastest[0])} slots, each side's fastest op per slot")
    for tag, rev, rate in zip("AB", revs, rates):
        print(f"  {tag} {rev}  {rate:10.2f} ops/s")
    print(f"  B / A  {rates[1] / rates[0]:.3f}")
    kinds = {}
    for slot, spec in enumerate(sides[0].make_inputs(args.workload, args.seed)):
        totals = kinds.setdefault(op_kind(spec), [0.0, 0.0])
        for k in (0, 1):
            totals[k] += fastest[k][slot]
    width = max(len(kind) for kind in kinds)
    print(f"  {'op kind':<{width}}  {'A ms':>9}  {'B ms':>9}  B / A")
    for kind, (a, b) in sorted(kinds.items()):
        print(f"  {kind:<{width}}  {a * 1e3:9.3f}  {b * 1e3:9.3f}  {b / a:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
