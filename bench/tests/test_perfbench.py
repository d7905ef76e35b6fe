"""Tests of the benchmark harness itself, on reduced input sizes."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import mocktheta as mt  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

IN_PROCESS = ("suite_sweep", "rank1_grid", "lattice_char_table")
SMALL = 0.0125


def _sample(name, specs):
    """A few ops of every kind the workload has."""
    picked = {}
    for spec in specs:
        picked.setdefault((spec[0], spec[1] if spec[0] in ("ch", "apply") else None), spec)
    out = list(picked.values())
    return out[:12] if name == "suite_sweep" else out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.make_inputs(name, 7, SMALL) == workloads.make_inputs(name, 7, SMALL)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_inputs(name):
    assert workloads.make_inputs(name, 7, SMALL) != workloads.make_inputs(name, 8, SMALL)


def _slot(spec):
    """What sets an op's cost: its kind and Im tau (suites: the suite id)."""
    if spec[0] in ("suite", "cli"):
        return spec[:2]
    taus = [x for x in spec if isinstance(x, complex)]
    fixed = [x for x in spec if not isinstance(x, (complex, float, tuple))]
    return tuple(fixed) + tuple(t.imag for t in taus[:1])


@pytest.mark.parametrize("name", IN_PROCESS)
def test_later_pass_same_slots_fresh_inputs(name):
    first = workloads.make_inputs(name, 7, SMALL)
    later = workloads.make_inputs(name, 7, SMALL, pass_no=3)
    assert [_slot(s) for s in later] == [_slot(s) for s in first]
    assert later != first
    assert workloads.make_inputs(name, 7, SMALL, pass_no=3) == later


def test_inputs_stay_in_domain():
    for spec in workloads.make_inputs("rank1_grid", 3, 0.1):
        _, tau, z1, z2 = spec
        assert tau.imag >= 0.06
        assert workloads.lattice_distance(z1, tau) >= 0.05 or spec == ("rank1",) + workloads.ROADMAP_CASE
    for spec in workloads.make_inputs("lattice_char_table", 3, SMALL):
        taus = [x for x in spec if isinstance(x, complex)]
        assert all(t.imag >= 0.8 for t in taus)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_same_seed_same_checked_values(name):
    specs = workloads.make_inputs(name, 11, SMALL)
    idx = workloads.checked_indices(name, specs, 11, n_checked=3)[:40]

    def once():
        results = [None] * len(specs)
        for i in idx:
            results[i] = workloads.run_op(specs[i])
        outputs = [workloads.canon(specs[i], results[i]) for i in idx]
        return outputs, checks.check(name, specs, results, idx, 11)

    first = once()
    assert first[1]["checked_ops"] >= 1 and first[1]["failed_ops"] == 0
    assert once() == first


@pytest.mark.parametrize("name", IN_PROCESS)
def test_traced_results_bitwise_equal(name):
    specs = _sample(name, workloads.make_inputs(name, 5, SMALL))
    plain = [workloads.canon(s, workloads.run_op(s)) for s in specs]
    original = mt.phi
    with Tracer() as tracer:
        assert mt.phi is not original
        traced = [workloads.canon(s, workloads.run_op(s)) for s in specs]
    assert mt.phi is original
    assert traced == plain
    assert tracer.summary()


def test_predicted_zeros_on_rank1_grid():
    specs = workloads.make_inputs("rank1_grid", 5, SMALL)[:3]
    with Tracer() as tracer:
        for spec in specs:
            workloads.run_op(spec)
    values = metrics.layer_values(tracer.summary(), len(specs))
    assert values["theta.lattice_theta.calls"] == 0
    assert values["mock.phi.calls"] > 0
    for name, v in values.items():
        if name.split(".")[0] in ("lattice", "characters", "smatrix", "superalg"):
            assert v == 0, name


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    pattern = re.compile(r"^[A-Za-z0-9_.-]+$")
    emitted_e2e = [n for n, _, _, _ in metrics.END_TO_END]
    emitted_layer = [n for n, _ in metrics.per_layer()]
    for name in emitted_e2e + emitted_layer:
        assert pattern.match(name) and len(name) <= 64, name
    assert [m["name"] for m in doc["end_to_end"]] == emitted_e2e
    assert [m["name"] for m in doc["per_layer"]] == emitted_layer
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reduced_run_completes(name):
    doc = _worker("--workload", name, "--seed", "2", "--seconds", "1", "--size", str(SMALL))
    assert doc["ops"] >= 1 and doc["failed"] == 0
    assert doc["checks"]["checked_ops"] >= 1
    assert doc["setup_s"] > 0 and doc["peak_rss_mb"] > 0


def test_reduced_traced_run_reports_every_layer_metric():
    doc = _worker("--workload", "lattice_char_table", "--seed", "2", "--seconds", "1",
                  "--size", str(SMALL), "--trace", "1")
    assert doc["trace_mismatches"] == 0 and doc["failed"] == 0
    assert set(doc["per_layer"]) == {n for n, _ in metrics.per_layer()}
    assert doc["per_layer"]["theta.lattice_theta.calls"] > 0
    assert doc["per_layer"]["trace.overhead_ratio"] > 0


def test_refuses_without_sources():
    """A directory with only BENCHMARK.json and bench/ has nothing to measure."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "rank1_grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
