import ast
import sys
from pathlib import Path

import pytest

from mocktheta import suites, suites_lattice
from mocktheta.modular import verify_law
from mocktheta.suites import SUITES, _suite_function, list_suites, run_suite

CATALOG_ANCHORS = {row["suite"]: row["anchor"] for row in list_suites()}


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_suite_passes(suite_id, monkeypatch):
    built = []

    def engine(*args, **kwargs):
        built.append(verify_law(*args, **kwargs))
        return built[-1]

    # the engine as the suite's own module binds it
    home = sys.modules[_suite_function(suite_id).__module__]
    monkeypatch.setattr(home, "verify_law", engine)
    rep = run_suite(suite_id)
    assert rep["pass"], (
        f"{suite_id}: max residual {rep['max_residual']:.3e} over tol {rep['tol']:.1e}"
    )
    assert rep["anchor"] == CATALOG_ANCHORS[suite_id]
    assert len(built) == 1 and built[0] is rep


def test_catalog_shape():
    rows = list_suites()
    assert all({"suite", "anchor", "description"} <= set(r) for r in rows)
    ids = [r["suite"] for r in rows]
    assert len(ids) == len(set(ids))


def test_single_product_form_recorded():
    rep = run_suite("eq1.19")
    assert "single_product_residuals" in rep
    # the single-product form fails for both shift labels; the record
    # keeps the evidence
    assert rep["single_product_residuals"]["s=0"] > 1e-3
    assert rep["single_product_residuals"]["s=1"] > 1e-3


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_prop622_evaluates_each_variant_once_per_point(monkeypatch):
    # six checks per point share the three unmoved values: 3 at pt, 3 at
    # S pt and 3 at T pt
    calls = []
    real = suites_lattice.ch_tilde

    def counting(*args, **kwargs):
        calls.append(kwargs["variant"])
        return real(*args, **kwargs)

    # the suite's module binds ch_tilde when it is imported
    monkeypatch.setattr(suites_lattice, "ch_tilde", counting)
    rep = suites_lattice.suite_prop622()
    assert rep["pass"] and rep["n_checks"] == 24
    assert len(calls) == 9 * 4


def test_registry_splits_at_the_lattice_layers():
    """Every registered suite resolves to a function of ``suites`` (the
    rank-1 laws and the naive oracles) or of ``suites_lattice`` (sections
    3-6, the suites that need the lattice layers and above)."""
    homes = {sid: _suite_function(sid).__module__ for sid in SUITES}
    rank1 = {sid for sid, home in homes.items() if home == "mocktheta.suites"}
    assert len(SUITES) == 40 and len(rank1) == 17
    assert set(homes.values()) == {"mocktheta.suites", "mocktheta.suites_lattice"}
    assert all(_suite_function(sid).__name__ == SUITES[sid][0] for sid in SUITES)


@pytest.mark.parametrize("module", [suites, suites_lattice], ids=lambda m: m.__name__)
def test_no_function_imports(module):
    """A suite module imports its layers once, at module level: the layers a
    suite needs are told by the module it lives in, not by its body."""
    tree = ast.parse(Path(module.__file__).read_text())
    sites = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not sites, sites


PACKAGE = Path(suites.__file__).parent


@pytest.mark.parametrize("name", [f"mocktheta.{p.stem}" for p in sorted(PACKAGE.glob("*.py"))])
def test_no_function_takes_a_policy(name):
    """No name in the library mentions a truncation policy, so no function
    takes one: every series truncates at core.ABS_TOL.  Nor does any name
    but ``modular.sample_points``' own argument, which draws the points,
    hold a point count: each suite runs at its registered count."""
    tree = ast.parse((PACKAGE / f"{name.split('.')[1]}.py").read_text())
    fields = ("id", "attr", "arg", "name", "asname")
    names = {
        ident
        for node in ast.walk(tree)
        for ident in (getattr(node, field, None) for field in fields)
        if isinstance(ident, str)
    }
    assert not sorted(ident for ident in names if "policy" in ident.lower())
    if name != "mocktheta.modular":
        assert "n_points" not in names
