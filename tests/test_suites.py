import pytest

from mocktheta import suites
from mocktheta.modular import verify_law
from mocktheta.suites import SUITES, list_suites, run_suite

CATALOG_ANCHORS = {row["suite"]: row["anchor"] for row in list_suites()}


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_suite_passes(suite_id, monkeypatch):
    built = []

    def engine(*args, **kwargs):
        built.append(verify_law(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(suites, "verify_law", engine)
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
    from mocktheta import characters

    calls = []
    real = characters.ch_tilde

    def counting(*args, **kwargs):
        calls.append(kwargs["variant"])
        return real(*args, **kwargs)

    # the suite imports ch_tilde from its module when it runs
    monkeypatch.setattr(characters, "ch_tilde", counting)
    rep = suites.suite_prop622(n_points=2)
    assert rep["pass"] and rep["n_checks"] == 12
    assert len(calls) == 9 * 2
