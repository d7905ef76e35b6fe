"""Every demo script runs to completion and prints something, with numpy
unimportable: the demos need only the library."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
