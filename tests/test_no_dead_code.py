"""No function or class in the library goes unreferenced.

Every ``def`` or ``class`` in ``src/mocktheta`` (dunders excepted) must
have its name appear as a whole word somewhere else in ``src/``,
``tests/``, ``demos/`` or ``bench/``: in another file, or in its own
file outside its definition line.  Every library error type must be
raised somewhere in ``src/mocktheta``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mocktheta"
SEARCHED = ("src", "tests", "demos", "bench")


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path, node.lineno, node.name


def test_every_definition_is_referenced():
    texts = {}
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*"):
            if path.suffix == ".py" and path != Path(__file__).resolve():
                texts[path] = path.read_text().splitlines()
    unreferenced = []
    for path, lineno, name in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        used = any(
            word.search(line)
            for other, lines in texts.items()
            for i, line in enumerate(lines, 1)
            if not (other == path and i == lineno)
        )
        if not used:
            unreferenced.append(f"{path.name}:{lineno} {name}")
    assert not unreferenced, unreferenced


def _raised_names():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    yield exc.id


def test_every_error_is_raised():
    """Every ``MockThetaError`` subclass is raised by some ``raise`` in the
    library: an exception type nothing raises cannot be caught."""
    from mocktheta import errors

    subclasses = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.MockThetaError)
        and obj is not errors.MockThetaError
    }
    never_raised = sorted(subclasses - set(_raised_names()))
    assert not never_raised, never_raised
