"""No function or class in the library goes unreferenced.

Every ``def`` or ``class`` in ``src/mocktheta`` (dunders excepted) must
have its name appear as a whole word somewhere else in ``src/``,
``tests/``, ``demos/`` or ``bench/``: in another file, or in its own
file outside its definition line.  Every library error type must be
raised somewhere in ``src/mocktheta``, and every public name must be read
by the library or by the programs around it.
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


def _home_line(module, name):
    """The line of ``module.py`` that defines ``name`` at its top level."""
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if getattr(node, "name", None) == name or name in targets:
            return PACKAGE / f"{module}.py", node.lineno
    raise AssertionError(f"{module}.py defines no {name}")


def test_every_public_name_is_read_outside_the_tests():
    """Every name of ``mocktheta._PUBLIC`` appears as a whole word in
    ``src`` (outside ``__init__.py`` and its own definition line), or in
    ``bench``, ``tools`` or ``demos``: a public name only its tests read is
    dead code with a pinned spelling."""
    import mocktheta

    init = PACKAGE / "__init__.py"
    lines = [
        (path, i, line)
        for top in ("src", "bench", "tools", "demos")
        for path in (ROOT / top).rglob("*.py")
        if path != init
        for i, line in enumerate(path.read_text().splitlines(), 1)
    ]
    unread = []
    for module, names in mocktheta._PUBLIC.items():
        for name in names:
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = _home_line(module, name)
            if not any(word.search(line) for path, i, line in lines if (path, i) != own):
                unread.append(name)
    assert not unread, unread
