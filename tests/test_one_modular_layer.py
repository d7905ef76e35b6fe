"""One S/T point action, one quotient rule and one law table in the library.

``modular.act`` is the only code that builds the point (-1/tau, z/tau,
t - (z|z)/2tau) or (tau+1, z, t), ``SeriesValue.__truediv__`` the only
code that divides one series value by another, and ``modular.LAWS`` the
only code that builds the factor of a law it holds.  This walks the AST of
``src/mocktheta`` and fails on a hand-written copy of any of them:

- a ``ModularPoint(...)`` call outside ``modular.py`` whose tau argument
  is ``-1 / x`` or ``x + 1``;
- a ``SeriesValue(...)`` call outside ``core.py`` whose value argument
  divides by, or divides, a ``.value``;
- a ``cmath`` call or ``cexp`` in a suite whose law is in the table, or
  in either residual helper of ``mock``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mocktheta"


def _argument(call, position, name):
    if len(call.args) > position:
        return call.args[position]
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def _is_constant(node, value):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_constant(node.operand, -value)
    return isinstance(node, ast.Constant) and node.value == value


def _reads_value(node):
    return any(
        isinstance(n, ast.Attribute) and n.attr == "value" for n in ast.walk(node)
    )


def _hand_action(tau):
    if isinstance(tau, ast.BinOp) and isinstance(tau.op, ast.Div):
        return _is_constant(tau.left, -1)
    return (
        isinstance(tau, ast.BinOp)
        and isinstance(tau.op, ast.Add)
        and _is_constant(tau.right, 1)
    )


def _hand_quotient(value):
    return any(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Div)
        and (_reads_value(n.left) or _reads_value(n.right))
        for n in ast.walk(value)
    )


def _calls(name, skip):
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == skip:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == name
            ):
                yield path.name, node


def test_point_actions_go_through_act():
    sites = [
        f"{fname}:{call.lineno}"
        for fname, call in _calls("ModularPoint", "modular.py")
        if _hand_action(_argument(call, 0, "tau"))
    ]
    assert not sites, sites


def test_quotients_go_through_series_value():
    sites = [
        f"{fname}:{call.lineno}"
        for fname, call in _calls("SeriesValue", "core.py")
        if _hand_quotient(_argument(call, 0, "value"))
    ]
    assert not sites, sites


# The suites whose laws live in ``modular.LAWS``, and the two residual
# helpers of ``mock``: they read their factors from the table.
TABLE_READERS = {
    "suites.py": (
        "suite_thm11a", "suite_thm11b", "suite_thm13a", "suite_thm13b", "suite_thm13c",
        "suite_thm13d", "suite_lem22", "suite_lem23", "suite_lem24", "suite_theta_S",
        "suite_theta_quasi", "_law_checks",
    ),
    "suites_lattice.py": (
        "suite_prop32b", "suite_prop33b", "suite_prop33c", "suite_prop37", "suite_prop38",
        "_lattice_shifts",
    ),
    "mock.py": ("phi_shift_residual_a", "phi_elliptic_residual"),
}
FACTOR_BUILDERS = {"cexp"}


def _builds_factor(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in FACTOR_BUILDERS
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "cmath"
    )


def test_table_readers_write_no_factor():
    """No law factor is built outside the table: a suite whose law is in
    ``modular.LAWS``, or a residual helper of ``mock``, calls no
    ``cmath`` function or ``cexp``."""
    sites = []
    for fname, names in TABLE_READERS.items():
        tree = ast.parse((PACKAGE / fname).read_text())
        defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert set(names) <= set(defs), set(names) - set(defs)
        for name in names:
            sites += [
                f"{fname}:{node.lineno} {name}"
                for node in ast.walk(defs[name])
                if isinstance(node, ast.Call) and _builds_factor(node)
            ]
    assert not sites, sites
