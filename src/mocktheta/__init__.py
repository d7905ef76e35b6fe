"""Numerical mock theta functions, their real-analytic completions, and
affine superalgebra supercharacter assembly, with a verification suite for
every transformation law the library claims.

Importing the package loads no layer: each public name below is imported
from its module on first use (PEP 562).  No evaluation loads numpy; only
the section 3-6 suites and the naive oracles they check against do.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

_PUBLIC = {
    "core": (
        "ModularPoint",
        "SeriesValue",
        "gauss_E",
        "gauss_E_complement",
        "gauss_E_complement_scaled",
    ),
    "errors": (
        "ConditionViolation",
        "InfiniteSet",
        "MockThetaError",
        "NonConvergent",
        "NotPositiveDefinite",
        "PoleAtZ1",
        "PoleProximity",
        "SingularDecomposition",
        "UnsupportedCase",
        "ZeroDivisorProximity",
    ),
    "theta": ("eta", "theta_ab", "theta_jm", "theta_jm_signed"),
    "mock": ("MockIndex", "phi", "phi_elliptic_residual", "phi_shift_residual_a"),
    "modifier": ("phi_add", "phi_tilde", "r_jm", "r_jm_signed"),
    "modular": ("SL2Element", "act", "sample_points", "verify_law"),
    "lattice": (
        "LatticeContext",
        "LatticeData",
        "ModificationResult",
        "SignCharacter",
        "Weight",
        "build_modification",
        "eval_modified",
        "lattice_mock_theta",
        "lattice_theta",
        "mu_class_representatives",
        "validate_context",
    ),
    "superalg": (
        "SuperalgebraPreset",
        "WeightSpec",
        "enumerate_omega",
        "integrable",
        "preset",
        "weyl_sharp_orbit",
    ),
    "characters": ("ch_tilde", "level1_osp_supercharacter", "psi_fn", "system"),
    "smatrix": ("SMatrix", "apply_smatrix_check", "apply_tmatrix_check", "smatrix"),
    "suites": ("SUITES", "list_suites", "run_suite"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))


class _Package(_ModuleType):
    """The package's module type.  Importing a submodule binds it on the
    package; where that name is a public function (``smatrix``), the
    binding is dropped, so ``mocktheta.smatrix`` stays the function."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
