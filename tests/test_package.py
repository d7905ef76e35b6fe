"""The package's public names: pinned, each the object its module defines,
and read from that module only when first used.

The package has no ``__all__``, so the list is pinned here.
"""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mocktheta

SRC = str(Path(mocktheta.__file__).resolve().parent.parent)

PUBLIC = {
    "core": ["DEFAULT_POLICY", "ModularPoint", "SeriesValue", "TruncationPolicy", "gauss_E",
             "gauss_E_complement", "gauss_E_complement_scaled", "q_pow"],
    "errors": ["ConditionViolation", "InfiniteSet", "MockThetaError", "NonConvergent",
               "NotPositiveDefinite", "PoleAtZ1", "PoleProximity", "SingularDecomposition",
               "UnsupportedCase", "ZeroDivisorProximity"],
    "theta": ["eta", "theta_ab", "theta_jm", "theta_jm_signed"],
    "mock": ["MockIndex", "phi", "phi_elliptic_residual", "phi_shift_residual_a"],
    "modifier": ["phi_add", "phi_tilde", "r_jm", "r_jm_signed"],
    "modular": ["SL2Element", "act", "sample_points", "verify_law"],
    "lattice": ["LatticeContext", "LatticeData", "ModificationResult", "SignCharacter", "Weight",
                "build_modification", "eval_modified", "lattice_mock_theta", "lattice_theta",
                "mu_class_representatives", "projection_split", "validate_context"],
    "superalg": ["SuperalgebraPreset", "WeightSpec", "enumerate_omega", "integrable", "preset",
                 "weyl_sharp_orbit"],
    "characters": ["ch_tilde", "level1_osp_supercharacter", "psi_fn", "system"],
    "smatrix": ["SMatrix", "apply_smatrix_check", "apply_tmatrix_check", "smatrix"],
    "suites": ["SUITES", "list_suites", "run_suite"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_public_names_are_pinned():
    public = sorted(
        name for name in dir(mocktheta)
        if not name.startswith("_") and not isinstance(getattr(mocktheta, name), types.ModuleType)
    )
    assert public == NAMES
    assert len(NAMES) == 63
    assert mocktheta.__version__ == "0.1.0"
    assert not hasattr(mocktheta, "no_such_name")


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_the_object_its_module_defines(module):
    mod = importlib.import_module(f"mocktheta.{module}")
    for name in PUBLIC[module]:
        assert getattr(mocktheta, name) is getattr(mod, name), name


def test_dir_lists_names_before_use_and_smatrix_stays_the_function():
    # a fresh interpreter, so the submodules are imported before the name is read
    code = f"""
import json, sys
sys.path.insert(0, {SRC!r})
from fractions import Fraction as F
import mocktheta
missing = sorted(set({NAMES!r}) - set(dir(mocktheta)))
import mocktheta.smatrix
import mocktheta.suites
callable_ = callable(mocktheta.smatrix)
sm = mocktheta.smatrix("d21a", F(-1, 2), (1, 1))
print(json.dumps([missing, callable_, len(sm.labels)]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    missing, callable_, size = json.loads(proc.stdout)
    assert (missing, callable_) == ([], True)
    assert size > 0
