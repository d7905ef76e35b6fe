"""numpy is the only runtime dependency, and the rank-1, Omega, rank-1
verification and closed-form S-matrix paths do not load it.

Each check runs in a fresh interpreter, so modules that other tests (or
the test runner) imported cannot hide an import made by the library.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import mocktheta

SRC = str(Path(mocktheta.__file__).resolve().parent.parent)

# eval r-jm at this point reaches the continued-fraction branch of
# core.gauss_E_complement_scaled (sqrt(pi) x >= 26)
COMMANDS = [
    ["verify", "all"],
    ["eval", "r-jm", "--j=1", "--m=3", "--tau=0.13+1.9i", "--z=0.3+0.07i"],
    ["chartable", "--case", "sl21", "--k", "1", "--points", "2"],
]


def _run_child(code):
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_runs_with_scipy_unimportable():
    codes = _run_child(
        f"""
import contextlib, io, json
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from mocktheta.cli import main
codes = []
for argv in {COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""
    )
    assert codes == [0] * len(COMMANDS)


def test_import_loads_no_scipy():
    loaded = _run_child(
        """
import json
import mocktheta
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    )
    assert loaded == []


# what the rank-1 functions and the Omega tables never need
HEAVY = ("numpy", "mocktheta.lattice", "mocktheta.characters", "mocktheta.smatrix",
         "mocktheta.suites")
NUMPY_FREE_IMPORTS = ("mocktheta", "mocktheta.mock", "mocktheta.modifier", "mocktheta.superalg")
NUMPY_FREE_COMMANDS = [
    ["eval", "phi", "--m=1", "--s=0", "--tau=0.1+1.1i", "--z1=0.3+0.05i", "--z2=0.2-0.03i"],
    ["eval", "phi-tilde", "--m=2", "--s=1", "--tau=0.1+1.1i", "--z1=0.3+0.05i",
     "--z2=0.2-0.03i"],
    ["table", "omega", "--case", "d21a", "--k=-1/2"],
]


@pytest.mark.parametrize("module", NUMPY_FREE_IMPORTS)
def test_rank1_modules_load_no_numpy(module):
    loaded = _run_child(
        f"""
import json
import {module}
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""
    )
    assert loaded == []


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_rank1_and_omega_commands_load_no_numpy(argv):
    code, loaded = _run_child(
        f"""
import contextlib, io, json
from mocktheta.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, [m for m in {HEAVY!r} if m in sys.modules]]))
"""
    )
    assert (code, loaded) == (0, [])


# what verifying a rank-1 law never needs; the suites module itself loads
SUITE_HEAVY = ("numpy", "mocktheta.lattice", "mocktheta.characters", "mocktheta.smatrix",
               "mocktheta.superalg", "mocktheta.suites_lattice")
RANK1_SUITES = ("thm1.1a", "thm1.1b", "cor1.2", "thm1.3a", "thm1.3b", "thm1.3c", "thm1.3d",
                "cor1.4a", "lem2.2", "lem2.3", "lem2.4", "lem2.10", "eq1.19", "eq1.20",
                "theta-S", "theta-quasi")


@pytest.mark.parametrize(
    "argv", [["list-suites"]] + [["verify", sid] for sid in RANK1_SUITES],
    ids=lambda argv: "-".join(argv),
)
def test_catalog_and_rank1_suites_load_no_numpy(argv):
    code, loaded = _run_child(
        f"""
import contextlib, io, json
from mocktheta.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, [m for m in {SUITE_HEAVY!r} if m in sys.modules]]))
"""
    )
    assert (code, loaded) == (0, [])


# what building a closed-form S-matrix never needs; sl21 and osp42 load the
# character layer for their lattice level rule
SMATRIX_HEAVY = ("numpy", "mocktheta.lattice", "mocktheta.characters")
CLOSED_FORM_SMATRIX_COMMANDS = [
    ["smatrix", "--case", "d21a", "--output", "csv"],
    ["smatrix", "--case", "osp_level1"],
    ["smatrix", "--case", "osp32_sub", "--k=-3/4"],
]


def test_smatrix_module_loads_no_numpy():
    loaded = _run_child(
        f"""
import json
import mocktheta.smatrix
print(json.dumps([m for m in {SMATRIX_HEAVY!r} if m in sys.modules]))
"""
    )
    assert loaded == []


@pytest.mark.parametrize("argv", CLOSED_FORM_SMATRIX_COMMANDS, ids=lambda argv: argv[2])
def test_closed_form_smatrix_commands_load_no_numpy(argv):
    code, loaded = _run_child(
        f"""
import contextlib, io, json
from mocktheta.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, [m for m in {SMATRIX_HEAVY!r} if m in sys.modules]]))
"""
    )
    assert (code, loaded) == (0, [])
