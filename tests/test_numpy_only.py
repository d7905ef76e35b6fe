"""The library has no runtime dependency: every CLI command, ``verify all``
included, runs with numpy and scipy unimportable, and the lazy layers
stay unloaded where a command does not need them.  The rank-1, Omega and
rank-1 verification paths (the naive oracles among them) load no lattice
layer, and no S-matrix command loads ``lattice`` or ``characters``.

Each check runs in a fresh interpreter in which any import of numpy or
scipy raises ``ImportError``, so modules that other tests (or the test
runner) imported cannot hide an import made by the library.
"""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import mocktheta

SRC = str(Path(mocktheta.__file__).resolve().parent.parent)
BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def _run_child(code):
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            'sys.modules["numpy"] = sys.modules["scipy"] = None\n'
            f"{code}",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    loaded = _run_child(
        """
import json
import mocktheta
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" and sys.modules[m] is not None)))
"""
    )
    assert loaded == []


# what the rank-1 functions and the Omega tables never need
HEAVY = ("mocktheta.lattice", "mocktheta.characters", "mocktheta.smatrix",
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


# what verifying a rank-1 law or the naive oracles never needs; the suites
# module itself loads
SUITE_HEAVY = ("mocktheta.lattice", "mocktheta.characters", "mocktheta.smatrix",
               "mocktheta.superalg", "mocktheta.suites_lattice")
RANK1_SUITES = ("thm1.1a", "thm1.1b", "cor1.2", "thm1.3a", "thm1.3b", "thm1.3c", "thm1.3d",
                "cor1.4a", "lem2.2", "lem2.3", "lem2.4", "lem2.10", "eq1.19", "eq1.20",
                "theta-S", "theta-quasi", "oracles")


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


# what building a closed-form S-matrix never needs; sl21 and osp42 read
# their level rule in closed form
SMATRIX_HEAVY = ("mocktheta.lattice", "mocktheta.characters")
CLOSED_FORM_SMATRIX_COMMANDS = [
    ["smatrix", "--case", "d21a", "--output", "csv"],
    ["smatrix", "--case", "osp_level1"],
    ["smatrix", "--case", "osp32_sub", "--k=-3/4"],
    ["smatrix", "--case", "osp42", "--k", "1"],
    ["smatrix", "--case", "sl21", "--k", "1"],
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


# the character tables of the wired cases
CHARTABLE_COMMANDS = [
    ["chartable", "--case", "sl21", "--k", "1", "--points", "2"],
    ["chartable", "--case", "sl21", "--k", "1", "--points", "2", "--variant", "ch_minus"],
    ["chartable", "--case", "osp32", "--k", "1", "--points", "2"],
    ["chartable", "--case", "osp42", "--k", "1", "--labels", "1/2,1/2", "--points", "2"],
    ["chartable", "--case", "d21a", "--k=-1/2", "--labels", "0,1", "--points", "2"],
]


def test_lattice_and_character_modules_load_no_numpy():
    loaded = _run_child(
        """
import json
import mocktheta.lattice, mocktheta.characters
print(json.dumps(sorted(m for m in ("mocktheta.lattice", "mocktheta.characters")
                        if m in sys.modules)))
"""
    )
    assert loaded == ["mocktheta.characters", "mocktheta.lattice"]


@pytest.mark.parametrize("argv", CHARTABLE_COMMANDS, ids=lambda argv: "-".join(argv[2::2]))
def test_chartable_commands_load_no_numpy(argv):
    code, out = _run_child(
        f"""
import contextlib, io, json
from mocktheta.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main({argv!r})
print(json.dumps([code, buf.getvalue()]))
"""
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(row["re"] for row in rows)  # no row was refused


def test_a_rank2_lattice_mock_theta_loads_no_numpy():
    value = _run_child(
        """
import json
import mocktheta as mt
ctx = mt.LatticeContext(((2, -1), (-1, 2)), 1, 1)
out = mt.lattice_mock_theta(ctx, mt.Weight(1, (0, 0, -1)),
                            mt.ModularPoint(0.1 + 1.1j, (0.3 + 0.05j, -0.13, 0.2 - 0.03j)))
print(json.dumps(abs(out.value)))
"""
    )
    assert value > 0


def test_every_chartable_row_loads_no_numpy():
    count = _run_child(
        f"""
import json
sys.path.insert(0, {BENCH!r})
import workloads
rows = workloads.make_inputs("lattice_char_table", 0)
for spec in rows:
    workloads.run_op(spec)
print(json.dumps(len(rows)))
"""
    )
    assert count > 200


# every command once, verify all among them
COMMANDS = [
    ["verify", "all"],
    ["list-suites"],
    ["eval", "phi", "--m=1", "--s=0", "--tau=0.1+1.1i", "--z1=0.3+0.05i", "--z2=0.2-0.03i"],
    # this point reaches the continued-fraction branch of
    # core.gauss_E_complement_scaled (sqrt(pi) x >= 26)
    ["eval", "r-jm", "--j=1", "--m=3", "--tau=0.13+1.9i", "--z=0.3+0.07i"],
    ["table", "omega", "--case", "d21a", "--k=-1/2"],
    ["table", "preset", "--case", "osp32_sub"],
    *CHARTABLE_COMMANDS,
    *CLOSED_FORM_SMATRIX_COMMANDS,
]


def test_cli_runs_with_scipy_unimportable():
    """Every command succeeds, and all they import beyond the standard
    library is the package itself."""
    codes, loaded = _run_child(
        f"""
import contextlib, io, json
before = set(sys.modules)
from mocktheta.cli import main
codes = []
for argv in {COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
top = {{m.split(".")[0] for m in set(sys.modules) - before}}
print(json.dumps([codes, sorted(top - set(sys.stdlib_module_names))]))
"""
    )
    assert codes == [0] * len(COMMANDS)
    assert loaded == ["mocktheta"]
