"""numpy is the only runtime dependency.

Each check runs in a fresh interpreter, so modules that other tests (or
the test runner) imported cannot hide an import made by the library.
"""

import json
import subprocess
import sys
from pathlib import Path

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
