"""Start-up cost: the exact-engine commands run without scipy.linalg.

Each check runs the commands in a fresh interpreter, since this test
process has long since imported SciPy for the float-engine tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import scipy.linalg

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import json, sys
from mems4.cli import main
codes = [main(argv + ["--out", sys.argv[1]]) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "linalg": "scipy.linalg" in sys.modules}))
"""


def _run_fresh(tmp_path, *commands) -> dict:
    """Exit codes of the commands, run one after another in a new
    interpreter, and whether scipy.linalg was loaded at the end."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_engine_commands_do_not_load_scipy_linalg(tmp_path):
    out = _run_fresh(
        tmp_path,
        ["bounds", "--n", "1..12"],
        ["certify", "m3-gap", "--n", "16..18"],
        ["search-subsolution", "--dim", "17", "--family", "touchdown-m", "--m", "3"],
    )
    assert out == {"codes": [0, 1, 0], "linalg": False}  # m3-gap fails at N = 16


def test_float_command_loads_scipy_linalg(tmp_path):
    out = _run_fresh(tmp_path, ["pullin", "--dim", "2", "--mesh", "64", "--rel-width", "1e-3"])
    assert out == {"codes": [0], "linalg": True}


def test_numpy_and_scipy_share_linalg_error():
    # branch.py catches numpy's class for a failure raised by scipy.linalg.
    assert numpy.linalg.LinAlgError is scipy.linalg.LinAlgError
