"""Start-up cost: the exact-engine commands run without numpy and
SciPy; the float commands load numpy and SciPy's compiled LAPACK module
scipy.linalg._flapack, but not the scipy.linalg package.

Each check runs the commands in a fresh interpreter, since this test
process has long since imported both for the float-engine tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import json, sys
from mems4.cli import main
codes = [main(argv + ["--out", sys.argv[1]]) for argv in json.loads(sys.argv[2])]
out = {"codes": codes, "numpy": "numpy" in sys.modules, "linalg": "scipy.linalg" in sys.modules,
       "flapack": "scipy.linalg._flapack" in sys.modules}
"""


def _fresh(code: str, *args: str) -> dict:
    """The JSON object that ``code`` prints last, run in a new interpreter."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _run_fresh(tmp_path, *commands, then: str = "") -> dict:
    """Exit codes of the commands, run one after another in a new
    interpreter, and whether numpy, scipy.linalg and its _flapack were
    loaded at the end; ``then`` runs after them and may add to ``out``."""
    return _fresh(_CHILD + then + "print(json.dumps(out))", str(tmp_path), json.dumps(commands))


def test_exact_engine_commands_do_not_load_scipy_linalg(tmp_path):
    out = _run_fresh(
        tmp_path,
        ["bounds", "--n", "1..12"],
        ["certify", "m3-gap", "--n", "16..18"],
        ["search-subsolution", "--dim", "17", "--family", "touchdown-m", "--m", "3"],
    )
    # m3-gap fails at N = 16; m = 3's checks go to Sturm isolation.
    assert out == {"codes": [0, 1, 0], "numpy": False, "linalg": False, "flapack": False}


def test_high_degree_search_loads_no_numpy(tmp_path):
    # m = 11/2's checks pass certify.STURM_DEGREE: the Bernstein sign test
    # decides them in integers, so every check is decided without numpy.
    out = _run_fresh(
        tmp_path, ["search-subsolution", "--dim", "17", "--family", "touchdown-m", "--m", "11/2"],
    )
    assert out == {"codes": [0], "numpy": False, "linalg": False, "flapack": False}
    search = json.loads(next(tmp_path.rglob("search.json")).read_text())
    statuses = {k: c["status"] for k, c in search["candidates"][0]["checks"].items()}
    assert statuses == {"range-lower": "verified", "range-upper": "verified",
                        "subsolution": "falsified", "semistable": "verified"}


def test_float_command_loads_flapack_not_scipy_linalg(tmp_path):
    # The operator loads SciPy's compiled LAPACK module by itself; a later
    # import of scipy.linalg reuses that module, not a second copy.
    out = _run_fresh(
        tmp_path, ["pullin", "--dim", "2", "--mesh", "64", "--rel-width", "1e-3"],
        then="""
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg.lapack
out["same"] = scipy.linalg.lapack.dpbtrs is flapack.dpbtrs
out["registered"] = sys.modules["scipy.linalg._flapack"] is flapack
""")
    assert out == {"codes": [0], "numpy": True, "linalg": False, "flapack": True,
                   "same": True, "registered": True}


def test_cli_resolves_branch_entry_points():
    # perfbench's tracer wraps these names on mems4.cli and restores them
    # from the module's namespace.
    out = _fresh("""
import json
import mems4.cli
names = ("pull_in_voltage", "continue_branch")
found = [getattr(mems4.cli, n) for n in names]  # loads the float engine
import mems4.branch
print(json.dumps({
    "same": [f is getattr(mems4.branch, n) for f, n in zip(found, names)],
    "bound": [n in vars(mems4.cli) for n in names],
}))
""")
    assert out == {"same": [True, True], "bound": [True, True]}

