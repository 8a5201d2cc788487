"""What importing radiant loads, checked in fresh interpreters."""

import json
import os
import subprocess
import sys
from pathlib import Path

import radiant

SRC = Path(radiant.__file__).resolve().parent.parent

# scipy's heavy compiled parts; none is needed before chamfer runs
HEAVY = ["scipy.spatial._ckdtree", "scipy.sparse", "scipy.linalg", "scipy.special",
         "scipy.ndimage"]

# chamfer on seeded sets with duplicates and ties, next to the formula on
# median-split trees (as in test_metrics' test_bits_equal_balanced_tree_formula)
CHAMFER = """
import numpy as np
rng = np.random.default_rng(3)
a = rng.uniform(-1, 1, size=(7, 3))
b = np.round(rng.uniform(-1, 1, size=(300, 3)), 1)
got = radiant.metrics.chamfer(a, b)
from scipy.spatial import cKDTree
d_ab, _ = cKDTree(b).query(a)
d_ba, _ = cKDTree(a).query(b)
want = float(np.mean(d_ab**2) + np.mean(d_ba**2))
out["got"], out["want"] = float.hex(got), float.hex(want)
"""


def run_fresh(code: str) -> dict:
    """Run code in a new interpreter that imports radiant from this tree; the
    code fills the dict `out`, which comes back through JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = f"import json, sys\nout = {{}}\n{code}\nprint(json.dumps(out))\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy_code():
    out = run_fresh(
        "import radiant.cli\n"
        f"out['heavy'] = [m for m in {HEAVY!r} if m in sys.modules]\n"
        "out['scipy'] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n")
    assert out["heavy"] == []
    # only the lazy placeholder, whose code has not run
    assert out["scipy"] == ["scipy.spatial"]


def test_chamfer_loads_scipy_spatial_on_first_call():
    out = run_fresh("import radiant.cli\nimport radiant.metrics\n" + CHAMFER
                    + "out['ckdtree'] = 'scipy.spatial._ckdtree' in sys.modules\n")
    assert out["ckdtree"]
    assert out["got"] == out["want"]


def test_scipy_spatial_imported_first_is_used_as_it_is():
    out = run_fresh(
        "import scipy.spatial\nfirst = scipy.spatial\nimport radiant.metrics\n" + CHAMFER
        + "out['same'] = sys.modules['scipy.spatial'] is first\n")
    assert out["same"]
    assert out["got"] == out["want"]
