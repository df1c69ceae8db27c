"""Which SciPy subpackages a run loads: scipy.optimize (NNLS) only for a
fast run's compression, scipy.integrate (quad) only for the mlf oracle."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import math, sys
import fracvisco.cli
from fracvisco import mlf
from fracvisco.mesh import build_mesh
from fracvisco.problems import get_problem
from fracvisco.stepper import Scheme, run

LAZY = {"scipy.optimize", "scipy.integrate"}
mesh, prob = build_mesh("quad", 3), get_problem("ex61")
run(prob, mesh, Scheme.DIRECT, 4)
assert not LAZY & sys.modules.keys(), LAZY & sys.modules.keys()
run(prob, mesh, Scheme.FAST, 4)
assert "scipy.optimize" in sys.modules
# E_1/2(-sqrt(t)) = e^t erfc(sqrt(t))
exact = math.exp(2.0) * math.erfc(math.sqrt(2.0))
assert abs(mlf.ml_integral(0.5, 2.0) - exact) < 1e-12, exact
"""


def test_direct_run_loads_neither_optimize_nor_integrate():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-2000:]
