"""Tests pinning the space-exact temporal oracle used by acceptance criteria 2
and 3: it converges in the number of sine modes, it reproduces the values
pinned in test_acceptance.py, and it stays independent of the code it checks,
as does the lag-weight replay of lag_replay.py.
"""

import ast
import math
from pathlib import Path

import numpy as np

from fracvisco.mlf import kernel_antiderivative
from spectral_oracle import convolution_factor, lag_weights, temporal_errors
from test_acceptance import (ORACLE_MODES_EX61, ORACLE_MODES_EX62,
                             ORACLE_SPOT_TEMPORAL, ORACLE_SPOT_TEMPORAL_FINE,
                             ORACLE_TEMPORAL_05, SPOT_FINE_STEPS, TEMPORAL_NS)

PIN_RTOL = 0.01


def test_converges_in_modes():
    coarse, fine = (temporal_errors("ex62", 0.5, (40,), k)[0]
                    for k in (24, 32))
    assert abs(coarse - fine) <= PIN_RTOL * fine


def test_reproduces_pinned_ex61_ladder():
    errs = temporal_errors("ex61", 0.5, TEMPORAL_NS, ORACLE_MODES_EX61)
    assert np.allclose(errs, ORACLE_TEMPORAL_05, rtol=PIN_RTOL, atol=0.0)


def test_reproduces_pinned_ex62_spot():
    errs = temporal_errors("ex62", 0.5, (40, SPOT_FINE_STEPS),
                           ORACLE_MODES_EX62)
    want = [ORACLE_SPOT_TEMPORAL, ORACLE_SPOT_TEMPORAL_FINE]
    assert np.allclose(errs, want, rtol=PIN_RTOL, atol=0.0)


def test_convolution_factor_exponential_kernel():
    # alpha = 1: beta(t) = e^{-t/tau}, so I(t) = (e^{-t} - e^{-t/tau}) / (1/tau - 1)
    tau = 0.5
    times = np.linspace(0.1, 1.0, 10)
    want = (np.exp(-times) - np.exp(-times / tau)) / (1.0 / tau - 1.0)
    assert np.allclose(convolution_factor(1.0, tau, times), want,
                       rtol=1e-11, atol=0.0)


def test_lag_weights_telescope():
    w = lag_weights(0.5, 0.5, 0.05, 20)
    assert np.all(w > 0.0)
    assert math.isclose(w.sum(), kernel_antiderivative(0.5, 0.5, 1.0),
                        rel_tol=1e-13)


def _package_imports(name: str) -> dict[str, set[str]]:
    """fracvisco module -> names imported from it by tests/<name>."""
    tree = ast.parse((Path(__file__).parent / name).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    return {m: names for m, names in imported.items()
            if m == "fracvisco" or m.startswith("fracvisco.")}


def test_independent_of_checked_code():
    package = _package_imports("spectral_oracle.py")
    assert set(package) <= {"fracvisco.mlf", "fracvisco.problems"}, package
    assert package.get("fracvisco.problems", set()) <= {"get_problem"}
    # the lag replay checks the stepper: it may take the lag weights of an
    # exponential sum, but none of the stepping code
    package = _package_imports("lag_replay.py")
    assert "fracvisco" not in package, package
    assert "fracvisco.stepper" not in package, package
    assert package.get("fracvisco.soe", set()) <= {"theta_weights"}, package

