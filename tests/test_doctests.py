"""Doctests for the documented public entry points run as tier-1 tests.

CI additionally runs ``pytest --doctest-modules`` over the homotopy and
tracker packages; this file pins the same examples (plus the executor
and Pieri-solver ones) inside the main suite so a doc regression fails
everywhere, not just in the docs job.
"""

import doctest
import importlib

import pytest

DOCUMENTED_MODULES = [
    "repro.homotopy.solve",
    "repro.homotopy.counts",
    "repro.tracker",
    "repro.tracker.stacked",
    "repro.tracker.predictor",
    "repro.linalg.dets",
    "repro.parallel.executors",
    "repro.schubert.solver",
    "repro.schubert.brackets",
    "repro.polyhedral.supports",
    "repro.polyhedral.cells",
    "repro.polyhedral.binomial",
    "repro.polyhedral.lp",
    "repro.polyhedral.homotopy",
    "repro.endgame",
    "repro.systems.deficient",
    "repro.kernels",
    "repro.telemetry",
    "repro.telemetry.core",
    "repro.parallel.fleet.protocol",
    "repro.parallel.fleet.messages",
    "repro.simcluster.fleet_sim",
    "repro.artifacts",
    "repro.artifacts.fingerprints",
    "repro.homotopy.coefficient",
    "repro.serve",
]


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_module_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module_name} lost its doctest examples"
    assert result.failed == 0, f"{module_name}: {result.failed} doctest failures"
