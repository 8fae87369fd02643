"""Every name the package exports resolves: a removed class or function must
leave ``otslice.__all__`` with it, or ``from otslice import *`` breaks. The
direction sweep is bound in ``ot1d`` alone, where the tests patch it. And
``import otslice`` stays cheap: it does not load the slow scipy subpackages."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import otslice
from otslice import maxsliced, ot_exact, sliced


@pytest.mark.parametrize("name", otslice.__all__)
def test_exported_name_resolves(name):
    assert getattr(otslice, name) is not None


def test_direction_sweep_is_bound_in_ot1d_alone():
    # the chunk tests patch CHUNK_ELEMENTS, _pairings and wasserstein_pp_batch in
    # ot1d; a copy bound in another module would leave them patching nothing
    for module in (ot_exact, maxsliced):
        assert not [name for name, obj in vars(module).items()
                    if obj is sliced or getattr(obj, "__module__", None) == "otslice.sliced"]
    sweep = {"_chunks", "_projections", "_pairings", "_equal_uniform", "CHUNK_ELEMENTS"}
    assert not sweep & set(vars(maxsliced))
    assert not {"CHUNK_ELEMENTS", "wasserstein_pp_batch"} & set(vars(sliced))


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # they took about half the import time; convergence_suite imports
    # scipy.stats when it runs, and nothing imports scipy.optimize
    src = str(Path(otslice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, otslice; print(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def _loaded_scipy(code):
    """Names of the scipy modules loaded after ``code`` runs in a fresh interpreter."""
    src = str(Path(otslice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += "\nprint(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    assert _loaded_scipy("import sys, otslice") == "[]"


def test_weighted_paths_load_no_scipy(tmp_path):
    # the cost matrix is numpy's: W, SW, the certified search and the audit
    # on weighted pairs need no scipy module at all
    a, b, out = (str(tmp_path / name) for name in ("a.csv", "b.csv", "out.json"))
    code = f"""
import sys
import numpy as np
from otslice import cli, experiments, make_discrete, save_measure
rng = np.random.default_rng(5)
save_measure({a!r}, make_discrete(rng.standard_normal((7, 2)), rng.dirichlet(np.ones(7))))
save_measure({b!r}, make_discrete(rng.standard_normal((9, 2)), rng.dirichlet(np.ones(9))))
assert cli.main(["dist", {a!r}, {b!r}, "--metric", "all", "--p", "2", "--certified",
                 "--tol", "1e-4", "--threads", "1", "--out", {out!r}]) == 0
experiments.inequality_audit(d_list=[2, 3], p_list=[1, 2], instances_per_cell=1, seed=3)
"""
    assert _loaded_scipy(code) == "[]"


def test_rates_path_loads_no_scipy_package():
    # the assignment solve loads scipy's compiled _lsap module on its own: no
    # scipy.optimize, whose __init__ pulls in scipy.linalg, linprog and OpenBLAS
    code = """
import sys
import numpy as np
from otslice import experiments, make_discrete, wasserstein_exact
experiments.rate_experiment(d=3, n_list=[4, 8, 16, 32], reps=1, seed=2)
rng = np.random.default_rng(6)
wasserstein_exact(make_discrete(rng.random((12, 3))), make_discrete(rng.random((12, 3))), 1.5)
"""
    assert _loaded_scipy(code) == "[]"  # no scipy.optimize, scipy.linalg or even scipy
