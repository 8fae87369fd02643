"""Every name the package exports resolves: a removed class or function must
leave ``otslice.__all__`` with it, or ``from otslice import *`` breaks. And
``import otslice`` stays cheap: it does not load the slow scipy subpackages."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import otslice


@pytest.mark.parametrize("name", otslice.__all__)
def test_exported_name_resolves(name):
    assert getattr(otslice, name) is not None


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # they took about half the import time; the assignment solve and
    # convergence_suite import them when they run
    src = str(Path(otslice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, otslice; print(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
