"""The benchmark tracer's TARGETS still name functions of otslice.

``perfbench/tracing.py`` wraps each listed name in its home module; a
refactor that moves or deletes one would otherwise surface only in the
benchmark's own smoke check.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """Run the file's source in a fresh module: nothing is written next to it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves_in_its_home_module(name):
    home, attr, _ = TARGETS[name]
    fn = getattr(importlib.import_module(f"otslice.{home}"), attr, None)
    assert inspect.isfunction(fn), f"{name}: otslice.{home} has no function {attr}"
    assert fn.__module__ == f"otslice.{home}", f"{name}: {attr} lives in {fn.__module__}"
