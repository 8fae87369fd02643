"""Every name the package exports resolves: a removed class or function must
leave ``otslice.__all__`` with it, or ``from otslice import *`` breaks."""

import pytest

import otslice


@pytest.mark.parametrize("name", otslice.__all__)
def test_exported_name_resolves(name):
    assert getattr(otslice, name) is not None

