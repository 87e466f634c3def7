"""Every docstring example in the package runs and passes."""

import doctest
import importlib
import pkgutil

import pytest

import equiloday

MODULES = sorted(m.name for m in pkgutil.iter_modules(equiloday.__path__, "equiloday."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_exactalg_examples_run():
    # the module docstring carries worked examples: they must be attempted
    from equiloday import exactalg
    assert doctest.testmod(exactalg).attempted >= 1
