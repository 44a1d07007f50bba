"""The package namespace re-exports the layer modules' public API."""
import inspect

import pytest

import logmeasure
from logmeasure import criteria, energy, fractal, measures, planar


@pytest.mark.parametrize("module", [measures, fractal, energy, criteria, planar],
                         ids=lambda m: m.__name__)
def test_reexports_exactly_the_public_functions_and_classes(module):
    public = {name for name in module.__all__
              if inspect.isfunction(getattr(module, name))
              or inspect.isclass(getattr(module, name))}
    reexported = {name for name, obj in vars(logmeasure).items()
                  if (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == module.__name__}
    assert reexported == public
    assert all(getattr(logmeasure, name) is getattr(module, name) for name in public)
