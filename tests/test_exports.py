"""Every exported name resolves: a deletion leaves no stale export."""
import importlib

import pytest


@pytest.mark.parametrize("module", ["ddlab", "ddlab.dde", "ddlab.maps",
                                    "ddlab.gaussian", "ddlab.runner"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
