import importlib
import pkgutil

import pytest

import primeflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(primeflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module must not stay exported
    module = importlib.import_module(f"primeflow.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
