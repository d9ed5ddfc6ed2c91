import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_exported(name):
    # every public function or class a module defines is in its __all__
    module = importlib.import_module(f"primeflow.{name}")
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    missing = sorted(set(defined) - set(getattr(module, "__all__", ())))
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_reexports_are_the_defining_objects(name):
    # a name exported from a module that another module defines (such as
    # observables.TorusObservable, defined in roofs) is the very object the
    # defining module exports, not a copy
    module = importlib.import_module(f"primeflow.{name}")
    for n in getattr(module, "__all__", ()):
        home = getattr(getattr(module, n), "__module__", module.__name__)
        if home != module.__name__:
            origin = importlib.import_module(home)
            assert n in origin.__all__
            assert getattr(origin, n) is getattr(module, n)
