import importlib
import pkgutil

import pytest

import helmskel

# __main__ runs the command line when imported
_MODULES = sorted(m.name for m in pkgutil.iter_modules(helmskel.__path__)
                  if m.name != "__main__")


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is gone breaks star imports
    module = importlib.import_module(f"helmskel.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
