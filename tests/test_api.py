import importlib
import pkgutil

import epcag


def test_every_public_name_resolves():
    # the package's and each submodule's __all__ name only what exists
    modules = [epcag] + [importlib.import_module(f"epcag.{info.name}")
                         for info in pkgutil.iter_modules(epcag.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert len(modules) > 5 and not missing
