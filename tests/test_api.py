import importlib
import pkgutil

import qbloch


def test_every_exported_name_resolves():
    """Every name in the package's __all__ and in each submodule's __all__
    exists, so a deleted or renamed name cannot break a star import."""
    mods = [qbloch] + [importlib.import_module(f"qbloch.{m.name}")
                       for m in pkgutil.iter_modules(qbloch.__path__)]
    missing = [f"{mod.__name__}.{n}" for mod in mods
               for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
    for mod in mods:
        exec(f"from {mod.__name__} import *", {})
