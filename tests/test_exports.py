"""Every robustctl module declares ``__all__``, and every name in it resolves."""

import importlib
import pkgutil

import robustctl


def test_every_exported_name_resolves():
    # a module without __all__ reports "__all__" missing; a stale entry breaks `import *`
    for info in pkgutil.iter_modules(robustctl.__path__):
        module = importlib.import_module(f"robustctl.{info.name}")
        missing = [name for name in getattr(module, "__all__", ["__all__"])
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)
