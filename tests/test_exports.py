"""Every robustctl module declares ``__all__``, and every name in it resolves."""

import importlib
import importlib.util
import pathlib
import pkgutil

import robustctl


def test_every_exported_name_resolves():
    # a module without __all__ reports "__all__" missing; a stale entry breaks `import *`
    for info in pkgutil.iter_modules(robustctl.__path__):
        module = importlib.import_module(f"robustctl.{info.name}")
        missing = [name for name in getattr(module, "__all__", ["__all__"])
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_every_traced_target_resolves():
    # perfbench's traced run wraps these attributes; a renamed or deleted one
    # would break only `perfbench/run.py --trace 1`, so check them here
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attribute, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            assert hasattr(owner, part), (module, attribute)
            owner = getattr(owner, part)
        assert callable(owner), (module, attribute)
