"""Every robustctl module declares ``__all__``, and every name in it resolves."""

import ast
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


def _imported_modules(path: pathlib.Path) -> set:
    """The robustctl modules a source file imports, by bare name, wherever the import stands."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                names.add(node.module.split(".")[0])
            elif node.level:
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("robustctl."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("robustctl."))
    return names


def test_the_layers_import_downward_only():
    # the grid and its tables sit below the strategies that read them, and
    # both sit below the engine that plays them
    src = pathlib.Path(robustctl.__file__).resolve().parent
    imports = {path.stem: _imported_modules(path) for path in src.glob("*.py")}
    assert imports["game_engine"] >= {"pde_solver", "strategies"}
    assert not imports["pde_solver"] & {"strategies", "game_engine"}, imports["pde_solver"]
    assert not imports["strategies"] & {"pde_solver", "game_engine"}, imports["strategies"]


def _private_reads(path: pathlib.Path) -> list:
    """Underscore names a source file imports from, or reads off, another robustctl module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "")
                                                 .startswith("robustctl")):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
            # `from . import game_engine as ge` binds a module
            if node.level and not node.module:
                modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.startswith("robustctl"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    # a private name is one module's own business; what another module needs
    # is public and listed in __all__
    src = pathlib.Path(robustctl.__file__).resolve().parent
    reads = {path.stem: _private_reads(path) for path in src.glob("*.py")}
    assert not any(reads.values()), reads
