"""Every robustctl module declares ``__all__``, and every name in it resolves."""

import ast
import importlib
import inspect
import os
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


def _traced_targets() -> list:
    """perfbench's TARGETS, read from its source without running it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no TARGETS")


def test_every_traced_target_resolves():
    # perfbench's traced run wraps these attributes; a renamed or deleted one
    # would break only `perfbench/run.py --trace 1`, so check them here
    targets = _traced_targets()
    assert targets
    for module, attribute, _ in targets:
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            assert hasattr(owner, part), (module, attribute)
            owner = getattr(owner, part)
        assert callable(owner), (module, attribute)


def test_the_traced_counters_read_what_the_package_gives(tmp_path):
    # the traced run counts node layers from solve_isaacs's bound ``grid``
    # argument and bytes from the paths emit_report returns
    from robustctl.pde_solver import solve_isaacs
    from robustctl.reports import emit_report

    names = {span for _, _, span in _traced_targets()}
    assert {"pde_solver.solve_isaacs", "reports.emit_report"} <= names
    assert "grid" in inspect.signature(solve_isaacs).parameters
    paths = emit_report({"a": 1}, {"t": (["x"], [[1.5]])}, str(tmp_path))
    assert sorted(paths) == sorted(str(p) for p in tmp_path.iterdir())
    assert sum(os.path.getsize(p) for p in paths) > 0


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


# every robustctl module's robustctl imports, in full.  Errors sit at the
# bottom and the SDE primitives on them; the Hamiltonians and the strategies
# sit on the SDE primitives, the grid and its tables (pde_solver) on the
# Hamiltonians, and the engine on all of them: its table fold is minimax
LAYERS = {
    "errors": set(),
    "sde_core": {"errors"},
    "reports": {"errors"},
    "problems": {"errors", "sde_core"},
    "hamiltonian": {"errors", "sde_core"},
    "strategies": {"errors", "sde_core"},
    "pde_solver": {"errors", "hamiltonian", "sde_core"},
    "game_engine": {"errors", "hamiltonian", "pde_solver", "sde_core", "strategies"},
    "config": {"errors", "problems"},
    "runner": {"config", "errors", "game_engine", "hamiltonian", "pde_solver", "problems",
               "reports", "sde_core", "strategies"},
    "cli": {"config", "errors", "runner"},
    "__init__": {"errors", "game_engine", "hamiltonian", "pde_solver", "problems", "runner",
                 "sde_core", "strategies"},
}


def test_the_layers_import_downward_only():
    # a new edge, upward or sideways, fails here until the map records it
    src = pathlib.Path(robustctl.__file__).resolve().parent
    imports = {path.stem: _imported_modules(path) for path in src.glob("*.py")}
    assert imports == LAYERS
    # and the map itself has no cycle: each module's imports come before it
    order = list(LAYERS)
    assert all(order.index(dep) < order.index(module)
               for module, deps in LAYERS.items() for dep in deps)


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
